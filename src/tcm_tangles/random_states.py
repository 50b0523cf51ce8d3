"""Random pure states and the residual-tangle positivity sweep.

States are drawn from the unitarily invariant (Haar) measure by
normalizing vectors of independent standard complex Gaussians.  An
alternative product measure (independent Haar state per factor) is
available as a sensitivity check, since a positivity search is only as
convincing as its sampling distribution.

The sweep streams batches through the vectorized residual-tangle kernel,
tracks the running minimum and the count of values below the -1e-9
roundoff threshold, and serializes any sub-threshold state in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .tangles import residual_tangle_batch
from .tensor import DEFAULT_RANK_TOL, PureState, SystemShape, check_rank_tol

SWEEP_DIMS = ((2, 2, 3), (2, 2, 4))
NEGATIVE_THRESHOLD = -1e-9
DEFAULT_CHUNK = 20_000


def haar_pure(dims: Union[SystemShape, Sequence[int]], seed) -> PureState:
    """One Haar-random pure state over the given factor dimensions."""
    shape = dims if isinstance(dims, SystemShape) else SystemShape(tuple(dims))
    rng = np.random.default_rng(seed)
    vec = haar_pure_batch(shape.total_dim, 1, rng)[0]
    return PureState(shape, vec)


def haar_pure_batch(total_dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, total_dim) stack of Haar-random unit vectors.

    Consumes the stream strictly sequentially, so splitting a batch into
    chunks reproduces the unchunked draw.
    """
    z = rng.standard_normal((count, total_dim, 2))
    vecs = z[..., 0] + 1j * z[..., 1]
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs


def product_haar_batch(dims: Sequence[int], count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, prod(dims)) product states with an independent Haar factor each."""
    out = np.ones((count, 1), dtype=complex)
    for d in dims:
        factor = haar_pure_batch(d, count, rng)
        out = np.einsum("ni,nj->nij", out, factor).reshape(count, -1)
    return out


@dataclass(frozen=True)
class SweepResult:
    """Summary of a residual-tangle sweep; min_value is raw (never clamped)."""

    samples: int
    min_value: float
    argmin_state: PureState
    negative_count: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("a sweep needs at least one sample")


def _dump_states(path: str, dims: Sequence[int], states: np.ndarray) -> None:
    """Append sub-threshold states: dims header, one state per line as
    (re,im) amplitude pairs at 17 significant digits."""
    with open(path, "a", encoding="ascii") as fh:
        fh.write("# dims: " + " ".join(str(d) for d in dims) + "\n")
        for row in states:
            fh.write(
                " ".join(f"({a.real:.17g},{a.imag:.17g})" for a in row) + "\n"
            )


def positivity_sweep(
    dims: Sequence[int],
    samples: int,
    seed: int = 0,
    measure: str = "haar",
    rank_tol: float = DEFAULT_RANK_TOL,
    chunk: int = DEFAULT_CHUNK,
    dump_path: Optional[str] = None,
) -> SweepResult:
    """Evaluate the residual tangle on random states and report the minimum.

    Only the 2x2x3 and 2x2x4 systems are supported (smaller third factors
    make the residual trivial, larger ones leave the rank-2 regime).
    Results depend on (dims, samples, seed, measure) but not on ``chunk``.
    """
    dims = tuple(int(d) for d in dims)
    if dims not in SWEEP_DIMS:
        raise ValueError(f"unsupported dims {dims}; choose from {SWEEP_DIMS}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if measure not in ("haar", "product"):
        raise ValueError(f"unknown measure {measure!r}")
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    check_rank_tol(rank_tol)

    total = int(np.prod(dims))
    rng = np.random.default_rng(seed)
    best_value = np.inf
    best_state: Optional[np.ndarray] = None
    negative_count = 0
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        if measure == "haar":
            batch = haar_pure_batch(total, n, rng)
        else:
            batch = product_haar_batch(dims, n, rng)
        values = residual_tangle_batch(batch, dims, rank_tol)
        finite = np.isfinite(values)
        if not finite.all():
            raise RuntimeError(
                f"{np.count_nonzero(~finite)} non-finite residual tangle values "
                f"among samples {done}..{done + n - 1}"
            )
        i = int(np.argmin(values))
        if values[i] < best_value:
            best_value = float(values[i])
            best_state = batch[i].copy()
        below = values < NEGATIVE_THRESHOLD
        negative_count += int(np.count_nonzero(below))
        if dump_path is not None and below.any():
            _dump_states(dump_path, dims, batch[below])
        done += n

    return SweepResult(
        samples=samples,
        min_value=best_value,
        argmin_state=PureState(SystemShape(dims), best_state),
        negative_count=negative_count,
    )


def merge_sweep_results(results: Iterable[SweepResult]) -> SweepResult:
    """Min/sum reduction over shard results (associative, order-free)."""
    results = list(results)
    if not results:
        raise ValueError("nothing to merge")
    best = min(results, key=lambda r: r.min_value)
    return SweepResult(
        samples=sum(r.samples for r in results),
        min_value=best.min_value,
        argmin_state=best.argmin_state,
        negative_count=sum(r.negative_count for r in results),
    )


def shard_seeds(seed: int, shards: int) -> tuple[int, ...]:
    """Independent child seeds for parallel sweep shards."""
    children = np.random.SeedSequence(seed).spawn(shards)
    return tuple(int(c.generate_state(1)[0]) for c in children)

"""Random pure states and the residual-tangle positivity sweep.

States are drawn from the unitarily invariant (Haar) measure by
normalizing vectors of independent standard complex Gaussians.

The sweep streams batches through the vectorized residual-tangle kernel,
tracks the running minimum and the count of values below the -1e-9
roundoff threshold, and serializes any sub-threshold state in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .tangles import TANGLE_FLOOR, residual_tangle_batch
from .tensor import PureState, SystemShape

SWEEP_DIMS = ((2, 2, 3), (2, 2, 4))
DEFAULT_CHUNK = 20_000  # states per kernel call; no result depends on it


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


def format_amplitudes(amps: np.ndarray) -> str:
    """Space-separated (re,im) pairs at 17 significant digits, which
    round-trip every float64 exactly."""
    return " ".join(f"({a.real:.17g},{a.imag:.17g})" for a in amps)


def _dump_states(path: str, dims: Sequence[int], states: np.ndarray) -> None:
    """Append sub-threshold states: dims header, then one state per line
    in the ``format_amplitudes`` form."""
    with open(path, "a", encoding="ascii") as fh:
        fh.write("# dims: " + " ".join(str(d) for d in dims) + "\n")
        for row in states:
            fh.write(format_amplitudes(row) + "\n")


def positivity_sweep(
    dims: Sequence[int],
    samples: int,
    seed: int = 0,
    dump_path: Optional[str] = None,
) -> SweepResult:
    """Evaluate the residual tangle on Haar-random states and report the minimum.

    Only the 2x2x3 and 2x2x4 systems are supported (smaller third factors
    make the residual trivial, larger ones leave the rank-2 regime).
    Results depend on (dims, samples, seed) but not on
    ``DEFAULT_CHUNK``.  States below ``TANGLE_FLOOR`` (-1e-9) are counted
    and, when ``dump_path`` is set, appended to that file.  That threshold
    is about 2.8e5 times the worst error measured for either tangle kernel
    against a 40-digit reference (3.6e-15 for the rank-2 kernel on nearly
    pure atom-field pairs, 1.3e-15 for Wootters), so a count measures the
    residual tangle, not roundoff.
    """
    dims = tuple(int(d) for d in dims)
    if dims not in SWEEP_DIMS:
        raise ValueError(f"unsupported dims {dims}; choose from {SWEEP_DIMS}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")

    total = int(np.prod(dims))
    rng = np.random.default_rng(seed)
    best_value = np.inf
    best_state: Optional[np.ndarray] = None
    negative_count = 0
    done = 0
    while done < samples:
        n = min(DEFAULT_CHUNK, samples - done)
        batch = haar_pure_batch(total, n, rng)
        values = residual_tangle_batch(batch, dims)
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
        below = values < TANGLE_FLOOR
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


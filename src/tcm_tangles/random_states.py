"""Random pure states and the residual-tangle positivity sweep.

States are drawn from the unitarily invariant (Haar) measure by
normalizing vectors of independent standard complex Gaussians.

The sweep splits its samples into fixed blocks, each with its own random
stream and one call of the vectorized residual-tangle kernel, runs the
blocks on forked workers (``workers.cpu_map``), and merges their minima,
counts of values below the -1e-9 roundoff threshold and sub-threshold
states in block order.
"""

from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import workers
from .tangles import TANGLE_FLOOR, residual_tangle_batch
from .tensor import PureState, SystemShape

SWEEP_DIMS = ((2, 2, 3), (2, 2, 4))
BLOCK = 10_000  # states per random stream and per kernel call
# every block's result (about 1 KB) is held until the blocks merge
MAX_SAMPLES = 10**8


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
    # each (re, im) pair read in place as one complex number
    vecs = z.view(np.complex128)[..., 0]
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs


@dataclass(frozen=True)
class SweepResult:
    """Summary of a residual-tangle sweep; min_value is raw (never clamped)."""

    samples: int
    min_value: float
    argmin_state: PureState
    negative_count: int


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


def _sweep_block(
    dims: tuple[int, ...], samples: int, seed: int, index: int
) -> tuple[float, np.ndarray, int, np.ndarray]:
    """Block ``index`` of a sweep: its minimum, argmin state, count below
    ``TANGLE_FLOOR`` and the states below it.

    The block draws from its own stream, ``SeedSequence(seed,
    spawn_key=(index,))``, the same as ``SeedSequence(seed).spawn(k)[index]``
    for any k > index, so it does not matter which process runs it.
    """
    start = index * BLOCK
    count = min(BLOCK, samples - start)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    batch = haar_pure_batch(int(np.prod(dims)), count, rng)
    values = residual_tangle_batch(batch, dims)
    finite = np.isfinite(values)
    if not finite.all():
        raise RuntimeError(
            f"{np.count_nonzero(~finite)} non-finite residual tangle values "
            f"among samples {start}..{start + count - 1}"
        )
    i = int(np.argmin(values))
    below = values < TANGLE_FLOOR
    return float(values[i]), batch[i].copy(), int(np.count_nonzero(below)), batch[below]


def positivity_sweep(
    dims: Sequence[int],
    samples: int,
    seed: int = 0,
    dump_path: Optional[str] = None,
) -> SweepResult:
    """Evaluate the residual tangle on Haar-random states and report the minimum.

    Only the 2x2x3 and 2x2x4 systems are supported.  For 2x2x2 the
    residual is the three-tangle, non-negative by the three CKW
    inequalities summed.  A larger third factor finds no new value: the
    field marginal has rank <= 4, so a 2x2xD state is a 2x2x4 state up
    to a local isometry on the field, which leaves the residual unchanged;
    only the sampling measure differs.
    The samples, at most ``MAX_SAMPLES``, are split into blocks of ``BLOCK``
    states; block i draws from ``SeedSequence(seed, spawn_key=(i,))`` and
    is one kernel call.
    The blocks run through ``workers.cpu_map``: contiguous runs of blocks
    on one forked process per CPU in this process's affinity mask, at most
    one per block; one worker runs them in this process, as on platforms
    without an affinity mask, and ``taskset -c 0`` limits a run to one.
    They merge in block order: the first block wins a tied minimum, and
    dumped states keep block order.  So results depend on (dims, samples,
    seed) alone, not on the worker count.
    States below ``TANGLE_FLOOR`` (-1e-9) are counted and, when
    ``dump_path`` is set, written to that file, which replaces any earlier
    one; a sweep that finds none leaves no file.  That threshold
    is about 7e5 times the worst error measured for either tangle kernel
    against a 40-digit reference (1.4e-15 for the rank-2 kernel on nearly
    pure atom-field pairs; for Wootters 7.8e-16 through the SVD and
    4.4e-16 through the closed form of at most three field columns), so a
    count is not roundoff.  But it is only about 7.5 times the worst
    negative the rank cutoff makes by itself (-1.333e-10, near product
    states, where a marginal eigenvalue just below ``RANK_TOL`` loses its
    d/2 weight).  A non-finite value raises ``RuntimeError``, the one of
    the first such block, as does a worker that dies; no worker outlives
    the call.
    """
    dims = tuple(int(d) for d in dims)
    if dims not in SWEEP_DIMS:
        raise ValueError(f"unsupported dims {dims}; choose from {SWEEP_DIMS}")
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must lie in 1 .. {MAX_SAMPLES}, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if dump_path is not None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(dump_path)

    job = functools.partial(_sweep_block, dims, samples, seed)
    best_value = np.inf
    best_state: Optional[np.ndarray] = None
    negative_count = 0
    for value, state, negatives, dumped in workers.cpu_map(job, range(-(-samples // BLOCK))):
        if value < best_value:
            best_value, best_state = value, state
        negative_count += negatives
        if dump_path is not None and negatives:
            _dump_states(dump_path, dims, dumped)

    return SweepResult(
        samples=samples,
        min_value=best_value,
        argmin_state=PureState(SystemShape(dims), best_state),
        negative_count=negative_count,
    )

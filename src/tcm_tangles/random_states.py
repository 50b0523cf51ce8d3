"""Random pure states and the residual-tangle positivity sweep.

States are drawn from the unitarily invariant (Haar) measure by
normalizing vectors of independent standard complex Gaussians.

The sweep splits its samples into fixed blocks, each with its own random
stream and one call of the vectorized residual-tangle kernel, runs the
blocks on forked workers (``workers.cpu_map``), and merges their minima,
counts of values below the -1e-9 roundoff threshold and sub-threshold
states in block order.  It writes no file; ``cli`` writes the summary and
the sub-threshold states.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import workers
from .tangles import TANGLE_FLOOR, tcm_columns
from .tensor import PureState, SystemShape, whole_number

SWEEP_DIMS = ((2, 2, 3), (2, 2, 4))
BLOCK = 10_000  # states per random stream and per kernel call
# every block's result (about 1 KB) is held until the blocks merge
MAX_SAMPLES = 10**8


def haar_pure_batch(total_dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, total_dim) stack of Haar-random unit vectors.

    Consumes the stream strictly sequentially, so splitting a batch into
    chunks reproduces the unchunked draw.
    """
    count, total_dim = whole_number("count", count, 0), whole_number("total_dim", total_dim, 1)
    z = rng.standard_normal((count, total_dim, 2))
    # each (re, im) pair read in place as one complex number
    vecs = z.view(np.complex128)[..., 0]
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs


@dataclass(frozen=True)
class SweepResult:
    """Summary of a residual-tangle sweep; min_value is raw (never clamped), and
    negative_states holds the states below TANGLE_FLOOR, one a row, in block order."""

    samples: int
    min_value: float
    argmin_state: PureState
    negative_count: int
    negative_states: np.ndarray


def _sweep_block(
    dims: tuple[int, ...], samples: int, seed: int, index: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """Block ``index`` of a sweep: its minimum, argmin state and the states
    below ``TANGLE_FLOOR``.

    The block draws from its own stream, ``SeedSequence(seed,
    spawn_key=(index,))``, the same as ``SeedSequence(seed).spawn(k)[index]``
    for any k > index, so it does not matter which process runs it.
    """
    start = index * BLOCK
    count = min(BLOCK, samples - start)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    batch = haar_pure_batch(SystemShape(dims).total_dim, count, rng)
    values = tcm_columns(batch, ("tau_res",))["tau_res"]
    finite = np.isfinite(values)
    if not finite.all():
        raise RuntimeError(
            f"{np.count_nonzero(~finite)} non-finite residual tangle values "
            f"among samples {start}..{start + count - 1}"
        )
    i = int(np.argmin(values))
    return float(values[i]), batch[i].copy(), batch[values < TANGLE_FLOOR]


def positivity_sweep(dims: Sequence[int], samples: int, seed: int = 0) -> SweepResult:
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
    the states below ``TANGLE_FLOOR`` (-1e-9) keep block order.  So results
    depend on (dims, samples, seed) alone, not on the worker count.  Those
    states are counted and returned as ``negative_states``.  That threshold
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
    dims = SystemShape(dims).dims
    if dims not in SWEEP_DIMS:
        raise ValueError(f"unsupported dims {dims}; choose from {SWEEP_DIMS}")
    samples, seed = whole_number("samples", samples, 1, MAX_SAMPLES), whole_number("seed", seed, 0)

    job = functools.partial(_sweep_block, dims, samples, seed)
    best_value, best_state, below = np.inf, None, []
    for value, state, block_below in workers.cpu_map(job, range(-(-samples // BLOCK))):
        if value < best_value:
            best_value, best_state = value, state
        below.append(block_below)

    negative_states = np.concatenate(below)
    return SweepResult(
        samples=samples,
        min_value=best_value,
        argmin_state=PureState(SystemShape(dims), best_state),
        negative_count=len(negative_states),
        negative_states=negative_states,
    )

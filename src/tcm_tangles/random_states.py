"""Random pure states and the residual-tangle positivity sweep.

States are drawn from the unitarily invariant (Haar) measure by
normalizing vectors of independent standard complex Gaussians.

The sweep splits its samples into fixed blocks, each with its own random
stream and one call of the vectorized residual-tangle kernel, runs the
blocks on worker processes, and merges their minima, counts of values
below the -1e-9 roundoff threshold and sub-threshold states in block
order.
"""

from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .tangles import TANGLE_FLOOR, residual_tangle_batch
from .tensor import PureState, SystemShape

SWEEP_DIMS = ((2, 2, 3), (2, 2, 4))
BLOCK = 10_000  # states per random stream and per kernel call


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


def _allowed_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (Linux).  Elsewhere 1, so the sweep runs in-process:
    Windows cannot fork, and macOS cannot fork safely once numpy is loaded.
    """
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


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

    Only the 2x2x3 and 2x2x4 systems are supported (smaller third factors
    make the residual trivial, larger ones leave the rank-2 regime).
    The samples are split into blocks of ``BLOCK`` states; block i draws
    from ``SeedSequence(seed, spawn_key=(i,))`` and is one kernel call.
    The blocks run on one forked process per CPU in this process's
    affinity mask, at most one per block; one worker runs them in this
    process, as on platforms without an affinity mask, and ``taskset -c 0``
    limits a run to one.  They merge in block order: the first block wins
    a tied minimum, and dumped states keep block order.  So results depend
    on (dims, samples, seed) alone, not on the worker count.
    States below ``TANGLE_FLOOR`` (-1e-9) are counted
    and, when ``dump_path`` is set, appended to that file.  That threshold
    is about 2.8e5 times the worst error measured for either tangle kernel
    against a 40-digit reference (3.6e-15 for the rank-2 kernel on nearly
    pure atom-field pairs, 1.3e-15 for Wootters), so a count measures the
    residual tangle, not roundoff.  A non-finite value, or a worker that
    dies, raises ``RuntimeError``; no worker outlives the call.
    """
    dims = tuple(int(d) for d in dims)
    if dims not in SWEEP_DIMS:
        raise ValueError(f"unsupported dims {dims}; choose from {SWEEP_DIMS}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")

    blocks = range((samples + BLOCK - 1) // BLOCK)
    workers = min(_allowed_cpus(), len(blocks))
    best_value = np.inf
    best_state: Optional[np.ndarray] = None
    negative_count = 0
    with contextlib.ExitStack() as stack:
        run = map
        if workers > 1:
            # imported here: a one-worker sweep need not pay for the pool's modules
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # fork, not spawn: a spawned worker would import numpy again
            context = multiprocessing.get_context("fork")
            run = stack.enter_context(ProcessPoolExecutor(workers, mp_context=context)).map
        job = functools.partial(_sweep_block, dims, samples, seed)
        for value, state, negatives, dumped in run(job, blocks):
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

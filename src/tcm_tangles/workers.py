"""One forked worker per allowed CPU: the package's one parallel loop, which
runs the sweep's sample blocks and a long scenario's time-grid segments.
Each worker tells glibc's malloc to keep the heap it frees, so its later
blocks or chunks reuse pages their predecessors touched instead of faulting
in fresh ones; only workers do so, since a worker lives for one map and a
library must not change its host process's malloc policy."""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
from typing import Callable, Iterable


def _keep_freed_heap() -> None:
    """Have glibc's malloc keep what this process frees: no allocation below
    32 MiB is mmapped and the heap top is not trimmed below 1 GiB.  Where
    the C library has no ``mallopt`` (not glibc), this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at its 64-bit maximum
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


def allowed_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (Linux).  Elsewhere 1, so work runs in-process:
    Windows cannot fork, and macOS cannot fork safely once numpy is loaded.
    """
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def cpu_map(job: Callable, items: Iterable) -> list:
    """``[job(item) for item in items]``, split over forked workers.

    The items are cut into contiguous runs, one per allowed CPU and at most
    one per item; a single run is done in this process.  Each worker is an
    ``os.fork`` child, so ``job`` is not pickled (a closure will do) and
    what it writes into a shared mapping the caller sees.  A worker sends
    back its pickled results, or the first exception of its run, through a
    pipe; before its jobs it keeps its freed heap (``_keep_freed_heap``),
    which changes no result.  Results come back in item order, and the
    exception raised is the first in item order, so neither depends on the
    worker count.  A worker that ends without sending, as one whose
    exception cannot be pickled does, raises RuntimeError.  Every worker is
    reaped before this returns or raises, and killed first if it still runs.
    """
    items = list(items)
    workers = min(allowed_cpus(), len(items))
    if workers < 2:
        return [job(item) for item in items]
    bounds = [len(items) * k // workers for k in range(workers + 1)]
    running = {}  # pid -> read end of its pipe, in item order
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker: it never returns
                try:
                    os.close(read)
                    try:
                        _keep_freed_heap()
                        reply = pickle.dumps((None, [job(item) for item in items[lo:hi]]))
                    except BaseException as exc:  # re-raised by the parent
                        reply = pickle.dumps((exc, None))
                    with os.fdopen(write, "wb") as pipe:
                        pipe.write(reply)
                finally:
                    # no exit handler, buffer flush or test-runner hook of the parent runs twice
                    os._exit(0)
            os.close(write)
            running[pid] = os.fdopen(read, "rb")
        results = []
        for pid, pipe in list(running.items()):
            with pipe:
                reply = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del running[pid]
            if code or not reply:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
                raise RuntimeError(f"a worker process {how} before it sent its results")
            error, part = pickle.loads(reply)  # bytes a worker of this call wrote
            if error is not None:
                raise error
            results.extend(part)
        return results
    finally:
        for pid, pipe in running.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

"""One forked worker per allowed CPU: the package's one parallel loop, which
runs the sweep's sample blocks and a long scenario's time-grid segments."""

from __future__ import annotations

import os
import pickle
import signal
from typing import Callable, Iterable


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
    pipe.  Results come back in item order, and the exception raised is the
    first in item order, so neither depends on the worker count.  A worker
    that ends without sending, as one whose exception cannot be pickled
    does, raises RuntimeError.  Every worker is reaped before this returns
    or raises, and killed first if it still runs.
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

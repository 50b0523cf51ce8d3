"""Spans around the package's layer boundaries, recorded from outside it.

The traced child process swaps a wrapper in for each module-level name in
``SITES``.  The package looks these names up at call time, so the wrapper
sees every call without any change under ``src/``.  A span is
``[name, start, end, parent]`` with ``parent`` the index of the enclosing
span (-1 at the root); spans stay in memory and are written out once the
CLI call has returned.  A name that a later refactor renamed or removed is
reported as absent, together with the metrics that depend on it.
"""

from __future__ import annotations

import collections
import functools
import json
import math
import os
import statistics
import time

ROOT_SPAN = "cli.main"

# Spans whose self time belongs to no layer: the CLI and the per-point loops
# of the scenario and sweep drivers.
ORCHESTRATION = (ROOT_SPAN, "scenarios.run_scenario", "scenarios.compare", "random_states.sweep")


class Tracer:
    """Span and counter store for one child process (one run id)."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.absent: set[str] = set()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def write(self, path: str) -> None:
        """Append the spans as JSON lines: run, index, name, start, end, parent."""
        with open(path, "a", encoding="ascii") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([self.run_id, i, name, start, end, parent]) + "\n")


def _batch_size(array, core_ndim: int) -> int:
    return math.prod(array.shape[: array.ndim - core_ndim])


def _count_wootters(tracer, args):
    tracer.counts["tangles.wootters_states"] += _batch_size(args[0], 2)


def _count_rank2(tracer, args):
    tracer.counts["tangles.rank2_states"] += _batch_size(args[0], 3)


def _count_csv_bytes(tracer, args):
    tracer.counts["scenarios.csv_bytes"] += os.path.getsize(args[0])


def _count_blocks(tracer, args):
    blocks = getattr(args[0], "blocks", None)
    if blocks is None:
        tracer.absent.add("dynamics.TcmPropagator.blocks")
    else:
        tracer.counts["dynamics.blocks"] += len(blocks)


def _count_pure_state(tracer, args):
    tracer.counts["tensor.pure_states"] += 1


# (module under tcm_tangles, attribute path, span name or None, counter).
# A span name of None records no span, only the counter.
SITES = (
    ("cli", "run_scenario", "scenarios.run_scenario", None),
    ("cli", "compare_exact_vs_approx", "scenarios.compare", None),
    ("cli", "positivity_sweep", "random_states.sweep", None),
    ("scenarios", "run_scenario", "scenarios.run_scenario", None),
    ("scenarios", "tangle_report", "tangles.report", None),
    ("scenarios", "excitation_distribution", "dynamics.excitation", None),
    ("scenarios", "approx_tau_F_AA", "markoff.approx", None),
    ("scenarios", "_write_rows", "scenarios.csv", _count_csv_bytes),
    ("dynamics", "TcmPropagator.__init__", "dynamics.build", _count_blocks),
    ("dynamics", "TcmPropagator.evolve_series", "dynamics.evolve", None),
    ("tangles", "_wootters_batch", "tangles.wootters", _count_wootters),
    ("tangles", "_rank2_tangle_core", "tangles.rank2", _count_rank2),
    ("random_states", "residual_tangle_batch", "tangles.residual_batch", None),
    ("random_states", "haar_pure_batch", "random_states.sample", None),
    ("tensor", "PureState.__init__", None, _count_pure_state),
)

# Per-layer metric -> (unit, the sites it needs, as module.attribute).
LAYER_METRICS = {
    "dynamics.build_s": ("s", ("dynamics.TcmPropagator.__init__",)),
    "dynamics.blocks": (
        "count",
        ("dynamics.TcmPropagator.__init__", "dynamics.TcmPropagator.blocks"),
    ),
    "dynamics.evolve_s": ("s", ("dynamics.TcmPropagator.evolve_series",)),
    "dynamics.evolve_points": ("count", ("dynamics.TcmPropagator.evolve_series",)),
    "dynamics.excitation_s": ("s", ("scenarios.excitation_distribution",)),
    "dynamics.excitation_calls": ("count", ("scenarios.excitation_distribution",)),
    "tensor.pure_states": ("count", ("tensor.PureState.__init__",)),
    "tangles.report_s": ("s", ("scenarios.tangle_report",)),
    "tangles.report_calls": ("count", ("scenarios.tangle_report",)),
    "tangles.wootters_s": ("s", ("tangles._wootters_batch",)),
    "tangles.wootters_calls": ("count", ("tangles._wootters_batch",)),
    "tangles.wootters_states": ("count", ("tangles._wootters_batch",)),
    "tangles.rank2_s": ("s", ("tangles._rank2_tangle_core",)),
    "tangles.rank2_calls": ("count", ("tangles._rank2_tangle_core",)),
    "tangles.rank2_states": ("count", ("tangles._rank2_tangle_core",)),
    "tangles.states_per_call": (
        "states/call",
        ("tangles._wootters_batch", "tangles._rank2_tangle_core"),
    ),
    "tangles.residual_batch_s": ("s", ("random_states.residual_tangle_batch",)),
    "random_states.sample_s": ("s", ("random_states.haar_pure_batch",)),
    "markoff.approx_s": ("s", ("scenarios.approx_tau_F_AA",)),
    "scenarios.csv_s": ("s", ("scenarios._write_rows",)),
    "scenarios.csv_bytes": ("B", ("scenarios._write_rows",)),
    "scenarios.self_s": ("s", ("scenarios.run_scenario", "cli.compare_exact_vs_approx")),
    "cli.self_s": ("s", ()),
    "trace.run_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
    "trace.unattributed_s": ("s", ()),
}


def _span_wrapper(tracer: Tracer, fn, name, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name) if name else None
        try:
            result = fn(*args, **kwargs)
        finally:
            if index is not None:
                tracer.end(index)
        if counter is not None:
            counter(tracer, args)
        return result

    return wrapper


def _generator_wrapper(tracer: Tracer, fn, name, counter):
    """Time each next() of a generator as its own span and count the items."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            index = tracer.begin(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.end(index)
            tracer.counts["dynamics.evolve_points"] += 1
            yield item

    return wrapper


def install(tracer: Tracer, package) -> None:
    """Wrap every site found in ``package``; note the ones it lacks as absent."""
    for module_name, path, name, counter in SITES:
        owner = package
        *parents, attr = f"{module_name}.{path}".split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                break
        fn = None if owner is None else getattr(owner, attr, None)
        if fn is None:
            tracer.absent.add(f"{module_name}.{path}")
            continue
        make = _generator_wrapper if path.endswith("evolve_series") else _span_wrapper
        setattr(owner, attr, make(tracer, fn, name, counter))


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = collections.defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counts, run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced CLI call (trace.overhead_s excluded)."""
    calls = collections.Counter(span[0] for span in spans)
    total = collections.defaultdict(float)
    self_by_name = collections.defaultdict(float)
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        total[name] += end - start
        self_by_name[name] += own
    kernel_calls = calls["tangles.wootters"] + calls["tangles.rank2"]
    kernel_states = counts["tangles.wootters_states"] + counts["tangles.rank2_states"]
    return {
        "dynamics.build_s": total["dynamics.build"],
        "dynamics.blocks": counts["dynamics.blocks"],
        "dynamics.evolve_s": total["dynamics.evolve"],
        "dynamics.evolve_points": counts["dynamics.evolve_points"],
        "dynamics.excitation_s": total["dynamics.excitation"],
        "dynamics.excitation_calls": calls["dynamics.excitation"],
        "tensor.pure_states": counts["tensor.pure_states"],
        "tangles.report_s": total["tangles.report"],
        "tangles.report_calls": calls["tangles.report"],
        "tangles.wootters_s": total["tangles.wootters"],
        "tangles.wootters_calls": calls["tangles.wootters"],
        "tangles.wootters_states": counts["tangles.wootters_states"],
        "tangles.rank2_s": total["tangles.rank2"],
        "tangles.rank2_calls": calls["tangles.rank2"],
        "tangles.rank2_states": counts["tangles.rank2_states"],
        "tangles.states_per_call": kernel_states / kernel_calls if kernel_calls else 0.0,
        "tangles.residual_batch_s": total["tangles.residual_batch"],
        "random_states.sample_s": total["random_states.sample"],
        "markoff.approx_s": total["markoff.approx"],
        "scenarios.csv_s": total["scenarios.csv"],
        "scenarios.csv_bytes": counts["scenarios.csv_bytes"],
        "scenarios.self_s": self_by_name["scenarios.run_scenario"]
        + self_by_name["scenarios.compare"],
        "cli.self_s": self_by_name[ROOT_SPAN],
        "trace.run_s": run_s,
        "trace.unattributed_s": sum(self_by_name[n] for n in ORCHESTRATION),
    }


def absent_metrics(absent_paths) -> list[str]:
    """Per-layer metrics that need a site the package no longer has."""
    missing = set(absent_paths)
    return [m for m, (_, needs) in LAYER_METRICS.items() if missing.intersection(needs)]


def median_metrics(per_child: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over the traced children of one run."""
    return {k: statistics.median(d[k] for d in per_child) for k in per_child[0]}

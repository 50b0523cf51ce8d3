"""Tests of the benchmark itself:  python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import collections
import json
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import checks
import run
import spans

sys.path.insert(0, str(run.ROOT / "src"))
from tcm_tangles import cli  # noqa: E402

SMALL_SCENARIO = checks.ScenarioSpec(mean_n=20.0, t_max=10.0, steps=200, compare=False)
SMALL_COMPARE = checks.ScenarioSpec(mean_n=20.0, t_max=30.0, steps=300, compare=True)
SMALL_SWEEP = run.Workload(("sweep", "--dims", "2x2x3", "--samples", "2000"), 2000, "states", None)


def _scenario_workload(spec: checks.ScenarioSpec) -> run.Workload:
    command = "compare-approx" if spec.compare else "scenario"
    args = (command, "--atomic", "ee", "--field", "coherent", "--mean-n", str(spec.mean_n),
            "--t-max", str(spec.t_max), "--steps", str(spec.steps))
    return run.Workload(args, spec.steps, "grid points", spec)


def _failed_ratio(workload, text, seed=0, ref=None, counterexamples=None) -> float:
    sample = {"run_id": 0, "ok": True, "output": text, "counterexamples": counterexamples}
    tally = run.tally_samples(workload, [sample], seed, ref)
    return tally.failed / tally.attempted


def _set_cell(text: str, row: int, column: int, value: str) -> str:
    lines = text.splitlines(keepends=True)
    data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]  # skip the header
    cells = lines[data[row]].rstrip("\n").split(",")
    cells[column] = value
    lines[data[row]] = ",".join(cells) + "\n"
    return "".join(lines)


@pytest.fixture(scope="module", params=[SMALL_SCENARIO, SMALL_COMPARE], ids=["scenario", "compare"])
def produced(request, tmp_path_factory):
    spec = request.param
    workload = _scenario_workload(spec)
    out = tmp_path_factory.mktemp("csv") / "out.csv"
    assert cli.main(workload.argv(0, str(out))) == 0
    return workload, out.read_text(), checks.build_reference(spec, roof=not spec.compare)


def test_produced_csv_passes(produced):
    workload, text, ref = produced
    assert _failed_ratio(workload, text, ref=ref) == 0.0


@pytest.mark.parametrize(
    "row, column",
    # rows 100 and 140 have reference values, 101 and 199 (compare) do not
    [(100, 3), (101, 4), (140, 6), (7, 0), (199, 1)],
)
def test_corrupted_scenario_cell_fails(produced, row, column):
    workload, text, ref = produced
    if workload.spec.compare and column > 3:
        column = 2  # the approximate column
    value = float(text.splitlines()[-workload.spec.steps + row].split(",")[column])
    corrupted = _set_cell(text, row, column, repr(value + 1e-3))
    assert _failed_ratio(workload, corrupted, ref=ref) > 0.0


def test_dropped_row_fails(produced):
    workload, text, ref = produced
    assert _failed_ratio(workload, text.rstrip("\n").rsplit("\n", 1)[0] + "\n", ref=ref) > 0.0


def test_fixed_seed_sweep_same_summary_twice(tmp_path):
    first = run.run_child(SMALL_SWEEP, 7, tmp_path, 0, None)
    second = run.run_child(SMALL_SWEEP, 7, tmp_path, 1, None)
    assert first["ok"] and second["ok"]
    assert first["output"] == second["output"]
    assert _failed_ratio(SMALL_SWEEP, first["output"], seed=7) == 0.0
    other = run.run_child(SMALL_SWEEP, 8, tmp_path, 2, None)
    assert other["output"] != first["output"]


def test_corrupted_sweep_min_value_fails(tmp_path):
    text = run.run_child(SMALL_SWEEP, 3, tmp_path, 0, None)["output"]
    lines = text.splitlines(keepends=True)
    at = lines.index("samples,min_value,negative_count\n") + 1
    count, min_value, negatives = lines[at].strip().split(",")
    for corrupted_value in (float(min_value) + 1e-4, float(min_value) * 0.999):
        lines[at] = f"{count},{corrupted_value!r},{negatives}\n"
        assert _failed_ratio(SMALL_SWEEP, "".join(lines), seed=3) > 0.0
    lines[at] = f"{count},{min_value},1\n"
    assert _failed_ratio(SMALL_SWEEP, "".join(lines), seed=3) > 0.0


def test_nonzero_exit_counts_as_failed():
    sample = {"run_id": 0, "ok": False, "error": "boom"}
    tally = run.tally_samples(SMALL_SWEEP, [sample], 0, None)
    assert tally.failed == tally.attempted == 2  # the exit and the missing output


def test_self_time_on_synthetic_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a: the union [1, 6] is covered once
        ["a.child", 2.0, 3.0, 1],
        ["late", 9.5, 11.0, 0],  # clipped at the parent's end
    ]
    assert spans.self_times(tree) == pytest.approx([10.0 - 5.0 - 0.5, 2.0, 3.0, 1.0, 1.5])


def test_layer_metrics_on_synthetic_tree():
    tree = [
        ["cli.main", 0.0, 10.0, -1],
        ["scenarios.run_scenario", 1.0, 9.0, 0],
        ["dynamics.evolve", 1.0, 2.0, 1],
        ["tangles.report", 2.0, 6.0, 1],
        ["tangles.wootters", 2.0, 3.0, 3],
        ["tangles.rank2", 3.0, 5.0, 3],
        ["scenarios.csv", 8.0, 8.5, 1],
    ]
    counts = {"tangles.wootters_states": 1, "tangles.rank2_states": 1, "dynamics.evolve_points": 1}
    layers = spans.layer_metrics(tree, collections.Counter(counts), run_s=10.0)
    assert layers["tangles.report_s"] == pytest.approx(4.0)
    assert layers["tangles.rank2_calls"] == 1
    assert layers["tangles.states_per_call"] == pytest.approx(1.0)
    assert layers["scenarios.self_s"] == pytest.approx(8.0 - 1.0 - 4.0 - 0.5)
    assert layers["cli.self_s"] == pytest.approx(2.0)
    assert layers["trace.unattributed_s"] == pytest.approx(2.0 + 2.5)
    assert set(layers) | {"trace.overhead_s"} == set(spans.LAYER_METRICS)


def test_missing_site_is_reported_absent():
    def kernel(rhos):
        return rhos

    package = types.SimpleNamespace(tangles=types.SimpleNamespace(_wootters_batch=kernel))
    tracer = spans.Tracer()
    spans.install(tracer, package)  # every other site is missing: no crash
    assert "tangles._rank2_tangle_core" in tracer.absent
    assert "scenarios.tangle_report" in tracer.absent
    missing = spans.absent_metrics(tracer.absent)
    assert "tangles.rank2_s" in missing and "tangles.report_calls" in missing
    assert "tangles.wootters_s" not in missing

    package.tangles._wootters_batch(np.zeros((5, 4, 4)))
    assert [span[0] for span in tracer.spans] == ["tangles.wootters"]
    assert tracer.counts["tangles.wootters_states"] == 5


def test_traced_child_reports_layers(tmp_path):
    workload = _scenario_workload(checks.ScenarioSpec(mean_n=20.0, t_max=10.0, steps=50, compare=False))
    spans_path = tmp_path / "spans.jsonl"
    sample = run.run_child(workload, 0, tmp_path, 0, spans_path)
    assert sample["ok"] and sample["absent"] == []
    layers = sample["layers"]
    for name in ("tangles.report_calls", "dynamics.evolve_points", "tangles.wootters_calls"):
        assert layers[name] == 50
    assert layers["tangles.rank2_calls"] == 100
    assert layers["tangles.states_per_call"] == 1.0
    assert layers["dynamics.build_s"] > 0 and layers["scenarios.csv_bytes"] > 0
    assert 0 <= layers["trace.unattributed_s"] < layers["trace.run_s"]
    lines = spans_path.read_text().splitlines()
    assert json.loads(lines[0])[2] == spans.ROOT_SPAN and len(lines) > 4 * 50


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_2x2x3", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

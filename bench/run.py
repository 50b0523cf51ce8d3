#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the tcm-tangles CLI.

    python3 bench/run.py --workload scenario_fig2 --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all

The load is a closed loop with one client: each sample is a fresh
interpreter (child.py) that imports the package from ``src/`` and makes
one CLI call, writing into a temporary directory under ``bench/out/``;
the next sample starts when the previous one has exited.  Samples start
until ``--seconds`` have passed (at least MIN_SAMPLES of them).  After the
loop, and outside every timing, each output is checked against a
reference built once per invocation (checks.py).

``--trace 0`` reports the end-to-end metrics from untraced samples.
``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics (spans.py) plus the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A full record with the run metadata, every sample and the check messages
goes to ``bench/out/<workload>-seed<seed>-trace<trace>.json``; traced
runs also write their spans to ``bench/out/<workload>-seed<seed>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SWEEP_SAMPLES = 100_000
MIN_SAMPLES = 3  # untraced samples per run; a traced run takes this many pairs
CHILD_TIMEOUT_S = 150
START_DEADLINE_S = 90  # no new sample starts this long after the loop began

# The machine's speed drifts by up to 2x over tens of seconds when other
# tenants load the host, for interpreter and BLAS work and CPU time alike,
# and a run's median cannot average that out.  So while a sample runs, the
# parent times a ~1 ms probe chunk every PROBE_PERIOD_S on the CPU the child
# last ran on (taking ~1 % of it), and run_ref_s rescales the sample's run_s
# to the speed at which a chunk takes PROBE_REF_S.  The chunk is the
# scenario loop's own kind of work: a 4 x D marginal and its 4 x 4 eigensolve.
PROBE_PERIOD_S = 0.1
PROBE_REF_S = 1e-3
_PROBE_INDEX = np.arange(4 * 652).reshape(4, 652)  # fig4's D = 652
_PROBE_AMPLITUDES = (_PROBE_INDEX % 7 + 1j * (_PROBE_INDEX % 5)) / 100.0
_ALL_CPUS = os.sched_getaffinity(0)


@dataclass(frozen=True)
class Workload:
    """A CLI call (without --out) and the number of items it produces."""

    args: tuple[str, ...]
    items: int
    item_name: str
    spec: Optional[checks.ScenarioSpec]  # None for the sweep

    def argv(self, seed: int, out: str) -> list[str]:
        seed_args = ["--seed", str(seed)] if self.spec is None else []
        return [*self.args, *seed_args, "--out", out]

    def check(self, text: str, counterexamples: Optional[str], seed: int, ref) -> checks.Tally:
        if self.spec is None:
            return checks.check_sweep(text, self.items, seed, counterexamples)
        if self.spec.compare:
            return checks.check_compare(text, ref)
        return checks.check_scenario(text, ref)


# Why these three: see README.md in this directory.
WORKLOADS = {
    "scenario_fig2": Workload(
        ("scenario", "--preset", "fig2"),
        4000,
        "grid points",
        checks.ScenarioSpec(mean_n=100.0, t_max=80.0, steps=4000, compare=False),
    ),
    "compare_fig4": Workload(
        ("compare-approx", "--preset", "fig4"),
        4000,
        "grid points",
        checks.ScenarioSpec(mean_n=500.0, t_max=140.0, steps=4000, compare=True),
    ),
    "sweep_2x2x3": Workload(
        ("sweep", "--dims", "2x2x3", "--samples", str(SWEEP_SAMPLES)),
        SWEEP_SAMPLES,
        "states",
        None,
    ),
}

UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "items_per_s": "1/s",
    "run_ref_s": "s",
    "items_per_ref_s": "1/s",
    "peak_rss_mb": "MiB",
}
# The end-to-end metrics in BENCHMARK.json: raw wall time drifts with the
# machine, so the gated timings are the probe-normalised ones.
GATED = ("setup_s", "run_ref_s", "items_per_ref_s", "peak_rss_mb")


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------

def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> dict:
    """Thread settings in the environment, and OpenBLAS's own count if it is reachable."""
    found = {name: os.environ.get(name, "unset") for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            try:
                found["openblas_runtime"] = int(getattr(ctypes.CDLL(str(lib)), symbol)())
                return found
            except (OSError, AttributeError):
                continue
    return found


def metadata(name: str, workload: Workload, seed: int, seconds: float, trace: int, ref) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    size = {"items": workload.items, "item": workload.item_name, "argv": workload.argv(seed, "<out>")}
    if ref is not None:
        size["reference_field_dim"] = ref.field_dim
        size["reference_points"] = int(ref.index.size)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "openblas": blas.get("openblas configuration", blas.get("version")),
        "blas_threads": _blas_threads(),
        "load": "closed loop, one client, one fresh process per sample",
    }


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------

def probe_chunk() -> float:
    """Seconds for a fixed ~1 ms of small matmuls and 4 x 4 eigensolves."""
    start = time.perf_counter()
    for _ in range(40):
        np.linalg.eigvalsh(_PROBE_AMPLITUDES @ _PROBE_AMPLITUDES.conj().T)
    return time.perf_counter() - start


def _cpu_of(pid: int) -> Optional[int]:
    """The CPU a process last ran on (field 39 of /proc/<pid>/stat), if readable."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def probe_beside(pid: int) -> float:
    """probe_chunk() pinned to the CPU that process ``pid`` last ran on, where allowed."""
    cpu = _cpu_of(pid)
    if cpu not in _ALL_CPUS:
        return probe_chunk()
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return probe_chunk()
    try:
        return probe_chunk()
    finally:
        os.sched_setaffinity(0, _ALL_CPUS)


def run_child(workload: Workload, seed: int, workdir: Path, run_id: int, spans_path: Optional[Path]) -> dict:
    """One sample; the parent probes the machine's speed while the child runs."""
    out = workdir / f"out-{run_id}"
    result_path = workdir / f"child-{run_id}.json"
    stderr_path = workdir / f"stderr-{run_id}.txt"
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result_path)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path), "--run-id", str(run_id)]
    sample = {"run_id": run_id, "traced": spans_path is not None}
    probes = []  # (monotonic start, seconds)
    with open(stderr_path, "w", encoding="utf-8") as stderr:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd + ["--spawned-at", repr(spawned), "--", *workload.argv(seed, str(out))],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
        )
        try:
            while proc.poll() is None and time.monotonic() - spawned < CHILD_TIMEOUT_S:
                probes.append((time.monotonic(), probe_beside(proc.pid)))
                time.sleep(PROBE_PERIOD_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    result = json.loads(result_path.read_text()) if result_path.exists() else None
    ok = proc.returncode == 0 and result is not None and result["exit_code"] == 0
    sample.update(ok=ok, returncode=proc.returncode, **(result or {}))
    if not ok:
        sample["error"] = stderr_path.read_text()[-2000:] or f"exit code {proc.returncode}"
    if ok and probes:
        start, end = result["run_window"]
        inside = [seconds for at, seconds in probes if start <= at <= end]
        sample["probe_s"] = statistics.median(inside or [seconds for _, seconds in probes])
        sample["run_ref_s"] = result["run_s"] * PROBE_REF_S / sample["probe_s"]
    if out.exists():
        sample["output"] = out.read_text()
    extra = Path(str(out) + ".counterexamples")
    if extra.exists():
        sample["counterexamples"] = extra.read_text()
    for path in (out, extra, result_path, stderr_path):
        path.unlink(missing_ok=True)
    return sample


def measure(workload: Workload, seed: int, seconds: float, trace: int, workdir: Path, spans_path) -> list[dict]:
    """Closed loop: start samples until ``seconds`` have passed; alternate when tracing."""
    samples = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        untraced = sum(not s["traced"] for s in samples)
        paired = not trace or len(samples) % 2 == 0
        if paired and ((elapsed >= seconds and untraced >= MIN_SAMPLES) or elapsed >= START_DEADLINE_S):
            return samples
        traced = bool(trace) and len(samples) % 2 == 1
        samples.append(run_child(workload, seed, workdir, len(samples), spans_path if traced else None))


def tally_samples(workload: Workload, samples: list[dict], seed: int, ref) -> checks.Tally:
    """Exit status of every sample plus the output checks; equal outputs share one verdict."""
    total = checks.Tally()
    verdicts: dict[str, checks.Tally] = {}
    for s in samples:
        total.check(f"sample {s['run_id']} exit", s["ok"], s.get("error", "").strip()[-300:])
        text = s.get("output")
        if text is None:
            total.check(f"sample {s['run_id']} wrote its output", False)
            continue
        key = hashlib.sha256((text + "\0" + (s.get("counterexamples") or "")).encode()).hexdigest()
        if key not in verdicts:
            verdicts[key] = workload.check(text, s.get("counterexamples"), seed, ref)
        total.add(verdicts[key])
    return total


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def describe(values: list[float]) -> str:
    """Median, quartiles and sample count; a p90 only with ten samples beyond it."""
    n = len(values)
    text = f"median of {n}"
    if n >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f", quartiles {q1:.4g}..{q3:.4g}"
    if n * 0.1 >= 10:
        text += f", p90 {statistics.quantiles(values, n=10)[-1]:.4g}"
    else:
        text += ", no tail percentile (fewer than 10 samples beyond p90)"
    return text


def end_to_end(workload: Workload, good: list[dict]) -> dict[str, list[float]]:
    return {
        "setup_s": [s["setup_s"] for s in good],
        "run_s": [s["run_s"] for s in good],
        "items_per_s": [workload.items / s["run_s"] for s in good],
        "run_ref_s": [s["run_ref_s"] for s in good],
        "items_per_ref_s": [workload.items / s["run_ref_s"] for s in good],
        "peak_rss_mb": [s["peak_rss_mb"] for s in good],
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[checks.Tally, dict, bool]:
    """Measure, check and report one workload; returns (tally, metrics, ok)."""
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{name}-seed{seed}.spans.jsonl" if trace else None
    if spans_path is not None:
        spans_path.unlink(missing_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        started = time.monotonic()
        samples = measure(workload, seed, seconds, trace, workdir, spans_path)
        loop_s = time.monotonic() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # everything below is outside the timed samples
    ref = checks.build_reference(workload.spec, roof=not workload.spec.compare) if workload.spec else None
    tally = tally_samples(workload, samples, seed, ref)
    untraced = [s for s in samples if s["ok"] and not s["traced"]]
    traced = [s for s in samples if s["ok"] and s["traced"]]
    if not untraced or (trace and not traced):
        print(f"{name}: no successful sample; first error: {samples[0].get('error', '?')}", file=sys.stderr)
        return tally, {}, False

    series = end_to_end(workload, untraced)
    print(f"{name}: {len(samples)} fresh processes in {loop_s:.1f} s (closed loop, one client), seed {seed}")
    for metric, values in series.items():
        print(f"  {metric:<15} {statistics.median(values):>12.5g} {UNITS[metric]:<4} {describe(values)}")
    ratio = tally.failed / tally.attempted
    print(f"  {'failed_ratio':<15} {ratio:>12.5g}      {tally.failed} of {tally.attempted} checks failed")
    print(f"  probe chunk median {1e3 * statistics.median(s['probe_s'] for s in untraced):.4g} ms")
    for message in tally.messages:
        print(f"    {message}")

    record = {
        "metadata": metadata(name, workload, seed, seconds, trace, ref),
        "samples": [{k: v for k, v in s.items() if k not in ("output", "counterexamples")} for s in samples],
        "failed_ratio": ratio,
        "checks": {"attempted": tally.attempted, "failed": tally.failed, "messages": tally.messages},
    }
    if trace:
        layers = spans.median_metrics([s["layers"] for s in traced])
        # from the normalised times: raw ones drift between the alternating samples
        traced_ref = statistics.median(s["run_ref_s"] for s in traced)
        layers["trace.overhead_s"] = traced_ref - statistics.median(series["run_ref_s"])
        absent = sorted({a for s in traced for a in s["absent"]})
        missing = spans.absent_metrics(absent)
        print(f"  per layer, median of {len(traced)} traced samples (tracing overhead included):")
        for metric, (unit, _) in spans.LAYER_METRICS.items():
            note = "  absent" if metric in missing else ""
            print(f"    {metric:<26} {layers[metric]:>12.5g} {unit}{note}")
        if absent:
            print(f"  absent sites (renamed or removed): {', '.join(absent)}")
        metrics = {m: {"value": layers[m], "unit": unit} for m, (unit, _) in spans.LAYER_METRICS.items()}
        record.update(layers=layers, absent_sites=absent, absent_metrics=missing, spans_file=str(spans_path))
    else:
        metrics = {m: {"value": statistics.median(series[m]), "unit": UNITS[m]} for m in GATED}
    record["metrics"] = metrics
    record_path = OUT / f"{name}-seed{seed}-trace{trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  record -> {record_path.relative_to(ROOT)}")
    return tally, metrics, True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tcm_tangles" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'tcm_tangles'}; run from a full checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))  # checks.py calls the package for the roof and sweep checks
    warm = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import tcm_tangles.cli"],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if warm.returncode != 0:
        print(f"cannot import tcm_tangles.cli:\n{warm.stderr}", file=sys.stderr)
        return 1

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total, metrics, all_ok = checks.Tally(), {}, True
    for name in names:
        tally, found, ok = run_workload(name, args.seed, args.seconds, args.trace)
        total.add(tally)
        all_ok &= ok
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in found.items()})
    if not all_ok:
        return 1
    print(
        json.dumps(
            {"correct": total.failed == 0, "attempted": total.attempted, "failed": total.failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

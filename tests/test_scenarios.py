import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tcm_tangles as tt
from tcm_tangles import cli, dynamics, random_states, scenarios, tangles, workers
from tcm_tangles.cli import main
from tcm_tangles.scenarios import (
    MAX_PHOTONS,
    MAX_STEPS,
    PRESETS,
    SCENARIO_COLUMNS,
    _build_initial,
    preset_config,
)

from oracles import revival_peak_time


def read_csv(path):
    """(echo_lines, header, data) from one of our CSV files."""
    lines = path.read_text().splitlines()
    echo = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    data = np.array([[float(v) for v in row.split(",")] for row in body[1:]])
    return echo, header, data


def echo_value(echo, key):
    """The number on the ``# key = ...`` echo line."""
    (line,) = [l for l in echo if l.startswith(f"# {key} = ")]
    return float(line.split(" = ", 1)[1])


def printed(values):
    """``values`` as the CSV prints them: 12 digits, dust clamped, read back."""
    a = np.atleast_1d(np.asarray(values, dtype=float))
    a = np.where((tangles.TANGLE_FLOOR < a) & (a < 0.0), 0.0, a)
    return np.array([float(f"{v:.12g}") for v in a])


def small_config(**overrides):
    base = dict(atomic="ee", field="fock", n=2, t_max=3.0, steps=40)
    base.update(overrides)
    return tt.ScenarioConfig(**base)


# small_config as command-line flags
SMALL_FLAGS = ["--atomic", "ee", "--field", "fock", "--n", "2", "--t-max", "3", "--steps", "40"]


# --- presets and configuration ----------------------------------------------


def test_preset_catalog():
    assert set(PRESETS) == {"fig1", "fig2", "fig3", "fig4"}
    fig1 = preset_config("fig1")
    assert (fig1.atomic, fig1.field, fig1.n) == ("ee", "fock", 10)
    assert (fig1.t_max, fig1.steps) == (5.0, 2000)
    fig2 = preset_config("fig2")
    assert (fig2.atomic, fig2.field, fig2.mean_n) == ("ee", "coherent", 100.0)
    assert (fig2.t_max, fig2.steps) == (80.0, 4000)
    fig3 = preset_config("fig3")
    assert fig3.atomic == "sym_plus"
    assert (fig3.field, fig3.mean_n) == ("coherent", 100.0)
    fig4 = preset_config("fig4")
    assert (fig4.atomic, fig4.field) == ("ee", "coherent")
    assert (fig4.mean_n, fig4.t_max, fig4.steps) == (500.0, 140.0, 4000)


def test_preset_overrides_and_unknown_name():
    cfg = preset_config("fig1", steps=100)
    assert cfg.steps == 100 and cfg.n == 10
    with pytest.raises(ValueError):
        preset_config("fig9")
    with pytest.raises(ValueError, match=r"^unknown setting 'g'; choose from \['atomic', "):
        preset_config("fig1", g=2.0)  # every time is gt: there is no coupling to set


@pytest.mark.parametrize(
    "overrides",
    [
        dict(steps=1),
        dict(t_max=0.0),
        dict(n=10.7),
        dict(field="thermal", n=None),
        dict(n=None),  # fock without n
        dict(mean_n=3.0),  # fock with mean_n
        dict(n=-1),
        dict(field="coherent", n=None, mean_n=None),
        dict(field="coherent", mean_n=-2.0, n=None),
        dict(atomic=(0, 0, 0, 0)),
        dict(atomic=(1, 0, 0, math.nan)),  # a NaN norm is not below 1e-12
        dict(atomic=(1, 0, 0, math.inf)),
        dict(atomic=(1, 0, 0)),
        dict(field="coherent", mean_n=4.0),  # coherent with an n
        dict(atomic="xx"),
        dict(t_max=math.inf),
        dict(t_max=math.nan),
        dict(n=math.nan),
        dict(steps=10.5),
        dict(steps=MAX_STEPS + 1),
        dict(field="coherent", n=None, mean_n=math.inf),
        dict(t_max=-1.0),
        dict(field=None),
        dict(mean_n=math.nan),  # fock with a non-finite mean_n
        dict(field="coherent", n=None, mean_n=-math.inf),
        dict(n=MAX_PHOTONS + 1),
        dict(field="coherent", n=None, mean_n=MAX_PHOTONS + 0.5),
        dict(field="coherent", n=None, mean_n=math.nan),
        dict(steps=math.nan),
        dict(n=math.inf),
        dict(steps="40"),
    ],
)
def test_config_validation(overrides):
    with pytest.raises(ValueError):
        small_config(**overrides)


def test_config_whole_number_floats_become_ints():
    config = small_config(n=3.0, steps=40.0)
    assert (config.n, config.steps) == (3, 40)
    assert type(config.n) is int and type(config.steps) is int


# --- running scenarios -------------------------------------------------------


def test_run_scenario_small():
    result = tt.run_scenario(small_config())
    np.testing.assert_allclose(result.gt, np.linspace(0.0, 3.0, 40), atol=0)
    assert result.gt.shape == (40,)
    assert result.max_norm_drift < 1e-10
    assert result.max_excitation_drift < 1e-10
    assert result.gt[0] == 0.0
    for name in SCENARIO_COLUMNS:
        assert result.columns[name].shape == (40,)
    # the initial product state carries no tangle at all
    assert abs(result.columns["tau_F_AA"][0]) < 1e-12
    assert result.columns["tau_F_AA"][1:].max() > 0.01
    assert result.columns["field_eff_dim"].min() >= 1


def test_photon_window_of_each_field():
    # (D, n0): a number state runs on N +- 5, a coherent field from its 1e-32
    # lower tail to its TAIL_MASS cutoff, and every field is padded by 5
    # photons at each cut edge
    cases = [
        (preset_config("fig1"), (11, 5)),
        (preset_config("fig2"), (173, 3)),
        (preset_config("fig4"), (401, 254)),
        (small_config(n=3), (9, 0)),
        (small_config(n=MAX_PHOTONS), (11, MAX_PHOTONS - 5)),
        (small_config(field="coherent", n=None, mean_n=4.0), (28, 0)),
        (small_config(field="coherent", n=None, mean_n=0.0), (6, 0)),
        (small_config(field="coherent", n=None, mean_n=1e-6), (7, 0)),
    ]
    for config, want in cases:
        state, n0 = _build_initial(config)
        assert (state.shape.dims[2], n0) == want, config
    # fig4's window holds the coherent amplitudes from lo = n0 + 5 up to the
    # cutoff, with 5 empty photons at each end, and drops a lower tail below 1e-32
    field = tt.coherent_state(500.0)
    state, n0 = _build_initial(preset_config("fig4"))
    ee = state.tensor()[0, 0]
    assert ee.size == field.size - n0 + 5
    np.testing.assert_allclose(ee[5:-5], field[n0 + 5:], rtol=1e-14, atol=0)
    assert not ee[:5].any() and not ee[-5:].any()
    mass = np.cumsum(np.abs(field) ** 2)
    assert mass[n0 + 4] < 1e-32 <= mass[n0 + 5]
    # a near-vacuum field holds 1e-6 at its cutoff, photon 1, and its padding
    # keeps that out of the guard band, so the run completes
    tt.run_scenario(small_config(atomic="sym_plus", field="coherent", n=None, mean_n=1e-6))


@pytest.mark.parametrize("mean_n", [0.01, 0.1, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("atomic", ["ee", "sym_plus"])
def test_weak_coherent_fields_run_at_default_settings(atomic, mean_n):
    # the guard bands of every window start empty and lie beyond the reach of
    # the evolution, so no weak field trips the truncation guard
    config = tt.ScenarioConfig(
        atomic=atomic, field="coherent", mean_n=mean_n, t_max=40.0, steps=400
    )
    result = tt.run_scenario(config)
    assert result.max_norm_drift < 1e-10 and result.max_excitation_drift < 1e-10


def _count_tcm_columns(patch):
    """Wrap ``scenarios.tcm_columns`` in ``patch``; return the lists that its calls
    and the evolution chunks they read append to."""
    calls, chunks, kernel = [], [], scenarios.tcm_columns

    def counted(states, names):
        calls.append(1)
        return kernel((chunks.append(1) or amps for amps in states), names)

    patch.setattr(scenarios, "tcm_columns", counted)
    return calls, chunks


def test_run_scenario_chunk_invariant(monkeypatch):
    # a coherent field on an offset window, wide enough that the default
    # budget splits these 800 points into full multi-point chunks and a
    # partial last one (a point is 4 * D complex128 amplitudes, 64 * D bytes)
    config = small_config(field="coherent", n=None, mean_n=100.0, steps=800)
    state, n0 = _build_initial(config)
    d = state.shape.dims[2]
    step = dynamics.CHUNK_BUDGET // (64 * d)
    assert n0 > 0 and 800 * 64 * d > dynamics.CHUNK_BUDGET
    assert step > 1 and 800 % step
    monkeypatch.setattr(workers, "allowed_cpus", lambda: 1)
    default = tt.run_scenario(config)
    # dynamics.CHUNK_BUDGET sets the evolution chunks and the segment rule, and
    # scenarios.BATCH the points of one TcmPropagator._evolve_rows call, which yields
    # (N, 3, D) chunks for this exchange-symmetric start, and one tcm_columns call;
    # with two CPUs a budget of 1 forks two segments
    for cpus in (1, 2) if hasattr(os, "fork") else (1,):
        monkeypatch.setattr(workers, "allowed_cpus", lambda: cpus)
        for budget in (1, dynamics.CHUNK_BUDGET, 10**9):  # one point per chunk ... the whole grid
            for batch in (1, 7, scenarios.BATCH):
                with monkeypatch.context() as patch:
                    patch.setattr(dynamics, "CHUNK_BUDGET", budget)
                    patch.setattr(scenarios, "BATCH", batch)
                    calls, _ = _count_tcm_columns(patch)
                    other = tt.run_scenario(config)
                    if cpus == 1:  # a forked segment's calls are not counted here
                        assert len(calls) == -(-800 // batch)
                    exact = scenarios._evolve_columns(config, ("tau_F_AA",)).columns["tau_F_AA"]
                for name in SCENARIO_COLUMNS:
                    np.testing.assert_array_equal(other.columns[name], default.columns[name])
                np.testing.assert_array_equal(exact, default.columns["tau_F_AA"])
                assert other.max_norm_drift == default.max_norm_drift
                assert other.max_excitation_drift == default.max_excitation_drift


def test_fig2_makes_one_tcm_columns_call(monkeypatch):
    # 43 evolution chunks of at most 94 points feed one tcm_columns call,
    # counted in this process: one CPU, so no segment is forked
    monkeypatch.setattr(workers, "allowed_cpus", lambda: 1)
    calls, chunks = _count_tcm_columns(monkeypatch)
    tt.run_scenario(preset_config("fig2"))
    assert (len(calls), len(chunks)) == (1, 43)


def test_columns_are_written_in_place(monkeypatch):
    # 2e5 fig1 points hold 12.8 MB of grid and columns; joining per-batch parts
    # once peaked at twice that.  The columns sit in their shared mapping, which
    # tracemalloc does not see, so it sees the grid, one chunk and the per-chunk
    # parts of one tcm_columns call, about 7.5 MB however long the grid
    monkeypatch.setattr(workers, "allowed_cpus", lambda: 1)
    tracemalloc.start()
    try:
        result = scenarios._evolve_columns(preset_config("fig1", steps=200_000), SCENARIO_COLUMNS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(column.nbytes for column in result.columns.values())
    assert columns == 7 * 8 * 200_000
    assert peak < result.gt.nbytes + columns


def _forks(patch):
    """Count ``os.fork`` calls through ``patch``; return the list they append to."""
    forks, fork = [], os.fork
    patch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks two segments")
def test_worker_count_changes_no_output(monkeypatch, tmp_path):
    # fig4: 4,000 points of D = 401 are 100 evolution chunks, two segments on two CPUs
    config = preset_config("fig4")
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(workers, "allowed_cpus", lambda: cpus)
        with monkeypatch.context() as patch:
            forks = _forks(patch)
            result = scenarios._evolve_columns(config, ("tau_F_AA",))
        assert len(forks) == (cpus > 1) * 2
        runs[cpus] = result
    np.testing.assert_array_equal(runs[1].columns["tau_F_AA"], runs[2].columns["tau_F_AA"])
    assert runs[1].max_norm_drift == runs[2].max_norm_drift
    assert runs[1].max_excitation_drift == runs[2].max_excitation_drift
    # the command line's bytes, on grids short enough that one chunk a segment forks
    monkeypatch.setattr(scenarios, "SEGMENT_CHUNKS", 1)
    commands = [["scenario", "--preset", "fig1"]]
    commands += [["scenario", "--preset", f, "--steps", "400"] for f in ("fig2", "fig3", "fig4")]
    commands += [["compare-approx", "--preset", "fig4", "--steps", "400"]]
    for argv in commands:
        written = []
        for cpus in (1, 2):
            monkeypatch.setattr(workers, "allowed_cpus", lambda: cpus)
            out = tmp_path / f"{cpus}.csv"
            with monkeypatch.context() as patch:
                forks = _forks(patch)
                assert main(argv + ["--out", str(out)]) == 0
            assert len(forks) == (cpus > 1) * 2
            written.append(out.read_bytes())
        assert written[0] == written[1], argv


def test_short_grids_run_in_process(monkeypatch):
    # fig1 (2,000 points of D = 11: 2 chunks) and the scaling study (1 chunk
    # per photon number) give no segment its 8 chunks, so nothing forks
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(workers, "allowed_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    tt.run_scenario(preset_config("fig1"))
    tt.scaling_study((5, 10, 20, 40))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks two segments")
@pytest.mark.parametrize(
    "start, error", [(0.75, dynamics.TruncationError), (0.25, RuntimeError)]
)
def test_segment_failures_raise_as_one_worker(monkeypatch, tmp_path, capsys, start, error):
    # every evolved time from start * t_max on fails: from 0.75 only the later
    # segment fails, from 0.25 both do; the first failure in grid order is raised
    check = dynamics.TcmPropagator._check_times

    def fails_late(self, psi, k_ref, t, n0):
        late = t >= start * 5.0
        if late.any():
            raise error(f"failed at t={t[np.argmax(late)]!r}")
        check(self, psi, k_ref, t, n0)

    monkeypatch.setattr(dynamics.TcmPropagator, "_check_times", fails_late)
    monkeypatch.setattr(scenarios, "SEGMENT_CHUNKS", 1)  # fig1's 2 chunks fork 2 segments
    argv = ["scenario", "--preset", "fig1", "--out", str(tmp_path / "x.csv")]
    reports = []
    for cpus in (1, 2):
        monkeypatch.setattr(workers, "allowed_cpus", lambda: cpus)
        with pytest.raises(error) as info:
            tt.run_scenario(preset_config("fig1"))
        reports.append((type(info.value), str(info.value), main(argv), capsys.readouterr().err))
    assert reports[0] == reports[1]
    first = np.linspace(0.0, 5.0, 2000)[np.linspace(0.0, 5.0, 2000) >= start * 5.0][0]
    assert reports[0][1] == f"failed at t={first!r}"
    assert reports[0][2] == 2 and reports[0][3].count("\n") == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_singlet_scenario_is_frozen():
    result = tt.run_scenario(
        tt.ScenarioConfig(atomic="singlet", field="fock", n=1, t_max=4.0, steps=30)
    )
    for name in SCENARIO_COLUMNS:
        col = result.columns[name]
        np.testing.assert_allclose(col, col[0], atol=1e-10)
    # the dark pair stays maximally entangled with itself, never the field
    assert abs(result.columns["tau_AA"][0] - 1.0) < 1e-10
    assert abs(result.columns["tau_F_AA"][0]) < 1e-12


def test_scenario_csv_round_trip(tmp_path):
    out = tmp_path / "run.csv"
    result = tt.run_scenario(small_config())
    assert main(["scenario", *SMALL_FLAGS, "--out", str(out)]) == 0
    echo, header, data = read_csv(out)
    assert echo[0] == "# tcm-tangles"
    assert "# atomic = ee" in echo
    assert "# field = fock" in echo
    assert "# n = 2" in echo
    assert not any("out" in line.split(" = ")[0] for line in echo[1:])
    assert header == ["gt"] + list(SCENARIO_COLUMNS)
    assert data.shape == (40, 8)
    np.testing.assert_allclose(data[:, 0], result.gt, rtol=1e-11)
    for j, name in enumerate(SCENARIO_COLUMNS, start=1):
        np.testing.assert_allclose(data[:, j], result.columns[name], atol=2e-9)


def test_scenario_echo_keys_in_order(tmp_path):
    # readers of the echo (bench/checks.py among them) expect these keys; the
    # g line is fixed, and states the unit of every time, gt, and the rank_tol
    # line is fixed at the effective-rank cutoff RANK_TOL
    out = tmp_path / "fig1.csv"
    assert main(["scenario", "--preset", "fig1", "--steps", "20", "--out", str(out)]) == 0
    echo, _, _ = read_csv(out)
    assert echo[0] == "# tcm-tangles"
    keys = [line[2:].split(" = ")[0] for line in echo[1:]]
    assert keys == ["atomic", "field", "n", "mean_n", "g", "t_max", "steps", "tail_tol", "rank_tol"]
    assert echo[5:7] == ["# g = 1.0", "# t_max = 5.0"]
    assert echo[-1] == "# rank_tol = 1e-10"


def test_scenario_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["scenario", *SMALL_FLAGS, "--out", str(a)]) == 0
    assert main(["scenario", *SMALL_FLAGS, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_the_library_writes_no_file(tmp_path, monkeypatch):
    # the command line writes every output file; the library returns arrays
    monkeypatch.chdir(tmp_path)
    tt.run_scenario(small_config())
    coherent = dict(atomic="ee", field="coherent", mean_n=4.0, t_max=12.0, steps=300)
    tt.compare_exact_vs_approx(tt.ScenarioConfig(**coherent))
    tt.scaling_study((4, 8, 16), steps=50)
    tt.positivity_sweep((2, 2, 3), samples=100)
    # nor does a sweep whose every state is below the threshold
    monkeypatch.setattr(
        random_states, "tcm_columns", lambda batch, *_: {"tau_res": np.full(len(batch), -1.0)}
    )
    assert tt.positivity_sweep((2, 2, 3), samples=100).negative_states.shape == (100, 12)
    assert list(tmp_path.iterdir()) == []


def test_csv_formatting_clamps_dust_only(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "CSV_BLOCK", 2)  # the five rows span three blocks
    out = tmp_path / "rows.csv"
    values = np.array([-5e-10, -2e-9, 0.25, 1.0, -0.0])
    # only a tangle column is clamped; any other float column prints as computed
    columns = {"tau_AA": values, "inversion": values, "k": np.full(5, 7, dtype=np.int64)}
    cli._write_rows(str(out), ["# echo"], columns)
    assert out.read_bytes() == (
        b"# echo\ntau_AA,inversion,k\n0,-5e-10,7\n-2e-09,-2e-09,7\n0.25,0.25,7\n1,1,7\n-0,-0,7\n"
    )


# --- revival location --------------------------------------------------------


def test_revival_peak_time_synthetic():
    gt = np.linspace(0.0, 100.0, 4001)
    envelope = np.exp(-(((gt - 40.0) / 5.0) ** 2))
    signal = envelope * np.cos(10.0 * gt)
    assert abs(revival_peak_time(gt, signal, search=(15.0, 80.0)) - 40.0) < 0.5


def test_revival_peak_time_errors():
    gt = np.linspace(0.0, 10.0, 101)
    signal = np.cos(gt)
    with pytest.raises(ValueError):
        revival_peak_time(gt, signal, search=(200.0, 300.0))
    with pytest.raises(ValueError):
        revival_peak_time(gt, signal, window_gt=1000.0)


def test_revival_peak_time_rejects_short_grid():
    for n in (0, 1):
        with pytest.raises(ValueError, match="at least 2 points"):
            revival_peak_time(np.zeros(n), np.zeros(n))


def test_revival_peak_time_rejects_mismatched_lengths():
    gt = np.linspace(0.0, 100.0, 4001)
    with pytest.raises(ValueError, match="does not match"):
        revival_peak_time(gt, np.cos(10.0 * gt)[:-1])


# --- exact vs approximate ----------------------------------------------------


def test_compare_needs_coherent_field():
    with pytest.raises(ValueError):
        tt.compare_exact_vs_approx(small_config())


def test_compare_small_coherent(tmp_path):
    out = tmp_path / "cmp.csv"
    # mean 4 is far outside the approximation's regime, which is fine here:
    # this only exercises the plumbing
    flags = ["--atomic", "ee", "--field", "coherent", "--mean-n", "4", "--t-max", "12"]
    config = tt.ScenarioConfig(atomic="ee", field="coherent", mean_n=4.0, t_max=12.0, steps=300)
    result = tt.compare_exact_vs_approx(config)
    assert main(["compare-approx", *flags, "--steps", "300", "--out", str(out)]) == 0

    revival_gt = 2.0 * math.pi * 2.0
    assert abs(result.window[0] - 0.2 * revival_gt) < 1e-12
    assert abs(result.window[1] - 0.8 * revival_gt) < 1e-12

    np.testing.assert_array_equal(result.approx, tt.approx_tau_F_AA("ee", result.gt, 4.0))
    mask = (result.gt >= result.window[0]) & (result.gt <= result.window[1])
    np.testing.assert_array_equal(result.abs_diff, np.abs(result.exact - result.approx))
    sup = np.max(result.abs_diff[mask])
    assert result.window_sup_norm == pytest.approx(sup, abs=0)

    echo, header, data = read_csv(out)
    assert header == ["gt", "tau_F_AA_exact", "tau_F_AA_approx", "abs_diff"]
    assert data.shape == (300, 4)
    np.testing.assert_array_equal(data[:, 0], printed(result.gt))
    np.testing.assert_array_equal(data[:, 1], printed(result.exact))
    np.testing.assert_array_equal(data[:, 2], printed(result.approx))
    np.testing.assert_allclose(data[:, 3], np.abs(data[:, 1] - data[:, 2]), atol=2e-9)
    (window_line,) = [l for l in echo if l.startswith("# window_gt = [")]
    window = [float(v) for v in window_line[len("# window_gt = ["):-1].split(", ")]
    np.testing.assert_array_equal(window, printed(result.window))
    assert echo_value(echo, "window_sup_norm") == printed(result.window_sup_norm)[0]


def test_compare_grid_must_reach_window():
    config = tt.ScenarioConfig(
        atomic="ee", field="coherent", mean_n=100.0, t_max=1.0, steps=50
    )
    with pytest.raises(ValueError):
        tt.compare_exact_vs_approx(config)



def test_compare_checks_config_before_the_exact_run(monkeypatch):
    # a fock field, a singlet component, mean_n <= 1/2 and a grid that misses
    # the window all fail from the config alone; none may wait for the run
    def no_run(self, state, times, n0=0):
        raise AssertionError("the exact run started")

    # scenarios evolve through _evolve_rows; evolve_series is its public four-row form
    for method in ("_evolve_rows", "evolve_series"):
        monkeypatch.setattr(tt.TcmPropagator, method, no_run)
    base = dict(atomic="ee", field="coherent", mean_n=100.0, t_max=140.0, steps=50)
    bad_configs = [
        dict(field="fock", mean_n=None, n=3),
        dict(atomic="singlet"),
        dict(mean_n=0.3),
        dict(t_max=1.0),
    ]
    for bad in bad_configs:
        with pytest.raises(ValueError):
            tt.compare_exact_vs_approx(tt.ScenarioConfig(**{**base, **bad}))


@pytest.mark.parametrize(
    "atomic", ["ee", "sym_plus", "cat_plus", (0.3 + 0.4j, 0.5 - 0.1j, 0.5 - 0.1j, -0.2j)]
)
def test_compare_exact_is_the_scenario_column(atomic):
    config = tt.ScenarioConfig(
        atomic=atomic, field="coherent", mean_n=4.0, t_max=12.0, steps=120
    )
    exact = tt.compare_exact_vs_approx(config).exact
    assert np.array_equal(exact, tt.run_scenario(config).columns["tau_F_AA"])


def test_evolution_checks_reach_scenario_and_compare(monkeypatch):
    config = tt.ScenarioConfig(
        atomic="ee", field="coherent", mean_n=4.0, t_max=12.0, steps=60
    )
    for name, error in (("CONSERVATION_TOL", RuntimeError), ("GUARD_TOL", tt.TruncationError)):
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, name, -1.0)
            for run in (tt.run_scenario, tt.compare_exact_vs_approx):
                with pytest.raises(error) as info:
                    run(config)
                assert info.type is error  # TruncationError is a RuntimeError too


# --- scaling -------------------------------------------------------------


def test_scaling_validation():
    with pytest.raises(ValueError):
        tt.scaling_study((5, 5, 10))
    with pytest.raises(ValueError):
        tt.scaling_study((1, 2, 3))
    with pytest.raises(ValueError):
        tt.scaling_study((5, 10, 20), steps=1)
    with pytest.raises(ValueError):
        tt.scaling_study((5, 10, 20), steps=MAX_STEPS + 1)
    with pytest.raises(ValueError, match="steps must be an integer"):
        tt.scaling_study((5, 10, 20), steps=10.5)
    with pytest.raises(ValueError, match="scaling photon numbers must be an integer"):
        tt.scaling_study((5, 10.5, 20))
    with pytest.raises(ValueError, match="scaling photon numbers must lie in 2 .. 100000"):
        tt.scaling_study((5, 10, MAX_PHOTONS + 1))


def test_scaling_small_run(tmp_path):
    out = tmp_path / "scaling.csv"
    result = tt.scaling_study((4, 8, 16), steps=200)
    assert main(["scaling", "--n", "4,8,16", "--steps", "200", "--out", str(out)]) == 0
    assert result.ns == (4, 8, 16)
    assert result.peaks.shape == (3,)
    assert (result.peaks > 0).all()
    # the peak pair tangle falls off with photon number
    assert result.peaks[0] > result.peaks[1] > result.peaks[2]
    assert result.slope < -1.0

    echo, header, data = read_csv(out)
    assert echo[:4] == ["# tcm-tangles scaling", "# atomic = gg", "# g = 1.0", "# steps = 200"]
    assert echo_value(echo, "loglog_slope") == printed(result.slope)[0]
    assert header == ["n", "peak_tau_AA"]
    assert data.shape == (3, 2)
    np.testing.assert_array_equal(data[:, 0], [4, 8, 16])
    np.testing.assert_array_equal(data[:, 1], printed(result.peaks))


def _single_block_peak_tau_aa(n, steps):
    """Peak tau_AA of gg x |n> over scaling_study's grid, in closed form.

    Only block K = n is populated: a|gg, n> + b|sym, n-1> + c|ee, n-2> with
    ladder couplings v = sqrt(2n) (gg-sym) and u = sqrt(2(n-1)) (sym-ee).
    Tracing out the field leaves rho_AA diagonal in {ee, sym, gg}, whose
    concurrence is max(0, p_sym - 2 sqrt(p_ee p_gg)).
    """
    omega = math.sqrt(4.0 * n - 2.0)
    gts = np.linspace(0.0, 2.0 * math.pi / omega, steps)
    u2, v2 = 2.0 * (n - 1), 2.0 * n
    cos = np.cos(omega * gts)
    p_gg = ((u2 + v2 * cos) / omega**2) ** 2
    p_sym = v2 / omega**2 * np.sin(omega * gts) ** 2
    p_ee = u2 * v2 * ((cos - 1.0) / omega**2) ** 2
    return float(np.max(np.maximum(0.0, p_sym - 2.0 * np.sqrt(p_ee * p_gg)) ** 2))


def test_scaling_peaks_match_the_single_block_closed_form():
    # the window of gg x |n> has 11 photons at every n >= 5, so n near
    # MAX_PHOTONS costs no more than n = 5; the concurrence C = sqrt(tau_AA)
    # comes from a difference of O(1) populations, so it is compared
    # absolutely (measured: within 1e-16 at n = 99,999, where C = 1e-5)
    ns = (2, 5, 40, 1000, MAX_PHOTONS - 1)
    peaks = tt.scaling_study(ns).peaks
    closed = [_single_block_peak_tau_aa(n, 400) for n in ns]
    np.testing.assert_allclose(np.sqrt(peaks), np.sqrt(closed), rtol=0, atol=1e-14)
    assert 0.999 < peaks[-1] * (MAX_PHOTONS - 1) ** 2 < 1.0


def test_scaling_runs_the_scenario_loop(monkeypatch):
    # each peak is the largest tau_AA of the same gg x |n> scenario, and the
    # column range check covers it
    ns = (4, 8, 16)
    peaks = tt.scaling_study(ns, steps=200).peaks
    for n, peak in zip(ns, peaks):
        period = 2.0 * math.pi / math.sqrt(4.0 * n - 2.0)
        config = tt.ScenarioConfig(atomic="gg", field="fock", n=n, t_max=period, steps=200)
        assert peak == tt.run_scenario(config).columns["tau_AA"].max()
    monkeypatch.setattr(tangles, "_wootters_batch", lambda w: np.full(w.shape[-1], np.nan))
    with pytest.raises(RuntimeError) as info:
        tt.scaling_study(ns, steps=200)
    assert str(info.value) == "tau_AA = nan outside [-1e-09, 1]"


def test_range_check_message_has_no_suffix(monkeypatch, tmp_path, capsys):
    # a failure names the column, its first bad value and the range, nothing
    # more; no setting causes it, so it is a run error (exit 2), not a config error
    with monkeypatch.context() as patch:
        patch.setattr(tangles, "_wootters_batch", lambda w: np.full(w.shape[-1], np.nan))
        with pytest.raises(RuntimeError) as info:
            tt.run_scenario(small_config())
        assert not isinstance(info.value, ValueError)
        assert str(info.value) == "tau_AA = nan outside [-1e-09, 1]"
        argv = ["scenario", "--preset", "fig1", "--steps", "20", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "run error: tau_AA = nan outside [-1e-09, 1]\n"
    # a large pairwise atom-field tangle passes its own check but drives tau_res negative
    monkeypatch.setattr(tangles, "_pair_tangle", lambda r, tau_q: np.full(r.shape[-1], 10.0))
    with pytest.raises(RuntimeError) as info:
        tt.run_scenario(small_config())
    # at gt = 0 every tangle but the patched pair is 0 and every rank is 1: -(2/3) * 10
    assert str(info.value) == "tau_res = -6.666666666666667 outside [-1e-09, inf]"


# --- command line --------------------------------------------------------


def test_cli_scenario_runs(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    code = main(
        ["scenario", "--preset", "fig1", "--steps", "60", "--t-max", "1.0",
         "--out", str(out)]
    )
    assert code == 0
    assert "60 points" in capsys.readouterr().out
    echo, header, data = read_csv(out)
    assert "# steps = 60" in echo
    assert "# t_max = 1.0" in echo
    assert "# n = 10" in echo  # inherited from the preset
    assert data.shape == (60, 8)


def test_cli_merge_order(tmp_path):
    out = tmp_path / "m.csv"
    code = main(
        ["scenario", "--preset", "fig1", "--steps", "88", "--t-max", "0.5", "--out", str(out)]
    )
    assert code == 0
    echo, _, data = read_csv(out)
    assert "# steps = 88" in echo  # the preset's 2000 is overridden
    assert "# t_max = 0.5" in echo  # the preset's 5.0 is overridden
    assert "# n = 10" in echo  # inherited from the preset
    assert data.shape == (88, 8)


def test_cli_field_switch_drops_other_kind(tmp_path):
    out = tmp_path / "s.csv"
    code = main(
        ["scenario", "--preset", "fig2", "--field", "fock", "--n", "3",
         "--t-max", "1.0", "--steps", "30", "--out", str(out)]
    )
    assert code == 0
    echo, _, _ = read_csv(out)
    assert "# field = fock" in echo
    assert "# n = 3" in echo
    assert "# mean_n = None" in echo


@pytest.mark.parametrize(
    "flags, preset, overrides",
    [
        ([], "fig1", {}),
        (["--field", "fock", "--n", "10"], "fig2", dict(field="fock", n=10)),  # drops mean_n
        (["--field", "coherent", "--mean-n", "30"], "fig1", dict(field="coherent", mean_n=30.0)),
        (["--atomic", "ee", "--field", "fock", "--n", "3"], None,
         dict(atomic="ee", field="fock", n=3)),
    ],
)
def test_cli_builds_the_preset_config(flags, preset, overrides):
    argv = ["scenario"] + (["--preset", preset] if preset else []) + flags + ["--out", "x.csv"]
    built = cli._scenario_config(cli.build_parser().parse_args(argv))
    assert built == preset_config(preset, **overrides)


def test_cli_and_preset_config_refuse_a_missing_atomic_state_alike():
    args = cli.build_parser().parse_args(["scenario", "--field", "fock", "--n", "3", "--out", "x"])
    with pytest.raises(ValueError) as from_cli:
        cli._scenario_config(args)
    with pytest.raises(ValueError) as from_library:
        preset_config(field="fock", n=3)
    assert str(from_cli.value) == str(from_library.value) == "missing required setting 'atomic'"


def test_cli_config_errors_exit_1(tmp_path, capsys):
    out = tmp_path / "x.csv"
    # missing the field kind entirely
    assert main(["scenario", "--atomic", "ee", "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    # bad usage caught by the argument parser
    assert main(["scenario", "--preset", "nope", "--out", str(out)]) == 1
    # fock scenario without a photon number
    assert main(["scenario", "--atomic", "ee", "--field", "fock", "--out", str(out)]) == 1
    capsys.readouterr()
    # a singlet component is outside the large-field approximation
    assert main(["compare-approx", "--atomic", "singlet", "--field", "coherent",
                 "--mean-n", "4", "--t-max", "12", "--steps", "10", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "dark singlet" in err
    assert not out.exists()
    # no subcommand reads a config file: --config is an unknown flag
    cfg = tmp_path / "k.cfg"
    cfg.write_text("steps = 5\n")
    for argv in (["scenario", "--preset", "fig1"], ["compare-approx", "--preset", "fig4"]):
        assert main(argv + ["--steps", "5", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unrecognized arguments: --config" in err
        assert not out.exists()
    assert main(["sweep", "--dims", "2x2x3", "--samples", "5", "--config", str(cfg),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unrecognized arguments: --config" in err
    assert not out.exists()
    # a library ValueError reaches stderr as one line, its text unchanged
    for argv, call in (
        (["scenario", "--preset", "fig1", "--atomic", "bogus"], lambda: tt.atomic_state("bogus")),
        (["compare-approx", "--preset", "fig4", "--mean-n", "0.4"],
         lambda: tt.approx_tau_F_AA("ee", 0.0, 0.4)),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {info.value}\n"
        assert "\n" not in str(info.value)
        assert not out.exists()


def test_steps_are_bounded(tmp_path, capsys):
    assert small_config(steps=MAX_STEPS).steps == MAX_STEPS  # builds the config only
    out = tmp_path / "big.csv"
    for argv in (["scenario", "--preset", "fig1", "--steps", "1000000000"],
                 ["compare-approx", "--preset", "fig4", "--steps", "1000000000"],
                 ["scaling", "--n", "4,8,16", "--steps", "1000000000"]):
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "steps must lie in 2 .. 10000000" in err
        assert not out.exists()


def test_photon_numbers_are_bounded(tmp_path, capsys):
    # configs at the bound build (nothing runs); the CLI refuses one past it
    assert small_config(n=MAX_PHOTONS).n == MAX_PHOTONS
    assert small_config(field="coherent", n=None, mean_n=MAX_PHOTONS).mean_n == MAX_PHOTONS
    out = tmp_path / "big.csv"
    over = str(MAX_PHOTONS + 1)
    for argv, name in ((["scenario", "--preset", "fig1", "--n", over], "n"),
                       (["scenario", "--preset", "fig1", "--n", "1000000000"], "n"),
                       (["scenario", "--preset", "fig2", "--mean-n", "1e9"], "mean_n"),
                       (["compare-approx", "--preset", "fig4", "--mean-n", over], "mean_n"),
                       (["scaling", "--n", f"4,8,{over}"], "scaling photon numbers")):
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{name} must lie in" in err and "100000" in err
        assert not out.exists()


def test_cli_non_finite_input_exits_1(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["scenario", "--atomic", "ee", "--field", "fock", "--n", "3",
            "--t-max", "inf", "--steps", "5", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "t_max must be a finite real number, got inf" in err
    assert not out.exists()


def test_cli_truncation_guard_exits_2(tmp_path, capsys, monkeypatch):
    out = tmp_path / "t.csv"
    monkeypatch.setattr(dynamics, "GUARD_TOL", -1.0)  # no scenario window trips the guard
    code = main(
        ["scenario", "--atomic", "ee", "--field", "coherent", "--mean-n", "20",
         "--t-max", "3.0", "--steps", "40", "--out", str(out)]
    )
    assert code == 2
    # TruncationError is a RuntimeError, but keeps its own prefix
    err = capsys.readouterr().err
    assert err.startswith("truncation guard: ") and err.count("\n") == 1


def test_cli_run_errors_exit_2(tmp_path, capsys, monkeypatch):
    # a RuntimeError that stops a run is one stderr line and exit 2, not a traceback
    out = tmp_path / "r.txt"
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "CONSERVATION_TOL", -1.0)
        assert main(["scenario", "--preset", "fig1", "--steps", "20", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run error: conservation violated at t=0") and err.count("\n") == 1

    monkeypatch.setattr(random_states, "BLOCK", 40)
    monkeypatch.setattr(workers, "allowed_cpus", lambda: 1)
    sweep = ["sweep", "--dims", "2x2x3", "--samples", "120", "--out", str(out)]
    real = random_states.tcm_columns
    with monkeypatch.context() as patch:
        patch.setattr(random_states, "tcm_columns",
                      lambda b, n: {"tau_res": np.where(b[:, 0].real > 0, np.nan,
                                                        real(b, n)["tau_res"])})
        assert main(sweep) == 2
    err = capsys.readouterr().err
    assert err.startswith("run error: ") and err.count("\n") == 1
    assert "non-finite residual tangle values among samples 0..39" in err

    if not hasattr(os, "fork"):
        pytest.skip("the dead-worker legs fork two workers")
    # a worker that dies, in a sweep or in a scenario segment, ends the run
    # as one line, and leaves no child process behind, running or exited
    monkeypatch.setattr(workers, "allowed_cpus", lambda: 2)
    monkeypatch.setattr(scenarios, "SEGMENT_CHUNKS", 1)  # fig1's 2 chunks fork 2 segments
    parent = os.getpid()

    def dies_in_a_worker(real):
        def dies(*args, **kw):
            if os.getpid() != parent:
                os._exit(1)
            return real(*args, **kw)
        return dies

    scenario = ["scenario", "--preset", "fig1", "--out", str(out)]
    for module, name, argv in [(random_states, "tcm_columns", sweep),
                               (scenarios, "tcm_columns", scenario)]:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, dies_in_a_worker(getattr(module, name)))
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "run error: a worker process exited with code 1 before it sent its results\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_cli_compare_approx(tmp_path, capsys, monkeypatch):
    out = tmp_path / "c.csv"
    argv = ["compare-approx", "--atomic", "ee", "--field", "coherent",
            "--mean-n", "4.0", "--t-max", "12.0", "--steps", "200", "--out", str(out)]
    code = main(argv)
    assert code == 0
    assert "window sup-norm" in capsys.readouterr().out
    _, header, _ = read_csv(out)
    assert header == ["gt", "tau_F_AA_exact", "tau_F_AA_approx", "abs_diff"]
    # a non-finite exact tangle fails the range check: a run error, exit 2, one line
    kernel = scenarios.tcm_columns

    def nan_tau_f_aa(states, names):
        part = kernel(states, names)
        return {**part, "tau_F_AA": np.full_like(part["tau_F_AA"], np.nan)}

    monkeypatch.setattr(scenarios, "tcm_columns", nan_tau_f_aa)
    assert main(argv) == 2
    assert capsys.readouterr().err == "run error: tau_F_AA = nan outside [-1e-09, inf]\n"


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.txt"
    code = main(
        ["sweep", "--dims", "2x2x3", "--samples", "50", "--seed", "3",
         "--out", str(out)]
    )
    assert code == 0
    assert "50 samples" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert "samples,min_value,negative_count" in lines
    row = lines[lines.index("samples,min_value,negative_count") + 1].split(",")
    assert row[0] == "50"
    assert float(row[1]) >= 0.0
    assert row[2] == "0"
    assert "# rank_tol = 1e-10" in lines and "# measure = haar" in lines
    # dims are written 2x2x4 only; the comma form and unsupported shapes exit 1
    assert main(["sweep", "--dims", "2x2x4", "--samples", "10", "--out", str(out)]) == 0
    assert "# dims = 2 2 4" in out.read_text().splitlines()
    capsys.readouterr()
    assert main(["sweep", "--dims", "2,2,4", "--samples", "10", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: cannot parse dims '2,2,4' (expected e.g. 2x2x3)\n"
    )
    assert main(["sweep", "--dims", "2x2x5", "--samples", "10", "--out", str(out)]) == 1
    assert main(["sweep", "--dims", "2x2x3", "--samples", "0", "--out", str(out)]) == 1
    capsys.readouterr()
    too_many = str(random_states.MAX_SAMPLES + 1)
    assert main(["sweep", "--dims", "2x2x3", "--samples", too_many, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: samples must lie in 1 .. {random_states.MAX_SAMPLES}, got {too_many}\n"
    )
    base = ["sweep", "--dims", "2x2x3", "--samples", "10", "--out", str(out)]
    assert main(base + ["--seed", "-1"]) == 1
    assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
    # the worker count follows the affinity mask; it is not a flag
    assert main(base + ["--workers", "1"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unrecognized arguments: --workers 1" in err


def test_rank_tol_is_not_a_setting(tmp_path, capsys):
    # the effective-rank cutoff is the constant RANK_TOL: no flag sets it,
    # and asking for one exits 1 before any run
    out = tmp_path / "x.csv"
    for argv in (
        ["scenario", "--preset", "fig1", "--steps", "5"],
        ["compare-approx", "--preset", "fig4", "--steps", "5"],
        ["sweep", "--dims", "2x2x3", "--samples", "5"],
    ):
        assert main(argv + ["--rank-tol", "1e-10", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unrecognized arguments: --rank-tol 1e-10" in err
        assert not out.exists()


def test_tail_tol_is_not_a_setting(tmp_path, capsys):
    # the coherent cutoff is the constant dynamics.TAIL_MASS: no flag,
    # config field or coherent_state argument sets it
    out = tmp_path / "x.csv"
    for argv in (
        ["scenario", "--preset", "fig2", "--steps", "5"],
        ["compare-approx", "--preset", "fig4", "--steps", "5"],
    ):
        assert main(argv + ["--tail-tol", "1e-12", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unrecognized arguments: --tail-tol 1e-12" in err
        assert not out.exists()
    with pytest.raises(ValueError, match="^unknown setting 'tail_tol'; choose from"):
        preset_config("fig2", tail_tol=1e-12)
    with pytest.raises(TypeError):
        tt.coherent_state(30.0, tail_tol=1e-12)


def test_csv_clamps_only_tangle_columns(tmp_path):
    # |cat_plus, 0> starts to lose |ee, 0> at once, so the inversion dips below
    # 0 by less than the tangle floor; the CSV keeps those values
    out = tmp_path / "c.csv"
    argv = ["scenario", "--atomic", "cat_plus", "--field", "fock", "--n", "0",
            "--t-max", "1e-5", "--steps", "5", "--out", str(out)]
    assert main(argv) == 0
    _, header, data = read_csv(out)
    config = tt.ScenarioConfig(atomic="cat_plus", field="fock", n=0, t_max=1e-5, steps=5)
    inversion = tt.run_scenario(config).columns["inversion"]
    assert np.all((tangles.TANGLE_FLOOR < inversion[1:]) & (inversion[1:] < 0.0))
    np.testing.assert_array_equal(
        data[:, header.index("inversion")], [float(f"{v:.12g}") for v in inversion]
    )


def test_cli_scaling(tmp_path):
    out = tmp_path / "sc.csv"
    assert main(["scaling", "--n", "4,8,16", "--steps", "100", "--out", str(out)]) == 0
    _, header, data = read_csv(out)
    assert header == ["n", "peak_tau_AA"]
    assert data.shape == (3, 2)
    assert main(["scaling", "--n", "5,x", "--out", str(out)]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["scenario", "--preset", "fig1", "--steps", "20"],
        ["compare-approx", "--preset", "fig4", "--mean-n", "4", "--t-max", "12",
         "--steps", "20"],
        ["sweep", "--dims", "2x2x3", "--samples", "10"],
        ["scaling", "--n", "4,8,16", "--steps", "20"],
    ],
)
def test_cli_unwritable_out_exits_1(tmp_path, capsys, monkeypatch, argv):
    # a path in a missing directory, an empty path and a directory are found
    # before any run starts, and no file is made
    def never(*args, **kwargs):
        raise AssertionError("a run started before the output path was checked")

    for name in ("run_scenario", "compare_exact_vs_approx", "scaling_study", "positivity_sweep"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.chdir(tmp_path)  # where a file for the empty path would land
    directory = tmp_path / "d"
    directory.mkdir()
    for out, error in (
        (str(tmp_path / "missing_dir" / "x.csv"), "[Errno 2] No such file or directory"),
        ("", "[Errno 2] No such file or directory"),
        (str(directory), "[Errno 21] Is a directory"),
    ):
        assert main(argv + ["--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"output error: {error}: '{out}'\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [directory]
        assert list(directory.iterdir()) == []


_CLI_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e300, -1e300]),
    st.floats(),
)


# small grids, or grids over the bound, which are refused before anything is allocated
_CLI_STEPS = st.one_of(st.integers(-2, 6), st.integers(MAX_STEPS + 1, 10**18))

# likewise small fields, or fields over the bound
_CLI_PHOTONS = st.one_of(st.integers(-2, 6), st.integers(MAX_PHOTONS + 1, 10**18))
_CLI_MEAN_N = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, -1.0, 0.5, 1e300]),
    st.floats(0.0, 6.0),
    st.floats(MAX_PHOTONS, 1e300, exclude_min=True),
)


@settings(max_examples=50, deadline=None)
@given(t_max=_CLI_FLOATS, steps=_CLI_STEPS, n=_CLI_PHOTONS, mean_n=_CLI_MEAN_N)
# in order: the phases overflow; the grid overflows; a small run; a huge grid end that
# still evolves; an 8 GB grid; fields of about 134 GB; a mean_n too small for the scaled time
@example(t_max=1.7e308, steps=3, n=3, mean_n=2.0)
@example(t_max=1.7976931348623157e308, steps=4, n=0, mean_n=math.nan)
@example(t_max=5.0, steps=3, n=3, mean_n=2.0)
@example(t_max=1e300, steps=3, n=3, mean_n=2.0)
@example(t_max=5.0, steps=10**9, n=3, mean_n=2.0)
@example(t_max=5.0, steps=3, n=10**9, mean_n=1e9)
@example(t_max=0.5, steps=3, n=3, mean_n=0.3)
def test_cli_numeric_flags_exit_cleanly(t_max, steps, n, mean_n):
    # any float for these flags either succeeds or exits 1 or 2 with one
    # stderr line; numpy floating-point warnings, which would add stderr
    # lines on the command line, are raised here and fail like a traceback
    with tempfile.TemporaryDirectory() as tmp:
        runs = [
            ["scenario", "--preset", "fig1", f"--steps={steps}", f"--t-max={t_max!r}",
             "--out", f"{tmp}/s.csv"],
            ["scaling", "--n", "4,8,16", f"--steps={steps}", "--out", f"{tmp}/c.csv"],
            ["scenario", "--atomic", "ee", "--field", "fock", f"--n={n}", f"--steps={steps}",
             f"--t-max={t_max!r}", "--out", f"{tmp}/f.csv"],
            ["compare-approx", "--atomic", "ee", "--field", "coherent", f"--mean-n={mean_n!r}",
             f"--steps={steps}", f"--t-max={t_max!r}", "--out", f"{tmp}/a.csv"],
            ["scaling", "--n", f"4,8,{n}", "--steps=3", "--out", f"{tmp}/p.csv"],
            ["sweep", "--dims", "2x2x3", "--samples", "10", "--out", f"{tmp}/w.txt"],
        ]
        for argv in runs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                with np.errstate(all="raise", under="ignore"):
                    code = main(argv)
            assert code in (0, 1, 2)
            if code:
                assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()


def test_cli_import_loads_no_scipy(tmp_path):
    # only the convex roof uses scipy, and it imports it itself; no command
    # calls the roof, so each runs where scipy cannot be imported at all
    src = os.path.dirname(os.path.dirname(tt.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = [
        ["scenario", "--preset", "fig1", "--steps", "50", "--out", "fig1.csv"],
        ["compare-approx", "--preset", "fig4", "--steps", "200", "--out", "fig4.csv"],
        ["sweep", "--dims", "2x2x4", "--samples", "2000", "--out", "sweep.txt"],
        ["scaling", "--out", "scaling.csv"],
    ]
    code = (
        "import sys; sys.modules['scipy'] = None; import tcm_tangles.cli; "
        f"codes = [tcm_tangles.cli.main(argv) for argv in {runs!r}]; "
        "print(codes, sorted(m for m, mod in sys.modules.items() if m.startswith('scipy') and mod))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"


def test_large_field_initial_state_ignores_blas_threads():
    # the norms that scale the coherent field and the product state are summed
    # in a fixed order; a BLAS dot would sum D = 5,755 amplitudes in an order
    # set by the OpenBLAS thread count, and every byte of the run follows them
    src = os.path.dirname(os.path.dirname(tt.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import hashlib; from tcm_tangles.scenarios import ScenarioConfig, _build_initial; "
        "state, n0 = _build_initial(ScenarioConfig(atomic='ee', field='coherent', mean_n=1e5)); "
        "print(state.shape.dims, n0, hashlib.sha256(state.amplitudes.tobytes()).hexdigest())"
    )
    outs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert outs[0] == outs[1]

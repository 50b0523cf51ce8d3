import os

import numpy as np
import pytest

import tcm_tangles as tt
from tcm_tangles import random_states, scenarios, workers
from tcm_tangles.cli import main
from tcm_tangles.random_states import BLOCK, haar_pure_batch

from oracles import residual_tangle_by_cuts

forks = pytest.mark.skipif(not hasattr(os, "fork"), reason="forks two sweep workers")


def parse_amplitudes(line):
    return np.array([complex(*map(float, tok[1:-1].split(","))) for tok in line.split()])


def test_haar_batch_norms_and_chunking():
    rng = np.random.default_rng(8)
    batch = haar_pure_batch(12, 50, rng)
    np.testing.assert_allclose(np.linalg.norm(batch, axis=1), 1.0, atol=1e-12)
    # sequential stream: one draw of 50 == two draws of 25
    rng2 = np.random.default_rng(8)
    first = haar_pure_batch(12, 25, rng2)
    second = haar_pure_batch(12, 25, rng2)
    np.testing.assert_array_equal(np.vstack([first, second]), batch)
    # whole floats and numpy ints are counts; fractions and bools are refused in one line
    again = haar_pure_batch(12.0, np.int64(50), np.random.default_rng(8))
    np.testing.assert_array_equal(again, batch)
    for total_dim, count, message in [(2.5, 3, "total_dim must be an integer, got 2.5"),
                                      (4, 2.5, "count must be an integer, got 2.5"),
                                      (4, True, "count must be an integer, got True")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            haar_pure_batch(total_dim, count, rng)


def test_haar_batch_reads_each_pair_as_one_complex_number():
    # on one sweep block, the stack is bit for bit z_re + 1j z_im of the
    # same (count, dim, 2) draw, normalized, signed zeros included
    seed = np.random.SeedSequence(5, spawn_key=(0,))
    batch = haar_pure_batch(12, BLOCK, np.random.default_rng(seed))
    z = np.random.default_rng(seed).standard_normal((BLOCK, 12, 2))
    summed = z[..., 0] + 1j * z[..., 1]
    summed /= np.linalg.norm(summed, axis=1, keepdims=True)
    assert np.array_equal(batch.view(np.uint64), summed.view(np.uint64))


def test_haar_mean_marginal_purity():
    # a d_a x d_b Haar state has mean marginal purity (d_a + d_b)/(d_a*d_b + 1)
    rng = np.random.default_rng(12)
    for (da, db), expected in [((2, 2), 4.0 / 5.0), ((2, 3), 5.0 / 7.0)]:
        batch = haar_pure_batch(da * db, 4000, rng)
        mats = batch.reshape(-1, da, db)
        rho_a = np.einsum("nij,nkj->nik", mats, mats.conj())
        purities = np.einsum("nij,nji->n", rho_a, rho_a).real
        assert abs(purities.mean() - expected) < 0.02 * expected


def test_sweep_finds_no_negatives():
    result = tt.positivity_sweep((2, 2, 3), samples=300, seed=1)
    assert result.samples == 300
    assert result.negative_count == 0
    assert result.negative_states.shape == (0, 12)
    assert result.min_value >= 0.0
    assert result.argmin_state.shape.dims == (2, 2, 3)
    # the reported argmin really attains the reported value
    direct = residual_tangle_by_cuts(result.argmin_state)
    assert abs(direct - result.min_value) < 1e-9


def test_sweep_results_do_not_depend_on_worker_count(monkeypatch, tmp_path):
    # 3 blocks of 40 states; the kernel returns -1.0 for the states whose first
    # amplitude has real part above 0.1, so every block has negatives and the minimum ties
    monkeypatch.setattr(random_states, "BLOCK", 40)
    real = random_states.tcm_columns
    pids = tmp_path / "pids.txt"

    def flag_some(batch, names):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return {"tau_res": np.where(batch[:, 0].real > 0.1, -1.0, real(batch, names)["tau_res"])}

    def run(count):
        monkeypatch.setattr(workers, "allowed_cpus", lambda: count)
        pids.write_text("")
        flagged_out = tmp_path / f"flagged{count}.txt"
        with monkeypatch.context() as patch:
            patch.setattr(random_states, "tcm_columns", flag_some)
            result = tt.positivity_sweep((2, 2, 4), samples=120, seed=5)
            ran_in = set(pids.read_text().split())
            # the command line dumps the same sweep's states next to its summary
            assert main(["sweep", "--dims", "2x2x4", "--samples", "120", "--seed", "5",
                         "--out", str(flagged_out)]) == 0
        dump = (tmp_path / f"flagged{count}.txt.counterexamples").read_bytes()
        # the command line's summary, with the real kernel
        out = tmp_path / f"sweep{count}.txt"
        assert main(["sweep", "--dims", "2x2x3", "--samples", "120", "--seed", "5",
                     "--out", str(out)]) == 0
        return result, dump, ran_in, out.read_bytes()

    a, dump_a, pids_a, summary_a = run(1)
    assert pids_a == {str(os.getpid())}
    # block i draws from SeedSequence(seed).spawn(k)[i]; the first block wins the
    # tie, and the negative states come in block order
    streams = np.random.SeedSequence(5).spawn(3)
    drawn = np.vstack([haar_pure_batch(16, 40, np.random.default_rng(s)) for s in streams])
    flagged = drawn[drawn[:, 0].real > 0.1]
    assert a.min_value == -1.0
    assert a.negative_count == len(flagged)
    np.testing.assert_array_equal(a.argmin_state.amplitudes, flagged[0])
    np.testing.assert_array_equal(a.negative_states, flagged)
    # the dump is the returned stack, row for row
    lines = dump_a.decode().splitlines()
    assert lines[0] == "# dims: 2 2 4"
    np.testing.assert_array_equal([parse_amplitudes(l) for l in lines[1:]], a.negative_states)

    if not hasattr(os, "fork"):
        pytest.skip("the two-worker leg forks two sweep workers")
    b, dump_b, pids_b, summary_b = run(2)
    # every block ran in a worker: blocks 0 and 1, 2 on the other
    assert len(pids_b) == 2 and str(os.getpid()) not in pids_b
    assert b.min_value == a.min_value and b.negative_count == a.negative_count
    np.testing.assert_array_equal(b.argmin_state.amplitudes, a.argmin_state.amplitudes)
    np.testing.assert_array_equal(b.negative_states, a.negative_states)
    assert dump_b == dump_a and summary_b == summary_a


@forks
def test_sweep_worker_failure_leaves_no_process(monkeypatch):
    monkeypatch.setattr(random_states, "BLOCK", 40)
    real = random_states.tcm_columns

    def poisoned(batch, names):
        values = real(batch, names)
        values["tau_res"][3] = np.nan
        return values

    monkeypatch.setattr(random_states, "tcm_columns", poisoned)
    monkeypatch.setattr(workers, "allowed_cpus", lambda: 2)
    # the first block in block order reports, whichever worker failed first
    with pytest.raises(RuntimeError, match=r"^1 non-finite .* among samples 0\.\.39$"):
        tt.positivity_sweep((2, 2, 3), samples=120)
    # both workers were reaped: this process has no child, running or exited
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _threads_after(work):
    """Threads of this process after ``work``: both sweep shapes, or a fig2 segment."""
    if work == "sweep":
        for dims in random_states.SWEEP_DIMS:
            random_states._sweep_block(dims, BLOCK, 0, 0)
    else:
        # 200 points are fewer evolution chunks than a forked segment needs,
        # so the worker runs them itself, through the D > 3 vecdot path
        config = scenarios.preset_config("fig2", t_max=4.0, steps=200)
        scenarios._evolve_columns(config, scenarios.SCENARIO_COLUMNS)
    return len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(
    not hasattr(os, "fork") or not os.path.isdir("/proc/self/task"),
    reason="counts a forked worker's threads in /proc",
)
def test_sweep_block_starts_no_blas_thread_in_a_forked_worker(monkeypatch):
    # a forked worker starts with one thread; a BLAS-3 call in the kernel
    # (a 16 x 16 by 16 x 10,000 complex matmul is one) makes OpenBLAS start
    # its pool there, which then competes with the other worker's
    monkeypatch.setattr(workers, "allowed_cpus", lambda: 2)
    assert workers.cpu_map(_threads_after, ["sweep", "fig2"]) == [1, 1]


def test_sweep_argument_validation(monkeypatch):
    with pytest.raises(ValueError):
        tt.positivity_sweep((2, 2, 5), samples=10)
    with pytest.raises(ValueError):
        tt.positivity_sweep((2, 2, 3), samples=0)
    # every block's result is held until the merge, so the bound is checked
    # here, before any worker starts
    def no_run(*_):
        raise AssertionError("a block ran")

    with monkeypatch.context() as patch:
        patch.setattr(random_states, "_sweep_block", no_run)
        patch.setattr(workers, "cpu_map", no_run)
        bound = random_states.MAX_SAMPLES
        message = rf"^samples must lie in 1 \.\. {bound}, got {bound + 1}$"
        with pytest.raises(ValueError, match=message):
            tt.positivity_sweep((2, 2, 3), samples=bound + 1)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        tt.positivity_sweep((2, 2, 3), samples=10, seed=-1)
    # counts and dims are whole numbers, not truncated
    with pytest.raises(ValueError, match=r"^samples must be an integer, got 10\.5$"):
        tt.positivity_sweep((2, 2, 3), samples=10.5)
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
        tt.positivity_sweep((2, 2, 3), samples=10, seed=1.5)
    with pytest.raises(ValueError, match=r"^factor dimension must be an integer, got 3\.7$"):
        tt.positivity_sweep((2, 2, 3.7), samples=10)
    # bools are not counts: samples=True would run one state
    with pytest.raises(ValueError, match=r"^samples must be an integer, got True$"):
        tt.positivity_sweep((2, 2, 3), samples=True, seed=False)
    with pytest.raises(ValueError, match=r"^seed must be an integer, got False$"):
        tt.positivity_sweep((2, 2, 3), samples=10, seed=False)
    with pytest.raises(ValueError, match=r"^factor dimension must be an integer, got True$"):
        tt.positivity_sweep((2, True, 3), samples=10)
    # Haar sampling, the block size and the worker count are fixed, not arguments
    with pytest.raises(TypeError):
        tt.positivity_sweep((2, 2, 3), samples=10, measure="haar")
    with pytest.raises(TypeError):
        tt.positivity_sweep((2, 2, 3), samples=10, chunk=10)
    with pytest.raises(TypeError):
        tt.positivity_sweep((2, 2, 3), samples=10, workers=1)


def test_sweep_rejects_non_finite_values(monkeypatch):
    # a NaN must not win the argmin and hide a negative value in its block
    real = random_states.tcm_columns

    def poisoned(batch, names):
        values = real(batch, names)
        values["tau_res"][3], values["tau_res"][5] = np.nan, -1.0
        return values

    monkeypatch.setattr(random_states, "tcm_columns", poisoned)
    with pytest.raises(RuntimeError, match="^1 non-finite"):
        tt.positivity_sweep((2, 2, 3), samples=10)
    monkeypatch.setattr(
        random_states, "tcm_columns", lambda batch, *_: {"tau_res": np.full(len(batch), np.nan)}
    )
    with pytest.raises(RuntimeError, match="^10 non-finite"):
        tt.positivity_sweep((2, 2, 3), samples=10)


def test_dump_writes_subthreshold_states(monkeypatch, tmp_path):
    # force dumping by flagging every state of a three-state sweep, then
    # parse the command line's format back
    monkeypatch.setattr(
        random_states, "tcm_columns", lambda batch, *_: {"tau_res": np.full(len(batch), -1.0)}
    )
    states = haar_pure_batch(12, 3, np.random.default_rng(np.random.SeedSequence(21).spawn(1)[0]))
    out = tmp_path / "sweep.txt"
    assert main(["sweep", "--dims", "2x2x3", "--samples", "3", "--seed", "21",
                 "--out", str(out)]) == 0
    lines = (tmp_path / "sweep.txt.counterexamples").read_text().splitlines()
    assert lines[0] == "# dims: 2 2 3"
    assert len(lines) == 4
    parsed = np.array([parse_amplitudes(line) for line in lines[1:]])
    np.testing.assert_allclose(parsed, states, atol=1e-16)


def test_sweep_counts_and_dumps_counterexamples(monkeypatch, tmp_path, capsys):
    # one state per run comes back below the -1e-9 threshold
    real = random_states.tcm_columns
    flagged = []

    def one_negative(batch, names):
        values = real(batch, names)
        values["tau_res"][4] = -1e-6
        flagged.append(batch[4].copy())
        return values

    monkeypatch.setattr(random_states, "tcm_columns", one_negative)
    result = tt.positivity_sweep((2, 2, 3), samples=10, seed=2)
    assert (result.negative_count, result.min_value) == (1, -1e-6)
    np.testing.assert_array_equal(result.argmin_state.amplitudes, flagged[0])
    np.testing.assert_array_equal(result.negative_states, flagged[:1])

    # the command line writes the same state next to its summary
    out = tmp_path / "sweep.txt"
    dump = tmp_path / "sweep.txt.counterexamples"
    assert main(["sweep", "--dims", "2x2x3", "--samples", "10", "--seed", "2",
                 "--out", str(out)]) == 0
    assert "1 below -1e-9" in capsys.readouterr().out
    lines = dump.read_text().splitlines()
    assert lines[0] == "# dims: 2 2 3" and len(lines) == 2
    np.testing.assert_array_equal(parse_amplitudes(lines[1]), result.negative_states[0])
    summary = out.read_text().splitlines()
    row = summary[summary.index("samples,min_value,negative_count") + 1]
    assert row == "10,-9.9999999999999995e-07,1"
    assert summary[-1] == "# argmin_state: " + lines[1]
    # a rerun replaces the file rather than appending to it
    first = dump.read_bytes(), out.read_bytes()
    assert main(["sweep", "--dims", "2x2x3", "--samples", "10", "--seed", "2",
                 "--out", str(out)]) == 0
    assert (dump.read_bytes(), out.read_bytes()) == first
    # a run that fails leaves both files as they were
    monkeypatch.setattr(
        random_states, "tcm_columns", lambda batch, *_: {"tau_res": np.full(len(batch), np.nan)}
    )
    assert main(["sweep", "--dims", "2x2x3", "--samples", "10", "--seed", "2",
                 "--out", str(out)]) == 2
    assert (dump.read_bytes(), out.read_bytes()) == first
    # and a rerun that finds no negatives leaves none
    monkeypatch.undo()
    assert main(["sweep", "--dims", "2x2x3", "--samples", "10", "--seed", "2",
                 "--out", str(out)]) == 0
    assert "0 below -1e-9" in capsys.readouterr().out
    assert not dump.exists()


def test_star_import_resolves_every_export():
    # a stale __all__ entry makes the star import raise AttributeError
    exec("from tcm_tangles import *", {})

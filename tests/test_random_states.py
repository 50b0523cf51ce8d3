import os

import numpy as np
import pytest

import tcm_tangles as tt
from tcm_tangles import random_states, scenarios, workers
from tcm_tangles.cli import main
from tcm_tangles.random_states import BLOCK, haar_pure_batch

forks = pytest.mark.skipif(not hasattr(os, "fork"), reason="forks two sweep workers")


def parse_amplitudes(line):
    return np.array([complex(*map(float, tok[1:-1].split(","))) for tok in line.split()])


def test_haar_pure_basics():
    psi = tt.haar_pure((2, 2, 3), seed=3)
    assert psi.shape.dims == (2, 2, 3)
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
    again = tt.haar_pure((2, 2, 3), seed=3)
    np.testing.assert_array_equal(psi.amplitudes, again.amplitudes)
    other = tt.haar_pure((2, 2, 3), seed=4)
    assert not np.allclose(psi.amplitudes, other.amplitudes)


def test_haar_batch_norms_and_chunking():
    rng = np.random.default_rng(8)
    batch = haar_pure_batch(12, 50, rng)
    np.testing.assert_allclose(np.linalg.norm(batch, axis=1), 1.0, atol=1e-12)
    # sequential stream: one draw of 50 == two draws of 25
    rng2 = np.random.default_rng(8)
    first = haar_pure_batch(12, 25, rng2)
    second = haar_pure_batch(12, 25, rng2)
    np.testing.assert_array_equal(np.vstack([first, second]), batch)


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
    assert result.min_value >= 0.0
    assert result.argmin_state.shape.dims == (2, 2, 3)
    # the reported argmin really attains the reported value
    direct = tt.i_residual_tangle(result.argmin_state)
    assert abs(direct - result.min_value) < 1e-9


def test_sweep_results_do_not_depend_on_worker_count(monkeypatch, tmp_path):
    # 3 blocks of 40 states; the kernel returns -1.0 for the states whose first
    # amplitude has real part above 0.1, so every block dumps and the minimum ties
    monkeypatch.setattr(random_states, "BLOCK", 40)
    real = random_states.residual_tangle_batch
    pids = tmp_path / "pids.txt"

    def flag_some(batch, dims):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return np.where(batch[:, 0].real > 0.1, -1.0, real(batch, dims))

    def run(count):
        monkeypatch.setattr(workers, "allowed_cpus", lambda: count)
        dump = tmp_path / f"dump{count}.txt"
        pids.write_text("")
        with monkeypatch.context() as patch:
            patch.setattr(random_states, "residual_tangle_batch", flag_some)
            result = tt.positivity_sweep((2, 2, 4), samples=120, seed=5, dump_path=str(dump))
        # the command line's summary, with the real kernel
        out = tmp_path / f"sweep{count}.txt"
        assert main(["sweep", "--dims", "2x2x3", "--samples", "120", "--seed", "5",
                     "--out", str(out)]) == 0
        return result, dump.read_bytes(), set(pids.read_text().split()), out.read_bytes()

    a, dump_a, pids_a, summary_a = run(1)
    assert pids_a == {str(os.getpid())}
    # block i draws from SeedSequence(seed).spawn(k)[i]; the first block wins the
    # tie, and the dumps come in block order
    streams = np.random.SeedSequence(5).spawn(3)
    drawn = np.vstack([haar_pure_batch(16, 40, np.random.default_rng(s)) for s in streams])
    flagged = drawn[drawn[:, 0].real > 0.1]
    assert a.min_value == -1.0
    assert a.negative_count == len(flagged)
    np.testing.assert_array_equal(a.argmin_state.amplitudes, flagged[0])
    dumped = [parse_amplitudes(l) for l in dump_a.decode().splitlines() if l[0] != "#"]
    np.testing.assert_array_equal(np.array(dumped), flagged)

    if not hasattr(os, "fork"):
        pytest.skip("the two-worker leg forks two sweep workers")
    b, dump_b, pids_b, summary_b = run(2)
    # every block ran in a worker: blocks 0 and 1, 2 on the other
    assert len(pids_b) == 2 and str(os.getpid()) not in pids_b
    assert b.min_value == a.min_value and b.negative_count == a.negative_count
    np.testing.assert_array_equal(b.argmin_state.amplitudes, a.argmin_state.amplitudes)
    assert dump_b == dump_a and summary_b == summary_a


@forks
def test_sweep_worker_failure_leaves_no_process(monkeypatch):
    monkeypatch.setattr(random_states, "BLOCK", 40)
    real = random_states.residual_tangle_batch

    def poisoned(batch, dims):
        values = real(batch, dims)
        values[3] = np.nan
        return values

    monkeypatch.setattr(random_states, "residual_tangle_batch", poisoned)
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
        # so the worker runs them itself, through the D > 3 matmul path
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
    # Haar sampling, the block size and the worker count are fixed, not arguments
    with pytest.raises(TypeError):
        tt.positivity_sweep((2, 2, 3), samples=10, measure="haar")
    with pytest.raises(TypeError):
        tt.positivity_sweep((2, 2, 3), samples=10, chunk=10)
    with pytest.raises(TypeError):
        tt.positivity_sweep((2, 2, 3), samples=10, workers=1)


def test_sweep_rejects_non_finite_values(monkeypatch):
    # a NaN must not win the argmin and hide a negative value in its block
    real = random_states.residual_tangle_batch

    def poisoned(batch, dims):
        values = real(batch, dims)
        values[3], values[5] = np.nan, -1.0
        return values

    monkeypatch.setattr(random_states, "residual_tangle_batch", poisoned)
    with pytest.raises(RuntimeError, match="^1 non-finite"):
        tt.positivity_sweep((2, 2, 3), samples=10)
    monkeypatch.setattr(
        random_states, "residual_tangle_batch", lambda batch, *_: np.full(len(batch), np.nan)
    )
    with pytest.raises(RuntimeError, match="^10 non-finite"):
        tt.positivity_sweep((2, 2, 3), samples=10)


def test_dump_writes_subthreshold_states(tmp_path):
    # force dumping by raising the threshold via a tiny monkeypatch-free
    # route: call the private writer directly and parse the format back
    from tcm_tangles.random_states import _dump_states

    rng = np.random.default_rng(21)
    states = haar_pure_batch(12, 3, rng)
    path = tmp_path / "bad_states.txt"
    _dump_states(str(path), (2, 2, 3), states)
    lines = path.read_text().splitlines()
    assert lines[0] == "# dims: 2 2 3"
    assert len(lines) == 4
    parsed = np.array([parse_amplitudes(line) for line in lines[1:]])
    np.testing.assert_allclose(parsed, states, atol=1e-16)


def test_sweep_counts_and_dumps_counterexamples(monkeypatch, tmp_path, capsys):
    # one state per run comes back below the -1e-9 threshold
    real = random_states.residual_tangle_batch
    flagged = []

    def one_negative(batch, dims):
        values = real(batch, dims)
        values[4] = -1e-6
        flagged.append(batch[4].copy())
        return values

    monkeypatch.setattr(random_states, "residual_tangle_batch", one_negative)
    dump = tmp_path / "bad_states.txt"
    result = tt.positivity_sweep((2, 2, 3), samples=10, seed=2, dump_path=str(dump))
    assert (result.negative_count, result.min_value) == (1, -1e-6)
    np.testing.assert_array_equal(result.argmin_state.amplitudes, flagged[0])
    lines = dump.read_text().splitlines()
    assert lines[0] == "# dims: 2 2 3" and len(lines) == 2
    np.testing.assert_array_equal(parse_amplitudes(lines[1]), flagged[0])

    # the command line writes the same state next to its summary
    out = tmp_path / "sweep.txt"
    assert main(["sweep", "--dims", "2x2x3", "--samples", "10", "--seed", "2",
                 "--out", str(out)]) == 0
    assert "1 below -1e-9" in capsys.readouterr().out
    assert (tmp_path / "sweep.txt.counterexamples").read_text() == dump.read_text()
    summary = out.read_text().splitlines()
    row = summary[summary.index("samples,min_value,negative_count") + 1]
    assert row == "10,-9.9999999999999995e-07,1"
    assert summary[-1] == "# argmin_state: " + lines[1]
    # a rerun replaces the file rather than appending to it
    assert main(["sweep", "--dims", "2x2x3", "--samples", "10", "--seed", "2",
                 "--out", str(out)]) == 0
    assert (tmp_path / "sweep.txt.counterexamples").read_text() == dump.read_text()
    # and a rerun that finds no negatives leaves none
    monkeypatch.undo()
    assert main(["sweep", "--dims", "2x2x3", "--samples", "10", "--seed", "2",
                 "--out", str(out)]) == 0
    assert "0 below -1e-9" in capsys.readouterr().out
    assert not (tmp_path / "sweep.txt.counterexamples").exists()


def test_star_import_resolves_every_export():
    # a stale __all__ entry makes the star import raise AttributeError
    exec("from tcm_tangles import *", {})

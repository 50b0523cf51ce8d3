import mpmath
import numpy as np
import pytest

import tcm_tangles as tt
from tcm_tangles import tangles
from tcm_tangles.scenarios import _build_initial, preset_config
from tcm_tangles.tangles import (
    SCENARIO_COLUMNS,
    _roof_objective,
    _tcm_columns,
    _wootters_batch,
    check_tangle_columns,
)

BELL = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
GHZ = np.zeros(8)
GHZ[0] = GHZ[7] = 1.0 / np.sqrt(2.0)
W = np.zeros(8)
W[1] = W[2] = W[4] = 1.0 / np.sqrt(3.0)


def haar_vec(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def werner(p):
    return p * np.outer(BELL, BELL) + (1.0 - p) * np.eye(4) / 4.0


def rank2_two_qubit(rng):
    v1, v2 = haar_vec(rng, 4), haar_vec(rng, 4)
    w = rng.uniform(0.1, 0.9)
    return w * np.outer(v1, v1.conj()) + (1.0 - w) * np.outer(v2, v2.conj())


def pure_state(dims, vec):
    return tt.PureState(tt.SystemShape(dims), vec)


# --- universal inversion ---------------------------------------------------


def test_inversion_fixes_bell_state():
    rho = tt.DensityMatrix((2, 2), np.outer(BELL, BELL))
    np.testing.assert_allclose(tt.universal_inversion(rho), rho.matrix, atol=1e-14)


def test_inversion_overlap_matches_explicit_trace():
    # closed form from purities vs the literal tr(rho * inverted(rho))
    rng = np.random.default_rng(17)
    for _ in range(25):
        psi = pure_state((2, 3, 4), haar_vec(rng, 24))
        rho = tt.partial_trace(psi, (0, 1))
        explicit = float(np.trace(rho.matrix @ tt.universal_inversion(rho)).real)
        assert abs(tt.inversion_overlap(rho) - explicit) < 1e-12


def test_inversion_overlap_scaling_factors():
    rng = np.random.default_rng(4)
    rho = tt.partial_trace(pure_state((2, 2, 2), haar_vec(rng, 8)), (0, 1))
    base = tt.inversion_overlap(rho)
    assert abs(tt.inversion_overlap(rho, nu_a=2.0, nu_b=3.0) - 6.0 * base) < 1e-12


# --- two-qubit tangle ------------------------------------------------------


def test_wootters_werner_point():
    assert abs(tt.wootters_tangle(tt.DensityMatrix((2, 2), werner(0.8))) - 0.49) < 1e-12


def test_wootters_edge_cases():
    bell = tt.DensityMatrix((2, 2), np.outer(BELL, BELL))
    assert abs(tt.wootters_tangle(bell) - 1.0) < 1e-12
    mixed = tt.DensityMatrix((2, 2), np.eye(4) / 4.0)
    assert tt.wootters_tangle(mixed) == 0.0
    with pytest.raises(ValueError):
        tt.wootters_tangle(tt.DensityMatrix((2,), np.eye(2) / 2.0))


def test_wootters_pure_closed_form():
    # for |psi> = a|00>+b|01>+c|10>+d|11> the tangle is 4|ad - bc|^2.  A
    # density-matrix input has eps-level eigenvalue noise in its three zero
    # modes, and the factor U sqrt(Lambda) of its eigendecomposition turns
    # that into ~sqrt(eps) concurrence noise, so this limit of the
    # density-matrix API is pinned at 1e-7; the kernel on the pure state's
    # own factor is pinned at roundoff below
    rng = np.random.default_rng(23)
    for _ in range(20):
        v = haar_vec(rng, 4)
        rho = tt.DensityMatrix((2, 2), np.outer(v, v.conj()))
        expected = 4.0 * abs(v[0] * v[3] - v[1] * v[2]) ** 2
        assert abs(tt.wootters_tangle(rho) - expected) < 1e-7


def test_wootters_kernel_rank1_factors():
    rng = np.random.default_rng(24)
    vecs = np.array([haar_vec(rng, 4) for _ in range(200)])
    vecs[0] = BELL
    vecs[1] = np.kron(haar_vec(rng, 2), haar_vec(rng, 2))
    expected = 4.0 * np.abs(vecs[:, 0] * vecs[:, 3] - vecs[:, 1] * vecs[:, 2]) ** 2
    np.testing.assert_allclose(_wootters_batch(vecs[:, :, None]), expected, atol=1e-14, rtol=0)


def test_wootters_kernel_bell_diagonal_mixtures():
    # sum_i p_i |Bell_i><Bell_i| has C = max(0, 2 p_max - 1) under local
    # unitaries, and any factor W of rho = W W^H gives the same value:
    # rank-2 and rank-3 mixtures, as 4 x rank factors and as 4 x 6 ones
    # built with a random isometry (W V with V V^H = 1)
    rng = np.random.default_rng(25)
    s = 1.0 / np.sqrt(2.0)
    bells = np.array([[s, 0, 0, s], [s, 0, 0, -s], [0, s, s, 0], [0, s, -s, 0]]).T

    def unitary(d):
        return np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]

    for rank in (2, 3):
        for trial in range(20):
            # the first trial has p_max <= 1/2, a separable mixture
            p = np.full(rank, 1.0 / rank) if trial == 0 else rng.dirichlet(np.ones(rank))
            cols = rng.permutation(4)[:rank]
            w = np.kron(unitary(2), unitary(2)) @ (bells[:, cols] * np.sqrt(p))
            wide = w @ unitary(6)[:rank]
            expected = max(0.0, 2.0 * p.max() - 1.0) ** 2
            for factor in (w, wide):
                assert abs(_wootters_batch(factor[None])[0] - expected) < 1e-14


# The four fig3 points where the square-root form of the Wootters tangle,
# the eigenvalues of sqrt(rho) rho~ sqrt(rho), errs most (1.8e-8, 1.4e-8,
# 1.3e-8 and 1.2e-8 against the reference below): early times, when rho_AA
# is nearly pure and the dust in its zero eigenvalues sets the error.
FIG3_WORST_TAU_AA_POINTS = (1, 6, 15, 25)


def _mpmath_wootters(m):
    """tau of rho = M M^H from the eigenvalues of rho (sigma_y x sigma_y)
    rho* (sigma_y x sigma_y), at 40 digits."""
    with mpmath.workdps(40):
        mat = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in m])
        rho = mat * mat.H
        yy = mpmath.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        evals = mpmath.eig(rho * (yy * rho.conjugate() * yy), left=False, right=False)
        lam = sorted((mpmath.sqrt(max(mpmath.re(e), 0)) for e in evals), reverse=True)
        return float(max(0, lam[0] - lam[1] - lam[2] - lam[3]) ** 2)


def test_tcm_columns_tau_aa_matches_mpmath_at_fig3():
    config = preset_config("fig3")
    state = _build_initial(config)
    gts = np.linspace(0.0, config.t_max, config.steps)[list(FIG3_WORST_TAU_AA_POINTS)]
    series = tt.TcmPropagator().evolve_series(state, gts)
    amps = np.concatenate(list(series))
    tau_aa = _tcm_columns(amps)["tau_AA"]
    reference = [_mpmath_wootters(row.reshape(4, -1)) for row in amps]
    np.testing.assert_allclose(tau_aa, reference, atol=1e-12, rtol=0)


# --- pure-state cuts -------------------------------------------------------


def test_pure_itangle_anchors():
    w = pure_state((2, 2, 2), W)
    assert abs(tt.pure_itangle(w, tt.Cut((0,), (1, 2))) - 8.0 / 9.0) < 1e-12
    ghz = pure_state((2, 2, 2), GHZ)
    for cut in (tt.Cut((0,), (1, 2)), tt.Cut((1,), (0, 2)), tt.Cut((2,), (0, 1))):
        assert abs(tt.pure_itangle(ghz, cut) - 1.0) < 1e-12


def test_pure_itangle_product_is_zero():
    rng = np.random.default_rng(31)
    prod = tt.tensor_product([haar_vec(rng, 2), haar_vec(rng, 6)])
    assert abs(tt.pure_itangle(prod, tt.Cut((0,), (1,)))) < 1e-12


def test_pure_itangle_side_symmetric():
    rng = np.random.default_rng(32)
    psi = pure_state((2, 2, 3), haar_vec(rng, 12))
    a = tt.pure_itangle(psi, tt.Cut((0, 1), (2,)))
    b = tt.pure_itangle(psi, tt.Cut((2,), (0, 1)))
    assert abs(a - b) < 1e-12


# --- rank-2 closed form ----------------------------------------------------


def test_rank2_bell_vacuum_mixture():
    zero = np.zeros(4)
    zero[0] = 1.0
    rho = 0.5 * np.outer(BELL, BELL) + 0.5 * np.outer(zero, zero)
    dm = tt.DensityMatrix((2, 2), rho)
    value = tt.rank2_itangle(dm)
    assert abs(value - 0.25) < 1e-12
    assert abs(value - tt.wootters_tangle(dm)) < 1e-12


def test_rank2_product_mixture_is_separable():
    rng = np.random.default_rng(41)
    for db in (2, 3, 5):
        a1, a2 = haar_vec(rng, 2), haar_vec(rng, 2)
        b1, b2 = haar_vec(rng, db), haar_vec(rng, db)
        rho = 0.6 * np.outer(np.kron(a1, b1), np.kron(a1, b1).conj())
        rho += 0.4 * np.outer(np.kron(a2, b2), np.kron(a2, b2).conj())
        assert tt.rank2_itangle(tt.DensityMatrix((2, db), rho)) < 1e-10


def test_rank2_matches_wootters_on_random_rank2():
    rng = np.random.default_rng(42)
    for _ in range(200):
        dm = tt.DensityMatrix((2, 2), rank2_two_qubit(rng))
        assert abs(tt.rank2_itangle(dm) - tt.wootters_tangle(dm)) < 1e-7


def test_rank2_rejects_higher_rank():
    with pytest.raises(ValueError):
        tt.rank2_itangle(tt.DensityMatrix((2, 2), werner(0.8)))


def test_rank2_rank1_reduces_to_pure_value():
    rng = np.random.default_rng(43)
    v = haar_vec(rng, 6)
    dm = tt.DensityMatrix((2, 3), np.outer(v, v.conj()))
    pure = tt.pure_itangle(pure_state((2, 3), v), tt.Cut((0,), (1,)))
    assert abs(tt.rank2_itangle(dm) - pure) < 1e-12
    # a 1-dimensional pair space has a single eigenpair
    assert tt.rank2_itangle(tt.DensityMatrix((1, 1), np.ones((1, 1)))) == 0.0


def test_rank2_local_unitary_invariant():
    rng = np.random.default_rng(44)
    v1, v2 = haar_vec(rng, 8), haar_vec(rng, 8)
    rho = 0.5 * np.outer(v1, v1.conj()) + 0.5 * np.outer(v2, v2.conj())
    dm = tt.DensityMatrix((2, 4), rho)
    ua = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    ub = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    u = np.kron(ua, ub)
    rotated = tt.DensityMatrix((2, 4), u @ rho @ u.conj().T)
    assert abs(tt.rank2_itangle(dm) - tt.rank2_itangle(rotated)) < 1e-10


# Impurities of one atom, from a pure pair up to 1e-4.  In double precision
# the Lorentz-boost form of the rank-2 minimum (the reference below) loses
# about eps / impurity to cancellation, up to 1.6e-6 on these states, and
# needs a separate formula for a pure pair; 1e-10 and 2e-10 straddle the
# switch |b| >= 1 - 2 rank_tol at rank_tol = 1e-10.
IMPURITIES = (0.0, 1e-14, 1e-12, 1e-10, 2e-10, 1e-9, 1e-8, 1e-6, 1e-4)


def impure_atom_states(rng, field_dim, atom, impurities=IMPURITIES):
    """(N, 4 * field_dim) states whose ``atom`` (0 or 1) has the reduced
    state diag(1 - eps, eps) in its (e, g) basis, one per impurity, with the
    other atom and the field Haar-random: the other atom-field pair then
    has impurity eps, and is exactly pure at eps = 0."""
    states = []
    for eps in impurities:
        z = rng.standard_normal((2 * field_dim, 2, 2)) @ np.array([1.0, 1j])
        phi = np.linalg.qr(z)[0].T.reshape(2, 2, field_dim)
        psi = np.stack([np.sqrt(1.0 - eps) * phi[0], np.sqrt(eps) * phi[1]], axis=atom)
        states.append(psi.ravel())
    return np.array(states)


def _mpmath_rank2_tangle(psi, purifier):
    """tau_AF of the (other atom, field) pair of a (2, 2, D) state purified
    by atom ``purifier``, from the Lorentz-boost form at 40 digits.  That
    route differs from the kernel's whitened Gram form, and 40 digits leave
    it accurate to about 1e-26 at the smallest impurity, 1e-14.  A pair
    that is pure at this precision takes 2(1 - tr rho_A^2) directly."""
    psi = np.moveaxis(psi.reshape(2, 2, -1), purifier, 0)
    with mpmath.workdps(40):
        w = [mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in wj]) for wj in psi]
        norm = sum(mpmath.re((wj * wj.H)[a, a]) for wj in w for a in range(2))
        r = [[wj * wk.H / norm for wk in w] for wj in w]
        s_mu = [
            r[0][0] + r[1][1],
            r[0][1] + r[1][0],
            1j * (r[0][1] - r[1][0]),
            r[0][0] - r[1][1],
        ]
        q = mpmath.matrix(4, 4)
        for mu in range(4):
            for nu in range(4):
                q[mu, nu] = mpmath.re(sum((s_mu[mu] * s_mu[nu])[a, a] for a in range(2)))
        b = [mpmath.re(s_mu[i][0, 0] + s_mu[i][1, 1]) for i in (1, 2, 3)]
        delta2 = sum(x**2 for x in b)
        if 1 - delta2 < mpmath.mpf(10) ** -30:
            return float(2 - 2 * q[0, 0])
        delta = mpmath.sqrt(delta2)
        gamma = 1 / mpmath.sqrt(1 - delta2)
        nhat = [x / delta for x in b]
        boost = mpmath.matrix(4, 4)
        boost[0, 0] = gamma
        for i in range(3):
            boost[0, i + 1] = boost[i + 1, 0] = -gamma * delta * nhat[i]
            for j in range(3):
                boost[i + 1, j + 1] = (i == j) + (gamma - 1) * nhat[i] * nhat[j]
        boosted = boost * q * boost
        spatial = mpmath.matrix([[boosted[i, j] for j in (1, 2, 3)] for i in (1, 2, 3)])
        lam_max = max(mpmath.eigsy(spatial, eigvals_only=True))
        return float(2 - 2 * q[0, 0] - 2 * lam_max)


def _kernel_pair_tangles(monkeypatch, amps):
    """(tau_A1F, tau_A2F) of a state stack: the two rank-2 kernel calls of
    ``_tcm_columns``, recorded in order (A1-field purified by atom 2, then
    A2-field purified by atom 1)."""
    calls = []
    core = tangles._rank2_tangle_core
    monkeypatch.setattr(
        tangles, "_rank2_tangle_core", lambda *args: calls.append(core(*args)) or calls[-1]
    )
    columns = _tcm_columns(amps)
    assert len(calls) == 2
    np.testing.assert_array_equal(calls[0], columns["tau_AF"])
    return calls


@pytest.mark.parametrize("field_dim", [2, 3, 4, 5, 6])
def test_rank2_kernel_matches_mpmath_near_pure_pairs(monkeypatch, field_dim):
    rng = np.random.default_rng(100 + field_dim)
    amps = np.concatenate([impure_atom_states(rng, field_dim, atom) for atom in (1, 0)])
    references = [[_mpmath_rank2_tangle(psi, purifier) for psi in amps] for purifier in (1, 0)]
    for view, kernel in enumerate(_kernel_pair_tangles(monkeypatch, amps)):
        np.testing.assert_allclose(
            kernel, references[view], atol=1e-12, rtol=0, err_msg=f"view {view}"
        )
    # the density-matrix API purifies the A1-field pair from its eigenpairs
    pairs = [tt.partial_trace(pure_state((2, 2, field_dim), psi), (0, 2)) for psi in amps]
    np.testing.assert_allclose(
        [tt.rank2_itangle(rho) for rho in pairs], references[0], atol=1e-12, rtol=0
    )


def test_fig1_tau_af_matches_mpmath_at_first_points():
    # at gt = 0 atom 2 is exactly excited, so the A1-field pair is pure, and
    # its impurity grows from 0 over the first grid points
    config = preset_config("fig1")
    state = _build_initial(config)
    gts = np.linspace(0.0, config.t_max, config.steps)[:8]
    amps = np.concatenate(list(tt.TcmPropagator().evolve_series(state, gts)))
    reference = [_mpmath_rank2_tangle(psi, 1) for psi in amps]
    np.testing.assert_allclose(_tcm_columns(amps)["tau_AF"], reference, atol=1e-12, rtol=0)


def test_rank2_kernel_matches_wootters_on_qubit_fields():
    # at D = 2 the A1-field pair is two qubits: its tangle is the Wootters
    # tangle of the state's own (A1 F) x A2 amplitude factor
    rng = np.random.default_rng(7)
    for atom in (1, 0):
        amps = impure_atom_states(rng, 2, atom)
        factor = amps.reshape(-1, 2, 2, 2).transpose(0, 1, 3, 2).reshape(-1, 4, 2)
        np.testing.assert_allclose(
            _tcm_columns(amps)["tau_AF"], _wootters_batch(factor), atol=1e-13, rtol=0
        )


# --- convex roof -----------------------------------------------------------


def test_roof_matches_wootters_on_werner():
    dm = tt.DensityMatrix((2, 2), werner(0.8))
    value = tt.convex_roof_itangle(dm, options=tt.RoofOptions(restarts=8, seed=1))
    assert abs(value - 0.49) < 5e-7


def test_roof_on_pure_bell():
    dm = tt.DensityMatrix((2, 2), np.outer(BELL, BELL))
    assert abs(tt.convex_roof_itangle(dm) - 1.0) < 1e-9


def test_roof_decomposition_reconstructs_state():
    rng = np.random.default_rng(51)
    dm = tt.DensityMatrix((2, 2), rank2_two_qubit(rng))
    result = tt.convex_roof_decomposition(dm, tt.RoofOptions(restarts=4, seed=2))
    assert result.probabilities.min() > 0.0
    assert abs(result.probabilities.sum() - 1.0) < 1e-8
    rebuilt = np.einsum(
        "m,mi,mj->ij", result.probabilities, result.members, result.members.conj()
    )
    np.testing.assert_allclose(rebuilt, dm.matrix, atol=1e-7)
    np.testing.assert_allclose(
        np.linalg.norm(result.members, axis=1), 1.0, atol=1e-10
    )


def test_roof_restart_values_monotone_and_prefix_stable():
    dm = tt.DensityMatrix((2, 2), werner(0.6))
    short = tt.convex_roof_decomposition(dm, tt.RoofOptions(restarts=3, seed=5))
    long = tt.convex_roof_decomposition(dm, tt.RoofOptions(restarts=7, seed=5))
    assert all(b <= a + 1e-15 for a, b in zip(long.restart_values, long.restart_values[1:]))
    np.testing.assert_allclose(
        short.restart_values, long.restart_values[:3], atol=0, rtol=0
    )


def test_roof_identity_start_bounds_eigendecomposition():
    # restart 0 evaluates the plain eigendecomposition, so the result can
    # never exceed the eigenvector-average tangle
    rng = np.random.default_rng(52)
    rho = rank2_two_qubit(rng)
    evals, evecs = np.linalg.eigh(rho)
    eig_avg = sum(
        evals[i]
        * tt.wootters_tangle(
            tt.DensityMatrix((2, 2), np.outer(evecs[:, i], evecs[:, i].conj()))
        )
        for i in range(4)
        if evals[i] > 1e-12
    )
    value = tt.convex_roof_itangle(tt.DensityMatrix((2, 2), rho), tt.RoofOptions(restarts=1))
    assert value <= eig_avg + 1e-10


def test_roof_options_validation():
    with pytest.raises(ValueError):
        tt.RoofOptions(restarts=0)
    with pytest.raises(ValueError):
        tt.RoofOptions(tol=0.0)
    with pytest.raises(ValueError):
        tt.RoofOptions(ensemble_sizes=(0,))
    dm = tt.DensityMatrix((2, 2), werner(0.5))
    with pytest.raises(ValueError):
        tt.convex_roof_itangle(dm, options=tt.RoofOptions(ensemble_sizes=(2,)))


def test_roof_gradient_matches_finite_differences():
    rng = np.random.default_rng(53)
    rho = rank2_two_qubit(rng)
    evals, evecs = np.linalg.eigh(rho)
    keep = evals > 1e-12
    wm = (np.sqrt(evals[keep])[:, None] * evecs[:, keep].T).astype(complex)
    r, m = wm.shape[0], 3
    x0 = rng.standard_normal(2 * m * r)
    _, grad = _roof_objective(x0, wm, m, 2, 2)
    eps = 1e-6
    for idx in rng.choice(x0.size, size=8, replace=False):
        step = np.zeros_like(x0)
        step[idx] = eps
        fp, _ = _roof_objective(x0 + step, wm, m, 2, 2)
        fm, _ = _roof_objective(x0 - step, wm, m, 2, 2)
        fd = (fp - fm) / (2.0 * eps)
        assert abs(fd - grad[idx]) < 1e-5 * max(1.0, abs(fd))


# --- reports and the residual tangle ---------------------------------------


def test_tangle_report_validation():
    good = {name: np.zeros(3) for name in SCENARIO_COLUMNS}
    check_tangle_columns(good)
    for name, value in [
        ("tau_F_AA", -1e-6),
        ("tau_res", np.nan),
        ("tau_AA", 1.0 + 1e-6),
        ("tau_A_rest", np.inf),
        ("inversion", np.nan),
        ("inversion", -1.0 - 1e-6),
    ]:
        bad = dict(good, **{name: np.array([0.0, value, 0.0])})
        with pytest.raises(ValueError, match=name):
            check_tangle_columns(bad)


def test_tangle_report_cross_checks():
    # one tangle_report and a few rows of a scenario from the same state,
    # each against the generic measures on partial traces
    state = tt.initial_state("ee", tt.fock_state(3, 8), 8)
    evolved = tt.evolve(state, 0.9)
    report = tt.tangle_report(evolved, t=0.9)
    assert report.t == 0.9
    cases = [(evolved, {name: getattr(report, name) for name in SCENARIO_COLUMNS})]
    result = tt.run_scenario(
        tt.ScenarioConfig(atomic="ee", field="fock", n=3, t_max=4.0, steps=50)
    )
    for i in (7, 23, 41):
        row = {name: result.column(name)[i] for name in SCENARIO_COLUMNS}
        cases.append((tt.evolve(state, result.gt[i]), row))
    # the states above are symmetric under swapping the atoms; a Haar state
    # is not, so it tells the two atom-field purifications apart
    haar = pure_state((2, 2, 5), haar_vec(np.random.default_rng(66), 20))
    haar_report = tt.tangle_report(haar)
    cases.append((haar, {name: getattr(haar_report, name) for name in SCENARIO_COLUMNS}))

    for evolved, row in cases:
        rho_aa = tt.partial_trace(evolved, (0, 1))
        assert abs(row["tau_AA"] - tt.wootters_tangle(rho_aa)) < 1e-12
        assert abs(row["tau_F_AA"] - 2.0 * (1.0 - tt.purity(rho_aa))) < 1e-12
        assert abs(
            row["tau_A_rest"] - tt.pure_itangle(evolved, tt.Cut((0,), (1, 2)))
        ) < 1e-12
        rho_af = tt.partial_trace(evolved, (0, 2))
        assert abs(row["tau_AF"] - tt.rank2_itangle(rho_af)) < 1e-12
        assert abs(row["tau_res"] - tt.i_residual_tangle(evolved)) < 1e-12
        tens = evolved.tensor()
        inv = float(np.sum(np.abs(tens[0, 0]) ** 2) - np.sum(np.abs(tens[1, 1]) ** 2))
        assert abs(row["inversion"] - inv) < 1e-12
        assert row["field_eff_dim"] == tt.effective_rank(tt.partial_trace(evolved, (2,)))


def test_residual_anchors():
    ghz = pure_state((2, 2, 2), GHZ)
    assert abs(tt.i_residual_tangle(ghz) - 1.0) < 1e-9

    w = pure_state((2, 2, 2), W)
    assert abs(tt.i_residual_tangle(w)) < 1e-9
    # every pair of a W state carries tangle 4/9
    for keep in [(0, 1), (0, 2), (1, 2)]:
        pair = tt.partial_trace(w, keep)
        assert abs(tt.wootters_tangle(pair) - 4.0 / 9.0) < 1e-12


def test_residual_dark_pair_times_field_is_zero():
    vec = np.kron(tt.atomic_state("singlet"), tt.fock_state(0, 1))
    assert abs(tt.i_residual_tangle(pure_state((2, 2, 2), vec))) < 1e-12


def test_residual_product_state_is_zero():
    rng = np.random.default_rng(61)
    vec = np.kron(np.kron(haar_vec(rng, 2), haar_vec(rng, 2)), haar_vec(rng, 3))
    assert abs(tt.i_residual_tangle(pure_state((2, 2, 3), vec))) < 1e-10


def test_residual_permutation_invariant():
    rng = np.random.default_rng(62)
    vec = haar_vec(rng, 12)
    base = tt.i_residual_tangle(pure_state((2, 2, 3), vec))
    tens = vec.reshape(2, 2, 3)
    for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        dims = tuple(np.array((2, 2, 3))[list(perm)])
        permuted = pure_state(dims, np.transpose(tens, perm).ravel())
        assert abs(tt.i_residual_tangle(permuted) - base) < 1e-12


def test_residual_fast_path_matches_generic():
    # tangle_report takes block shortcuts; i_residual_tangle walks every cut
    state = tt.initial_state("ee", tt.fock_state(4, 9), 9)
    for gt in (0.3, 1.1, 2.6):
        evolved = tt.evolve(state, gt)
        fast = tt.tangle_report(evolved, t=gt).tau_res
        slow = tt.i_residual_tangle(evolved)
        assert abs(fast - slow) < 1e-10


def test_residual_batch_matches_scalar():
    rng = np.random.default_rng(63)
    for dims in [(2, 2, 3), (2, 2, 4)]:
        total = int(np.prod(dims))
        states = np.array([haar_vec(rng, total) for _ in range(40)])
        batch = tt.residual_tangle_batch(states, dims)
        scalar = [tt.i_residual_tangle(pure_state(dims, s)) for s in states]
        np.testing.assert_allclose(batch, scalar, atol=1e-12, rtol=0)


@pytest.mark.parametrize("rank_tol", [0.0, -1.0, np.nan, np.inf, 1.0, 2.0])
def test_library_entry_points_validate_rank_tol(rank_tol):
    # a cutoff of nan, inf or >= 1 counts no eigenvalue, which silently
    # zeroed the residual of this state (0.699 at a valid cutoff)
    vec = haar_vec(np.random.default_rng(0), 12)
    state = pure_state((2, 2, 3), vec)
    assert abs(tt.i_residual_tangle(state) - 0.699) < 1e-3
    rho_af = tt.partial_trace(state, (0, 2))
    calls = [
        lambda: tt.i_residual_tangle(state, rank_tol),
        lambda: tt.residual_tangle_batch(vec[None], (2, 2, 3), rank_tol),
        lambda: tt.tangle_report(state, rank_tol=rank_tol),
        lambda: tt.effective_rank(rho_af, rank_tol),
        lambda: tt.rank2_itangle(rho_af, rank_tol),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="rank_tol must be finite and positive"):
            call()


def test_residual_nonnegative_on_qubit_triples():
    rng = np.random.default_rng(64)
    states = np.array([haar_vec(rng, 8) for _ in range(500)])
    batch = tt.residual_tangle_batch(states, (2, 2, 2))
    assert batch.min() > -1e-10

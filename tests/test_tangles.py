import itertools

import mpmath
import numpy as np
import pytest

import tcm_tangles as tt
from tcm_tangles import tangles
from tcm_tangles.random_states import BLOCK, haar_pure_batch
from tcm_tangles.scenarios import _build_initial, preset_config
from tcm_tangles.tangles import (
    SCENARIO_COLUMNS,
    _polar_factors,
    _roof_objective,
    _wootters_batch,
    check_tangle_columns,
    tcm_columns,
)
from tcm_tangles.tensor import RANK_TOL

from oracles import effective_rank, haar_vec, inversion_overlap, residual_tangle_by_cuts

BELL = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
BELLS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]).T / np.sqrt(2.0)
GHZ = np.zeros(8)
GHZ[0] = GHZ[7] = 1.0 / np.sqrt(2.0)
W = np.zeros(8)
W[1] = W[2] = W[4] = 1.0 / np.sqrt(3.0)


def _unitary(rng, d):
    return np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]


def werner(p):
    return p * np.outer(BELL, BELL) + (1.0 - p) * np.eye(4) / 4.0


def rank2_two_qubit(rng):
    v1, v2 = haar_vec(rng, 4), haar_vec(rng, 4)
    w = rng.uniform(0.1, 0.9)
    return w * np.outer(v1, v1.conj()) + (1.0 - w) * np.outer(v2, v2.conj())


def pure_state(dims, vec):
    return tt.PureState(tt.SystemShape(dims), vec)


def evolve_preset(config, rows):
    """A preset's amplitudes at the given rows of its grid, evolved on its
    photon window; their columns are checked against run_scenario's, so an
    offset n0 lost on the way to evolve_series fails here."""
    state, n0 = _build_initial(config)
    gts = np.linspace(0.0, config.t_max, config.steps)[rows]
    amps = np.concatenate(list(tt.TcmPropagator().evolve_series(state, gts, n0)))
    ran = tt.run_scenario(config)
    for name, column in tcm_columns(amps).items():
        np.testing.assert_allclose(column, ran.columns[name][rows], atol=1e-13, rtol=0, err_msg=name)
    return amps


# --- inversion overlap -----------------------------------------------------


def test_inversion_overlap_matches_explicit_trace():
    # closed form from purities vs the literal tr(rho * inverted(rho))
    rng = np.random.default_rng(17)
    for _ in range(25):
        psi = pure_state((2, 3, 4), haar_vec(rng, 24))
        rho = tt.partial_trace(psi, (0, 1))
        rho_a, rho_b = tt.partial_trace(psi, (0,)).matrix, tt.partial_trace(psi, (1,)).matrix
        inverted = np.eye(6) - np.kron(rho_a, np.eye(3)) - np.kron(np.eye(2), rho_b) + rho.matrix
        explicit = float(np.trace(rho.matrix @ inverted).real)
        assert abs(inversion_overlap(rho) - explicit) < 1e-12


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
    # a 4 x 4 Bell matrix is a two-qubit state only with dims (2, 2)
    for dims in ((4,), (1, 4), (4, 1)):
        with pytest.raises(ValueError, match=r"^Wootters tangle needs two qubits"):
            tt.wootters_tangle(tt.DensityMatrix(dims, bell.matrix))


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
    np.testing.assert_allclose(_wootters_batch(vecs.T[:, None]), expected, atol=1e-14, rtol=0)


def test_wootters_kernel_bell_diagonal_mixtures():
    # sum_i p_i |Bell_i><Bell_i| has C = max(0, 2 p_max - 1) under local
    # unitaries, and any factor W of rho = W W^H gives the same value:
    # rank-2 and rank-3 mixtures, as 4 x rank factors and as 4 x 6 ones
    # built with a random isometry (W V with V V^H = 1)
    rng = np.random.default_rng(25)
    for rank in (2, 3):
        for trial in range(20):
            # the first trial has p_max <= 1/2, a separable mixture
            p = np.full(rank, 1.0 / rank) if trial == 0 else rng.dirichlet(np.ones(rank))
            cols = rng.permutation(4)[:rank]
            w = np.kron(_unitary(rng, 2), _unitary(rng, 2)) @ (BELLS[:, cols] * np.sqrt(p))
            wide = w @ _unitary(rng, 6)[:rank]
            expected = max(0.0, 2.0 * p.max() - 1.0) ** 2
            for factor in (w, wide):
                assert abs(_wootters_batch(factor[..., None])[0] - expected) < 1e-14


def _mpmath_wootters_svd(w):
    """tau of rho = W W^H from the singular values of X = W^T (sigma_y x
    sigma_y) W, by mpmath.svd_c at 40 digits.  Singular values are
    well-conditioned, unlike the eigenvalues of rho rho~ near a pure state."""
    with mpmath.workdps(40):
        mat = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in w])
        yy = mpmath.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        lam = sorted(mpmath.svd_c(mat.T * yy * mat, compute_uv=False), reverse=True)
        return float(max(0, lam[0] - sum(lam[1:])) ** 2)


def _planes_wootters(stack):
    """``_wootters_batch`` of an (N, 4, k) factor stack, passed batch last."""
    return _wootters_batch(np.moveaxis(stack, 0, -1))


def _refuse(*args, **kwargs):
    raise AssertionError("not needed here")


def test_wootters_kernel_matches_mpmath_on_three_or_fewer_columns(monkeypatch):
    # near-pure Bell, W-pair and product factors with k = 1, 2, 3 columns,
    # perturbed by 1e-2 ... 1e-8, in the given column basis and in one that
    # mixes the columns, where det X from the entries of X loses up to 7e-9;
    # the closed form runs no SVD
    rng = np.random.default_rng(26)
    w_pair = W.reshape(4, 2)  # atoms 1, 2 of the three-qubit W state, atom 3 as columns
    product = np.kron([0.6, 0.8], [0.8, -0.6j])
    factors = []
    for k in (1, 2, 3):
        for base in (BELL[:, None], w_pair, product[:, None]):
            for eps in (1e-2, 1e-4, 1e-6, 1e-8):
                for mix in (np.eye(k), _unitary(rng, k)):
                    w = np.zeros((4, k), dtype=complex)
                    w[:, : min(k, base.shape[1])] = base[:, :k]
                    w += eps * (rng.standard_normal((4, k)) + 1j * rng.standard_normal((4, k)))
                    factors.append((w @ mix / np.linalg.norm(w), k))
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", _refuse)
        for k in (1, 2, 3):
            stack = np.array([w for w, cols in factors if cols == k])
            reference = [_mpmath_wootters_svd(w) for w in stack]
            np.testing.assert_allclose(_planes_wootters(stack), reference, atol=1e-14, rtol=0)
        # a product state has X = 0 and tangle 0; a non-finite factor stays non-finite
        assert _wootters_batch(np.kron([1.0, 0.0], [0.0, 1.0])[:, None, None]) == 0.0
        with np.errstate(invalid="ignore"):
            for bad in (np.nan, np.inf):
                assert np.isnan(_wootters_batch(np.full((4, 3, 1), bad, dtype=complex)))


def test_wootters_kernel_top_pair_guard(monkeypatch):
    # Bell-diagonal mixtures under local unitaries, as 4 x 3 factors in a
    # random column basis: X has singular values p, so the top pair of
    # X^H X nearly meets (Smith's r within 3e-3 and 1.2e-4 of -1) while
    # C = 2 p_max - 1 > 0, and every matrix takes the eigvalsh guard
    rng = np.random.default_rng(27)
    stack, expected = [], []
    for p in ((0.502, 0.495, 0.003), (0.5005, 0.499, 0.0005)):
        for _ in range(10):
            local = np.kron(_unitary(rng, 2), _unitary(rng, 2))
            stack.append(local @ (BELLS[:, rng.permutation(4)[:3]] * np.sqrt(p)) @ _unitary(rng, 3))
            expected.append((2.0 * max(p) - 1.0) ** 2)
    stack = np.array(stack)
    solved = []
    eigvalsh = np.linalg.eigvalsh
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(len(a)) or eigvalsh(a))
        tau = _planes_wootters(stack)
    assert solved == [len(stack)]
    np.testing.assert_allclose(tau, expected, atol=1e-14, rtol=0)
    np.testing.assert_allclose(tau, [_mpmath_wootters_svd(w) for w in stack], atol=1e-14, rtol=0)


def test_three_or_fewer_columns_agree_with_the_lapack_path_on_a_sweep_block():
    # the seed-0 10,000-state 2x2x3 sweep block: the closed form on the
    # (4, 3, N) factor against the QR and SVD that two zero columns send the
    # same rho through (k = 5; 7.8e-16 apart at most when written), and
    # rho_AA from the products of W's planes, Hermitian bit for bit and
    # within 2 eps of a long-double W W^H (0.77 eps at most when written)
    stream = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(0,)))
    amps = haar_pure_batch(12, BLOCK, stream)
    w = np.ascontiguousarray(np.moveaxis(amps.reshape(BLOCK, 4, 3), 0, -1))
    wide = np.concatenate([w, np.zeros((4, 2, BLOCK), complex)], axis=1)
    np.testing.assert_allclose(_wootters_batch(w), _wootters_batch(wide), atol=1e-15, rtol=0)
    rho = tangles._rho_planes(w)
    assert np.array_equal(rho, rho.conj().swapaxes(0, 1))
    wl = w.astype(np.clongdouble)
    reference = np.einsum("akn,bkn->abn", wl, wl.conj())
    assert np.abs(rho - reference).max() <= 2.0 * np.finfo(float).eps


@pytest.mark.parametrize("k", [1, 2, 3])
def test_field_unitary_leaves_three_or_fewer_column_states_unchanged(k):
    # a unitary on the field mixes W's columns, one per state, and leaves
    # rho_AA and every marginal and pair state it determines unchanged
    rng = np.random.default_rng(80 + k)
    amps = haar_pure_batch(4 * k, 2000, rng)
    u = np.linalg.qr(rng.standard_normal((2000, k, k)) + 1j * rng.standard_normal((2000, k, k)))[0]
    before, after = tcm_columns(amps), tcm_columns((amps.reshape(-1, 4, k) @ u).reshape(-1, 4 * k))
    np.testing.assert_array_equal(after["field_eff_dim"], before["field_eff_dim"])
    for name in set(SCENARIO_COLUMNS) - {"field_eff_dim"}:
        np.testing.assert_allclose(after[name], before[name], atol=1e-14, rtol=0, err_msg=name)


def _mpmath_tau_aa(rows):
    """tau of rho = W W^H for the (4, D) rows W, from the singular values of
    X = F^T (sigma_y x sigma_y) F at 40 digits, F = U sqrt(Lambda) the
    eigenfactor of rho: F and W give X the same singular values, and F is 4 x 4."""
    with mpmath.workdps(40):
        w = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in rows])
        lam, u = mpmath.eighe(w * w.H)
        f = u * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in lam])
        yy = mpmath.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        sv = sorted(mpmath.svd_c(f.T * yy * f, compute_uv=False), reverse=True)
        return float(max(0, sv[0] - sum(sv[1:])) ** 2)


def test_three_rows_and_four_rows_give_the_same_columns(monkeypatch):
    # exchange-symmetric states as (N, 3, D) rows (ee, eg, gg), as a scenario
    # evolves them, and as the (N, 4*D) stacks of the same states: fig2 and
    # fig3 points (D = 173, a D x 3 QR), the number-state fig1 (D = 11) and
    # Haar-like stacks of D = 1, 2, 3 field columns, which take no QR
    rng = np.random.default_rng(38)
    stacks = []
    for name in ("fig2", "fig3", "fig1"):
        config = preset_config(name)
        state, n0 = _build_initial(config)
        gts = np.linspace(0.0, config.t_max, config.steps)[::200]
        stacks.append(np.concatenate(list(tt.TcmPropagator()._evolve_rows(state, gts, n0))))
    for d in (1, 2, 3):
        rows = rng.standard_normal((50, 3, d)) + 1j * rng.standard_normal((50, 3, d))
        weight = np.array([1.0, 2.0, 1.0])[:, None]  # row eg stands for eg and ge
        norms = np.sqrt(np.sum(weight * np.abs(rows) ** 2, axis=(1, 2)))
        stacks.append(rows / norms[:, None, None])
    for rows in stacks:
        assert rows.shape[1] == 3
        four = rows[:, [0, 1, 1, 2]].reshape(len(rows), -1)
        with monkeypatch.context() as patch:
            if rows.shape[2] <= 3:
                patch.setattr(np.linalg, "qr", _refuse)
            three = tcm_columns(rows)
        reference = tcm_columns(four)
        np.testing.assert_array_equal(three["field_eff_dim"], reference["field_eff_dim"])
        for name in set(SCENARIO_COLUMNS) - {"field_eff_dim"}:
            np.testing.assert_allclose(three[name], reference[name], atol=1e-15, rtol=0,
                                       err_msg=f"{name}, D = {rows.shape[2]}")
        exact = [_mpmath_tau_aa(state.reshape(4, -1)) for state in four[::4]]
        np.testing.assert_allclose(three["tau_AA"][::4], exact, atol=1e-15, rtol=0)
    # one call takes one layout: three rows and four-row stacks do not mix
    with pytest.raises(ValueError, match="same field dimension and rows") as info:
        tcm_columns([stacks[2][:2], stacks[2][2:4, [0, 1, 1, 2]].reshape(2, -1)])
    assert "\n" not in str(info.value)


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
    amps = evolve_preset(preset_config("fig3"), list(FIG3_WORST_TAU_AA_POINTS))
    tau_aa = tcm_columns(amps)["tau_AA"]
    reference = [_mpmath_wootters(row.reshape(4, -1)) for row in amps]
    np.testing.assert_allclose(tau_aa, reference, atol=1e-12, rtol=0)


# --- pure-state cuts -------------------------------------------------------


def test_pure_itangle_anchors():
    w = pure_state((2, 2, 2), W)
    assert abs(tt.pure_itangle(w, (0,)) - 8.0 / 9.0) < 1e-12
    ghz = pure_state((2, 2, 2), GHZ)
    for side in ((0,), (1,), (2,)):
        assert abs(tt.pure_itangle(ghz, side) - 1.0) < 1e-12


def test_pure_itangle_product_is_zero():
    rng = np.random.default_rng(31)
    prod = pure_state((2, 6), np.kron(haar_vec(rng, 2), haar_vec(rng, 6)))
    assert abs(tt.pure_itangle(prod, (0,))) < 1e-12


def test_pure_itangle_side_symmetric():
    rng = np.random.default_rng(32)
    psi = pure_state((2, 2, 3), haar_vec(rng, 12))
    a = tt.pure_itangle(psi, (0, 1))
    b = tt.pure_itangle(psi, (2,))
    assert abs(a - b) < 1e-12


def test_pure_itangle_side_errors():
    psi = pure_state((2, 2, 3), haar_vec(np.random.default_rng(33), 12))
    with pytest.raises(ValueError, match="at least one factor"):
        tt.pure_itangle(psi, ())
    with pytest.raises(ValueError, match="discard at least one factor"):
        tt.pure_itangle(psi, (0, 1, 2))
    with pytest.raises(ValueError, match="out of range"):
        tt.pure_itangle(psi, (0, 3))


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
    pure = tt.pure_itangle(pure_state((2, 3), v), (0,))
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



def test_rank2_either_factor_order_and_pairs_without_a_qubit():
    # the kernel takes the pair's qubit factor wherever it sits
    rng = np.random.default_rng(46)
    for d in (2, 3, 4, 5):
        v1, v2 = haar_vec(rng, 2 * d), haar_vec(rng, 2 * d)
        rho = 0.7 * np.outer(v1, v1.conj()) + 0.3 * np.outer(v2, v2.conj())
        swapped = rho.reshape(2, d, 2, d).transpose(1, 0, 3, 2).reshape(2 * d, 2 * d)
        forward = tt.rank2_itangle(tt.DensityMatrix((2, d), rho))
        assert abs(forward - tt.rank2_itangle(tt.DensityMatrix((d, 2), swapped))) < 1e-14, d
    # a rank-2 (3, 3) pair, purified by a qubit, has no qubit factor: refused,
    # and so is a residual tangle with fewer than two qubit factors
    psi = pure_state((3, 3, 2), haar_vec(rng, 18))
    pair = tt.partial_trace(psi, (0, 1))
    assert effective_rank(pair) == 2
    with pytest.raises(ValueError, match="no qubit factor; use convex_roof_itangle"):
        tt.rank2_itangle(pair)
    for state in (psi, pure_state((2, 3, 3), haar_vec(rng, 18))):
        with pytest.raises(ValueError) as refused:
            tt.i_residual_tangle(state)
        message = str(refused.value)
        assert "\n" not in message and str(state.shape.dims) in message

# Impurities of one atom, from a pure pair up to 1e-4.  In double precision
# the Lorentz-boost form of the rank-2 minimum (the reference below) loses
# about eps / impurity to cancellation, up to 1.6e-6 on these states, and
# needs a separate formula for a pure pair; 1e-10 and 2e-10 straddle the
# switch |b| >= 1 - 2 RANK_TOL, with RANK_TOL = 1e-10.
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
    route differs from the kernel's K W form, and 40 digits leave
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


def test_tcm_columns_subsets_match_the_full_call(monkeypatch):
    # on an evolved fig1 stack and on Haar (2, 2, 5) and (2, 2, 3) states
    # (the matmul and the einsum rho_AA), each passed whole and as chunks of
    # 1, 7 and the rest, each subset is bit-identical to the one-stack full
    # call, a tau_AA-only call runs
    # no marginal spectrum (no field rank, no 4 x 4 eigvalsh, no _qubit_cut)
    # and no rank-2 kernel, and a tau_F_AA-only call (compare-approx) runs
    # no eigensolve at all, nor Wootters; every other call runs _wootters_batch
    # once, on all its states, however they are chunked
    fig1 = evolve_preset(preset_config("fig1"), slice(None, None, 50))
    rng = np.random.default_rng(67)
    haar5 = np.array([haar_vec(rng, 20) for _ in range(30)])
    haar3 = np.array([haar_vec(rng, 12) for _ in range(30)])
    eigvalsh = np.linalg.eigvalsh

    def no_marginal_eigvalsh(a):
        if a.shape[-1] == 4:
            raise AssertionError("no 4 x 4 spectrum for the named columns")
        return eigvalsh(a)

    wootters, rank2, qubit_cut, field_rank = (
        "tcm_tangles.tangles._wootters_batch",
        "tcm_tangles.tangles._pair_tangle",
        "tcm_tangles.tangles._qubit_cut",
        "tcm_tangles.tangles._field_rank",
    )
    for amps in (fig1, haar5, haar3):
        full = tcm_columns(amps)
        assert list(full) == list(SCENARIO_COLUMNS)
        for states, (names, unused, solve) in itertools.product(
            (amps, [amps[:1], amps[1:8], amps[8:]]),
            [
                (("tau_F_AA",), (wootters, rank2, qubit_cut, field_rank), _refuse),
                (("tau_AA",), (field_rank, qubit_cut, rank2), no_marginal_eigvalsh),
                (("tau_res",), (), eigvalsh),
                (SCENARIO_COLUMNS, (), eigvalsh),
            ],
        ):
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(wootters, lambda w: calls.append(w.shape) or _wootters_batch(w))
                for target in unused:
                    patch.setattr(target, _refuse)
                patch.setattr(np.linalg, "eigvalsh", solve)
                part = tcm_columns(states, names)
            assert len(calls) == (wootters not in unused), names
            assert all(shape[-1] == len(amps) for shape in calls), names
            assert list(part) == list(names)
            for name in names:
                assert np.array_equal(part[name], full[name]), name
    with pytest.raises(ValueError, match="unknown columns"):
        tcm_columns(haar5, ("tau_XY",))
    # no states at all, states of two field dimensions, and stacks that are
    # not (N, 4*D) with D >= 1 are refused in one line
    for states, match in [([], "at least one state"), (haar5[:0], "at least one state"),
                          ([haar5[:2], haar3[:2]], "same field dimension"),
                          (haar5[:2, :6], r"\(N, 4\*D\) stacks, D >= 1; got shape \(2, 6\)$"),
                          (haar5[:2, :0], r"got shape \(2, 0\)$"),
                          (haar5[0], r"got shape \(20,\)$"),
                          (haar5[:2].reshape(1, 2, 20), r"got shape \(1, 2, 20\)$")]:
        with pytest.raises(ValueError, match=match) as info:
            tcm_columns(states)
        assert "\n" not in str(info.value)


def test_tcm_columns_rho_aa_meets_a_long_double_product():
    # with more than three field columns rho_AA is np.vecdot's W W^H: tau_F_AA
    # and the inversion meet the same product in np.clongdouble (a 64-bit
    # mantissa where it is wider than float64) within a few eps, on Haar
    # (2, 2, 4) and (2, 2, 5) states and on fig2's evolved D = 173 rows
    rng = np.random.default_rng(36)
    fig2 = evolve_preset(preset_config("fig2"), slice(None, None, 40))
    stacks = [haar_pure_batch(4 * d, 500, rng) for d in (4, 5)] + [fig2]
    eps = np.finfo(float).eps
    for amps in stacks:
        m = amps.astype(np.clongdouble).reshape(len(amps), 4, -1)
        rho = np.matmul(m, m.conj().swapaxes(-1, -2))
        tau = 2.0 * (1.0 - np.sum(rho.real**2 + rho.imag**2, axis=(1, 2)))
        inversion = (rho[:, 0, 0] - rho[:, 3, 3]).real
        columns = tcm_columns(amps, ("tau_F_AA", "inversion"))
        assert np.max(np.abs(columns["tau_F_AA"] - tau)) < 8 * eps, amps.shape
        assert np.max(np.abs(columns["inversion"] - inversion)) < 4 * eps, amps.shape


def _recorded_calls(monkeypatch, name, amps):
    """[(first argument, result)] of each call of ``tangles.<name>`` in one
    full ``tcm_columns(amps)``, in order, and that call's columns."""
    calls = []
    func = getattr(tangles, name)
    with monkeypatch.context() as patch:
        patch.setattr(
            tangles, name, lambda arg, *rest: calls.append((arg, func(arg, *rest))) or calls[-1][1]
        )
        columns = tcm_columns(amps)
    return calls, columns


def _kernel_pair_tangles(monkeypatch, amps):
    """(tau_A1F, tau_A2F) of a state stack: the two rank-2 kernel calls of
    ``tcm_columns``, recorded in order (A1-field purified by atom 2, then
    A2-field purified by atom 1)."""
    calls, columns = _recorded_calls(monkeypatch, "_pair_tangle", amps)
    assert len(calls) == 2
    np.testing.assert_array_equal(calls[0][1], columns["tau_AF"])
    return [result for _, result in calls]


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
    amps = evolve_preset(preset_config("fig1"), slice(8))
    reference = [_mpmath_rank2_tangle(psi, 1) for psi in amps]
    np.testing.assert_allclose(tcm_columns(amps)["tau_AF"], reference, atol=1e-12, rtol=0)


def test_rank2_kernel_matches_wootters_on_qubit_fields():
    # at D = 2 the A1-field pair is two qubits: its tangle is the Wootters
    # tangle of the state's own (A1 F) x A2 amplitude factor
    rng = np.random.default_rng(7)
    for atom in (1, 0):
        amps = impure_atom_states(rng, 2, atom)
        factor = amps.reshape(-1, 2, 2, 2).transpose(0, 1, 3, 2).reshape(-1, 4, 2)
        np.testing.assert_allclose(
            tcm_columns(amps)["tau_AF"], _planes_wootters(factor), atol=1e-13, rtol=0
        )


def _mpmath_lam_max(a):
    """Largest eigenvalue of each 3 x 3 of a (3, 3, N) stack at 40 digits, of
    the symmetric matrix its lower triangle defines (the triangle eigvalsh reads)."""
    with mpmath.workdps(40):
        return np.array([
            float(max(mpmath.eigsy(mpmath.matrix((np.tril(m) + np.tril(m, -1).T).tolist()),
                                   eigvals_only=True)))
            for m in np.moveaxis(a, -1, 0)
        ])


def _rotated(rng, spectrum):
    """A real symmetric matrix with the given spectrum in a random basis."""
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    return (q * spectrum) @ q.T


def test_lam_max_matches_mpmath_at_degenerate_tops(monkeypatch):
    # the closed form's hard cases: a top pair that meets, where arccos alone
    # is off by about sqrt(eps), and three equal eigenvalues, where p = 0
    rng = np.random.default_rng(69)
    # the atom-symmetric |ee>|3> state at gt = 0.9: both pair-kernel
    # matrices K K^T + k k^T / s^2 have an exactly degenerate top pair; Bell
    # atoms times a Haar field, atom 1 rotated: each atom is maximally mixed,
    # each matrix is the identity up to rounding, and each atom-field pair
    # is a product state
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    bell = np.kron(np.kron(u, np.eye(2)) @ BELL, haar_vec(rng, 5))
    symmetric = tt.evolve(tt.initial_state("ee", tt.fock_state(3, 8), 8), 0.9).amplitudes
    for amps, reference in [
        (symmetric[None], [_mpmath_rank2_tangle(symmetric, 1)]),
        (bell[None], [0.0]),
    ]:
        calls, columns = _recorded_calls(monkeypatch, "_sym3_lam_max", amps)
        assert len(calls) == 2
        for gram, lam in calls:
            np.testing.assert_allclose(lam, _mpmath_lam_max(gram), atol=1e-12, rtol=0)
        np.testing.assert_allclose(columns["tau_AF"], reference, atol=1e-12, rtol=0)
    # constructed: two equal top eigenvalues, three equal ones, and exactly 0.3 I
    constructed = np.moveaxis(np.array(
        [_rotated(rng, [0.7, 0.7, 0.2]) for _ in range(20)]
        + [_rotated(rng, [0.4, 0.4, 0.4]) for _ in range(20)]
        + [0.3 * np.eye(3)]
    ), 0, -1)
    lam = tangles._sym3_lam_max(constructed)
    np.testing.assert_allclose(lam, _mpmath_lam_max(constructed), atol=1e-12, rtol=0)
    assert lam[-1] == 0.3


def test_lam_max_closed_form_and_fallback_match_eigvalsh(monkeypatch):
    # the closed form on the pair-kernel matrices of Haar (2, 2, 3) and
    # (2, 2, 4) stacks (and, at D = 3, the complex Hermitian X^H X of the
    # Wootters kernel), and the eigvalsh fallback on an atom-symmetric
    # scenario, whose top pairs meet
    rng = np.random.default_rng(70)
    state = tt.initial_state("ee", tt.fock_state(3, 8), 8)
    symmetric = np.array([tt.evolve(state, gt).amplitudes for gt in np.linspace(0.0, 4.0, 50)])
    stacks = [(np.array([haar_vec(rng, 4 * d) for _ in range(2000)]), False) for d in (3, 4)]
    stacks.append((symmetric, True))
    eigvalsh = np.linalg.eigvalsh
    for amps, top_pairs_meet in stacks:
        calls, _ = _recorded_calls(monkeypatch, "_sym3_lam_max", amps)
        gram = np.concatenate([arg for arg, _ in calls], axis=-1)
        solved = []
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(len(a)) or eigvalsh(a))
            lam = tangles._sym3_lam_max(gram)
        np.testing.assert_allclose(lam, eigvalsh(np.moveaxis(gram, -1, 0))[:, -1], atol=1e-13, rtol=0)
        if top_pairs_meet:
            assert sum(solved) > 0
        else:
            assert sum(solved) < 0.01 * gram.shape[-1]


def test_qubit_cut_matches_mpmath_across_impurities(monkeypatch):
    # one-atom spectra and tau_A_rest from a pure atom-field pair up to an
    # impurity of 1e-4, against 40-digit marginals of the same amplitudes
    rng = np.random.default_rng(71)
    amps = np.concatenate([impure_atom_states(rng, 3, atom) for atom in (1, 0)])
    calls, columns = _recorded_calls(monkeypatch, "_qubit_cut", amps)
    assert len(calls) == 2
    np.testing.assert_array_equal(calls[0][1][1], columns["tau_A_rest"])
    for atom, (_, (spectra, tau)) in enumerate(calls):
        reference = []
        with mpmath.workdps(40):
            for psi in amps:
                t = np.moveaxis(psi.reshape(2, 2, -1), atom, 0).reshape(2, -1)
                m = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in t])
                rho = m * m.H
                evals = sorted(mpmath.eighe(rho, eigvals_only=True))
                purity = sum(abs(rho[i, j]) ** 2 for i in range(2) for j in range(2))
                reference.append([float(evals[0]), float(evals[1]), float(2 - 2 * purity)])
        reference = np.array(reference)
        np.testing.assert_allclose(spectra.T, reference[:, :2], atol=1e-12, rtol=0)
        np.testing.assert_allclose(tau, reference[:, 2], atol=1e-12, rtol=0)
        # det / lam_max keeps the small eigenvalue's relative accuracy
        np.testing.assert_allclose(spectra[0], reference[:, 0], atol=0, rtol=1e-12)


def _eigvalsh_counts(rho):
    """eigvalsh's counts above RANK_TOL of a batch-last stack."""
    return np.count_nonzero(np.linalg.eigvalsh(np.moveaxis(rho, -1, 0)) > RANK_TOL, axis=-1)


def _constructed_marginals(rng):
    """(N, 16) (2, 2, 4) states whose rho_AA, in a random basis, has an
    eigenvalue at RANK_TOL times 0.5, 1 -+ 1e-3, 2 or 10 as lambda_2, 3 or
    4 (with lambda_2 = 1e-8 for a nearly pure field, where the roundoff of
    the e_k matters most), then a few spectra far from RANK_TOL."""
    spectra = []
    for x in np.array([0.5, 1.0 - 1e-3, 1.0 + 1e-3, 2.0, 10.0]) * RANK_TOL:
        spectra += [
            (1.0 - x, x, 0.0, 0.0),
            (0.6, 0.4 - x, x, 0.0),
            (1.0 - 1e-8 - x, 1e-8, x, 0.0),
            (0.5, 0.3, 0.2 - x, x),
        ]
    spectra += [(1.0, 0, 0, 0), (0.5, 0.5, 0, 0), (0.5, 0.3, 0.2, 0), (0.4, 0.3, 0.2, 0.1)]
    return np.array([
        (_unitary(rng, 4) * np.sqrt(lam)) @ _unitary(rng, 4) for lam in spectra for _ in range(5)
    ]).reshape(-1, 16)


def test_rank_counts_equal_eigvalsh_counts(monkeypatch):
    # field_eff_dim, and each rank the residual rescales by (the field's from
    # _field_rank, each atom's from _qubit_cut), equal eigvalsh's counts
    rng = np.random.default_rng(72)
    stacks = {name: evolve_preset(preset_config(name), slice(None)) for name in ("fig1", "fig2", "fig3")}
    for d in (3, 4):
        stream = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(0,)))
        stacks[f"haar 2x2x{d}"] = haar_pure_batch(4 * d, BLOCK, stream)
    stacks["constructed"] = _constructed_marginals(rng)
    for name, amps in stacks.items():
        (rho_aa, field_dim), = _recorded_calls(monkeypatch, "_field_rank", amps)[0]
        expected = _eigvalsh_counts(rho_aa)
        np.testing.assert_array_equal(field_dim, expected, err_msg=name)
        np.testing.assert_array_equal(tcm_columns(amps)["field_eff_dim"], expected, err_msg=name)
        for rho_a, (spectra, _) in _recorded_calls(monkeypatch, "_qubit_cut", amps)[0]:
            counts = np.count_nonzero(spectra > RANK_TOL, axis=0)
            np.testing.assert_array_equal(counts, _eigvalsh_counts(rho_a), err_msg=name)
    # the constructed stack runs both branches: eigvalsh gets some rows, not all
    rho_aa = _recorded_calls(monkeypatch, "_field_rank", stacks["constructed"])[0][0][0]
    solved = []
    eigvalsh = np.linalg.eigvalsh
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(len(a)) or eigvalsh(a))
        tangles._field_rank(rho_aa)
    assert 0 < sum(solved) < rho_aa.shape[-1]


def test_sweep_block_runs_no_svd_and_few_eigensolves(monkeypatch):
    # one 10,000-state 2x2x3 sweep block: no SVD, and eigvalsh only on the
    # 3 x 3 matrices of _sym3_lam_max whose top pair meets (Smith's r below
    # -1 + TOP_PAIR_GUARD) and on the 4 x 4 rho_AA the rank certificate
    # leaves open, both rare
    stream = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(0,)))
    amps = haar_pure_batch(12, BLOCK, stream)
    solved = []
    eigvalsh = np.linalg.eigvalsh
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", _refuse)
        patch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(a) or eigvalsh(a))
        tcm_columns(amps, ("tau_res",))
    guarded = np.concatenate([a for a in solved if a.shape[-1] == 3])
    uncertified = sum(len(a) for a in solved if a.shape[-1] == 4)
    lam = eigvalsh(guarded)
    dev = lam - lam.mean(axis=-1, keepdims=True)
    p = np.sqrt(np.sum(dev**2, axis=-1) / 6.0)
    r = np.prod(dev / p[:, None], axis=-1) / 2.0
    assert np.all(r < -1.0 + tangles.TOP_PAIR_GUARD + 1e-9)
    assert len(guarded) < 0.005 * 3 * BLOCK  # three lambda_max calls of BLOCK matrices
    assert uncertified < 0.001 * BLOCK


# --- convex roof -----------------------------------------------------------


def test_roof_matches_wootters_on_werner():
    dm = tt.DensityMatrix((2, 2), werner(0.8))
    value = tt.convex_roof_itangle(dm, restarts=8, seed=1)
    assert abs(value - 0.49) < 5e-7


def test_roof_on_pure_bell():
    dm = tt.DensityMatrix((2, 2), np.outer(BELL, BELL))
    assert abs(tt.convex_roof_itangle(dm) - 1.0) < 1e-9


def test_roof_search_space_is_the_decompositions_of_the_state():
    # every point the minimizer visits is an isometry C, and the ensemble
    # rows of Phi = C wm sum back to rho: Phi^T Phi* = rho
    rng = np.random.default_rng(51)
    rho = rank2_two_qubit(rng)
    evals, evecs = np.linalg.eigh(rho)
    keep = evals > 1e-12
    wm = (np.sqrt(evals[keep])[:, None] * evecs[:, keep].T).astype(complex)
    r = wm.shape[0]
    for m in (2, 3, 4):
        z = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
        c = _polar_factors(z)[0]
        np.testing.assert_allclose(c.conj().T @ c, np.eye(r), atol=1e-12)
        phi = c @ wm
        np.testing.assert_allclose(phi.T @ phi.conj(), rho, atol=1e-12)


def test_roof_value_does_not_increase_with_restarts_and_repeats():
    dm = tt.DensityMatrix((2, 2), werner(0.6))
    values = [tt.convex_roof_itangle(dm, restarts=k, seed=5) for k in range(1, 8)]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert tt.convex_roof_itangle(dm, restarts=3, seed=5) == values[2]


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
    value = tt.convex_roof_itangle(tt.DensityMatrix((2, 2), rho), restarts=1)
    assert value <= eig_avg + 1e-10


def test_roof_options_validation():
    with pytest.raises(ValueError, match=r"^restarts must lie in 1 \.\. 10000, got 0$"):
        tt.convex_roof_itangle(tt.DensityMatrix((2, 2), werner(0.8)), restarts=0)


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
        with pytest.raises(RuntimeError, match=name):
            check_tangle_columns(bad)


def test_tangle_report_cross_checks():
    # one tangle_report and a few rows of a scenario from the same state,
    # each against the generic measures on partial traces
    state = tt.initial_state("ee", tt.fock_state(3, 8), 8)
    evolved = tt.evolve(state, 0.9)
    report = tt.tangle_report(evolved)
    assert list(report) == list(SCENARIO_COLUMNS)
    cases = [(evolved, report)]
    result = tt.run_scenario(
        tt.ScenarioConfig(atomic="ee", field="fock", n=3, t_max=4.0, steps=50)
    )
    for i in (7, 23, 41):
        row = {name: result.columns[name][i] for name in SCENARIO_COLUMNS}
        cases.append((tt.evolve(state, result.gt[i]), row))
    # the states above are symmetric under swapping the atoms; a Haar state
    # is not, so it tells the two atom-field purifications apart
    haar = pure_state((2, 2, 5), haar_vec(np.random.default_rng(66), 20))
    cases.append((haar, tt.tangle_report(haar)))

    for evolved, row in cases:
        rho_aa = tt.partial_trace(evolved, (0, 1))
        assert abs(row["tau_AA"] - tt.wootters_tangle(rho_aa)) < 1e-12
        assert abs(row["tau_F_AA"] - 2.0 * (1.0 - tt.purity(rho_aa))) < 1e-12
        assert abs(
            row["tau_A_rest"] - tt.pure_itangle(evolved, (0,))
        ) < 1e-12
        rho_af = tt.partial_trace(evolved, (0, 2))
        assert abs(row["tau_AF"] - tt.rank2_itangle(rho_af)) < 1e-12
        assert abs(row["tau_res"] - residual_tangle_by_cuts(evolved)) < 1e-12
        tens = evolved.tensor()
        inv = float(np.sum(np.abs(tens[0, 0]) ** 2) - np.sum(np.abs(tens[1, 1]) ** 2))
        assert abs(row["inversion"] - inv) < 1e-12
        assert row["field_eff_dim"] == effective_rank(tt.partial_trace(evolved, (2,)))


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
    # tangle_report takes block shortcuts; the oracle walks every cut
    state = tt.initial_state("ee", tt.fock_state(4, 9), 9)
    for gt in (0.3, 1.1, 2.6):
        evolved = tt.evolve(state, gt)
        fast = tt.tangle_report(evolved)["tau_res"]
        slow = residual_tangle_by_cuts(evolved)
        assert abs(fast - slow) < 1e-10


def test_residual_batch_matches_scalar():
    rng = np.random.default_rng(63)
    # a field beyond 4 adds no Schmidt rank: each atom-field pair stays rank <= 2
    for dims in [(2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 2, 8)]:
        total = int(np.prod(dims))
        states = np.array([haar_vec(rng, total) for _ in range(40)])
        batch = tt.tcm_columns(states, ("tau_res",))["tau_res"]
        scalar = [residual_tangle_by_cuts(pure_state(dims, s)) for s in states]
        np.testing.assert_allclose(batch, scalar, atol=1e-12, rtol=0)
    # the package's one-state view moves the field factor last wherever it sits
    for d in (1, 2, 3, 5):
        for field in (0, 1, 2):
            dims = tuple(np.insert([2, 2], field, d))
            for s in (haar_vec(rng, 4 * d) for _ in range(10)):
                state = pure_state(dims, s)
                oracle = residual_tangle_by_cuts(state)
                assert abs(tt.i_residual_tangle(state) - oracle) <= 1e-14, (dims, oracle)


def test_residual_nonnegative_on_qubit_triples():
    rng = np.random.default_rng(64)
    states = np.array([haar_vec(rng, 8) for _ in range(500)])
    batch = tt.tcm_columns(states, ("tau_res",))["tau_res"]
    assert batch.min() > -1e-10


# seeds of the rank-cutoff test as {flat index: amplitude} of (atom 1, atom 2,
# photon), atom index 0 being e, at field dimension D
_RANK_CUTOFF_SEEDS = {
    "product": lambda d: {0: 1.0},  # |ee, 0>
    "bell_aa": lambda d: {0: 1.0, 3 * d: 1.0},  # (|ee> + |gg>) |0>
    "bell_a2f": lambda d: {0: 1.0, d + 1: 1.0},  # |e> (|e, 0> + |g, 1>)
    "w": lambda d: {d: 1.0, 2 * d: 1.0, 1: 1.0},  # |eg, 0> + |ge, 0> + |ee, 1>
}


@pytest.mark.parametrize("seed", sorted(_RANK_CUTOFF_SEEDS))
@pytest.mark.parametrize("field_dim", [3, 4])
def test_rank_cutoff_artefact_near_product_states_is_bounded(field_dim, seed):
    # a seed state plus eps times a complex Gaussian / sqrt(8 D): a marginal
    # eigenvalue just below RANK_TOL drops its d/2 weight while the tangles
    # still carry it, which makes exact negatives of order RANK_TOL; they
    # stay above -(4/3) RANK_TOL, far above TANGLE_FLOOR, and the batch
    # kernel agrees with the scalar path at the worst state
    rng = np.random.default_rng(90 + field_dim)
    size = 4 * field_dim
    for eps in (3e-5, 3e-6):
        noise = rng.standard_normal((20_000, size)) + 1j * rng.standard_normal((20_000, size))
        states = noise * (eps / np.sqrt(8.0 * field_dim))
        for index, amplitude in _RANK_CUTOFF_SEEDS[seed](field_dim).items():
            states[:, index] += amplitude
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        values = tt.tcm_columns(states, ("tau_res",))["tau_res"]
        worst = int(np.argmin(values))
        assert values[worst] >= -4.0 / 3.0 * RANK_TOL, (eps, values[worst])
        assert not np.any(values < tangles.TANGLE_FLOOR)
        scalar = residual_tangle_by_cuts(pure_state((2, 2, field_dim), states[worst]))
        assert abs(scalar - values[worst]) < 1e-14, (eps, scalar, values[worst])

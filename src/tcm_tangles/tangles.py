"""Bipartite and tripartite entanglement measures.

Bipartite measures, all normalized so a Bell pair scores 1:

* ``wootters_tangle`` -- squared concurrence of a two-qubit density matrix
  in Wootters' ensemble form: for rho = W W^H the l_i are the singular
  values of W^T (sigma_y x sigma_y) W, so no square root of rho is taken.
* ``pure_itangle`` -- 2*[1 - tr(rho_A^2)] across any cut of a pure state;
  reduces to the Wootters tangle on two qubits and makes sense for factors
  of any dimension.
* ``rank2_itangle`` -- closed form for rank <= 2 mixed states of a
  qubit x D-level pair, a minimum over two-outcome measurements on a qubit
  purifier (``_pair_tangle``); one formula from a pure pair to a maximally
  mixed one, accurate to roundoff throughout, and cross-validated against
  the convex roof.
* ``convex_roof_itangle`` -- mixed-state extension as the minimum average
  pure-state tangle over ensemble decompositions (numerical minimization
  over the decomposition freedom, to about ``ROOF_TOL``).  No function of
  the package calls it; it is a reference for the closed forms.

The tripartite residual tangle averages one-versus-rest tangles over the
three cuts, subtracts the pairwise mixed tangles (Wootters for the qubit
pair, the rank-2 closed form for each qubit-field pair, which the other
qubit purifies), and rescales each term by d/2 where d is the smaller
effective dimension of the term's two sides.  Each formula is written
once, in the batched (2, 2, D) kernel ``tcm_columns``, and the scalar
functions read one column on one state: ``i_residual_tangle`` the
``tau_res`` of a qubit x qubit x d state in any factor order,
``wootters_tangle`` the ``tau_AA`` of rho's factor U sqrt(Lambda) and
``rank2_itangle`` the ``tau_AF`` of rho's purification by a qubit;
``tests/oracles.py`` walks every cut as the tests' reference.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .tensor import (
    RANK_TOL,
    DensityMatrix,
    PureState,
    four_rows,
    partial_trace,
    purity,
    tcm_field_dim,
    whole_number,
)

ROOF_WEIGHT_FLOOR = 1e-14
ROOF_TOL = 1e-8
MAX_RESTARTS = 10_000  # each is one L-BFGS search, and SeedSequence.spawn makes one child apiece

# sigma_y (x) sigma_y is real and antidiagonal: it reverses the rows of a
# factor W with signs -, +, +, -, so W^T (sigma_y x sigma_y) is W^T with its
# columns reversed and signed the same way.
_YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])


def _wootters_batch(w: np.ndarray) -> np.ndarray:
    """Squared concurrence of the two-qubit states rho = W W^H of a (4, k, N) stack, batch last.

    The l_i are the singular values of X = W^T (sigma_y x sigma_y) W
    (Wootters, PRL 80, 2245 (1998)).  At most three columns (padded with
    zero columns to three) take the closed form of ``_concurrence_3col``.
    More take LAPACK on the (N, 4, k) layout: with more than four,
    ``_thin_factor`` first gives a factor of the same rho with four columns
    and the same singular values, and four columns take an SVD of X.  No
    square root of rho is taken: accurate to roundoff at any rank.
    """
    k = w.shape[1]
    if k <= 3:
        if k < 3:
            w = np.concatenate([w, np.zeros((4, 3 - k) + w.shape[2:], w.dtype)], axis=1)
        c = _concurrence_3col(w)
    else:
        f = _thin_factor(np.moveaxis(w, -1, 0))
        lam = np.linalg.svd((f.swapaxes(-1, -2)[..., ::-1] * _YY_SIGNS) @ f, compute_uv=False)
        # svd sorts descending: the largest value minus the others
        c = 2.0 * lam[..., 0] - lam.sum(axis=-1)
    return np.maximum(c, 0.0) ** 2


def _thin_factor(m: np.ndarray) -> np.ndarray:
    """A factor of at most r columns with the W W^H and Wootters l_i of each W of an (N, r, k)
    stack: W for k <= r, else R^T of the thin QR W^T = Q R, as W W^H = R^T conj(R)."""
    if m.shape[-1] <= m.shape[-2]:
        return m
    return np.linalg.qr(m.swapaxes(-1, -2), mode="r").swapaxes(-1, -2)


def _concurrence_3col(w: np.ndarray) -> np.ndarray:
    """l1 - l2 - l3 for the singular values of each 3 x 3 X = W^T (sigma_y x
    sigma_y) W of a (4, 3, N) factor stack, from products of its (N,) planes.

    X is symmetric, x_ij = (w1i w2j + w2i w1j) - (w0i w3j + w3i w0j) for the
    rows w0 .. w3 of W.  mu1 = l1^2 is the largest eigenvalue of X^H X
    (``_sym3_lam_max``).  By Cauchy-Binet, e2 = sum_{i<j} l_i^2 l_j^2 is the
    sum of the squared moduli of the 2 x 2 minors of X, the entries of the
    symmetric adj X; det X = 2 (M0 M3 - M1 M2), M_j the triple product of
    W's rows but j, and delta = |det X| = l1 l2 l3.
    Then (l2 + l3)^2 = (e2 - delta^2/mu1)/mu1 + 2 delta/l1.  Each term is
    a sum of products of small quantities where X is nearly rank 1, so
    none cancels; det X taken from the entries of X would, and loses
    about sqrt(eps) in l2 + l3 for a nearly pure state whose field basis
    mixes the Schmidt vectors.
    """
    w0, w1, w2, w3 = w
    x00, x11, x22 = (2.0 * (w1[i] * w2[i] - w0[i] * w3[i]) for i in range(3))
    x10, x20, x21 = ((w1[i] * w2[j] + w2[i] * w1[j]) - (w0[i] * w3[j] + w3[i] * w0[j])
                     for i, j in ((1, 0), (2, 0), (2, 1)))
    s00, s11, s22, s10, s20, s21 = (x.real**2 + x.imag**2 for x in (x00, x11, x22, x10, x20, x21))
    # the lower triangle of conj(X) X, the one _sym3_lam_max and eigvalsh read
    g = np.zeros((3, 3) + x00.shape, complex)
    g[0, 0], g[1, 1], g[2, 2] = s00 + s10 + s20, s10 + s11 + s21, s20 + s21 + s22
    c11, c22, c10, c20, c21 = (x.conj() for x in (x11, x22, x10, x20, x21))
    g[1, 0] = c10 * x00 + c11 * x10 + c21 * x20
    g[2, 0] = c20 * x00 + c21 * x10 + c22 * x20
    g[2, 1] = c20 * x10 + c21 * x11 + c22 * x21
    mu1 = np.maximum(_sym3_lam_max(g), 0.0)
    a00, a11, a22, a10, a20, a21 = (a.real**2 + a.imag**2 for a in (
        x11 * x22 - x21 * x21, x00 * x22 - x20 * x20, x00 * x11 - x10 * x10,
        x10 * x22 - x20 * x21, x10 * x21 - x20 * x11, x00 * x21 - x10 * x20))
    e2 = a00 + a11 + a22 + 2.0 * (a10 + a20 + a21)
    # M0, M1 on w2 x w3 and, cyclically, M2 = w3 . (w0 x w1), M3 = w2 . (w0 x w1)
    u, v = ([p[i] * q[j] - p[j] * q[i] for i, j in ((1, 2), (2, 0), (0, 1))]
            for p, q in ((w2, w3), (w0, w1)))
    m0, m1, m2, m3 = (p[0] * q[0] + p[1] * q[1] + p[2] * q[2]
                      for p, q in ((w1, u), (w0, u), (w3, v), (w2, v)))
    delta = 2.0 * np.abs(m0 * m3 - m1 * m2)
    # X = 0 has C = 0; a NaN stays NaN, for the range check to catch
    zero = mu1 == 0.0
    mu1 = np.where(zero, 1.0, mu1)
    l1 = np.sqrt(mu1)
    tail2 = (e2 - delta**2 / mu1) / mu1 + 2.0 * delta / l1
    return np.where(zero, 0.0, l1 - np.sqrt(np.maximum(tail2, 0.0)))


def wootters_tangle(rho: DensityMatrix) -> float:
    """Two-qubit tangle max{0, l1-l2-l3-l4}^2: the ``tau_AA`` column of
    ``tcm_columns`` on the factor U sqrt(Lambda) of rho, as a (2, 2, 4) state.

    Eigenvalue dust of order eps in rho moves the l_i by about sqrt(eps),
    so near rank deficiency this is accurate to about 1e-8, where the
    kernel on a pure state's own amplitude factor is accurate to roundoff.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"Wootters tangle needs two qubits, dims (2, 2); got {rho.dims}")
    evals, evecs = np.linalg.eigh(rho.matrix)
    factor = evecs * np.sqrt(np.clip(evals, 0.0, None))
    return float(tcm_columns(factor.reshape(1, 16), ("tau_AA",))["tau_AA"][0])


def pure_itangle(state: PureState, side: Sequence[int]) -> float:
    """Tangle 2*[1 - tr(rho_A^2)] of a pure state between the factors in
    ``side`` and the rest, with ``side`` as ``partial_trace`` takes it.

    Symmetric in the two sides because both marginals of a pure state
    share their nonzero spectrum.
    """
    rho_a = partial_trace(state, side)
    return 2.0 * (1.0 - purity(rho_a))


# ---------------------------------------------------------------------------
# rank-2 mixed states with a qubit purifier: closed form
# ---------------------------------------------------------------------------

# _sym3_lam_max solves with eigvalsh where r = det(B)/2 < -1 + TOP_PAIR_GUARD.
# Against 40-digit references on 2,450 3 x 3 matrices with eigenvalues in
# [0, 1], the arccos form was off by at most 8.9e-16 for 1 + r in
# [1e-2, 1e-1), 3.0e-15 in [1e-3, 1e-2) and 6.3e-9 below 1e-12; eigvalsh
# by at most 1.1e-15 anywhere.
TOP_PAIR_GUARD = 1e-2


def _sym3_lam_max(a: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each matrix of a (3, 3, N) real symmetric or
    complex Hermitian stack, batch last, from its lower triangle (the one
    eigvalsh reads).

    Trigonometric closed form (O. K. Smith, CACM 4, 168 (1961)): with
    q = tr(A)/3, p = ||A - q||_F / sqrt(6) and B = (A - q)/p, the
    eigenvalues are q + 2p cos(phi + 2 pi k/3) with phi = arccos(r)/3 and
    r = det(B)/2, and k = 0 gives the largest.  As r nears -1 the two
    largest meet and arccos loses up to about sqrt(eps), so those
    matrices go to ``eigvalsh`` (the hybrid scheme of J. Kopp, Int. J.
    Mod. Phys. C 19, 523 (2008)).  A multiple of the identity has p = 0
    and gets q.
    """
    q = (a[0, 0] + a[1, 1] + a[2, 2]).real / 3.0
    diag, low = [a[i, i].real - q for i in range(3)], [a[1, 0], a[2, 0], a[2, 1]]
    p = np.sqrt((sum(x**2 for x in diag) + 2.0 * sum((x * x.conj()).real for x in low)) / 6.0)
    scale = 1.0 / np.where(p > 0.0, p, 1.0)
    b00, b11, b22, b10, b20, b21 = (x * scale for x in diag + low)
    s10, s20, s21 = ((x * x.conj()).real for x in (b10, b20, b21))
    # det(B) of the Hermitian B: one complex term, the cycle b10 b21 conj(b20)
    r = (b00 * b11 * b22 + 2.0 * (b10 * b21 * b20.conj()).real
         - b00 * s21 - b11 * s20 - b22 * s10) / 2.0
    lam = q + 2.0 * p * np.cos(np.arccos(np.clip(r, -1.0, 1.0)) / 3.0)
    near = r < -1.0 + TOP_PAIR_GUARD
    if near.any():
        lam[near] = np.linalg.eigvalsh(np.moveaxis(a[..., near], -1, 0))[..., -1]
    return lam


def _pauli_correlations(rho: np.ndarray) -> np.ndarray:
    """R_mu nu = tr(rho sigma_mu (x) sigma_nu), real, of a (4, 4, N) two-qubit stack, batch
    last: each the sum of the two or four diagonal or upper entries it reads, plane by plane."""
    d0, d1, d2, d3 = (rho[i, i].real for i in range(4))
    # the entries where only the second qubit flips (u, v), only the first (s, t), both (x, y)
    u, v = rho[0, 1] + rho[2, 3], rho[0, 1] - rho[2, 3]
    s, t = rho[0, 2] + rho[1, 3], rho[0, 2] - rho[1, 3]
    x, y = rho[0, 3] + rho[1, 2], rho[0, 3] - rho[1, 2]
    return np.array([
        [d0 + d1 + d2 + d3, 2.0 * u.real, -2.0 * u.imag, d0 - d1 + d2 - d3],
        [2.0 * s.real, 2.0 * x.real, -2.0 * y.imag, 2.0 * t.real],
        [-2.0 * s.imag, -2.0 * x.imag, -2.0 * y.real, -2.0 * t.imag],
        [d0 + d1 - d2 - d3, 2.0 * v.real, -2.0 * v.imag, d0 - d1 - d2 + d3],
    ])


def _pair_tangle(r: np.ndarray, tau_q: np.ndarray) -> np.ndarray:
    """Tangle of the pair (Q, F) of pure states of qubits Q, P and a factor F, batch last.

    ``r`` is the (4, 4, N) ``_pauli_correlations`` of rho_QP (rows Q) and
    ``tau_q`` = 4 det rho_Q.  Each length-2 decomposition of the pair state
    comes from measuring its purifier P along a Bloch direction, and longer
    ones never do better (Osborne, PRA 72, 022309 (2005)).  With a = R_i0,
    b = R_0j, T = R_ij and K = T - a b^T (R. and M. Horodecki, PLA 200,
    340 (1995)) the minimum is tau_q - sigma_max^2(K W), W = (1 - b b^T)^(-1/2),
    and sigma_max^2(K W) = lam_max(K K^T + k k^T / s^2), k = K b and
    s^2 = 1 - |b|^2, from ``_sym3_lam_max`` with no square root taken.  K
    is off by about eps, from T - a b^T on O(1) entries.  Near a pure pair
    s -> 0, but k is O(s^2), so k k^T / s^2 is O(s^2) and off by about
    eps: accurate to roundoff up to and including a pure pair, where K = 0
    and tau = tau_q (s^2 is clamped at eps only to keep 0 / 0 out).
    """
    a, b = r[1:, 0], r[0, 1:]
    k = r[1:, 1:] - a[:, None] * b
    kb = np.einsum("ijn,jn->in", k, b)
    s2 = np.maximum(1.0 - np.sum(b**2, axis=0), np.finfo(float).eps)
    gram = np.einsum("ijn,kjn->ikn", k, k) + kb[:, None] * kb / s2
    return tau_q - _sym3_lam_max(gram)


def rank2_itangle(rho: DensityMatrix) -> float:
    """Closed-form tangle of a two-factor density matrix of rank <= 2 with a qubit factor.

    The ``tau_AF`` column of ``tcm_columns`` on the purification of its top
    two eigenpairs by a qubit P, ordered (Q, P, other factor), Q the pair's
    qubit (the first of two).  A 1-dimensional factor gives 0; a pair with
    no qubit factor needs ``convex_roof_itangle``.  ``RANK_TOL`` only
    decides whether the rank exceeds 2.  Accurate to roundoff on its eigenpairs.
    """
    if len(rho.dims) != 2:
        raise ValueError("rank-2 tangle needs exactly two factors")
    evals, evecs = np.linalg.eigh(rho.matrix)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    if rho.matrix.shape[0] > 2 and evals[2] > RANK_TOL:
        raise ValueError(
            f"state has effective rank > 2 at tolerance {RANK_TOL:g}; "
            "use convex_roof_itangle"
        )
    if 1 in rho.dims:
        return 0.0
    if 2 not in rho.dims:
        raise ValueError(f"pair dims {rho.dims} have no qubit factor; use convex_roof_itangle")
    w = np.sqrt(np.maximum(evals[:2], 0.0))[:, None] * evecs[:, :2].T
    # renormalize away the weight lost to discarded (dust) eigenvalues
    w = (w / np.linalg.norm(w)).reshape(2, *rho.dims)
    psi = np.moveaxis(w, rho.dims.index(2) + 1, 0).reshape(1, -1)  # (Q, P, other factor)
    return float(tcm_columns(psi, ("tau_AF",))["tau_AF"][0])


# ---------------------------------------------------------------------------
# convex-roof minimization
# ---------------------------------------------------------------------------

def _polar_factors(z: np.ndarray):
    """(C, S, lam, V) with C = Z (Z^dag Z)^(-1/2) and S = (Z^dag Z)^(-1/2)."""
    h = z.conj().T @ z
    lam, v = np.linalg.eigh(h)
    lam = np.clip(lam, 1e-30, None)
    s = (v * lam**-0.5) @ v.conj().T
    return z @ s, s, lam, v


def _roof_objective(x: np.ndarray, wm: np.ndarray, m: int, da: int, db: int):
    """Average ensemble tangle and its gradient in (Re Z, Im Z).

    Ensembles are parameterized as Phi = polar(Z) @ wm where the rows of
    ``wm`` are the square-root-scaled eigenvectors of the target state;
    the polar retraction keeps the column isometry constraint exact.
    """
    r = wm.shape[0]
    z = (x[: m * r] + 1j * x[m * r:]).reshape(m, r)
    c, s, lam, v = _polar_factors(z)
    phi = c @ wm
    a = phi.reshape(m, da, db)
    p = np.einsum("mi,mi->m", phi, phi.conj()).real
    aah = np.einsum("mab,mcb->mac", a, a.conj())
    n2 = np.einsum("mac,mac->m", aah, aah.conj()).real
    live = p > ROOF_WEIGHT_FLOOR
    ps = np.where(live, p, 1.0)
    value = float(np.sum(np.where(live, 2.0 * (p - n2 / ps), 0.0)))

    aaha = np.einsum("mac,mcb->mab", aah, a).reshape(m, -1)
    gphi = 2.0 * (phi - 2.0 * aaha / ps[:, None] + (n2 / ps**2)[:, None] * phi)
    gphi[~live] = 0.0
    g = gphi @ wm.conj().T
    k = g.conj().T @ z
    mtil = v.conj().T @ (s @ k @ s) @ v
    denom = np.sqrt(lam)[:, None] + np.sqrt(lam)[None, :]
    w = v @ (mtil / denom) @ v.conj().T
    gamma = g @ s - z @ (w + w.conj().T)
    return value, np.concatenate([2.0 * gamma.real.ravel(), 2.0 * gamma.imag.ravel()])


def convex_roof_itangle(rho: DensityMatrix, restarts: int = 20, seed: int = 0) -> float:
    """Best found mixed-state tangle: the least average pure-state tangle
    over the ensemble decompositions the search visits.

    Decompositions of length m are written phi_i = sum_j C_ij w_j with
    C an m x rank isometry (C^dag C = 1) and w_j the square-root-scaled
    eigenvectors of ``rho``; every valid decomposition arises this way.
    C is parameterized by the polar form of an unconstrained complex
    matrix and minimized with L-BFGS using the analytic gradient.
    ``restarts`` (1 .. ``MAX_RESTARTS``) cycle through the ensemble lengths
    rank .. rank**2, restart 0 starting at the plain eigendecomposition.
    Results are deterministic per ``seed`` (a whole number >= 0), and the
    value after k restarts is at least the value after k' > k.
    """
    restarts = whole_number("restarts", restarts, 1, MAX_RESTARTS)
    seed = whole_number("seed", seed, 0)
    from scipy.optimize import minimize  # imported here: no run-time path calls the roof

    if len(rho.dims) != 2:
        raise ValueError("convex roof needs exactly two factors")
    da, db = rho.dims
    evals, evecs = np.linalg.eigh(rho.matrix)
    keep = evals > RANK_TOL
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        raise ValueError("density matrix has no weight above the rank tolerance")
    lam = evals[keep][::-1]
    vecs = evecs[:, keep][:, ::-1]
    wm = (np.sqrt(lam)[:, None] * vecs.T).astype(complex)

    sizes = tuple(range(rank, rank * rank + 1))
    lbfgs_opts = {"maxiter": 1000, "ftol": ROOF_TOL * 1e-4, "gtol": ROOF_TOL * 0.1}
    children = np.random.SeedSequence(seed).spawn(restarts)
    best = np.inf
    for i in range(restarts):
        m = sizes[i % len(sizes)]
        if i == 0:  # the eigendecomposition itself is a candidate
            x0 = np.concatenate([np.eye(m, rank).ravel(), np.zeros(m * rank)])
            best = min(best, _roof_objective(x0, wm, m, da, db)[0])
        else:
            rng = np.random.default_rng(children[i])
            z0 = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
            x0 = np.concatenate([z0.real.ravel(), z0.imag.ravel()])
        res = minimize(
            _roof_objective,
            x0,
            args=(wm, m, da, db),
            jac=True,
            method="L-BFGS-B",
            options=lbfgs_opts,
        )
        best = min(best, float(res.fun))
    return best


# ---------------------------------------------------------------------------
# the (2, 2, D) kernel and the residual tangle
# ---------------------------------------------------------------------------

TANGLE_FLOOR = -1e-9

SCENARIO_COLUMNS = (
    "tau_F_AA",
    "tau_A_rest",
    "tau_AA",
    "tau_AF",
    "tau_res",
    "inversion",
    "field_eff_dim",
)

# (floor, ceiling) per column; field_eff_dim is a count and needs none
_COLUMN_RANGES = {
    "tau_F_AA": (TANGLE_FLOOR, np.inf),
    "tau_A_rest": (TANGLE_FLOOR, 1.0 + 1e-9),
    "tau_AA": (TANGLE_FLOOR, 1.0 + 1e-9),
    "tau_AF": (TANGLE_FLOOR, np.inf),
    "tau_res": (TANGLE_FLOOR, np.inf),
    "inversion": (-1.0 - 1e-9, 1.0 + 1e-9),
}


def _qubit_cut(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending spectra, as a (2, N) stack, of a (2, 2, N) stack of unit-trace
    one-qubit marginals of pure states, batch last, and each cut's tangle
    4 det(rho), which is 2*(1 - tr rho^2) at unit trace, all in closed form.

    The larger eigenvalue is tr/2 + hypot((a - d)/2, |b|) and the smaller
    det/lam_max, which stays accurate near a pure state, where
    tr/2 - hypot would cancel.
    """
    a, d, b = rho[0, 0].real, rho[1, 1].real, np.abs(rho[0, 1])
    det = a * d - b**2
    lam_max = 0.5 * (a + d) + np.hypot(0.5 * (a - d), b)
    return np.stack([det / lam_max, lam_max]), 4.0 * det


# _field_rank trusts each computed e_k, a sum of k x k principal minors of a
# positive semidefinite matrix, to within RANK_ROUNDOFF * k! * e_k(diagonal):
# each of the k! terms of such a minor is at most the product of its diagonal
# entries in modulus, and a minor and the sum take a few roundings each.
RANK_ROUNDOFF = 16 * np.finfo(float).eps


def _field_rank(rho: np.ndarray) -> np.ndarray:
    """Number of eigenvalues above ``RANK_TOL`` of each matrix of a (4, 4, N)
    positive semidefinite stack, batch last, equal to eigvalsh's count.

    With e_k the elementary symmetric functions of the spectrum (the sums
    of the k x k principal minors, e_0 = 1, e_5 = 0), every eigenvalue at
    most e_1, two bounds hold: e_k > C(4,k) tau e_1^(k-1) gives
    lambda_k > tau, and lambda_{k+1} <= C(4,k) e_{k+1}/e_k.  A row whose
    e_k, widened by their roundoff, give lambda_k > 2 tau and
    lambda_{k+1} < tau/2 (tau = ``RANK_TOL``) has count k: its eigenvalues
    clear tau by a factor 2, far beyond eigvalsh's error.  Only the other
    rows go to eigvalsh.  The minors are products of the four diagonal and
    six lower planes, of the Hermitian matrix that eigvalsh reads.
    """
    d0, d1, d2, d3 = (rho[i, i].real for i in range(4))
    l01, l02, l03, l12, l13, l23 = rho[1, 0], rho[2, 0], rho[3, 0], rho[2, 1], rho[3, 1], rho[3, 2]
    s01, s02, s03, s12, s13, s23 = (x.real**2 + x.imag**2 for x in (l01, l02, l03, l12, l13, l23))
    d01, d02, d03, d12, d13, d23 = d0 * d1, d0 * d2, d0 * d3, d1 * d2, d1 * d3, d2 * d3
    ddd = d01 * d2 + d01 * d3 + d02 * d3 + d12 * d3
    # rho_ab rho_bc rho_ca = conj(L_ba) conj(L_cb) L_ca, per triple a < b < c
    c012, c013, c023, c123 = ((x * y * z.conj()).real for x, y, z in
                              ((l01, l12, l02), (l01, l13, l03), (l02, l23, l03), (l12, l23, l13)))
    e3 = (ddd + 2.0 * (c012 + c013 + c023 + c123)
          - d0 * (s12 + s13 + s23) - d1 * (s02 + s03 + s23)
          - d2 * (s01 + s03 + s13) - d3 * (s01 + s02 + s12))
    # det over the cycle types of S_4; the 4-cycles come as three conjugate pairs
    four = ((l01 * l12 * l23 * l03.conj()).real + (l01 * l13 * (l02 * l23).conj()).real
            + (l02 * l13 * (l03 * l12).conj()).real)
    det = (d01 * d23 - d23 * s01 - d13 * s02 - d12 * s03 - d03 * s12 - d02 * s13 - d01 * s23
           + s01 * s23 + s02 * s13 + s03 * s12
           + 2.0 * (d3 * c012 + d2 * c013 + d1 * c023 + d0 * c123 - four))
    e1, dd = d0 + d1 + d2 + d3, d01 + d02 + d03 + d12 + d13 + d23
    e = (e1, dd - (s01 + s02 + s03 + s12 + s13 + s23), e3, det, 0.0)
    slack = [RANK_ROUNDOFF * x for x in (e1, 2.0 * dd, 6.0 * ddd, 24.0 * d01 * d23, 0.0)]
    counts = np.zeros(e1.shape, np.int64)
    for k, choose in enumerate((4.0, 6.0, 4.0, 1.0), 1):
        low, above = e[k - 1] - slack[k - 1], e[k] + slack[k]
        counts += k * ((low > 2.0 * choose * RANK_TOL * (e1 + slack[0]) ** (k - 1))
                       & (choose * above < 0.5 * RANK_TOL * low))
    unsure = counts == 0
    if unsure.any():
        lam = np.linalg.eigvalsh(np.moveaxis(rho[..., unsure], -1, 0))
        counts[unsure] = np.count_nonzero(lam > RANK_TOL, axis=-1)
    return counts


def _join(parts: list) -> np.ndarray:
    """Per-chunk parts joined along their leading batch axis; a single part is not copied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _rho_planes(w: np.ndarray) -> np.ndarray:
    """W W^H of a (4, k <= 3, N) stack: ten entries from W's planes, the upper ones conjugated."""
    rho = np.empty((4, 4) + w.shape[2:], complex)
    wc = w.conj()
    for a in range(4):
        rho[a, a] = np.sum(w[a].real ** 2 + w[a].imag ** 2, axis=0)
        for b in range(a):
            np.sum(w[a] * wc[b], axis=0, out=rho[a, b])
            np.conjugate(rho[a, b], out=rho[b, a])
    return rho


def tcm_columns(
    amps: Union[np.ndarray, Iterable[np.ndarray]],
    names: Sequence[str] = SCENARIO_COLUMNS,
) -> dict[str, np.ndarray]:
    """The named ``SCENARIO_COLUMNS`` of (2, 2, D) states, in ``names`` order.

    ``amps`` is an (N, 4*D) stack (or its (N, 4, D) rows), an (N, 3, D)
    stack of the rows (ee, eg, gg) of exchange-symmetric states, whose row
    eg stands for eg and ge, or an iterable of such stacks (one layout and
    one D for all), read one at a time and taken as one stack in order;
    ``TcmPropagator`` evolves an exchange-symmetric start as three rows.  Only what
    the named columns need is computed: ``tau_AA`` is the Wootters kernel
    on the amplitude factor W, and ``tau_F_AA``, ``field_eff_dim`` and
    ``inversion`` need rho_AA = W W^H (the product ``partial_trace``
    forms): its purity tr rho_AA^2 = ||rho_AA||_F^2, its spectrum and its
    diagonal.  Both sides of a pure-state cut share their nonzero
    spectrum, so the field's purity and effective dimension come from
    rho_AA.  Its rank (``_field_rank``) is counted only for
    ``field_eff_dim`` and the residual.  Only ``tau_A_rest``, ``tau_AF``
    and ``tau_res`` run the one-atom spectra and the rank-2 closed form,
    which needs only the Pauli correlations of rho_AA: each atom-field
    pair is purified by the other atom.  Each column is bit-identical
    whichever others are named, and however the states are chunked.

    Each chunk gives ``_thin_factor`` of its rows (the rows themselves for
    at most three field columns) and, with more, their ``np.vecdot`` Gram
    matrix.  The parts are joined, three rows spread to four in C order,
    and the rest runs once over all N states, batch axis last: a NaN or
    inf state is refused by its index, ``_wootters_batch`` takes the
    factors as contiguous (4, k, N) planes, and rho_AA is (4, 4, N), the
    Gram matrix or, for at most three field columns, the planes' products,
    as in the rank certificate.  No BLAS-3 call multiplies the planes: it
    starts OpenBLAS threads in each forked sweep worker, and two workers
    on two cores then ran a 2x2x3 block about three times slower.
    """
    unknown = set(names) - set(SCENARIO_COLUMNS)
    if unknown:
        raise ValueError(f"unknown columns {sorted(unknown)}; choose from {SCENARIO_COLUMNS}")
    full = not {"tau_A_rest", "tau_AF", "tau_res"}.isdisjoint(names)
    need_rho = full or set(names) != {"tau_AA"}
    factors, grams, layout, count = [], [], None, 0
    for chunk in [amps] if isinstance(amps, np.ndarray) else amps:
        flat = chunk.ndim == 2 and chunk.shape[1] % 4 == 0
        m = chunk.reshape(len(chunk), 4, chunk.shape[1] // 4) if flat else chunk
        if m.ndim != 3 or m.shape[1] not in (3, 4) or not m.shape[2]:
            raise ValueError("states come as (N, 3, D) exchange-symmetric rows or (N, 4*D) "
                             f"stacks, D >= 1; got shape {chunk.shape}")
        layout = m.shape[1:] if layout is None else layout
        if m.shape[1:] != layout:
            raise ValueError(f"states of (rows, D) {layout} and {m.shape[1:]} in one call; "
                             "every state needs the same field dimension and rows")
        d, count = layout[1], count + len(m)
        if full or "tau_AA" in names or d <= 3:  # rho_AA's planes read these rows
            factors.append(_thin_factor(m))
        if need_rho and d > 3:
            grams.append(np.vecdot(m[:, None], m[:, :, None]))
    if not count:
        raise ValueError("tcm_columns needs at least one state")
    w = np.ascontiguousarray(np.moveaxis(four_rows(_join(factors), 1), 0, -1)) if factors else None
    if need_rho:
        # vecdot's (N, 4, 4) rho_AA is read as (4, 4, N), a layout einsum's summation order follows
        rho_aa = _rho_planes(w) if d <= 3 else np.moveaxis(four_rows(_join(grams), 1, 2), 0, -1)
    finite = np.isfinite(rho_aa.trace() if need_rho else w).reshape(-1, count).all(axis=0)
    if not finite.all():  # one check a state: rho_AA's trace (its squared norm), else the factor
        raise ValueError(f"state {np.argmin(finite)} has a NaN or inf amplitude or norm")
    cols = {"tau_AA": _wootters_batch(w)} if full or "tau_AA" in names else {}
    if need_rho:
        cols["tau_F_AA"] = 2.0 * (1.0 - np.einsum("abn,ban->n", rho_aa, rho_aa).real)
        cols["inversion"] = (rho_aa[0, 0] - rho_aa[3, 3]).real
    if full or "field_eff_dim" in names:
        rho_aa = np.ascontiguousarray(rho_aa)
        cols["field_eff_dim"] = _field_rank(rho_aa)
    if full:
        rho4 = rho_aa.reshape(2, 2, 2, 2, -1)
        ev_a1, tau_a_rest = _qubit_cut(np.einsum("abcbn->acn", rho4))
        ev_a2, tau_a2_rest = _qubit_cut(np.einsum("abadn->bdn", rho4))
        d_f = cols["field_eff_dim"]
        d_a1, d_a2 = (np.count_nonzero(ev > RANK_TOL, axis=0) for ev in (ev_a1, ev_a2))
        # each atom-field pair is purified by the other atom
        r = _pauli_correlations(rho_aa)
        tau_a1f = _pair_tangle(r, tau_a_rest)
        tau_a2f = _pair_tangle(r.swapaxes(0, 1), tau_a2_rest)

        one_vs_rest = (
            d_a1 / 2.0 * tau_a_rest + d_a2 / 2.0 * tau_a2_rest + d_f / 2.0 * cols["tau_F_AA"]
        )
        pairwise = (
            np.minimum(d_a1, d_a2) / 2.0 * cols["tau_AA"]
            + np.minimum(d_a1, d_f) / 2.0 * tau_a1f
            + np.minimum(d_a2, d_f) / 2.0 * tau_a2f
        )
        cols["tau_A_rest"] = tau_a_rest
        cols["tau_AF"] = tau_a1f
        cols["tau_res"] = (one_vs_rest - 2.0 * pairwise) / 3.0
    return {name: cols[name] for name in names}


def check_tangle_columns(columns: Mapping[str, np.ndarray]) -> None:
    """Raise RuntimeError if any value of the given ``tcm_columns`` columns is out of range.

    Tangles must clear ``TANGLE_FLOOR``; ``tau_AA`` and ``tau_A_rest`` may
    not exceed 1 and the inversion must lie in [-1, 1], both up to 1e-9.
    NaN and infinite values fail every check; no setting causes or fixes one.
    """
    for name, values in columns.items():
        low, high = _COLUMN_RANGES.get(name, (-np.inf, np.inf))
        bad = ~(np.isfinite(values) & (values >= low) & (values <= high))
        if bad.any():
            raise RuntimeError(f"{name} = {float(values[bad][0])} outside [{low:g}, {high:g}]")


def tangle_report(state: PureState) -> dict[str, float]:
    """Every ``SCENARIO_COLUMNS`` value of one two-atom/field pure state, range-checked.

    ``tau_F_AA``: field versus both atoms; ``tau_A_rest``: atom 1 versus
    everything else; ``tau_AA``: atom-atom Wootters tangle; ``tau_AF``:
    atom 1 versus field (the pair has rank <= 2, its complement being a
    qubit, so this is the rank-2 closed form); ``tau_res``: residual
    three-party tangle; ``inversion``: P(ee) - P(gg); ``field_eff_dim``
    (an int): effective dimension of the field marginal, on which the
    residual's rescaling depends.
    """
    tcm_field_dim(state)
    columns = tcm_columns(state.amplitudes[None])
    check_tangle_columns(columns)
    return {name: col[0].item() for name, col in columns.items()}


def i_residual_tangle(state: PureState) -> float:
    """Residual three-party tangle of a qubit x qubit x d pure state, in any factor order.

    The ``tau_res`` column of ``tcm_columns`` on the (2, 2, d) state that
    moving the field factor (the one that is not a qubit, or else the last)
    to the end gives.  Values are reported as computed; tiny negative dust
    is not clamped.
    """
    dims = state.shape.dims
    if len(dims) != 3 or dims.count(2) < 2:
        raise ValueError(f"residual tangle needs qubit x qubit x d factors, got dims {dims}")
    field = next((i for i, n in enumerate(dims) if n != 2), 2)
    amps = np.moveaxis(state.tensor(), field, 2).reshape(1, -1)
    return float(tcm_columns(amps, ("tau_res",))["tau_res"][0])

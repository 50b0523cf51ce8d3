"""Bipartite and tripartite entanglement measures.

Bipartite measures, all normalized so a Bell pair scores 1:

* ``wootters_tangle`` -- squared concurrence of a two-qubit density matrix
  in Wootters' ensemble form: for rho = W W^H the l_i are the singular
  values of W^T (sigma_y x sigma_y) W, so no square root of rho is taken.
* ``pure_itangle`` -- 2*[1 - tr(rho_A^2)] across any cut of a pure state;
  reduces to the Wootters tangle on two qubits and makes sense for factors
  of any dimension.
* ``convex_roof_itangle`` -- mixed-state extension as the minimum average
  pure-state tangle over ensemble decompositions (numerical minimization
  over the decomposition freedom).
* ``rank2_itangle`` -- closed form for rank <= 2 mixed states of a
  qubit x D-level pair, derived here by minimizing over two-outcome
  measurements on a qubit purifier: the largest eigenvalue of a whitened
  3 x 3 Gram matrix, one formula from a pure pair to a maximally mixed one
  and accurate to roundoff throughout; cross-validated against the convex
  roof.

The tripartite ``i_residual_tangle`` averages one-versus-rest tangles over
the three cuts, subtracts the pairwise mixed tangles, and rescales each
term by d/2 where d is the smaller effective dimension of the term's two
sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .tensor import (
    RANK_TOL,
    DensityMatrix,
    PureState,
    effective_rank,
    partial_trace,
    purity,
)

ROOF_WEIGHT_FLOOR = 1e-14
ROOF_TOL = 1e-8

# sigma_y (x) sigma_y is real: the reversed identity with signs -, +, +, -.
_SIGMA_YY = np.diag([-1.0, 1.0, 1.0, -1.0])[::-1]


def universal_inversion(rho: DensityMatrix) -> np.ndarray:
    """I(x)I - rho_A(x)I - I(x)rho_B + rho for a two-factor state.

    Generalizes the two-qubit spin flip to arbitrary dimensions; the
    overlap tr(rho * inversion) equals
    1 - tr(rho_A^2) - tr(rho_B^2) + tr(rho^2).
    """
    if len(rho.dims) != 2:
        raise ValueError("universal inversion needs exactly two factors")
    da, db = rho.dims
    rho_a = partial_trace(rho, (0,)).matrix
    rho_b = partial_trace(rho, (1,)).matrix
    eye = np.eye(da * db)
    return eye - np.kron(rho_a, np.eye(db)) - np.kron(np.eye(da), rho_b) + rho.matrix


def inversion_overlap(rho: DensityMatrix) -> float:
    """tr(rho * universal_inversion(rho)) from purities alone."""
    if len(rho.dims) != 2:
        raise ValueError("inversion overlap needs exactly two factors")
    pa = purity(partial_trace(rho, (0,)))
    pb = purity(partial_trace(rho, (1,)))
    return 1.0 - pa - pb + purity(rho)


def _wootters_batch(w: np.ndarray) -> np.ndarray:
    """Squared concurrence of the two-qubit states rho = W W^H of a (..., 4, k) stack.

    The l_i are the singular values of W^T (sigma_y x sigma_y) W (Wootters,
    PRL 80, 2245 (1998)).  A thin QR W^T = Q R gives W' = R^T, a factor of
    the same rho with at most four columns, so the SVD is at most 4 x 4
    and no square root of rho is taken: accurate to roundoff at any rank.
    """
    wp = np.linalg.qr(w.swapaxes(-1, -2), mode="r").swapaxes(-1, -2)
    lam = np.linalg.svd(wp.swapaxes(-1, -2) @ _SIGMA_YY @ wp, compute_uv=False)
    # svd sorts descending: the largest value minus the others
    c = 2.0 * lam[..., 0] - lam.sum(axis=-1)
    return np.maximum(c, 0.0) ** 2


def wootters_tangle(rho: DensityMatrix) -> float:
    """Two-qubit tangle max{0, l1-l2-l3-l4}^2.

    The l_i come from the ensemble form of ``_wootters_batch`` on the
    factor U sqrt(Lambda) of rho's eigendecomposition.  Eigenvalue dust of
    order eps in rho moves them by about sqrt(eps), so near rank
    deficiency this is accurate to about 1e-8, where the kernel on a pure
    state's own amplitude factor is accurate to roundoff.
    """
    if rho.matrix.shape != (4, 4):
        raise ValueError("Wootters tangle is defined for two qubits (4x4)")
    evals, evecs = np.linalg.eigh(rho.matrix)
    factor = evecs * np.sqrt(np.clip(evals, 0.0, None))
    return float(_wootters_batch(factor[None])[0])


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

def _rank2_tangle_core(r: np.ndarray) -> np.ndarray:
    """Tangle of pair states purified by a qubit, batched.

    ``r`` has shape (..., 2, 2, dx, dx): the purifier correlations
    r[j, k, a, c] = sum_b w_j[a, b] conj(w_k[c, b]), where w_j is
    component j of the purifier qubit times the pair state as a (dx, dy)
    amplitude matrix, normalized so sum_j ||w_j||^2 = 1 per entry.

    Every length-2 ensemble decomposition of the pair state comes from a
    projective measurement along a Bloch direction of the purifier, and
    longer decompositions never do better, so the roof is a minimum over
    the Bloch sphere (Osborne, PRA 72, 022309 (2005)).  With
    S_mu = sum_jk (sigma_mu)_kj r[j, k] the Pauli components of r and
    b_i = tr S_i the purifier's Bloch vector, the minimum is

        tau = 2 - 2*tr(S_0^2) - 2*max eig (W C W)

    where C_ij = Re tr(T_i T_j) is the Gram matrix of T_i = S_i - b_i S_0
    and W = (1 - b b^T)^(-1/2) = 1 + b b^T / (s (1 + s)), s = sqrt(1 - |b|^2).

    W C W is the spatial block of L Q L, with L the Lorentz boost of
    velocity |b| and Q_{mu nu} = Re tr(S_mu S_nu), but the boosted form
    multiplies O(1) entries of Q by 1/s^2 and loses about eps/(1 - |b|)
    to cancellation near a pure pair.  Here the one cancellation is the
    subtraction in T_i, on O(1) entries of S, so T_i is off by about eps.
    Along b, T is O(s^2) where W is 1/s, so W C W stays accurate to about
    eps up to and including a pure pair (s is clamped at sqrt(eps) only
    to keep 0 * inf out): no branch and no tolerance.
    """
    (r00, r01), (r10, r11) = np.moveaxis(r, (-4, -3), (0, 1))
    s_mu = np.stack([r00 + r11, r01 + r10, 1j * (r01 - r10), r00 - r11], axis=-3)
    s0 = s_mu[..., 0, :, :]
    bloch = np.einsum("...maa->...m", s_mu[..., 1:, :, :]).real
    t = s_mu[..., 1:, :, :] - bloch[..., None, None] * s0[..., None, :, :]
    gram = np.einsum("...iab,...jba->...ij", t, t).real
    s = np.sqrt(np.maximum(1.0 - np.sum(bloch**2, axis=-1), np.finfo(float).eps))
    w = np.eye(3) + bloch[..., :, None] * bloch[..., None, :] / (s * (1.0 + s))[..., None, None]
    lam_max = np.linalg.eigvalsh(w @ gram @ w)[..., -1]
    purity = np.einsum("...ab,...ba->...", s0, s0).real
    return 2.0 - 2.0 * purity - 2.0 * lam_max


def rank2_itangle(rho: DensityMatrix) -> float:
    """Closed-form tangle of a two-factor density matrix of rank <= 2.

    The state is purified with a qubit ancilla from its top two
    eigenpairs and handed to the whitened Gram form of
    ``_rank2_tangle_core``, which needs no special case for a pure state.
    ``RANK_TOL`` only decides whether the rank exceeds 2.  Accurate to
    roundoff on the eigenpairs it is given (the kernel is pinned at 1e-12
    against a 40-digit reference, rank 1 included); agrees with
    ``convex_roof_itangle`` to optimizer accuracy.
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
    # a 1-dimensional pair space has one eigenpair: its second purifier component is 0
    k = min(2, evals.size)
    w = np.zeros((2, evals.size), dtype=complex)
    w[:k] = np.sqrt(np.maximum(evals[:k], 0.0))[:, None] * evecs[:, :k].T
    # renormalize away the weight lost to discarded (dust) eigenvalues
    w = (w / np.linalg.norm(w)).reshape(2, *rho.dims)
    r = np.einsum("jab,kcb->jkac", w, w.conj())
    return float(_rank2_tangle_core(r[None])[0])


# ---------------------------------------------------------------------------
# convex-roof minimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoofOptions:
    """Search budget for the convex-roof minimization.

    Restarts cycle through the ensemble lengths rank .. rank**2, restart 0
    starting at the plain eigendecomposition.  Results are deterministic
    per seed, and the best value after k restarts is a prefix of the best
    values after k' > k.
    """

    restarts: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class RoofResult:
    """Best decomposition found: value = sum_i probabilities[i] * tangle(members[i])."""

    value: float
    probabilities: np.ndarray
    members: np.ndarray
    ensemble_size: int
    restart_values: tuple[float, ...]


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


def convex_roof_decomposition(rho: DensityMatrix, options: RoofOptions = RoofOptions()) -> RoofResult:
    """Minimize the average pure-state tangle over ensemble decompositions.

    Decompositions of length m are written phi_i = sum_j C_ij w_j with
    C an m x rank isometry (C^dag C = 1) and w_j the square-root-scaled
    eigenvectors of ``rho``; every valid decomposition arises this way.
    C is parameterized by the polar form of an unconstrained complex
    matrix and minimized with L-BFGS using the analytic gradient.
    """
    from scipy.optimize import minimize  # only pairs of rank > 2 get here

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
    children = np.random.SeedSequence(options.seed).spawn(options.restarts)
    best = (np.inf, None, None)
    restart_values = []
    for i in range(options.restarts):
        m = sizes[i % len(sizes)]
        if i == 0:
            z0 = np.eye(m, rank, dtype=complex)
            f0, _ = _roof_objective(
                np.concatenate([z0.real.ravel(), z0.imag.ravel()]), wm, m, da, db
            )
            if f0 < best[0]:
                best = (f0, z0, m)
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
        if res.fun < best[0]:
            z = (res.x[: m * rank] + 1j * res.x[m * rank:]).reshape(m, rank)
            best = (float(res.fun), z, m)
        restart_values.append(best[0])

    value, z, m = best
    c, _, _, _ = _polar_factors(z)
    phi = c @ wm
    p = np.einsum("mi,mi->m", phi, phi.conj()).real
    live = p > 1e-12
    members = phi[live] / np.sqrt(p[live])[:, None]
    return RoofResult(
        value=value,
        probabilities=p[live],
        members=members,
        ensemble_size=m,
        restart_values=tuple(restart_values),
    )


def convex_roof_itangle(rho: DensityMatrix, options: RoofOptions = RoofOptions()) -> float:
    """Best found mixed-state tangle (see convex_roof_decomposition)."""
    return convex_roof_decomposition(rho, options).value


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


def _cut_tangles(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of a stack of pure-state marginals and each cut's tangle 2*(1 - sum lam^2)."""
    evals = np.linalg.eigvalsh(rho)
    return evals, 2.0 * (1.0 - np.sum(evals**2, axis=-1))


def tcm_columns(
    amps: np.ndarray,
    names: Sequence[str] = SCENARIO_COLUMNS,
) -> dict[str, np.ndarray]:
    """The named ``SCENARIO_COLUMNS`` of an (N, 4*D) stack of (2, 2, D) states, in ``names`` order.

    Only what the named columns need is computed: ``tau_AA`` is the
    Wootters kernel on the (N, 4, D) amplitude view M, and ``tau_F_AA``,
    ``field_eff_dim`` and ``inversion`` need rho_AA = M @ M^H (the product
    ``partial_trace`` forms), its spectrum and its diagonal.  Both sides of
    a pure-state cut share their nonzero spectrum, so the field's purity
    and effective dimension come from rho_AA.  Only ``tau_A_rest``,
    ``tau_AF`` and ``tau_res`` run the one-atom spectra and the rank-2
    closed form, which needs only the purifier correlations of each
    atom-field pair (purified by the spare atom), a transposed view of
    rho_AA.  Each column is bit-identical whichever others are named.
    """
    unknown = set(names) - set(SCENARIO_COLUMNS)
    if unknown:
        raise ValueError(f"unknown columns {sorted(unknown)}; choose from {SCENARIO_COLUMNS}")
    full = not {"tau_A_rest", "tau_AF", "tau_res"}.isdisjoint(names)
    m = amps.reshape(len(amps), 4, -1)
    cols = {}
    if full or "tau_AA" in names:
        cols["tau_AA"] = _wootters_batch(m)
    if full or set(names) - {"tau_AA"}:
        rho_aa = m @ m.conj().swapaxes(-1, -2)
        evals, cols["tau_F_AA"] = _cut_tangles(rho_aa)
        cols["field_eff_dim"] = np.count_nonzero(evals > RANK_TOL, axis=-1)
        cols["inversion"] = (rho_aa[:, 0, 0] - rho_aa[:, 3, 3]).real
    if full:
        rho4 = rho_aa.reshape(-1, 2, 2, 2, 2)
        ev_a1, tau_a_rest = _cut_tangles(np.einsum("nabcb->nac", rho4))
        ev_a2, tau_a2_rest = _cut_tangles(np.einsum("nabad->nbd", rho4))
        d_f = cols["field_eff_dim"]
        d_a1, d_a2 = (np.count_nonzero(ev > RANK_TOL, axis=-1) for ev in (ev_a1, ev_a2))
        # two calls at N states each: one call on 2N doubles the kernel's peak memory
        tau_a1f = _rank2_tangle_core(rho4.transpose(0, 2, 4, 1, 3))
        tau_a2f = _rank2_tangle_core(rho4.transpose(0, 1, 3, 2, 4))

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
    """Raise ValueError if any value of the given ``tcm_columns`` columns is out of range.

    Tangles must clear ``TANGLE_FLOOR``; ``tau_AA`` and ``tau_A_rest`` may
    not exceed 1 and the inversion must lie in [-1, 1], both up to 1e-9.
    NaN and infinite values fail every check.
    """
    for name, values in columns.items():
        low, high = _COLUMN_RANGES.get(name, (-np.inf, np.inf))
        bad = ~(np.isfinite(values) & (values >= low) & (values <= high))
        if bad.any():
            raise ValueError(f"{name} = {float(values[bad][0])} outside [{low:g}, {high:g}]")


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
    dims = state.shape.dims
    if len(dims) != 3 or dims[:2] != (2, 2):
        raise ValueError("expected a (2, 2, field) pure state")
    columns = tcm_columns(state.amplitudes[None])
    check_tangle_columns(columns)
    return {name: col[0].item() for name, col in columns.items()}


def residual_tangle_batch(states: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """i_residual_tangle over a (N, total_dim) stack of (2, 2, D) states.

    The ``tau_res`` column of the shared (2, 2, D) kernel; agrees with the
    scalar path to roundoff.  Values are not range-checked, so a sweep can
    count the negative ones.
    """
    d1, d2, dfield = dims
    if (d1, d2) != (2, 2):
        raise ValueError("batch residual supports (2, 2, D) systems only")
    return tcm_columns(states.reshape(-1, 4 * dfield), ("tau_res",))["tau_res"]


def _pair_tangle_generic(state: PureState, pair: tuple[int, int]) -> float:
    """Mixed tangle of two factors of a pure state: Wootters for qubit pairs,
    on the state's own amplitude factor; the rank-2 closed form when
    applicable; the convex roof otherwise."""
    i, j = pair
    tens = state.tensor()
    if (tens.shape[i], tens.shape[j]) == (2, 2):
        factor = np.moveaxis(tens, (i, j), (0, 1)).reshape(4, -1)
        return float(_wootters_batch(factor[None])[0])
    rho = partial_trace(state, pair)
    if effective_rank(rho) <= 2:
        return rank2_itangle(rho)
    return convex_roof_itangle(rho)


def i_residual_tangle(state: PureState) -> float:
    """Residual three-party tangle of a tripartite pure state.

    (1/3) * sum of the three one-versus-rest tangles minus (2/3) * sum of
    the three pairwise mixed tangles, every term rescaled by d/2 with d
    the smaller effective dimension (rank of the marginal at ``RANK_TOL``)
    of the term's two sides.  Values are reported as computed; tiny
    negative dust is not clamped.
    """
    dims = state.shape.dims
    if len(dims) != 3:
        raise ValueError("residual tangle needs exactly three factors")

    marg = [partial_trace(state, (i,)) for i in range(3)]
    eff = [effective_rank(m) for m in marg]
    pur = [purity(m) for m in marg]

    one_vs_rest = 0.0
    for i in range(3):
        rest = tuple(j for j in range(3) if j != i)
        d = min(eff[i], effective_rank(partial_trace(state, rest)))
        one_vs_rest += d / 2.0 * 2.0 * (1.0 - pur[i])

    pairwise = 0.0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        d = min(eff[i], eff[j])
        pairwise += d / 2.0 * _pair_tangle_generic(state, (i, j))

    return (one_vs_rest - 2.0 * pairwise) / 3.0

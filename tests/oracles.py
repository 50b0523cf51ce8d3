"""Reference functions that the tests compare the package against.

None of these is on a CLI path: the energy <H>, the inversion overlap
tr(rho rho~) of a two-factor state and the revival-peak locator exist only
to check the exact evolution, the tangles and criterion 2.  The residual
tangle by cuts walks every cut of a qubit x qubit x d state with generic
partial traces and eigvalsh ranks; the package's ``i_residual_tangle`` is
the batched (2, 2, D) kernel on one state, so this walk is its independent
reference.
"""

import math

import numpy as np

from tcm_tangles import DensityMatrix, PureState, partial_trace, purity, rank2_itangle
from tcm_tangles.dynamics import _coupling
from tcm_tangles.tangles import _wootters_batch
from tcm_tangles.tensor import RANK_TOL, tcm_field_dim, whole_number


def haar_vec(rng, dim):
    """One Haar-random unit vector of length ``dim``."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def partial_trace_mixed(rho: DensityMatrix, keep: tuple[int, ...]) -> DensityMatrix:
    """Partial trace of a density matrix over the factors not in ``keep``."""
    dims = rho.dims
    n = len(dims)
    tens = rho.matrix.reshape(dims + dims)
    rows = list(range(n))
    cols = [i + n if i in keep else i for i in range(n)]
    out = [i for i in keep] + [i + n for i in keep]
    d_keep = math.prod(dims[i] for i in keep)
    mat = np.einsum(tens, rows + cols, out).reshape(d_keep, d_keep)
    return DensityMatrix(tuple(dims[i] for i in keep), mat)


def inversion_overlap(rho: DensityMatrix) -> float:
    """tr(rho * inversion(rho)) from purities alone, where the universal
    inversion I(x)I - rho_A(x)I - I(x)rho_B + rho generalizes the two-qubit
    spin flip to arbitrary dimensions."""
    if len(rho.dims) != 2:
        raise ValueError("inversion overlap needs exactly two factors")
    pa = purity(partial_trace_mixed(rho, (0,)))
    pb = purity(partial_trace_mixed(rho, (1,)))
    return 1.0 - pa - pb + purity(rho)


def energy_expectation(state: PureState, n0: int = 0) -> float:
    """<psi|H psi> in units of g (conserved under evolve), for a state whose
    field index 0 is photon n0."""
    amps = state.amplitudes
    h_amps = _coupling(amps, tcm_field_dim(state), whole_number("n0", n0, 0))
    return float(np.vdot(amps, h_amps).real)


def revival_peak_time(
    gt: np.ndarray,
    inversion: np.ndarray,
    search: tuple[float, float] = (15.0, 80.0),
    window_gt: float = 1.0,
) -> float:
    """Location of the largest inversion-envelope swing inside ``search``.

    The envelope is the peak-to-peak amplitude over a sliding window of
    width ``window_gt`` (a few fast oscillation periods).
    """
    gt = np.asarray(gt, dtype=float)
    inversion = np.asarray(inversion, dtype=float)
    if gt.size < 2:
        raise ValueError(f"the grid needs at least 2 points, got {gt.size}")
    if inversion.shape != gt.shape:
        raise ValueError(f"inversion shape {inversion.shape} does not match grid shape {gt.shape}")
    dt = gt[1] - gt[0]
    w = max(3, int(round(window_gt / dt)))
    if w > gt.size:
        raise ValueError("window wider than the whole grid")
    windows = np.lib.stride_tricks.sliding_window_view(inversion, w)
    envelope = windows.max(axis=-1) - windows.min(axis=-1)
    centers = gt[w // 2 : w // 2 + envelope.size]
    mask = (centers >= search[0]) & (centers <= search[1])
    if not mask.any():
        raise ValueError(f"search range {search} outside the grid")
    idx = np.nonzero(mask)[0]
    return float(centers[idx[np.argmax(envelope[idx])]])


def effective_rank(rho: DensityMatrix) -> int:
    """Number of eigenvalues of ``rho`` exceeding ``RANK_TOL``."""
    return int(np.count_nonzero(np.linalg.eigvalsh(rho.matrix) > RANK_TOL))


def residual_tangle_by_cuts(state: PureState) -> float:
    """Residual three-party tangle of a qubit x qubit x d pure state, in any
    factor order, from every cut.

    (1/3) * sum of the three one-versus-rest tangles minus (2/3) * sum of
    the three pairwise mixed tangles, every term rescaled by d/2 with d
    the smaller effective dimension (rank of the marginal at ``RANK_TOL``)
    of the term's two sides.  The qubit pair takes the Wootters kernel on
    the state's own amplitude factor, and each qubit-field pair, purified
    by the other qubit, the rank-2 closed form.  Nothing is clamped.
    """
    dims = state.shape.dims
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
        if (dims[i], dims[j]) == (2, 2):
            factor = np.moveaxis(state.tensor(), (i, j), (0, 1)).reshape(4, -1)
            tau = float(_wootters_batch(factor[..., None])[0])
        else:
            tau = rank2_itangle(partial_trace(state, (i, j)))
        pairwise += min(eff[i], eff[j]) / 2.0 * tau

    return (one_vs_rest - 2.0 * pairwise) / 3.0

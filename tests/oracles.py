"""Reference functions that the tests compare the package against.

None of these is on a CLI path: the energy <H>, the inversion overlap
tr(rho rho~) of a two-factor state and the revival-peak locator exist only
to check the exact evolution, the tangles and criterion 2.
"""

import math

import numpy as np

from tcm_tangles import DensityMatrix, PureState, purity
from tcm_tangles.dynamics import _check_offset, _coupling, _field_dim


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
    return float(np.vdot(amps, _coupling(amps, _field_dim(state), _check_offset(n0))).real)


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

"""Large-field approximation to the field-versus-atoms tangle.

For a strong coherent field the atomic state factorizes per eigenstate of
the collective J_x = J+ + J- operator, and the field-overlap memory decays
fast enough to treat as instantaneous.  What survives is a mixture of
atomic pointer states -- J_x eigenstates slowly rotating about J_z, each
weighted by its initial population |d_m|^2 -- so the field-ensemble tangle
depends only on the moduli |d_m| through a constant ``c`` and a pointer
overlap oscillation ``h`` in the scaled time
t' = gt / (2*sqrt(mean_n - 1/2)) (the N-atom radicand mean_n - N/2 + 1/2
at N = 2; every formula here is a two-atom one):

    tau_approx(gt) = 2 * (1 - [c - h(t')] / 4)

The formula is built for times past the initial transient; at gt = 0 it
does not reproduce the exact value 0.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .dynamics import atomic_state
from .tensor import finite_real, finite_reals

_SQRT2 = math.sqrt(2.0)

# J_x = J+ + J- eigenvectors in the (ee, eg, ge, gg) basis, one per row: the
# symmetric triplet m = -1, 0, +1 (eigenvalues -2, 0, +2), then the dark singlet.
JX_BASIS = np.array(
    [
        np.array([1.0, -1.0, -1.0, 1.0]) / 2.0,
        np.array([1.0, 0.0, 0.0, -1.0]) / _SQRT2,
        np.array([1.0, 1.0, 1.0, 1.0]) / 2.0,
        np.array([0.0, 1.0, -1.0, 0.0]) / _SQRT2,
    ]
)


def approx_tau_F_AA(atomic, gt, mean_n: float):
    """Approximate field-versus-atoms tangle 2{1 - [c - h(t')]/4}.

    ``atomic`` is any spec ``dynamics.atomic_state`` takes; its J_x
    amplitudes are d = ``JX_BASIS @ atomic_state(atomic)``, with pointer
    weights w_m = |d_m|^2.  The pointer states are J_x eigenstates rotated
    about J_z by an angle proportional to m*t', so the squared overlap of
    the m and m' pointers is sin^2(2t')/2 for |m - m'| = 1 and sin^4(2t')
    for the m = +1 / m = -1 pair.  Expanding the resulting purity in
    cos(4t') and cos(8t') gives

        c = 4(w-1^2 + w0^2 + w1^2) + 2 w0 (w-1 + w1) + 3 w-1 w1
        h = [2 w0 (w-1 + w1) + 4 w-1 w1] cos(4t') - w-1 w1 cos(8t')

    which satisfy c - h(0) = 4*sum(w_m^2): at t' = 0 the pointers are
    exactly orthogonal and the purity is that of the dephased mixture.

    Valid for strong fields up to gt of order 2*pi*sqrt(mean_n); the
    gt = 0 transient is intentionally not reproduced (the formula starts at
    the dephased-mixture value 2(1 - sum w_m^2) instead of the exact 0),
    and the brief purity revival when the counter-rotating pointer fields
    collide at gt = pi*sqrt(mean_n) is not captured.  Each gt must pass
    ``finite_reals`` (an empty grid gives an empty array), and |gt| may not
    exceed ``sys.float_info.max / 4 * sqrt(mean_n - 1/2)``, where 8t'
    overflows.  A float for scalar ``gt``, else an array of its shape.
    """
    *d, singlet_amp = (JX_BASIS @ atomic_state(atomic)).tolist()
    if abs(singlet_amp) > 1e-12:
        raise ValueError(
            "approximate tangle assumes no population in the dark singlet; "
            f"got |singlet_amp|^2 = {abs(singlet_amp)**2:.3e}"
        )
    mean_n = finite_real("mean_n", mean_n)
    gt = finite_reals("gt", gt)
    radicand = mean_n - 0.5
    if radicand <= 0:
        raise ValueError(
            f"mean photon number {mean_n} too small for two atoms (nonpositive radicand)"
        )
    limit = sys.float_info.max / 4.0 * math.sqrt(radicand)  # 8t' stays finite up to it
    if np.max(np.abs(gt), initial=0.0) > limit:
        raise ValueError(f"|gt| above {limit:g} overflows the scaled time at mean_n = {mean_n}")
    m1, z, p1 = (abs(a) ** 2 for a in d)
    c = 4.0 * (m1**2 + z**2 + p1**2) + 2.0 * z * (m1 + p1) + 3.0 * m1 * p1
    t_prime = gt / (2.0 * math.sqrt(radicand))
    h = (2.0 * z * (m1 + p1) + 4.0 * m1 * p1) * np.cos(4.0 * t_prime) - (
        m1 * p1
    ) * np.cos(8.0 * t_prime)
    out = 2.0 * (1.0 - (c - h) / 4.0)
    return float(out) if out.ndim == 0 else out

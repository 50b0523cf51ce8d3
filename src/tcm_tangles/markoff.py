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
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)

# J_x = J+ + J- eigenvectors in the (ee, eg, ge, gg) basis: the symmetric
# triplet with eigenvalues +2, 0, -2 (labels m = +1, 0, -1), and the dark
# singlet.
JX_BASIS = {
    "plus1": np.array([1.0, 1.0, 1.0, 1.0]) / 2.0,
    "zero": np.array([1.0, 0.0, 0.0, -1.0]) / _SQRT2,
    "minus1": np.array([1.0, -1.0, -1.0, 1.0]) / 2.0,
    "singlet": np.array([0.0, 1.0, -1.0, 0.0]) / _SQRT2,
}


@dataclass(frozen=True)
class JxCoefficients:
    """Amplitudes of a two-atom state in the J_x eigenbasis."""

    d_minus1: complex
    d_zero: complex
    d_plus1: complex
    singlet_amp: complex

    def __post_init__(self):
        total = (
            abs(self.d_minus1) ** 2
            + abs(self.d_zero) ** 2
            + abs(self.d_plus1) ** 2
            + abs(self.singlet_amp) ** 2
        )
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"J_x amplitudes have norm^2 {total!r}, expected 1")


def jx_coefficients(atomic: np.ndarray) -> JxCoefficients:
    """Project a normalized (ee, eg, ge, gg) vector onto the J_x eigenbasis."""
    vec = np.asarray(atomic, dtype=complex).ravel()
    if vec.size != 4:
        raise ValueError("atomic vector must have length 4")
    return JxCoefficients(
        d_minus1=complex(JX_BASIS["minus1"] @ vec),
        d_zero=complex(JX_BASIS["zero"] @ vec),
        d_plus1=complex(JX_BASIS["plus1"] @ vec),
        singlet_amp=complex(JX_BASIS["singlet"] @ vec),
    )


def constant_c(d: JxCoefficients) -> float:
    """Time-independent part of the approximate ensemble purity.

    The atomic pointer states are J_x eigenstates rotated about J_z by an
    angle proportional to m*t', so the squared overlap of the m and m'
    pointers is sin^2(2t')/2 for |m - m'| = 1 and sin^4(2t') for the
    m = +1 / m = -1 pair.  Expanding the resulting purity in cos(4t') and
    cos(8t') gives a constant piece

        c = 4(|d-1|^4 + |d0|^4 + |d1|^4) + 2|d0|^2(|d-1|^2 + |d1|^2)
            + 3|d-1|^2|d1|^2

    which satisfies c - h(0) = 4*sum(|d_m|^4): at t' = 0 the pointers are
    exactly orthogonal and the purity is that of the dephased mixture.
    """
    m1 = abs(d.d_minus1) ** 2
    z = abs(d.d_zero) ** 2
    p1 = abs(d.d_plus1) ** 2
    return 4.0 * (m1**2 + z**2 + p1**2) + 2.0 * z * (m1 + p1) + 3.0 * m1 * p1


def h_of_t(d: JxCoefficients, t_prime) -> np.ndarray | float:
    """Oscillatory part of the approximate ensemble purity.

    [2|d0|^2(|d-1|^2+|d1|^2) + 4|d-1|^2|d1|^2]cos(4t')
    - |d-1|^2|d1|^2 cos(8t'); see ``constant_c`` for the overlap origin.
    """
    m1 = abs(d.d_minus1) ** 2
    z = abs(d.d_zero) ** 2
    p1 = abs(d.d_plus1) ** 2
    t_prime = np.asarray(t_prime, dtype=float)
    out = (2.0 * z * (m1 + p1) + 4.0 * m1 * p1) * np.cos(4.0 * t_prime) - (
        m1 * p1
    ) * np.cos(8.0 * t_prime)
    return float(out) if out.ndim == 0 else out


def scaled_time(gt, mean_n: float):
    """t' = gt / (2*sqrt(mean_n - 1/2))."""
    radicand = mean_n - 0.5
    if radicand <= 0:
        raise ValueError(
            f"mean photon number {mean_n} too small for two atoms (nonpositive radicand)"
        )
    gt = np.asarray(gt, dtype=float)
    out = gt / (2.0 * math.sqrt(radicand))
    return float(out) if out.ndim == 0 else out


def approx_tau_F_AA(d: JxCoefficients, gt, mean_n: float):
    """Approximate field-versus-atoms tangle 2{1 - [c - h(t')]/4}.

    Valid for strong fields up to gt of order 2*pi*sqrt(mean_n); the
    gt = 0 transient is intentionally not reproduced (the formula starts at
    the dephased-mixture value 2(1 - sum|d_m|^4) instead of the exact 0),
    and the brief purity revival when the counter-rotating pointer fields
    collide at gt = pi*sqrt(mean_n) is not captured.
    """
    if abs(d.singlet_amp) > 1e-12:
        raise ValueError(
            "approximate tangle assumes no population in the dark singlet; "
            f"got |singlet_amp|^2 = {abs(d.singlet_amp)**2:.3e}"
        )
    tp = scaled_time(gt, mean_n)
    return 2.0 * (1.0 - (constant_c(d) - h_of_t(d, tp)) / 4.0)

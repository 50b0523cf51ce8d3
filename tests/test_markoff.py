import math
import warnings

import numpy as np
import pytest

import tcm_tangles as tt
from tcm_tangles.markoff import JX_BASIS

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
MEAN_N = 100.0
# h has period pi/2 in t' = gt / (2*sqrt(mean_n - 1/2)), so this period in gt
PERIOD = math.pi * math.sqrt(MEAN_N - 0.5)


def synthesize(d_minus1, d_zero, d_plus1, singlet=0.0):
    return np.array([d_minus1, d_zero, d_plus1, singlet]) @ JX_BASIS


def test_jx_basis_is_orthonormal():
    np.testing.assert_allclose(JX_BASIS @ JX_BASIS.T, np.eye(4), atol=1e-15)


def test_jx_basis_diagonalizes_collective_sx():
    # rows m = -1, 0, +1, then the singlet (m = 0)
    jx = 0.5 * (np.kron(SX, np.eye(2)) + np.kron(np.eye(2), SX))
    for row, m in zip(JX_BASIS, (-1.0, 0.0, 1.0, 0.0)):
        np.testing.assert_allclose(jx @ row, m * row, atol=1e-15)


def test_coefficients_of_named_states():
    half, inv_sqrt2 = 0.5, 1.0 / math.sqrt(2.0)
    expected = {
        "ee": (half, inv_sqrt2, half, 0.0),
        "gg": (half, inv_sqrt2, half, 0.0),
        "sym_plus": (inv_sqrt2, 0.0, inv_sqrt2, 0.0),
        "cat_plus": (inv_sqrt2, 0.0, inv_sqrt2, 0.0),
        "singlet": (0.0, 0.0, 0.0, 1.0),
    }
    for name, moduli in expected.items():
        d = JX_BASIS @ tt.atomic_state(name)
        np.testing.assert_allclose(np.abs(d), moduli, atol=1e-14)


def test_coefficients_reject_wrong_length():
    with pytest.raises(ValueError):
        tt.approx_tau_F_AA(np.array([1.0, 0.0, 0.0]), 1.0, MEAN_N)


def test_frozen_constants_stretched():
    # |d+-1| = 1/2, |d0| = 1/sqrt(2): c = 35/16, h(0) = 11/16
    assert abs(tt.approx_tau_F_AA("ee", 0.0, MEAN_N) - 1.25) < 1e-12


def test_frozen_constants_symmetric():
    # |d+-1| = 1/sqrt(2), d0 = 0: c = 11/4, h(0) = 3/4
    assert abs(tt.approx_tau_F_AA("sym_plus", 0.0, MEAN_N) - 1.0) < 1e-12


def test_single_pointer_never_entangles():
    t = np.linspace(0.0, 50.0, 101)
    np.testing.assert_allclose(tt.approx_tau_F_AA(JX_BASIS[1], t, MEAN_N), 0.0, atol=1e-13)


def test_purity_identity_at_t_zero():
    # with orthogonal pointers the purity is that of the dephased mixture:
    # c - h(0) = 4 * sum w_m^2, so the tangle is 2(1 - sum w_m^2)
    rng = np.random.default_rng(7)
    for _ in range(30):
        amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        amps /= np.linalg.norm(amps)
        quartic = float(np.sum(np.abs(amps) ** 4))
        tau = tt.approx_tau_F_AA(synthesize(*amps), 0.0, MEAN_N)
        assert abs(tau - 2.0 * (1.0 - quartic)) < 1e-12


def test_h_has_period_pi_over_2():
    gt = np.linspace(0.0, 3.0 * PERIOD, 97)
    np.testing.assert_allclose(
        tt.approx_tau_F_AA("ee", gt + PERIOD, MEAN_N),
        tt.approx_tau_F_AA("ee", gt, MEAN_N),
        atol=1e-12,
    )


def test_shapes_follow_input():
    assert isinstance(tt.approx_tau_F_AA("gg", 0.3, 50.0), float)
    assert tt.approx_tau_F_AA("gg", np.zeros(7), 50.0).shape == (7,)
    assert tt.approx_tau_F_AA("gg", np.zeros((5, 2)), 50.0).shape == (5, 2)


def test_global_phase_blindness():
    rng = np.random.default_rng(9)
    amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    vec = synthesize(*amps)
    gt = np.linspace(0.0, 2.0 * PERIOD, 11)
    np.testing.assert_allclose(
        tt.approx_tau_F_AA(np.exp(1.37j) * vec, gt, MEAN_N),
        tt.approx_tau_F_AA(vec, gt, MEAN_N),
        atol=1e-14,
    )


def test_scaled_time_value_and_guard():
    # t' = gt / (2*sqrt(mean_n - 1/2)): doubling gt is the same as
    # quartering mean_n - 1/2
    gt = np.linspace(0.0, 2.0 * PERIOD, 41)
    np.testing.assert_allclose(
        tt.approx_tau_F_AA("ee", 2.0 * gt, MEAN_N),
        tt.approx_tau_F_AA("ee", gt, (MEAN_N - 0.5) / 4.0 + 0.5),
        atol=1e-12,
    )
    for mean_n in (0.5, 0.4):
        with pytest.raises(ValueError, match=r"too small for two atoms \(nonpositive radicand\)$"):
            tt.approx_tau_F_AA("ee", 1.0, mean_n)
    # NaN passed the radicand test, and an infinite mean_n read as t' = 0
    for mean_n in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^mean_n must be a finite real number, got {mean_n}"):
            tt.approx_tau_F_AA("ee", 1.0, mean_n)
    for gt, bad in ((math.nan, "nan"), ([0.0, math.inf], "inf")):
        with pytest.raises(ValueError, match=f"^gt must be a finite real number, got {bad}$"):
            tt.approx_tau_F_AA("ee", gt, MEAN_N)
    # 8t' overflows above |gt| = max float / 4 * sqrt(mean_n - 1/2), without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gt in (1.7e308, [0.0, -1.7e308]):
            with pytest.raises(ValueError, match="^\\|gt\\| above .* overflows the scaled time"):
                tt.approx_tau_F_AA("ee", gt, 2.0)
        assert math.isfinite(tt.approx_tau_F_AA("ee", 5e307, 2.0))


def test_approx_rejects_singlet_population():
    rng = np.random.default_rng(11)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    for atomic in (synthesize(*amps), "singlet"):
        with pytest.raises(ValueError, match="^approximate tangle assumes no population"):
            tt.approx_tau_F_AA(atomic, 1.0, MEAN_N)


def test_time_average_over_one_period():
    # the oscillatory part averages to zero, leaving 2*(1 - c/4): 29/32 for
    # the stretched coefficients (c = 35/16), 5/8 for sym_plus (c = 11/4)
    n = 64
    gt = np.arange(n) * PERIOD / n
    assert abs(tt.approx_tau_F_AA("ee", gt, MEAN_N).mean() - 29.0 / 32.0) < 1e-12
    assert abs(tt.approx_tau_F_AA("sym_plus", gt, MEAN_N).mean() - 5.0 / 8.0) < 1e-12


def test_trough_and_peak_values_stretched():
    gt = np.linspace(0.0, 2.0 * PERIOD, 20001)
    tau = tt.approx_tau_F_AA("ee", gt, MEAN_N)
    assert abs(tau.min() - 0.5) < 1e-7
    assert abs(tau.max() - 1.25) < 1e-7


def test_trough_value_symmetric():
    # equal +-1 pointer weights disentangle completely once per period
    gt = np.linspace(0.0, 2.0 * PERIOD, 20001)
    assert abs(tt.approx_tau_F_AA("cat_plus", gt, MEAN_N).min()) < 1e-7

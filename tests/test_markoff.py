import math

import numpy as np
import pytest

import tcm_tangles as tt
from tcm_tangles.markoff import JX_BASIS

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def synthesize(d_minus1, d_zero, d_plus1, singlet=0.0):
    vec = (
        d_minus1 * JX_BASIS["minus1"]
        + d_zero * JX_BASIS["zero"]
        + d_plus1 * JX_BASIS["plus1"]
        + singlet * JX_BASIS["singlet"]
    )
    return vec.astype(complex)


def test_jx_basis_is_orthonormal():
    mat = np.stack([JX_BASIS[k] for k in ("minus1", "zero", "plus1", "singlet")])
    np.testing.assert_allclose(mat @ mat.T, np.eye(4), atol=1e-15)


def test_jx_basis_diagonalizes_collective_sx():
    jx = 0.5 * (np.kron(SX, np.eye(2)) + np.kron(np.eye(2), SX))
    for name, m in [("minus1", -1.0), ("zero", 0.0), ("plus1", 1.0), ("singlet", 0.0)]:
        np.testing.assert_allclose(jx @ JX_BASIS[name], m * JX_BASIS[name], atol=1e-15)


def test_coefficients_of_named_states():
    half = 0.5
    inv_sqrt2 = 1.0 / math.sqrt(2.0)

    d = tt.jx_coefficients(tt.atomic_state("ee"))
    assert abs(abs(d.d_minus1) - half) < 1e-14
    assert abs(abs(d.d_plus1) - half) < 1e-14
    assert abs(abs(d.d_zero) - inv_sqrt2) < 1e-14
    assert abs(d.singlet_amp) < 1e-14

    d = tt.jx_coefficients(tt.atomic_state("gg"))
    assert abs(abs(d.d_minus1) - half) < 1e-14
    assert abs(abs(d.d_plus1) - half) < 1e-14
    assert abs(abs(d.d_zero) - inv_sqrt2) < 1e-14

    for name in ("sym_plus", "cat_plus"):
        d = tt.jx_coefficients(tt.atomic_state(name))
        assert abs(abs(d.d_minus1) - inv_sqrt2) < 1e-14
        assert abs(abs(d.d_plus1) - inv_sqrt2) < 1e-14
        assert abs(d.d_zero) < 1e-14
        assert abs(d.singlet_amp) < 1e-14

    d = tt.jx_coefficients(tt.atomic_state("singlet"))
    assert abs(abs(d.singlet_amp) - 1.0) < 1e-14
    assert abs(d.d_minus1) + abs(d.d_zero) + abs(d.d_plus1) < 1e-14


def test_coefficients_reject_wrong_length():
    with pytest.raises(ValueError):
        tt.jx_coefficients(np.array([1.0, 0.0, 0.0]))


def test_coefficients_reject_unnormalized():
    with pytest.raises(ValueError):
        tt.JxCoefficients(d_minus1=1.0, d_zero=1.0, d_plus1=0.0, singlet_amp=0.0)


def test_frozen_constants_stretched():
    # |d+-1| = 1/2, |d0| = 1/sqrt(2)
    d = tt.jx_coefficients(tt.atomic_state("ee"))
    assert abs(tt.constant_c(d) - 35.0 / 16.0) < 1e-12
    assert abs(tt.h_of_t(d, 0.0) - 11.0 / 16.0) < 1e-12
    assert abs(tt.approx_tau_F_AA(d, 0.0, 100.0) - 1.25) < 1e-12


def test_frozen_constants_symmetric():
    # |d+-1| = 1/sqrt(2), d0 = 0
    d = tt.jx_coefficients(tt.atomic_state("sym_plus"))
    assert abs(tt.constant_c(d) - 11.0 / 4.0) < 1e-12
    assert abs(tt.h_of_t(d, 0.0) - 3.0 / 4.0) < 1e-12
    assert abs(tt.approx_tau_F_AA(d, 0.0, 100.0) - 1.0) < 1e-12


def test_single_pointer_never_entangles():
    d = tt.jx_coefficients(JX_BASIS["zero"].astype(complex))
    assert abs(tt.constant_c(d) - 4.0) < 1e-14
    t = np.linspace(0.0, 50.0, 101)
    np.testing.assert_allclose(tt.approx_tau_F_AA(d, t, 100.0), 0.0, atol=1e-13)


def test_purity_identity_at_t_zero():
    # with orthogonal pointers the purity is that of the dephased mixture:
    # c - h(0) = 4 * sum |d_m|^4 for any singlet-free atomic state
    rng = np.random.default_rng(7)
    for _ in range(30):
        amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        amps /= np.linalg.norm(amps)
        d = tt.jx_coefficients(synthesize(*amps))
        quartic = sum(abs(a) ** 4 for a in (d.d_minus1, d.d_zero, d.d_plus1))
        assert abs(tt.constant_c(d) - tt.h_of_t(d, 0.0) - 4.0 * quartic) < 1e-12


def test_h_has_period_pi_over_2():
    d = tt.jx_coefficients(tt.atomic_state("ee"))
    t = np.linspace(0.0, 3.0, 97)
    np.testing.assert_allclose(
        tt.h_of_t(d, t + math.pi / 2.0), tt.h_of_t(d, t), atol=1e-12
    )


def test_shapes_follow_input():
    d = tt.jx_coefficients(tt.atomic_state("gg"))
    assert isinstance(tt.h_of_t(d, 0.3), float)
    assert tt.h_of_t(d, np.zeros((5, 2))).shape == (5, 2)
    assert isinstance(tt.approx_tau_F_AA(d, 0.3, 50.0), float)
    assert tt.approx_tau_F_AA(d, np.zeros(7), 50.0).shape == (7,)


def test_global_phase_blindness():
    rng = np.random.default_rng(9)
    amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    amps /= np.linalg.norm(amps)
    vec = synthesize(*amps)
    d0 = tt.jx_coefficients(vec)
    d1 = tt.jx_coefficients(np.exp(1.37j) * vec)
    assert abs(tt.constant_c(d0) - tt.constant_c(d1)) < 1e-14
    t = np.linspace(0.0, 2.0, 11)
    np.testing.assert_allclose(tt.h_of_t(d0, t), tt.h_of_t(d1, t), atol=1e-14)


def test_scaled_time_value_and_guard():
    # t' = gt / (2*sqrt(mean_n - 1/2)) for two atoms
    expected = 6.0 / (2.0 * math.sqrt(10.0 - 0.5))
    assert abs(tt.scaled_time(6.0, 10.0) - expected) < 1e-14
    out = tt.scaled_time(np.array([0.0, 1.0]), 5.0)
    assert out.shape == (2,)
    with pytest.raises(ValueError):
        tt.scaled_time(1.0, 0.5)


def test_approx_rejects_singlet_population():
    rng = np.random.default_rng(11)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amps /= np.linalg.norm(amps)
    d = tt.jx_coefficients(synthesize(*amps))
    with pytest.raises(ValueError):
        tt.approx_tau_F_AA(d, 1.0, 100.0)


def test_time_average_over_one_period():
    # the oscillatory part averages to zero, leaving 2*(1 - c/4) = 29/32
    # for the stretched coefficients
    d = tt.jx_coefficients(tt.atomic_state("ee"))
    n = 64
    t_prime = np.arange(n) * (math.pi / 2.0) / n
    tau = 2.0 * (1.0 - (tt.constant_c(d) - tt.h_of_t(d, t_prime)) / 4.0)
    assert abs(tau.mean() - 29.0 / 32.0) < 1e-12


def test_trough_and_peak_values_stretched():
    d = tt.jx_coefficients(tt.atomic_state("ee"))
    t_prime = np.linspace(0.0, math.pi, 20001)
    tau = 2.0 * (1.0 - (tt.constant_c(d) - tt.h_of_t(d, t_prime)) / 4.0)
    assert abs(tau.min() - 0.5) < 1e-7
    assert abs(tau.max() - 1.25) < 1e-7


def test_trough_value_symmetric():
    # equal +-1 pointer weights disentangle completely once per period
    d = tt.jx_coefficients(tt.atomic_state("cat_plus"))
    t_prime = np.linspace(0.0, math.pi, 20001)
    tau = 2.0 * (1.0 - (tt.constant_c(d) - tt.h_of_t(d, t_prime)) / 4.0)
    assert abs(tau.min()) < 1e-7

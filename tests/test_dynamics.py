import math

import numpy as np
import pytest

import tcm_tangles as tt

SQRT2 = math.sqrt(2.0)


def test_model_params_validation():
    params = tt.ModelParams(g=1.0, n_max=5)
    assert params.field_dim == 6
    assert params.shape.dims == (2, 2, 6)
    with pytest.raises(ValueError):
        tt.ModelParams(g=0.0, n_max=5)
    with pytest.raises(ValueError):
        tt.ModelParams(g=1.0, n_max=0)
    # hashable, usable as a cache key
    assert {tt.ModelParams(g=1.0, n_max=5): 1}[params] == 1


def test_fock_state():
    vec = tt.fock_state(2, 4)
    assert vec.shape == (5,)
    assert vec[2] == 1.0 and np.count_nonzero(vec) == 1
    with pytest.raises(ValueError):
        tt.fock_state(5, 4)
    with pytest.raises(ValueError):
        tt.fock_state(-1, 4)


def test_coherent_state_moments():
    vec, n_max = tt.coherent_state(20.0)
    ns = np.arange(n_max + 1)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    assert abs(float(ns @ (np.abs(vec) ** 2)) - 20.0) < 1e-6
    assert np.all(vec.real >= 0.0) and np.all(vec.imag == 0.0)


def test_coherent_state_cutoff_tracks_tail_tol():
    _, loose = tt.coherent_state(30.0, tail_tol=1e-6)
    _, tight = tt.coherent_state(30.0, tail_tol=1e-12)
    assert tight > loose
    # discarded Poisson mass above the cutoff really is below the tolerance
    vec, n_max = tt.coherent_state(30.0, tail_tol=1e-8)
    from scipy.stats import poisson

    assert poisson.sf(n_max, 30.0) < 1e-8
    with pytest.raises(ValueError):
        tt.coherent_state(-1.0)


def test_atomic_state_names_and_vectors():
    np.testing.assert_allclose(tt.atomic_state("ee"), [1, 0, 0, 0], atol=0)
    np.testing.assert_allclose(
        tt.atomic_state("sym_plus"), [0, 1 / SQRT2, 1 / SQRT2, 0], atol=1e-15
    )
    np.testing.assert_allclose(
        tt.atomic_state("cat_plus"), [1 / SQRT2, 0, 0, 1 / SQRT2], atol=1e-15
    )
    np.testing.assert_allclose(
        tt.atomic_state("singlet"), [0, 1 / SQRT2, -1 / SQRT2, 0], atol=1e-15
    )
    np.testing.assert_allclose(
        tt.atomic_state([2.0, 0, 0, 0]), [1, 0, 0, 0], atol=0
    )  # renormalized
    with pytest.raises(ValueError):
        tt.atomic_state("nope")
    with pytest.raises(ValueError):
        tt.atomic_state([1.0, 0.0])


def test_initial_state_pads_field():
    params = tt.ModelParams(g=1.0, n_max=6)
    state = tt.initial_state("gg", tt.fock_state(1, 3), params)
    assert state.shape.dims == (2, 2, 7)
    tens = state.tensor()
    assert abs(tens[1, 1, 1] - 1.0) < 1e-14
    with pytest.raises(ValueError):
        tt.initial_state("gg", tt.fock_state(1, 8), params)


def test_block_basis_clipping():
    assert tt.block_basis(0, 5) == (("gg", 0),)
    assert tt.block_basis(1, 5) == (("eg", 0), ("ge", 0), ("gg", 1))
    assert tt.block_basis(3, 5) == (("ee", 1), ("eg", 2), ("ge", 2), ("gg", 3))
    assert tt.block_basis(7, 5) == (("ee", 5),)  # top block: photon range clipped
    with pytest.raises(ValueError):
        tt.block_basis(-1, 5)


@pytest.mark.parametrize("g", [1.0, 0.7])
def test_single_excitation_block_spectrum(g):
    block = tt.build_block(1, tt.ModelParams(g=g, n_max=4))
    np.testing.assert_allclose(
        np.sort(block.eigenvalues), [-SQRT2 * g, 0.0, SQRT2 * g], atol=1e-12
    )


def test_two_excitation_block_spectrum():
    # coupled triplet ladder gives 0, +-sqrt(4K-2)*g; the dark state adds 0
    block = tt.build_block(2, tt.ModelParams(g=1.0, n_max=4))
    np.testing.assert_allclose(
        np.sort(block.eigenvalues),
        [-math.sqrt(6.0), 0.0, 0.0, math.sqrt(6.0)],
        atol=1e-12,
    )


def test_ground_pair_single_photon_return_probability():
    g = 1.0
    params = tt.ModelParams(g=g, n_max=4)
    state = tt.initial_state("gg", tt.fock_state(1, 4), params)
    idx = np.flatnonzero(state.amplitudes)[0]
    for gt in np.linspace(0.0, 6.0, 31):
        evolved = tt.evolve(state, gt / g, params)
        expected = math.cos(SQRT2 * gt) ** 2
        assert abs(abs(evolved.amplitudes[idx]) ** 2 - expected) < 1e-12


def test_doubly_excited_fock_block_amplitudes():
    # |ee, n> couples only to the symmetric ladder of its own block
    n, g = 3, 1.3
    params = tt.ModelParams(g=g, n_max=10)
    state = tt.initial_state("ee", tt.fock_state(n, 10), params)
    u = g * math.sqrt(2.0 * (n + 1))
    v = g * math.sqrt(2.0 * (n + 2))
    omega = math.hypot(u, v)
    for t in (0.13, 0.55, 1.7):
        tens = tt.evolve(state, t, params).tensor()
        p_ee = abs(tens[0, 0, n]) ** 2
        p_sym = abs(tens[0, 1, n + 1]) ** 2 + abs(tens[1, 0, n + 1]) ** 2
        p_gg = abs(tens[1, 1, n + 2]) ** 2
        a = (v**2 + u**2 * math.cos(omega * t)) / omega**2
        b = (u / omega) * math.sin(omega * t)
        c = u * v * (math.cos(omega * t) - 1.0) / omega**2
        assert abs(p_ee - a**2) < 1e-12
        assert abs(p_sym - b**2) < 1e-12
        assert abs(p_gg - c**2) < 1e-12
        assert abs(p_ee + p_sym + p_gg - 1.0) < 1e-12


def test_singlet_is_stationary():
    params = tt.ModelParams(g=1.0, n_max=6)
    state = tt.initial_state("singlet", tt.fock_state(3, 6), params)
    evolved = tt.evolve(state, 2.31, params)
    np.testing.assert_allclose(evolved.amplitudes, state.amplitudes, atol=1e-13)


def test_detuning_free_phase_only():
    # a nonzero bare frequency multiplies each excitation block by a phase:
    # per-basis-state populations and all tangles are unchanged
    resonant = tt.ModelParams(g=1.0, n_max=8)
    rotated = tt.ModelParams(g=1.0, n_max=8, omega=5.0)
    s0 = tt.initial_state("ee", tt.fock_state(2, 8), resonant)
    for t in (0.4, 1.9):
        a = tt.evolve(s0, t, resonant)
        b = tt.evolve(s0, t, rotated)
        np.testing.assert_allclose(
            np.abs(a.amplitudes), np.abs(b.amplitudes), atol=1e-12
        )
        ra, rb = tt.tangle_report(a, t=t), tt.tangle_report(b, t=t)
        for name in ("tau_F_AA", "tau_A_rest", "tau_AA", "tau_AF", "tau_res"):
            assert abs(getattr(ra, name) - getattr(rb, name)) < 1e-11


def test_energy_conserved():
    params = tt.ModelParams(g=0.8, n_max=9, omega=3.0)
    state = tt.initial_state("sym_plus", tt.fock_state(4, 9), params)
    prop = tt.TcmPropagator(params)
    energies = [
        tt.energy_expectation(tt.PureState(params.shape, amps), params)
        for _, chunk in prop.evolve_series(state, np.linspace(0.0, 5.0, 40))
        for amps in chunk
    ]
    assert np.max(np.abs(np.diff(energies))) < 1e-11


def test_norm_conserved_along_series():
    params = tt.ModelParams(g=1.0, n_max=12)
    state = tt.initial_state("ee", tt.fock_state(6, 12), params)
    prop = tt.TcmPropagator(params)
    drifts = [
        abs(np.linalg.norm(amps) - 1.0)
        for _, chunk in prop.evolve_series(state, np.linspace(0.0, 8.0, 50))
        for amps in chunk
    ]
    assert max(drifts) < 1e-12


def test_truncation_guard_trips():
    params = tt.ModelParams(g=1.0, n_max=5)
    state = tt.initial_state("ee", tt.fock_state(5, 5), params)
    with pytest.raises(tt.TruncationError):
        tt.evolve(state, 0.5, params)


def test_excitation_distribution():
    params = tt.ModelParams(g=1.0, n_max=2)
    state = tt.initial_state("ee", tt.fock_state(1, 2), params)
    dist = tt.excitation_distribution(state)
    # |ee,1> carries excitation number 3
    assert abs(dist[3] - 1.0) < 1e-14
    assert abs(dist.sum() - 1.0) < 1e-14
    assert dist.shape == (params.n_max + 3,)


def test_excitation_distribution_conserved():
    params = tt.ModelParams(g=1.0, n_max=8)
    state = tt.initial_state("cat_plus", tt.fock_state(3, 8), params)
    before = tt.excitation_distribution(state)
    after = tt.excitation_distribution(tt.evolve(state, 3.7, params))
    np.testing.assert_allclose(after, before, atol=1e-12)

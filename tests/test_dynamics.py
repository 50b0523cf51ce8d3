import math

import numpy as np
import pytest

import tcm_tangles as tt
from tcm_tangles import dynamics
from tcm_tangles.dynamics import excitation_map, rabi_frequencies
from tcm_tangles.scenarios import _build_initial, preset_config

from oracles import energy_expectation

SQRT2 = math.sqrt(2.0)


def test_fock_state():
    vec = tt.fock_state(2, 4)
    assert vec.shape == (5,)
    assert vec[2] == 1.0 and np.count_nonzero(vec) == 1
    with pytest.raises(ValueError):
        tt.fock_state(5, 4)
    with pytest.raises(ValueError):
        tt.fock_state(-1, 4)
    # whole floats and numpy integers are photon numbers; other values are not
    np.testing.assert_array_equal(tt.fock_state(2.0, np.int64(4)), vec)
    # bools are truth values, not photon numbers
    for n, n_max in [(2.5, 4), (2, 4.5), (np.nan, 4), (2, np.inf), ("2", 4), (True, 3),
                     (1, np.True_)]:
        with pytest.raises(ValueError, match="must be an integer"):
            tt.fock_state(n, n_max)


def test_coherent_state_moments():
    vec = tt.coherent_state(20.0)
    ns = np.arange(vec.size)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    assert abs(float(ns @ (np.abs(vec) ** 2)) - 20.0) < 1e-6
    assert np.all(vec.real >= 0.0) and np.all(vec.imag == 0.0)


def test_coherent_state_cutoff_is_the_first_below_tail_mass():
    # the discarded Poisson mass above the cutoff is below TAIL_MASS, and it
    # would not be one photon lower
    from scipy.stats import poisson

    for mean_n in (0.01, 4.0, 30.0, 500.0):
        n_max = tt.coherent_state(mean_n).size - 1
        assert poisson.sf(n_max, mean_n) < dynamics.TAIL_MASS <= poisson.sf(n_max - 1, mean_n)
    with pytest.raises(ValueError, match="^mean photon number must be >= 0, got -1.0$"):
        tt.coherent_state(-1.0)
    for bad in (math.nan, math.inf):
        message = f"^mean photon number must be a finite real number, got {bad}$"
        with pytest.raises(ValueError, match=message):
            tt.coherent_state(bad)


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
    # non-finite amplitudes are bad input, not a run that stops at t = 0
    for bad in ((0, 0, 0, 0), (1, 0, 0, np.nan), (1, 0, 0, np.inf), (1, 0, 0, complex(0, -np.inf))):
        with pytest.raises(ValueError, match="must be finite and not all zero"):
            tt.atomic_state(bad)


def test_initial_state_pads_field():
    state = tt.initial_state("gg", tt.fock_state(1, 3), 6)
    assert state.shape.dims == (2, 2, 7)
    tens = state.tensor()
    assert abs(tens[1, 1, 1] - 1.0) < 1e-14
    with pytest.raises(ValueError):
        tt.initial_state("gg", tt.fock_state(1, 8), 6)
    assert tt.initial_state("gg", tt.fock_state(1, 3), np.int32(6)).shape.dims == (2, 2, 7)
    assert tt.initial_state("gg", tt.fock_state(1, 3), 6.0).shape.dims == (2, 2, 7)
    with pytest.raises(ValueError, match="n_max must be an integer, got 4.9"):
        tt.initial_state("ee", tt.fock_state(1, 4), 4.9)


def _dense_model(n_max, n0=0):
    """Coupling (in units of g), bare-frequency term a^dag a + sz1/2 + sz2/2 and
    excitation number as dense 4D x 4D matrices, built from the operators of
    the model in the (e, g) x (e, g) x photon basis, on photons n0 .. n_max
    (D = n_max - n0 + 1; the excitation number is absolute)."""
    d = n_max - n0 + 1
    sm = np.array([[0.0, 0.0], [1.0, 0.0]])  # |g><e|
    jm = np.kron(sm, np.eye(2)) + np.kron(np.eye(2), sm)
    jz = np.kron(np.diag([1.0, -1.0]), np.eye(2)) + np.kron(np.eye(2), np.diag([1.0, -1.0]))
    adag = np.diag(np.sqrt(np.arange(n0 + 1.0, n_max + 1.0)), -1)
    number = np.kron(np.eye(4), np.diag(np.arange(float(n0), n_max + 1.0)))
    coupling = np.kron(jm, adag)
    coupling = coupling + coupling.T
    free = number + 0.5 * np.kron(jz, np.eye(d))
    excitation = np.diag(number + 0.5 * np.kron(jz + 2.0 * np.eye(4), np.eye(d)))
    return coupling, free, excitation.round().astype(int)


_ATOM_LABELS = ("ee", "eg", "ge", "gg")


def _block_labels(k, n_max):
    """(atomic label, photon number) of each basis state in excitation block k."""
    d = n_max + 1
    return tuple(
        (_ATOM_LABELS[i // d], i % d) for i in np.flatnonzero(excitation_map(d) == k)
    )


def _dense_block_spectrum(k, n_max):
    coupling, _, excitation = _dense_model(n_max)
    sel = excitation == k
    return np.linalg.eigvalsh(coupling[np.ix_(sel, sel)])


def test_block_basis_clipping():
    assert _block_labels(0, 5) == (("gg", 0),)
    assert _block_labels(1, 5) == (("eg", 0), ("ge", 0), ("gg", 1))
    assert _block_labels(3, 5) == (("ee", 1), ("eg", 2), ("ge", 2), ("gg", 3))
    assert _block_labels(7, 5) == (("ee", 5),)  # top block: photon range clipped
    assert _block_labels(-1, 5) == ()
    assert excitation_map(6).min() == 0 and excitation_map(6).max() == 7


@pytest.mark.parametrize("g", [1.0, 0.7])
def test_single_excitation_block_spectrum(g):
    # a coupling g only rescales time: g*H_1 has spectrum 0, +-sqrt(2)*g, and
    # exp(-i g H t) is evolve over gt = g*t
    from scipy.linalg import expm

    np.testing.assert_allclose(
        g * _dense_block_spectrum(1, 4), [-SQRT2 * g, 0.0, SQRT2 * g], atol=1e-12
    )
    assert abs(g * rabi_frequencies(5)[1] - SQRT2 * g) < 1e-14
    h = _dense_model(4)[0]
    state = tt.initial_state("sym_plus", tt.fock_state(0, 4), 4)
    for t in (0.3, 2.2):
        want = expm(-1j * g * h * t) @ state.amplitudes
        np.testing.assert_allclose(tt.evolve(state, g * t).amplitudes, want, rtol=0, atol=1e-12)


def test_two_excitation_block_spectrum():
    # coupled triplet ladder gives 0, +-sqrt(4K-2); the dark state adds 0
    np.testing.assert_allclose(
        _dense_block_spectrum(2, 4),
        [-math.sqrt(6.0), 0.0, 0.0, math.sqrt(6.0)],
        atol=1e-12,
    )
    assert abs(rabi_frequencies(5)[2] - math.sqrt(6.0)) < 1e-14


def test_rabi_frequencies_match_dense_blocks():
    # every block is a dark state plus a three-level ladder: spectrum 0, +-Omega_K
    n_max = 6
    coupling, _, excitation = _dense_model(n_max)
    np.testing.assert_array_equal(excitation, excitation_map(n_max + 1))
    rabi = rabi_frequencies(n_max + 1)
    assert rabi.shape == (n_max + 3,)
    for k in range(n_max + 3):
        sel = excitation == k
        assert not np.any(coupling[np.ix_(sel, ~sel)])  # H conserves K
        h = coupling[np.ix_(sel, sel)]
        spectrum = np.zeros(h.shape[0])
        spectrum[[0, -1]] = -rabi[k], rabi[k]
        np.testing.assert_allclose(np.linalg.eigvalsh(h), spectrum, atol=1e-12)
        np.testing.assert_allclose(h @ h @ h, rabi[k] ** 2 * h, atol=1e-12)
    assert rabi[0] == 0.0 and rabi[n_max + 2] == 0.0  # |gg, 0> and |ee, n_max>
    assert abs(rabi[1] - SQRT2) < 1e-14
    inside = np.arange(1, n_max + 1)  # both ladder couplings below the cutoff
    np.testing.assert_allclose(rabi[inside], np.sqrt(4.0 * inside - 2.0), rtol=1e-14)


def test_evolve_matches_dense_expm():
    from scipy.linalg import expm

    n_max = 8
    d = n_max + 1
    h, _, excitation = _dense_model(n_max)
    for g in (1.0, 0.7):  # a coupling g is evolve over gt = g*t
        # raw complex atomic state x photons 0..3 fills blocks K = 0 .. 5 ...
        field = np.zeros(d, dtype=complex)
        field[:4] = [0.6, 0.5j, -0.4, 0.3 + 0.2j]
        amps = np.kron(tt.atomic_state([0.3 + 0.4j, -0.5, 0.2j, 0.6]), field)
        # ... and small amplitudes, below the truncation guard, fill the top blocks:
        # |ee, n_max-1>, |eg, n_max>, |ge, n_max> (K = n_max + 1), |ee, n_max> (K = n_max + 2)
        edge = [n_max - 1, d + n_max, 2 * d + n_max, n_max]
        amps[edge] = [3e-5, -2e-5j, 1e-5 + 2e-5j, 2e-5]
        amps /= np.linalg.norm(amps)
        state = tt.PureState(tt.SystemShape((2, 2, d)), amps)
        assert abs(energy_expectation(state) - np.vdot(amps, h @ amps).real) < 1e-12
        for t in (0.0, 0.37, 2.9, 13.1):
            got = tt.evolve(state, g * t).amplitudes
            want = expm(-1j * g * h * t) @ amps
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            for k in (0, 1, n_max + 1, n_max + 2):
                sel = excitation == k
                scale = np.linalg.norm(want[sel])
                assert scale > 0 and np.linalg.norm(got[sel] - want[sel]) < 1e-12 * scale


# a window of photons 7 .. 19: bulk on 12 .. 14, which evolution spreads over
# 10 .. 16, clear of both guard bands (7 .. 9 and 17 .. 19)
_N0, _N_TOP = 7, 19


def _offset_window_state():
    """A raw complex state on photons _N0 .. _N_TOP with small amplitudes,
    below the guard, in the blocks cut by either edge of the window."""
    d = _N_TOP - _N0 + 1
    field = np.zeros(d, dtype=complex)
    field[5:8] = [0.6, 0.5j - 0.1, -0.4 + 0.3j]
    amps = np.kron(tt.atomic_state([0.3 + 0.4j, -0.5, 0.2j, 0.6]), field)
    # bottom: |gg, n0> (K = n0), |eg, n0>, |ge, n0> (K = n0 + 1), |ee, n0> (K = n0 + 2);
    # top: |ee, top-1>, |eg, top>, |ge, top> (K = top + 1), |ee, top> (K = top + 2)
    edge = [3 * d, d, 2 * d, 0, d - 2, 2 * d - 1, 3 * d - 1, d - 1]
    amps[edge] = [2e-5, 1e-5j, -1e-5, 2e-5, 3e-5, -2e-5j, 1e-5 + 2e-5j, 2e-5]
    return tt.PureState(tt.SystemShape((2, 2, d)), amps / np.linalg.norm(amps))


def test_rabi_frequencies_match_dense_blocks_on_an_offset_window():
    coupling, _, excitation = _dense_model(_N_TOP, _N0)
    d = _N_TOP - _N0 + 1
    np.testing.assert_array_equal(excitation, _N0 + excitation_map(d))
    rabi = rabi_frequencies(d, _N0)
    assert rabi.shape == (d + 2,)
    for k in range(d + 2):
        sel = excitation == _N0 + k
        assert not np.any(coupling[np.ix_(sel, ~sel)])
        h = coupling[np.ix_(sel, sel)]
        spectrum = np.zeros(h.shape[0])
        spectrum[[0, -1]] = -rabi[k], rabi[k]
        np.testing.assert_allclose(np.linalg.eigvalsh(h), spectrum, atol=1e-12)
    # both edges cut a ladder coupling; inside, Omega_K = sqrt(4K - 2) at the absolute K
    assert rabi[0] == 0.0 and rabi[d + 1] == 0.0  # |gg, n0> and |ee, top>
    np.testing.assert_allclose(rabi[1], math.sqrt(2.0 * (_N0 + 1)), rtol=1e-14)
    inside = np.arange(2, d)
    np.testing.assert_allclose(rabi[inside], np.sqrt(4.0 * (_N0 + inside) - 2.0), rtol=1e-14)


def test_evolve_matches_dense_expm_on_an_offset_window():
    from scipy.linalg import expm

    h, _, excitation = _dense_model(_N_TOP, _N0)
    state = _offset_window_state()
    amps = state.amplitudes
    assert abs(energy_expectation(state, _N0) - np.vdot(amps, h @ amps).real) < 1e-12
    # read from photon 0, the same amplitudes carry a different energy
    assert abs(energy_expectation(state) - np.vdot(amps, h @ amps).real) > 0.1
    times = [0.0, 0.37, 2.9, 13.1]
    got = np.concatenate(list(tt.TcmPropagator().evolve_series(state, times, _N0)))
    for t, row in zip(times, got):
        want = expm(-1j * h * t) @ amps
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)
        for k in (0, 1, 2, _N_TOP - _N0 + 1):  # the blocks cut by an edge
            sel = excitation == _N0 + k
            scale = np.linalg.norm(want[sel])
            assert scale > 0 and np.linalg.norm(row[sel] - want[sel]) < 1e-12 * scale


def test_bottom_guard_band_trips_on_an_offset_window():
    d = _N_TOP - _N0 + 1
    # |gg, n0 + 4> spreads to |ee, n0 + 2>, inside the bottom guard band
    state = tt.initial_state("gg", tt.fock_state(4, d - 1), d - 1)
    with pytest.raises(tt.TruncationError, match=r"bottom edge of the field window \(photon 7\)"):
        list(tt.TcmPropagator().evolve_series(state, np.linspace(0.0, 2.0, 20), _N0))
    # from photon 0 the same amplitudes are photons 0 .. 12, and photon 0 has no guard band
    list(tt.TcmPropagator().evolve_series(state, np.linspace(0.0, 2.0, 20)))
    # population already in the bottom band trips it at t = 0
    low = tt.initial_state("ee", tt.fock_state(1, d - 1), d - 1)
    with pytest.raises(tt.TruncationError, match=r"bottom edge .* at t=0 "):
        list(tt.TcmPropagator().evolve_series(low, [0.5], _N0))
    with pytest.raises(ValueError, match="^n0 must be >= 0, got -1$"):
        list(tt.TcmPropagator().evolve_series(low, [0.5], -1))


def test_windowed_fock_state_matches_the_window_from_photon_0():
    # |N> with N = 12 on photons 7 .. 17 against photons 0 .. 17
    n, n0, top = 12, 7, 17
    atomic = [0.3 + 0.4j, -0.5, 0.2j, 0.6]
    full = tt.initial_state(atomic, tt.fock_state(n, top), top)
    window = tt.initial_state(atomic, tt.fock_state(n - n0, top - n0), top - n0)
    times = np.linspace(0.0, 9.0, 60)
    want = np.concatenate(list(tt.TcmPropagator().evolve_series(full, times)))
    got = np.concatenate(list(tt.TcmPropagator().evolve_series(window, times, n0)))
    want, got = want.reshape(-1, 4, top + 1), got.reshape(-1, 4, top - n0 + 1)
    np.testing.assert_allclose(got, want[..., n0:], rtol=0, atol=1e-14)
    assert not np.any(want[..., :n0])


@pytest.mark.parametrize(
    "field",
    [dict(field="coherent", mean_n=100.0), dict(field="fock", n=10)],
    ids=["coherent", "fock"],
)
def test_atom_exchange_symmetry_is_exact_in_every_chunk(field):
    # H and these starts are symmetric under swapping the atoms (the singlet
    # antisymmetric), and the eg and ge rows take the same arithmetic, so in
    # every chunk the eg row equals the ge row (the singlet: its negative) bit
    # for bit; windows from photon n0 = 3 (<n> = 100) and n0 = 5 (|10>)
    times = np.linspace(0.0, 30.0, 500)
    for atomic, sign in [("ee", 1), ("gg", 1), ("sym_plus", 1), ("cat_plus", 1), ("singlet", -1)]:
        state, n0 = _build_initial(preset_config(atomic=atomic, **field))
        d = state.shape.dims[2]
        for chunk in tt.TcmPropagator().evolve_series(state, times, n0):
            rows = chunk.reshape(len(chunk), 4, d)
            np.testing.assert_array_equal(rows[:, 1], sign * rows[:, 2], err_msg=atomic)


@pytest.mark.parametrize(
    "field",
    [dict(field="coherent", mean_n=100.0), dict(field="fock", n=10)],
    ids=["coherent", "fock"],
)
def test_three_row_evolution_is_the_four_row_loop_bit_for_bit(field, monkeypatch):
    # from an exchange-symmetric start evolve_series forms rows ee, eg and gg
    # and copies eg into ge; forcing the four-row loop through the one
    # symmetry predicate gives the same bits in every chunk, and the singlet
    # takes the four-row loop
    times = np.linspace(0.0, 30.0, 500)
    predicate = dynamics._exchange_symmetric
    for atomic in ("ee", "gg", "sym_plus", "cat_plus", "singlet"):
        state, n0 = _build_initial(preset_config(atomic=atomic, **field))
        decided = []
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "_exchange_symmetric",
                          lambda *planes: decided.append(predicate(*planes)) or decided[-1])
            fast = list(tt.TcmPropagator().evolve_series(state, times, n0))
        assert decided == [atomic != "singlet"], atomic
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "_exchange_symmetric", lambda *planes: False)
            four = list(tt.TcmPropagator().evolve_series(state, times, n0))
        assert len(fast) == len(four), atomic
        for a, b in zip(fast, four):
            assert a.tobytes() == b.tobytes(), atomic


@pytest.mark.parametrize("n0", [0, 3])
def test_rows_eg_and_ge_of_h_psi_hold_the_same_bits_from_any_start(n0):
    # _coupling sums rows eg and ge of H psi from the same two terms in the
    # same order (the ee term, then the gg term), so rows eg and ge of
    # H psi / Omega and H^2 psi / Omega^2, as the propagator forms them, hold
    # the same bits from the singlet and from a raw asymmetric start too: the
    # start's own rows eg and ge decide exchange symmetry
    rng = np.random.default_rng(11)
    d = 9
    field = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    singlet = np.kron(tt.atomic_state("singlet"), field)
    raw = (rng.standard_normal((4, d)) + 1j * rng.standard_normal((4, d))).ravel()
    rabi = rabi_frequencies(d, n0)
    safe = np.where(rabi > 0.0, rabi, 1.0)[excitation_map(d)]
    # the singlet is dark: its rows ee and gg, and so rows eg and ge of H psi, are zero
    for start, lit in ((singlet, False), (raw, True)):
        assert not dynamics._exchange_symmetric(start.reshape(4, d))
        h1 = dynamics._coupling(start, d, n0) / safe
        h2 = dynamics._coupling(h1, d, n0) / safe
        for h in (h1, h2):
            rows = h.reshape(4, d)
            assert np.any(rows[1]) == lit and rows[1].tobytes() == rows[2].tobytes()


def _symmetric_rows(d, **amps):
    """(1, 3, d) rows (ee, eg, gg) of an exchange-symmetric state, from
    {"<row>_<photon index>": amplitude}; row eg stands for eg and ge."""
    rows = np.zeros((1, 3, d), dtype=complex)
    for key, amp in amps.items():
        row, photon = key.split("_")
        rows[0, ("ee", "eg", "gg").index(row), int(photon)] = amp
    return rows


def _check_failure(rows, start, n0):
    """(type, message) of what _check_times raises on the rows at t = 0.5
    against the excitation distribution of the start, or None."""
    state = tt.PureState(tt.SystemShape((2, 2, rows.shape[2])), start[:, [0, 1, 1, 2]].ravel())
    try:
        tt.TcmPropagator()._check_times(rows, tt.excitation_distribution(state), [0.5], n0)
    except RuntimeError as exc:
        return type(exc), str(exc)
    return None


def test_row_eg_counts_twice_in_the_check():
    # row eg of three rows stands for eg and ge, so a population in
    # (limit/2, limit] in it crosses the limit only when counted twice: in
    # the top guard band, the bottom one (on a window above photon 0) and the
    # excitation distribution.  Three rows fail as the same four rows do.
    d, n0 = 12, 4
    p, delta = 0.75 * dynamics.GUARD_TOL, 0.75 * dynamics.CONSERVATION_TOL
    top = _symmetric_rows(d, ee_6=math.sqrt(1.0 - 2.0 * p), eg_11=math.sqrt(p))
    bottom = _symmetric_rows(d, ee_6=math.sqrt(1.0 - 2.0 * p), eg_0=math.sqrt(p))
    start = _symmetric_rows(d, ee_6=math.sqrt(0.5), eg_6=0.5)
    drifted = _symmetric_rows(d, ee_6=math.sqrt(0.5), eg_6=math.sqrt(0.25 + delta))
    for rows, ref, error, words in [(top, top, tt.TruncationError, "of the top edge"),
                                    (bottom, bottom, tt.TruncationError, "of the bottom edge"),
                                    (drifted, start, RuntimeError, "conservation violated")]:
        three = _check_failure(rows, ref, n0)
        assert three is not None and three[0] is error and words in three[1], words
        assert three == _check_failure(rows[:, [0, 1, 1, 2]], ref, n0), words
    assert _check_failure(start, start, n0) is None


def test_ground_pair_single_photon_return_probability():
    state = tt.initial_state("gg", tt.fock_state(1, 4), 4)
    idx = np.flatnonzero(state.amplitudes)[0]
    for gt in np.linspace(0.0, 6.0, 31):
        evolved = tt.evolve(state, gt)
        expected = math.cos(SQRT2 * gt) ** 2
        assert abs(abs(evolved.amplitudes[idx]) ** 2 - expected) < 1e-12


def test_doubly_excited_fock_block_amplitudes():
    # |ee, n> couples only to the symmetric ladder of its own block; a
    # coupling g scales u, v and omega, and is evolve over gt = g*t
    n, g = 3, 1.3
    state = tt.initial_state("ee", tt.fock_state(n, 10), 10)
    u = g * math.sqrt(2.0 * (n + 1))
    v = g * math.sqrt(2.0 * (n + 2))
    omega = math.hypot(u, v)
    for t in (0.13, 0.55, 1.7):
        tens = tt.evolve(state, g * t).tensor()
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
    state = tt.initial_state("singlet", tt.fock_state(3, 6), 6)
    evolved = tt.evolve(state, 2.31)
    np.testing.assert_allclose(evolved.amplitudes, state.amplitudes, atol=1e-13)


def test_detuning_free_phase_only():
    # the bare-frequency term that evolve leaves out commutes with the
    # coupling and is a sum of one-party terms: with it, the state differs
    # from evolve's by local phases only, so populations and tangles agree
    from scipy.linalg import expm

    coupling, free, _ = _dense_model(8)
    omega = 5.0
    s0 = tt.initial_state("ee", tt.fock_state(2, 8), 8)
    for t in (0.4, 1.9):
        a = tt.evolve(s0, t)
        b = tt.PureState(s0.shape, expm(-1j * (coupling + omega * free) * t) @ s0.amplitudes)
        atom = np.exp(-0.5j * omega * t * np.array([1.0, -1.0]))  # exp(-i omega t sz/2)
        photons = np.exp(-1j * omega * t * np.arange(9))
        local = np.kron(np.kron(atom, atom), photons)
        np.testing.assert_allclose(b.amplitudes, local * a.amplitudes, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            np.abs(a.amplitudes), np.abs(b.amplitudes), atol=1e-12
        )
        ra, rb = tt.tangle_report(a), tt.tangle_report(b)
        for name in ("tau_F_AA", "tau_A_rest", "tau_AA", "tau_AF", "tau_res"):
            assert abs(ra[name] - rb[name]) < 1e-11


def test_energy_conserved():
    # coupling g = 0.8: energy g*<H> over gt = g*t
    g = 0.8
    state = tt.initial_state("sym_plus", tt.fock_state(4, 9), 9)
    prop = tt.TcmPropagator()
    energies = [
        g * energy_expectation(tt.PureState(state.shape, amps))
        for chunk in prop.evolve_series(state, g * np.linspace(0.0, 5.0, 40))
        for amps in chunk
    ]
    assert np.max(np.abs(np.diff(energies))) < 1e-11


def test_norm_conserved_along_series():
    state = tt.initial_state("ee", tt.fock_state(6, 12), 12)
    prop = tt.TcmPropagator()
    drifts = [
        abs(np.linalg.norm(amps) - 1.0)
        for chunk in prop.evolve_series(state, np.linspace(0.0, 8.0, 50))
        for amps in chunk
    ]
    assert max(drifts) < 1e-12


def test_truncation_guard_trips():
    state = tt.initial_state("ee", tt.fock_state(5, 5), 5)
    with pytest.raises(tt.TruncationError):
        tt.evolve(state, 0.5)
    # a one-photon window is all guard band, so even the initial state trips it
    vacuum = tt.initial_state("gg", tt.fock_state(0, 0), 0)
    with pytest.raises(tt.TruncationError, match=r"top edge of the field window \(photon 0\)"):
        tt.evolve(vacuum, 0.0)


def test_nan_time_and_a_finite_time_whose_phases_overflow_are_bad_input():
    state = tt.initial_state("ee", tt.fock_state(3, 10), 10)
    with pytest.raises(ValueError, match="^each time must be a finite real number, got nan$"):
        tt.evolve(state, math.nan)
    with pytest.raises(ValueError, match="^each time must be a finite real number, got nan$"):
        next(tt.TcmPropagator().evolve_series(state, [0.0, math.nan, 1.0]))
    with pytest.raises(ValueError, match="^the phases overflow at t = 1e"):
        tt.evolve(state, 1e308)


def test_excitation_distribution():
    state = tt.initial_state("ee", tt.fock_state(1, 2), 2)
    dist = tt.excitation_distribution(state)
    # |ee,1> carries excitation number 3
    assert abs(dist[3] - 1.0) < 1e-14
    assert abs(dist.sum() - 1.0) < 1e-14
    assert dist.shape == (2 + 3,)


def test_excitation_distribution_conserved():
    state = tt.initial_state("cat_plus", tt.fock_state(3, 8), 8)
    before = tt.excitation_distribution(state)
    after = tt.excitation_distribution(tt.evolve(state, 3.7))
    np.testing.assert_allclose(after, before, atol=1e-12)


def test_excitation_slice_sums_match_scatter_add():
    # P_K from four shifted slice adds against a scatter over the flat map
    rng = np.random.default_rng(7)
    for n, d in ((1, 2), (5, 3), (17, 11)):
        amps = rng.standard_normal((n, 4 * d)) + 1j * rng.standard_normal((n, 4 * d))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        pop = np.abs(amps) ** 2
        want = np.zeros((n, d + 2))
        for row in range(n):
            np.add.at(want[row], excitation_map(d), pop[row])
        got = dynamics._excitation_populations(pop.reshape(n, 4, d))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_series_reports_drift_maxima_over_every_chunk(monkeypatch):
    state = tt.initial_state("cat_plus", tt.fock_state(5, 12), 12)
    times = np.linspace(0.0, 6.0, 90)
    prop = tt.TcmPropagator()
    amps = np.concatenate(list(prop.evolve_series(state, times)))
    drifts = (prop.max_norm_drift, prop.max_excitation_drift)
    k_ref = tt.excitation_distribution(state)
    worst = max(
        np.max(np.abs(tt.excitation_distribution(tt.PureState(state.shape, a)) - k_ref))
        for a in amps
    )
    assert drifts[1] == worst and 0.0 < max(drifts) < 1e-12
    monkeypatch.setattr(dynamics, "CHUNK_BUDGET", 1)  # one time per chunk
    list(prop.evolve_series(state, times))
    assert (prop.max_norm_drift, prop.max_excitation_drift) == drifts


# --- the phases from one tangent ------------------------------------------------


def _pole_times(rabi):
    """Times at which one phase argument 0.5 * t * Omega_K, formed as evolve_series
    forms it, is the float64 pi/2 (where tan peaks), and one ulp below it."""
    times = []
    for x in (np.pi / 2, np.nextafter(np.pi / 2, 0.0)):
        guesses = (2 * x / w + k * np.spacing(2 * x / w) for w in rabi[rabi > 0] for k in range(-4, 5))
        times.append(next(t for t in guesses if np.any(0.5 * np.array([t])[:, None] * rabi == x)))
    return times


def _sine_reference_rows(state, times, n0):
    """evolve_series rows from 2 sin^2(x) and sin(2x) at 40 digits, on the float64
    arguments x = Omega_K t/2 that the propagator forms, and its own H psi, H^2 psi."""
    import mpmath

    d = state.shape.dims[2]
    rabi = rabi_frequencies(d, n0)
    x = 0.5 * np.asarray(times)[:, None] * rabi
    with mpmath.workdps(40):
        c = np.array([float(2 * mpmath.sin(mpmath.mpf(v)) ** 2) for v in x.ravel()])
        s = np.array([float(mpmath.sin(2 * mpmath.mpf(v))) for v in x.ravel()])
    c, s = c.reshape(x.shape), s.reshape(x.shape)
    safe = np.where(rabi > 0.0, rabi, 1.0)[excitation_map(d)]
    h1 = dynamics._coupling(state.amplitudes, d, n0) / safe
    h2 = dynamics._coupling(h1, d, n0) / safe
    psi0, h2, ih1 = (v.reshape(4, d) for v in (state.amplitudes, h2, 1j * h1))
    rows = np.empty((len(times), 4, d), dtype=complex)
    for a, e in enumerate(dynamics.ATOM_EXCITATIONS):
        rows[:, a] = psi0[a] - c[:, e:e + d] * h2[a] - s[:, e:e + d] * ih1[a]
    return rows.reshape(len(times), 4 * d)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("preset, t_max", [("fig2", 80.0), ("fig4", 140.0)])
def test_tangent_phases_match_40_digit_sines(preset, t_max):
    state, n0 = _build_initial(preset_config(preset))
    rabi = rabi_frequencies(state.shape.dims[2], n0)
    grid = np.linspace(0.0, t_max, 4000)[::333]
    far = np.geomspace(1.0, 2e6 / rabi.max(), 6)  # arguments Omega_K t/2 up to 1e6
    times = np.concatenate([grid, far, _pole_times(rabi)])
    got = np.concatenate(list(tt.TcmPropagator().evolve_series(state, times, n0)))
    want = _sine_reference_rows(state, times, n0)
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tangent_phases_are_exact_at_zero_odd_in_time_and_finite_at_the_pole():
    state, n0 = _build_initial(preset_config("fig2"))
    amps = state.amplitudes
    assert not np.any(amps.imag)  # a real initial state
    times = np.linspace(0.0, 80.0, 4000)[::97]
    prop = tt.TcmPropagator()
    ahead = np.concatenate(list(prop.evolve_series(state, times, n0)))
    back = np.concatenate(list(prop.evolve_series(state, -times, n0)))
    # tan(0) = 0, so the t = 0 row is the initial state bit for bit
    assert ahead[0].tobytes() == amps.tobytes()
    # tan is odd, so a real state's row at -t is the conjugate of its row at t
    np.testing.assert_array_equal(back, ahead.conj())
    # where tan peaks, the amplitudes are finite and pass the conservation check
    prop = tt.TcmPropagator()
    pole_times = _pole_times(rabi_frequencies(state.shape.dims[2], n0))
    pole = np.concatenate(list(prop.evolve_series(state, pole_times, n0)))
    assert np.all(np.isfinite(pole))
    assert max(prop.max_norm_drift, prop.max_excitation_drift) <= dynamics.CONSERVATION_TOL

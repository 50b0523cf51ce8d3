"""Every count, dimension, index, real and time argument of the public API
refuses a bad value with a one-line ValueError that names what it refused
(numpy's own, for an array length beyond its index range)."""

import math
import numbers
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import tcm_tangles as tt
from tcm_tangles.random_states import MAX_SAMPLES
from tcm_tangles.scenarios import MAX_PHOTONS, MAX_STEPS
from tcm_tangles.tangles import MAX_RESTARTS, SCENARIO_COLUMNS as COLUMNS

FRACTION = 2.5  # bad for a whole argument, good for a real one
HUGE = 10**400  # beyond every float, but a whole number: a good seed
FIXED = [True, False, np.True_, math.nan, math.inf, -math.inf, FRACTION, "3", -1, HUGE, None, ()]
NEGATIVE = st.integers(max_value=-1) | st.floats(max_value=-0.5, allow_infinity=False)
BEYOND = st.integers(min_value=2**1024) | st.integers(max_value=-(2**1024))  # past every float
BAD = st.sampled_from(FIXED) | NEGATIVE | BEYOND

PSI = tt.PureState(tt.SystemShape((2, 2, 3)), np.ones(12) / math.sqrt(12.0))
EXCITED = tt.initial_state("ee", tt.fock_state(3, 10), 10)
RHO = tt.partial_trace(PSI, (0, 2))
GT = np.linspace(0.0, 1.0, 3)
RNG = np.random.default_rng(0)


def fock_config(n=3, **kw):
    return tt.ScenarioConfig(atomic="ee", field="fock", n=n, **kw)


def coherent_config(mean_n):
    return tt.ScenarioConfig(atomic="ee", field="coherent", mean_n=mean_n)


# numpy's refusal of an array length beyond its index range
TOO_LONG = "|Maximum allowed dimension exceeded"

# (kind, call with the bad value, pattern its message must contain).  A
# "whole" argument is a count, dimension or index; a "real" one takes 2.5;
# a "seed" takes any whole number >= 0, 10**400 too; a "time" takes any
# finite real number, and "times", a time grid, an empty one too.
CASES = {
    "fock_state n": ("whole", lambda v: tt.fock_state(v, 5), "fock label"),
    "fock_state n_max": ("whole", lambda v: tt.fock_state(0, v), "n_max" + TOO_LONG),
    "SystemShape dims": ("whole", lambda v: tt.SystemShape((2, v)), "dimension"),
    "partial_trace keep": ("whole", lambda v: tt.partial_trace(PSI, (v,)), "keep indices"),
    "haar_pure_batch total_dim": (
        "whole", lambda v: tt.haar_pure_batch(v, 2, RNG), "total_dim" + TOO_LONG
    ),
    "haar_pure_batch count": ("whole", lambda v: tt.haar_pure_batch(4, v, RNG), "count" + TOO_LONG),
    "positivity_sweep dims": ("whole", lambda v: tt.positivity_sweep((2, 2, v), 10), "dim"),
    "positivity_sweep samples": ("whole", lambda v: tt.positivity_sweep((2, 2, 3), v), "samples"),
    "positivity_sweep seed": ("seed", lambda v: tt.positivity_sweep((2, 2, 3), 10, v), "seed"),
    "scaling_study ns": ("whole", lambda v: tt.scaling_study((v, 10, 20)), "photon numbers"),
    "scaling_study steps": ("whole", lambda v: tt.scaling_study((5, 10, 20), v), "steps"),
    "ScenarioConfig n": ("whole", lambda v: fock_config(n=v), r"\bn\b"),
    "ScenarioConfig steps": ("whole", lambda v: fock_config(steps=v), "steps"),
    "ScenarioConfig t_max": ("real", lambda v: fock_config(t_max=v), "t_max"),
    "ScenarioConfig mean_n": (
        "real", lambda v: tt.ScenarioConfig(atomic="ee", field="coherent", mean_n=v), "mean_n"
    ),
    "initial_state n_max": (
        "whole", lambda v: tt.initial_state("ee", [1.0], v), "n_max" + TOO_LONG
    ),
    "coherent_state mean_n": ("real", tt.coherent_state, "mean photon number"),
    "approx_tau_F_AA mean_n": ("real", lambda v: tt.approx_tau_F_AA("ee", GT, v), "mean"),
    "convex_roof_itangle restarts": (
        "whole", lambda v: tt.convex_roof_itangle(RHO, restarts=v), "restarts"
    ),
    "convex_roof_itangle seed": (
        "seed", lambda v: tt.convex_roof_itangle(RHO, restarts=1, seed=v), "seed"
    ),
    "evolve_series times": (
        "times", lambda v: list(tt.TcmPropagator().evolve_series(EXCITED, v)), "each time"
    ),
    "evolve t": ("time", lambda v: tt.evolve(EXCITED, v), r"\bt must|each time"),
    "approx_tau_F_AA gt": ("times", lambda v: tt.approx_tau_F_AA("ee", v, 100.0), r"^gt\b"),
}


def takes(kind, value):
    """Whether an argument of this kind takes the value."""
    number = not isinstance(value, (bool, np.bool_))
    finite = number and isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    seed = number and isinstance(value, numbers.Integral) and value >= 0
    return {"real": value is FRACTION, "seed": seed, "time": finite,
            "times": finite or isinstance(value, tuple)}.get(kind, False)


def with_every_fixed_value(test):
    for value in reversed(FIXED):
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(value=BAD)
@with_every_fixed_value
def test_bad_arguments_are_one_line_value_errors(case, value):
    # budget: about 1.3 s for all 23 cases, 12 fixed values and 40 draws each (2-core Xeon)
    kind, call, pattern = CASES[case]
    assume(not takes(kind, value))
    with pytest.raises(ValueError, match=pattern) as refused:
        call(value)
    assert "\n" not in str(refused.value)


# (call with the value, the name its message gives, int or float, low, high or
# None for no upper bound, the bounds the call takes without running anything)
BOUNDS = {
    "fock_state n": (lambda v: tt.fock_state(v, 5), "fock label", int, 0, 5, (0, 5)),
    "fock_state n_max": (lambda v: tt.fock_state(0, v), "n_max", int, 0, None, (0,)),
    "initial_state n_max": (
        lambda v: tt.initial_state("ee", [1.0], v), "n_max", int, 0, None, (0,)
    ),
    "evolve_series n0": (
        lambda v: list(tt.TcmPropagator().evolve_series(EXCITED, GT, v)), "n0", int, 0, None, ()
    ),
    "SystemShape dims": (lambda v: tt.SystemShape((2, v)), "factor dimension", int, 1, None, (1,)),
    "haar_pure_batch count": (lambda v: tt.haar_pure_batch(4, v, RNG), "count", int, 0, None, ()),
    "haar_pure_batch total_dim": (
        lambda v: tt.haar_pure_batch(v, 2, RNG), "total_dim", int, 1, None, ()
    ),
    "positivity_sweep samples": (
        lambda v: tt.positivity_sweep((2, 2, 3), v), "samples", int, 1, MAX_SAMPLES, ()
    ),
    "positivity_sweep seed": (
        lambda v: tt.positivity_sweep((2, 2, 3), 10, v), "seed", int, 0, None, ()
    ),
    "convex_roof_itangle restarts": (
        lambda v: tt.convex_roof_itangle(RHO, restarts=v), "restarts", int, 1, MAX_RESTARTS, ()
    ),
    "convex_roof_itangle seed": (
        lambda v: tt.convex_roof_itangle(RHO, restarts=1, seed=v), "seed", int, 0, None, ()
    ),
    "ScenarioConfig steps": (
        lambda v: fock_config(steps=v), "steps", int, 2, MAX_STEPS, (2, MAX_STEPS)
    ),
    "ScenarioConfig n": (lambda v: fock_config(n=v), "n", int, 0, MAX_PHOTONS, (0, MAX_PHOTONS)),
    "ScenarioConfig mean_n": (coherent_config, "mean_n", float, 0, MAX_PHOTONS, (MAX_PHOTONS,)),
    "coherent_state mean_n": (tt.coherent_state, "mean photon number", float, 0, None, (0,)),
    "scaling_study ns": (
        lambda v: tt.scaling_study((v, 10, 20)), "scaling photon numbers", int, 2, MAX_PHOTONS, ()
    ),
    "scaling_study steps": (
        lambda v: tt.scaling_study((5, 10, 20), v), "steps", int, 2, MAX_STEPS, ()
    ),
}


@pytest.mark.parametrize("case", sorted(BOUNDS))
def test_each_bound_refuses_the_value_past_it_and_takes_the_bound(case):
    call, name, kind, low, high, taken = BOUNDS[case]
    rule = f"must be >= {low}" if high is None else f"must lie in {low} .. {high}"
    for value in (low - 1,) if high is None else (low - 1, high + 1):
        with pytest.raises(ValueError) as refused:
            call(value)
        assert str(refused.value) == f"{name} {rule}, got {kind(value)!r}"
    for value in taken:
        call(value)


def test_t_max_refusal_names_its_value():
    for t_max in (-1.0, 0):
        with pytest.raises(ValueError, match=rf"^t_max must be > 0, got {float(t_max)!r}$"):
            fock_config(t_max=t_max)



ZERO = "field vector must be finite and not all zero"

# (call, its whole one-line message): a field vector, raw atomic amplitudes
# and a setting that the scenario does not take; none warns on the way
REFUSALS = {
    "initial_state field too long": (
        lambda: tt.initial_state("ee", [1.0, 0, 0], 1),
        "field vector has 3 entries, more than n_max + 1 = 2",
    ),
    "initial_state field zero": (lambda: tt.initial_state("ee", [0.0], 1), ZERO),
    "initial_state field empty": (lambda: tt.initial_state("ee", [], 1), ZERO),
    "initial_state field NaN": (lambda: tt.initial_state("ee", [1.0, math.nan], 1), ZERO),
    "initial_state field inf": (lambda: tt.initial_state("ee", [math.inf, 0.0], 1), ZERO),
    "initial_state field None": (lambda: tt.initial_state("ee", None, 1), ZERO),
    "initial_state field strings": (
        lambda: tt.initial_state("ee", ["a"], 1), "field vector must be numbers"
    ),
    "atomic_state dict": (lambda: tt.atomic_state({}), "raw atomic amplitudes must be numbers"),
    "atomic_state string entry": (
        lambda: tt.atomic_state([1, 0, 0, "x"]), "raw atomic amplitudes must be numbers"
    ),
    "preset_config unknown setting": (
        lambda: tt.preset_config("fig1", foo=1),
        "unknown setting 'foo'; choose from ['atomic', 'field', 'n', 'mean_n', 't_max', 'steps']",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_scenario_inputs_are_refused_in_their_own_words(case):
    call, message = REFUSALS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as refused:
            call()
    assert str(refused.value) == message


@pytest.mark.parametrize("rows, d", [(4, 3), (3, 3), (4, 5), (3, 5)])
def test_tcm_columns_refuses_a_non_finite_state_by_its_index(rows, d):
    # NaN or inf in one amplitude of state 5 is one line, whichever columns
    # are named and however the states are chunked: no SVD or eigensolver
    # failure and no NaN column
    amps = np.random.default_rng(3).standard_normal((8, rows, d)) + 0j
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        states = amps.copy()
        states[5, 1, d - 1] = bad
        for names in (("tau_AA",), ("tau_F_AA",), ("tau_res",), ("field_eff_dim",), COLUMNS):
            for chunks in (states, [states[:2], states[2:]]):
                # inf, unlike NaN, may warn in rho_AA's products before the check
                with np.errstate(invalid="ignore"), pytest.raises(ValueError) as refused:
                    tt.tcm_columns(chunks, names)
                assert str(refused.value) == "state 5 has a NaN or inf amplitude or norm", names

"""Every count, dimension, index and real argument of the public API refuses
a bad value with a one-line ValueError that names what it refused (numpy's
own, for an array length beyond its index range)."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import tcm_tangles as tt

FRACTION = 2.5  # bad for a whole argument, good for a real one
HUGE = 10**400  # beyond every float, but a whole number: a good seed
FIXED = [True, False, np.True_, math.nan, math.inf, -math.inf, FRACTION, "3", -1, HUGE, None, ()]
NEGATIVE = st.integers(max_value=-1) | st.floats(max_value=-0.5, allow_infinity=False)
BAD = st.sampled_from(FIXED) | NEGATIVE

PSI = tt.PureState(tt.SystemShape((2, 2, 3)), np.ones(12) / math.sqrt(12.0))
RHO = tt.partial_trace(PSI, (0, 2))
GT = np.linspace(0.0, 1.0, 3)
RNG = np.random.default_rng(0)


def fock_config(n=3, **kw):
    return tt.ScenarioConfig(atomic="ee", field="fock", n=n, **kw)


# numpy's refusal of an array length beyond its index range
TOO_LONG = "|Maximum allowed dimension exceeded"

# (kind, call with the bad value, pattern its message must contain).  A
# "whole" argument is a count, dimension or index; a "real" one takes 2.5;
# a "seed" takes any whole number >= 0, 10**400 too.
CASES = {
    "fock_state n": ("whole", lambda v: tt.fock_state(v, 5), "fock label"),
    "fock_state n_max": ("whole", lambda v: tt.fock_state(0, v), "n_max|truncation" + TOO_LONG),
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
        "whole", lambda v: tt.initial_state("ee", [1.0], v), "n_max|truncation" + TOO_LONG
    ),
    "coherent_state mean_n": ("real", tt.coherent_state, "mean photon number"),
    "approx_tau_F_AA mean_n": ("real", lambda v: tt.approx_tau_F_AA("ee", GT, v), "mean"),
    "convex_roof_itangle restarts": (
        "whole", lambda v: tt.convex_roof_itangle(RHO, restarts=v), "restarts"
    ),
    "convex_roof_itangle seed": (
        "seed", lambda v: tt.convex_roof_itangle(RHO, restarts=1, seed=v), "seed"
    ),
}


def with_every_fixed_value(test):
    for value in reversed(FIXED):
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(value=BAD)
@with_every_fixed_value
def test_bad_arguments_are_one_line_value_errors(case, value):
    # budget: about 1.2 s for all 20 cases, 12 fixed values and 40 draws each (2-core Xeon)
    kind, call, pattern = CASES[case]
    assume(not (kind == "real" and value is FRACTION) and not (kind == "seed" and value is HUGE))
    with pytest.raises(ValueError, match=pattern) as refused:
        call(value)
    assert "\n" not in str(refused.value)

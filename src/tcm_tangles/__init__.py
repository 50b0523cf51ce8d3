"""Exact entanglement sharing between two atoms and a cavity mode.

Block-diagonal propagation of the two-atom/one-mode interaction, a family
of bipartite tangle measures valid for arbitrary factor dimensions, the
rescaled tripartite residual tangle, a large-field approximation to the
field-ensemble tangle, and Haar-sampling positivity sweeps.
"""

from .dynamics import (
    ATOMIC_STATES,
    TcmPropagator,
    TruncationError,
    atomic_state,
    coherent_state,
    evolve,
    excitation_distribution,
    fock_state,
    initial_state,
)
from .markoff import approx_tau_F_AA
from .random_states import (
    SweepResult,
    haar_pure_batch,
    positivity_sweep,
)
from .scenarios import (
    CompareResult,
    PRESETS,
    ScalingResult,
    ScenarioConfig,
    ScenarioResult,
    compare_exact_vs_approx,
    preset_config,
    run_scenario,
    scaling_study,
)
from .tangles import (
    convex_roof_itangle,
    i_residual_tangle,
    pure_itangle,
    rank2_itangle,
    tangle_report,
    tcm_columns,
    wootters_tangle,
)
from .tensor import (
    DensityMatrix,
    PureState,
    SystemShape,
    partial_trace,
    purity,
)

__version__ = "0.1.0"

__all__ = [
    "ATOMIC_STATES",
    "CompareResult",
    "DensityMatrix",
    "PRESETS",
    "PureState",
    "ScalingResult",
    "ScenarioConfig",
    "ScenarioResult",
    "SweepResult",
    "SystemShape",
    "TcmPropagator",
    "TruncationError",
    "approx_tau_F_AA",
    "atomic_state",
    "coherent_state",
    "compare_exact_vs_approx",
    "convex_roof_itangle",
    "evolve",
    "excitation_distribution",
    "fock_state",
    "haar_pure_batch",
    "i_residual_tangle",
    "initial_state",
    "partial_trace",
    "positivity_sweep",
    "preset_config",
    "pure_itangle",
    "purity",
    "rank2_itangle",
    "run_scenario",
    "scaling_study",
    "tangle_report",
    "tcm_columns",
    "wootters_tangle",
]

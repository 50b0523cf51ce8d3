"""Scenario orchestration: time series, approximation comparison, scaling.

A scenario evolves a product state (two atoms) x (field) and returns all
tangles per time point as one array per column.  Values are raw: no
negative dust is clamped here.  This module writes no file; ``cli`` turns
each result into its CSV.

Presets:

* ``fig1`` -- both atoms excited, 10-photon number state, gt up to 5.
* ``fig2`` -- both atoms excited, coherent field mean 100, gt up to 80.
* ``fig3`` -- symmetric atomic superposition, coherent mean 100.
* ``fig4`` -- both atoms excited, coherent mean 500; the ``compare-approx``
  subcommand overlays the large-field approximation on it.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, fields
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import dynamics, workers
from .dynamics import (
    GUARD_BAND,
    REACH,
    TcmPropagator,
    atomic_state,
    coherent_state,
    initial_state,
)
from .markoff import approx_tau_F_AA
from .tangles import SCENARIO_COLUMNS, check_tangle_columns, tcm_columns
from .tensor import PureState, finite_real, whole_number

LOW_TAIL_MASS = 1e-32  # a coherent field's cut lower tail: below float64 resolution next to 1
MAX_STEPS = 10**7  # the grid and seven 8-byte columns, written in place, take 640 MB
# n, mean_n and scaling photon numbers, bounded before any field vector is allocated.  A run
# holds several 4*D-wide amplitude vectors over its photon window of D photons.  D is 11 for a
# number state at any n >= 5 and about 18 sqrt(mean_n) for a coherent field, but
# ``coherent_state`` builds the Poisson weights from photon 0, so the bound keeps that O(n)
# work small.  A 2000-point scenario at MAX_PHOTONS peaks at 3.2 MiB of allocations (35 MiB
# RSS) for a number state, which runs in-process, and 7.4 MiB for a coherent field, whose
# segments fork (38 MiB RSS in the calling process, 33 MiB in each worker).
MAX_PHOTONS = 10**5
# evolution chunks each forked segment must get: fewer do not repay a fork and its reaping
SEGMENT_CHUNKS = 8
BATCH = dynamics.CHUNK_BUDGET // 256  # states per tcm_columns call: rho_AA takes 256 B a state


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario: initial state and the grid of gt in [0, t_max]."""

    atomic: Union[str, tuple]
    field: str
    n: Optional[int] = None
    mean_n: Optional[float] = None
    t_max: float = 5.0
    steps: int = 2000

    def __post_init__(self):
        object.__setattr__(self, "t_max", finite_real("t_max", self.t_max))
        if self.mean_n is not None:
            object.__setattr__(self, "mean_n", finite_real("mean_n", self.mean_n))
        object.__setattr__(self, "steps", whole_number("steps", self.steps, 2, MAX_STEPS))
        if not self.t_max > 0:
            raise ValueError(f"t_max must be > 0, got {self.t_max!r}")
        if not math.isfinite(self.t_max / (self.steps - 1) * (self.steps - 1)):  # as np.linspace
            raise ValueError(f"t_max = {self.t_max!r} overflows the grid of {self.steps} points")
        if self.field not in ("fock", "coherent"):
            raise ValueError(f"field must be 'fock' or 'coherent', got {self.field!r}")
        if self.field == "fock":
            if self.n is None or self.mean_n is not None:
                raise ValueError("a fock field takes n and no mean_n")
            object.__setattr__(self, "n", whole_number("n", self.n, 0, MAX_PHOTONS))
        else:
            if self.mean_n is None or self.n is not None:
                raise ValueError("a coherent field takes mean_n and no n")
            finite_real("mean_n", self.mean_n, 0, MAX_PHOTONS)
        atomic_state(self.atomic)


PRESETS = {
    "fig1": dict(atomic="ee", field="fock", n=10, t_max=5.0, steps=2000),
    "fig2": dict(atomic="ee", field="coherent", mean_n=100.0, t_max=80.0, steps=4000),
    "fig3": dict(atomic="sym_plus", field="coherent", mean_n=100.0, t_max=80.0, steps=4000),
    "fig4": dict(atomic="ee", field="coherent", mean_n=500.0, t_max=140.0, steps=4000),
}


def preset_config(name: Optional[str] = None, **overrides) -> ScenarioConfig:
    """ScenarioConfig for a named preset, or for none, with keyword overrides.

    Choosing a field kind, by ``field`` or by its photon number, drops the
    other kind's photon number inherited from the preset.
    """
    if name is not None and name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    settings = [f.name for f in fields(ScenarioConfig)]
    unknown = [key for key in overrides if key not in settings]
    if unknown:
        raise ValueError(f"unknown setting {unknown[0]!r}; choose from {settings}")
    merged = {**PRESETS.get(name, {}), **overrides}
    kind, n, mean_n = (overrides.get(key) for key in ("field", "n", "mean_n"))
    if (kind == "fock" or n is not None) and mean_n is None:
        merged.pop("mean_n", None)
    if (kind == "coherent" or mean_n is not None) and n is None:
        merged.pop("n", None)
    for key in ("atomic", "field"):
        if merged.get(key) is None:
            raise ValueError(f"missing required setting {key!r}")
    return ScenarioConfig(**merged)


def _build_initial(config: ScenarioConfig) -> tuple[PureState, int]:
    """Initial product state on the photon window its evolution can reach,
    and n0, the photon number of the window's field index 0.

    A field on photons lo .. hi never leaves lo - REACH .. hi + REACH, so
    each edge of the field is padded by REACH + GUARD_BAND photons (clipped
    at photon 0): the guard bands start empty and the evolution cannot
    reach them.  A number state |N> keeps photons N - 5 .. N + 5.  A
    coherent field is kept from where its cumulative mass reaches
    ``LOW_TAIL_MASS`` up to the ``TAIL_MASS`` cutoff of ``coherent_state``.
    """
    if config.field == "fock":
        field, lo = np.ones(1, dtype=complex), config.n
    else:
        field = coherent_state(config.mean_n)
        lo = int(np.argmax(np.cumsum(np.abs(field) ** 2) >= LOW_TAIL_MASS))
        field = field[lo:]
    n0 = max(0, lo - REACH - GUARD_BAND)
    top = lo + field.size - 1 + REACH + GUARD_BAND
    window = np.concatenate([np.zeros(lo - n0, dtype=complex), field])
    return initial_state(config.atomic, window, top - n0), n0


@dataclass(frozen=True)
class ScenarioResult:
    """Evolved time series as one array per named column (``SCENARIO_COLUMNS``
    for a scenario), plus the measured conservation drifts."""

    config: ScenarioConfig
    gt: np.ndarray
    columns: Mapping[str, np.ndarray]
    max_norm_drift: float
    max_excitation_drift: float


def _evolve_columns(config: ScenarioConfig, names: Sequence[str]) -> ScenarioResult:
    """Evolve the configured state over gt in [0, t_max] and compute the named columns.

    The grid is cut into contiguous segments, one per allowed CPU but only
    as many as give each ``SEGMENT_CHUNKS`` evolution chunks, that run on
    forked workers (``workers.cpu_map``); a short grid runs in this process.
    A segment is evolved ``BATCH`` points at a time, one
    ``TcmPropagator._evolve_rows`` call each ((N, 3, D) chunks of the rows
    ee, eg and gg from an exchange-symmetric start), in bounded chunks whose one
    pass checks the norm and excitation distribution (to 1e-10) and the
    truncation guard at every point; the result reports the largest drifts.
    Each call's chunks go, as they are evolved, to one ``tcm_columns`` call,
    whose columns are written straight into the shared ones.  No value
    depends on the chunks, batches or segments, and a failure raises as
    with one segment: the first in grid order.  Only what the named columns
    need is computed, and every column is range-checked once (RuntimeError).
    """
    gts = np.linspace(0.0, config.t_max, config.steps)
    state, n0 = _build_initial(config)
    # one anonymous shared mapping, which forked segments fill in place
    shared = np.frombuffer(mmap.mmap(-1, 8 * len(names) * gts.size)).reshape(len(names), -1)
    columns = {k: c.view(np.int64) if k == "field_eff_dim" else c for k, c in zip(names, shared)}
    chunks = -(-gts.size // dynamics.chunk_times(state))
    segments = max(1, min(workers.allowed_cpus(), chunks // SEGMENT_CHUNKS))
    bounds = [gts.size * k // segments for k in range(segments + 1)]

    def segment(k: int) -> tuple[float, float]:
        prop = TcmPropagator()
        for lo in range(bounds[k], bounds[k + 1], BATCH):
            hi = min(lo + BATCH, bounds[k + 1])
            part = tcm_columns(prop._evolve_rows(state, gts[lo:hi], n0), names)
            for name in names:
                columns[name][lo:hi] = part[name]
        return prop.max_norm_drift, prop.max_excitation_drift

    norm_drifts, excitation_drifts = zip(*workers.cpu_map(segment, range(segments)))
    check_tangle_columns(columns)
    return ScenarioResult(
        config=config,
        gt=gts,
        columns=columns,
        max_norm_drift=max(norm_drifts),
        max_excitation_drift=max(excitation_drifts),
    )


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Every ``SCENARIO_COLUMNS`` entry at each grid point, checked as in
    ``_evolve_columns``."""
    return _evolve_columns(config, SCENARIO_COLUMNS)


@dataclass(frozen=True)
class CompareResult:
    """Exact versus approximate field-ensemble tangle over one grid."""

    config: ScenarioConfig
    gt: np.ndarray
    exact: np.ndarray
    approx: np.ndarray
    abs_diff: np.ndarray
    window: tuple[float, float]
    window_sup_norm: float


def compare_exact_vs_approx(config: ScenarioConfig) -> CompareResult:
    """Exact vs large-field approximate tangle, with the sup-norm over the
    window gt in [0.2, 0.8] * 2*pi*sqrt(mean_n).

    The window contains the collision of the m = +1 and m = -1 pointer
    fields at gt = pi*sqrt(mean_n), where the approximation does not hold,
    so ``window_sup_norm`` includes a collision residual of about 0.078
    that does not fall with mean_n.  Away from that collision the
    residual falls roughly as 1/mean_n.

    The approximation over the grid and the window on it depend only on
    the config and are computed before the exact run, which computes only
    ``tau_F_AA`` through ``_evolve_columns``.
    """
    if config.field != "coherent":
        raise ValueError("the approximation comparison needs a coherent field")
    gts = np.linspace(0.0, config.t_max, config.steps)
    # raises first for a singlet component, mean_n <= 1/2 or a |gt| that overflows t'
    approx = approx_tau_F_AA(config.atomic, gts, config.mean_n)
    revival_gt = 2.0 * math.pi * math.sqrt(config.mean_n)
    window = (0.2 * revival_gt, 0.8 * revival_gt)
    mask = (gts >= window[0]) & (gts <= window[1])
    if not mask.any():
        raise ValueError(f"grid [0, {config.t_max}] misses the comparison window {window}")
    exact = _evolve_columns(config, ("tau_F_AA",)).columns["tau_F_AA"]
    abs_diff = np.abs(exact - approx)
    return CompareResult(
        config=config,
        gt=gts,
        exact=exact,
        approx=approx,
        abs_diff=abs_diff,
        window=window,
        window_sup_norm=float(np.max(abs_diff[mask])),
    )


@dataclass(frozen=True)
class ScalingResult:
    """Peak atom-atom tangle per photon number and the log-log slope."""

    ns: tuple[int, ...]
    peaks: np.ndarray
    slope: float


def scaling_study(ns: Sequence[int], steps: int = 400) -> ScalingResult:
    """Peak atom-atom tangle of (both ground) x |n> over one beat period.

    The three coupled levels beat at sqrt(4n-2) in gt, so one period of the
    slowest harmonic is scanned per n and the peak Wootters tangle
    recorded; the log-log slope against n estimates the falloff power.
    """
    ns = tuple(whole_number("scaling photon numbers", n, 2, MAX_PHOTONS) for n in ns)
    if len(set(ns)) < 3:
        raise ValueError("scaling needs at least 3 distinct photon numbers")
    steps = whole_number("steps", steps, 2, MAX_STEPS)

    peaks = []
    for n in ns:
        period = 2.0 * math.pi / math.sqrt(4.0 * n - 2.0)
        config = ScenarioConfig(atomic="gg", field="fock", n=n, t_max=period, steps=steps)
        peaks.append(_evolve_columns(config, ("tau_AA",)).columns["tau_AA"].max())
    peaks = np.array(peaks)
    slope = float(np.polyfit(np.log(np.array(ns, dtype=float)), np.log(peaks), 1)[0])
    return ScalingResult(ns=ns, peaks=peaks, slope=slope)


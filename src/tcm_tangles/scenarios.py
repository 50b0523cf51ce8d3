"""Scenario orchestration: time series, approximation comparison, scaling.

A scenario evolves a product state (two atoms) x (field) and reports all
tangles per time point as CSV (`#`-comment config echo, then one row per
point).  Tangle columns are written as computed except that negative dust
in (-1e-9, 0) is clamped to zero at the presentation layer only.

Presets:

* ``fig1`` -- both atoms excited, 10-photon number state, gt up to 5.
* ``fig2`` -- both atoms excited, coherent field mean 100, gt up to 80.
* ``fig3`` -- symmetric atomic superposition, coherent mean 100.
* ``fig4`` -- both atoms excited, coherent mean 500; the ``compare-approx``
  subcommand overlays the large-field approximation on it.
"""

from __future__ import annotations

import dataclasses
import math
import mmap
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import workers
from .dynamics import (
    CHUNK_BUDGET,
    GUARD_BAND,
    REACH,
    TAIL_MASS,
    TcmPropagator,
    atomic_state,
    coherent_state,
    initial_state,
    whole_number,
)
from .markoff import approx_tau_F_AA
from .tangles import SCENARIO_COLUMNS, TANGLE_FLOOR, check_tangle_columns
from .tangles import amplitude_stage, rho_aa_stage
from .tensor import RANK_TOL, PureState

LOW_TAIL_MASS = 1e-32  # a coherent field's cut lower tail: below float64 resolution next to 1
MAX_STEPS = 10**7  # the grid and seven 8-byte columns, written in place, take 640 MB
MAX_PHOTONS = 10**5  # n, mean_n and scaling photon numbers; see _check_photons
# evolution chunks each forked segment must get: fewer do not repay a fork and its reaping
SEGMENT_CHUNKS = 8
CSV_BLOCK = 10_000  # CSV rows formatted at a time; whole-column lists cost about 200 B a row
# every time is gt; the echo keeps the unit line, which readers of the CSVs expect
_G_ECHO = "# g = 1.0"


def _check_steps(steps) -> int:
    steps = whole_number("steps", steps)
    if not 2 <= steps <= MAX_STEPS:
        raise ValueError(f"steps must lie in 2 .. {MAX_STEPS}, got {steps}")
    return steps


def _check_photons(name: str, value, low: int = 0) -> None:
    """Bound a photon number before any field vector is allocated.

    A run holds several 4*D-wide amplitude vectors over its photon window
    of D photons.  D is 11 for a number state at any n >= 5 and about
    18 sqrt(mean_n) for a coherent field, but
    ``coherent_state`` builds the Poisson weights from photon 0, so the
    bound keeps that O(n) work small.  A 2000-point scenario at MAX_PHOTONS
    peaks at 3.1 MiB of allocations (35 MiB RSS) for a number state and
    6.4 MiB (44 MiB RSS) for a coherent field.
    """
    if not low <= value <= MAX_PHOTONS:
        raise ValueError(f"{name} must lie in {low} .. {MAX_PHOTONS}, got {value}")


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario: initial state, grid and output path.

    The grid covers gt in [0, t_max].
    """

    atomic: Union[str, tuple]
    field: str
    n: Optional[int] = None
    mean_n: Optional[float] = None
    t_max: float = 5.0
    steps: int = 2000
    out: Optional[str] = None

    def __post_init__(self):
        for name in ("t_max", "mean_n"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        object.__setattr__(self, "steps", _check_steps(self.steps))
        if not self.t_max > 0:
            raise ValueError("t_max must be positive")
        if not math.isfinite(self.t_max / (self.steps - 1) * (self.steps - 1)):  # as np.linspace
            raise ValueError(f"t_max = {self.t_max!r} overflows the grid of {self.steps} points")
        if self.field not in ("fock", "coherent"):
            raise ValueError(f"field must be 'fock' or 'coherent', got {self.field!r}")
        if self.field == "fock":
            if self.n is None or self.mean_n is not None:
                raise ValueError("a fock field takes n and no mean_n")
            object.__setattr__(self, "n", whole_number("n", self.n))
            _check_photons("n", self.n)
        else:
            if self.mean_n is None or self.n is not None:
                raise ValueError("a coherent field takes mean_n and no n")
            _check_photons("mean_n", self.mean_n)
        atomic_state(self.atomic)


PRESETS = {
    "fig1": dict(atomic="ee", field="fock", n=10, t_max=5.0, steps=2000),
    "fig2": dict(atomic="ee", field="coherent", mean_n=100.0, t_max=80.0, steps=4000),
    "fig3": dict(atomic="sym_plus", field="coherent", mean_n=100.0, t_max=80.0, steps=4000),
    "fig4": dict(atomic="ee", field="coherent", mean_n=500.0, t_max=140.0, steps=4000),
}


def preset_config(name: str, **overrides) -> ScenarioConfig:
    """ScenarioConfig for a named preset, with keyword overrides."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return ScenarioConfig(**{**PRESETS[name], **overrides})


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

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


def _evolve_columns(config: ScenarioConfig, names: Sequence[str]) -> ScenarioResult:
    """Evolve the configured state over gt in [0, t_max] and compute the named columns.

    The grid is cut into contiguous segments, one per allowed CPU but only
    as many as give each ``SEGMENT_CHUNKS`` evolution chunks, that run on
    forked workers (``workers.cpu_map``); a short grid runs in this process.
    A segment is evolved and measured in bounded chunks by
    ``TcmPropagator.evolve_series``, whose one pass per chunk checks the
    norm and excitation distribution (to 1e-10) and the truncation guard
    at every point; the result reports the largest drifts.  Each chunk runs
    only the ``amplitude_stage`` of ``tcm_columns``, writing rho_AA (256 bytes
    a state) into one buffer of ``CHUNK_BUDGET`` // 256 states; ``rho_aa_stage``
    reads it when it fills or the segment ends and writes straight into the
    columns.  No value depends on the chunks, batches or segments, and a
    failure raises as with one segment: the first in grid order.  Only what
    the named columns need is computed, and every column is range-checked
    once (RuntimeError).
    """
    gts = np.linspace(0.0, config.t_max, config.steps)
    state, n0 = _build_initial(config)
    # one anonymous shared mapping, which forked segments fill in place
    shared = np.frombuffer(mmap.mmap(-1, 8 * len(names) * gts.size)).reshape(len(names), -1)
    columns = {k: c.view(np.int64) if k == "field_eff_dim" else c for k, c in zip(names, shared)}
    chunks = -(-gts.size * state.amplitudes.nbytes // CHUNK_BUDGET)
    segments = max(1, min(workers.allowed_cpus(), chunks // SEGMENT_CHUNKS))
    bounds = [gts.size * k // segments for k in range(segments + 1)]

    def segment(k: int) -> tuple[float, float]:
        lo, hi = bounds[k], bounds[k + 1]
        prop = TcmPropagator()
        rho = np.empty((min(max(1, CHUNK_BUDGET // 256), hi - lo), 4, 4), dtype=complex)
        tau_aa = np.empty(len(rho))
        filled = 0
        for amps in prop.evolve_series(state, gts[lo:hi], n0):
            while len(amps):
                take = min(len(amps), len(rho) - filled)
                cols, _ = amplitude_stage(amps[:take], names, out=rho[filled:filled + take])
                if cols:
                    tau_aa[filled:filled + take] = cols["tau_AA"]
                amps, filled = amps[take:], filled + take
                if filled == len(rho) or lo + filled == hi:
                    cols = {"tau_AA": tau_aa[:filled]}  # read only where it was computed
                    part = rho_aa_stage(cols, np.moveaxis(rho[:filled], 0, -1), names)
                    for name in names:
                        columns[name][lo:lo + filled] = part[name]
                    lo, filled = lo + filled, 0
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
    ``_evolve_columns``; writes CSV to ``config.out``."""
    result = _evolve_columns(config, SCENARIO_COLUMNS)
    if config.out:
        _write_rows(config.out, _config_echo(config), {"gt": result.gt, **result.columns})
    return result


@dataclass(frozen=True)
class CompareResult:
    """Exact versus approximate field-ensemble tangle over one grid."""

    config: ScenarioConfig
    gt: np.ndarray
    exact: np.ndarray
    approx: np.ndarray
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

    The field, the approximation's domain and the window on the grid
    depend only on the config and are checked before the exact run, which
    computes only ``tau_F_AA`` through ``_evolve_columns``.
    """
    if config.field != "coherent":
        raise ValueError("the approximation comparison needs a coherent field")
    # a singlet component, or mean_n <= 1/2, is outside the approximation
    approx_tau_F_AA(config.atomic, 0.0, config.mean_n)
    gts = np.linspace(0.0, config.t_max, config.steps)
    revival_gt = 2.0 * math.pi * math.sqrt(config.mean_n)
    window = (0.2 * revival_gt, 0.8 * revival_gt)
    mask = (gts >= window[0]) & (gts <= window[1])
    if not mask.any():
        raise ValueError(f"grid [0, {config.t_max}] misses the comparison window {window}")
    # the exact run raises OverflowError first for a grid too long to evolve
    exact = _evolve_columns(config, ("tau_F_AA",)).column("tau_F_AA")
    approx = approx_tau_F_AA(config.atomic, gts, config.mean_n)
    abs_diff = np.abs(exact - approx)
    sup = float(np.max(abs_diff[mask]))
    if config.out:
        lines = _config_echo(config)
        lines.append(f"# window_gt = [{window[0]:.12g}, {window[1]:.12g}]")
        lines.append(f"# window_sup_norm = {sup:.12g}")
        columns = dict(gt=gts, tau_F_AA_exact=exact, tau_F_AA_approx=approx, abs_diff=abs_diff)
        _write_rows(config.out, lines, columns)
    return CompareResult(
        config=config,
        gt=gts,
        exact=exact,
        approx=approx,
        window=window,
        window_sup_norm=sup,
    )


@dataclass(frozen=True)
class ScalingResult:
    """Peak atom-atom tangle per photon number and the log-log slope."""

    ns: tuple[int, ...]
    peaks: np.ndarray
    slope: float


def scaling_study(
    ns: Sequence[int],
    steps: int = 400,
    out: Optional[str] = None,
) -> ScalingResult:
    """Peak atom-atom tangle of (both ground) x |n> over one beat period.

    The three coupled levels beat at sqrt(4n-2) in gt, so one period of the
    slowest harmonic is scanned per n and the peak Wootters tangle
    recorded; the log-log slope against n estimates the falloff power.
    """
    ns = tuple(whole_number("scaling photon numbers", n) for n in ns)
    if len(set(ns)) < 3:
        raise ValueError("scaling needs at least 3 distinct photon numbers")
    for n in ns:
        _check_photons("scaling photon numbers", n, low=2)
    steps = _check_steps(steps)

    peaks = []
    for n in ns:
        period = 2.0 * math.pi / math.sqrt(4.0 * n - 2.0)
        config = ScenarioConfig(atomic="gg", field="fock", n=n, t_max=period, steps=steps)
        peaks.append(_evolve_columns(config, ("tau_AA",)).column("tau_AA").max())
    peaks = np.array(peaks)
    slope = float(np.polyfit(np.log(np.array(ns, dtype=float)), np.log(peaks), 1)[0])
    if out:
        lines = [
            "# tcm-tangles scaling",
            "# atomic = gg",
            _G_ECHO,
            f"# steps = {steps}",
            f"# loglog_slope = {slope:.12g}",
        ]
        _write_rows(out, lines, {"n": ns, "peak_tau_AA": peaks})
    return ScalingResult(ns=ns, peaks=peaks, slope=slope)


def revival_peak_time(
    gt: np.ndarray,
    inversion: np.ndarray,
    search: tuple[float, float] = (15.0, 80.0),
    window_gt: float = 1.0,
) -> float:
    """Location of the largest inversion-envelope swing inside ``search``.

    The envelope is the peak-to-peak amplitude over a sliding window of
    width ``window_gt`` (a few fast oscillation periods).
    """
    gt = np.asarray(gt, dtype=float)
    inversion = np.asarray(inversion, dtype=float)
    if gt.size < 2:
        raise ValueError(f"the grid needs at least 2 points, got {gt.size}")
    if inversion.shape != gt.shape:
        raise ValueError(f"inversion shape {inversion.shape} does not match grid shape {gt.shape}")
    dt = gt[1] - gt[0]
    w = max(3, int(round(window_gt / dt)))
    if w > gt.size:
        raise ValueError("window wider than the whole grid")
    windows = np.lib.stride_tricks.sliding_window_view(inversion, w)
    envelope = windows.max(axis=-1) - windows.min(axis=-1)
    centers = gt[w // 2 : w // 2 + envelope.size]
    mask = (centers >= search[0]) & (centers <= search[1])
    if not mask.any():
        raise ValueError(f"search range {search} outside the grid")
    idx = np.nonzero(mask)[0]
    return float(centers[idx[np.argmax(envelope[idx])]])


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def _config_echo(config: ScenarioConfig) -> list[str]:
    lines = ["# tcm-tangles"]
    for field in dataclasses.fields(config):
        if field.name == "t_max":
            lines.append(_G_ECHO)
        if field.name == "out":
            continue
        lines.append(f"# {field.name} = {getattr(config, field.name)}")
    # fixed, like the unit line
    lines += [f"# tail_tol = {TAIL_MASS:g}", f"# rank_tol = {RANK_TOL:g}"]
    return lines


def _write_rows(path: str, lines: list[str], columns: Mapping[str, Sequence]) -> None:
    """The comment ``lines``, a header of the ``columns`` names, then one row per index.

    Integer columns print as integers, float columns to 12 significant
    digits, and a tangle column (one whose name holds ``tau_``) has its
    negative dust in (TANGLE_FLOOR, 0) clamped to 0.  Rows are
    formatted ``CSV_BLOCK`` at a time, so no copy of a whole column is held.
    """
    arrays = [np.asarray(values) for values in columns.values()]
    tangles = ["tau_" in name for name in columns]
    template = ",".join("%d" if a.dtype.kind in "iu" else "%.12g" for a in arrays) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(arrays[0]), CSV_BLOCK):
            cells = []
            for a, is_tangle in zip(arrays, tangles):
                a = a[start : start + CSV_BLOCK]
                if is_tangle:
                    a = np.where((TANGLE_FLOOR < a) & (a < 0.0), 0.0, a)
                cells.append(a.tolist())
            fh.writelines(template % row for row in zip(*cells))

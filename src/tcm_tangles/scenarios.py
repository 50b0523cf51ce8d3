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
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .dynamics import (
    TcmPropagator,
    atomic_state,
    coherent_state,
    fock_state,
    initial_state,
)
from .markoff import approx_tau_F_AA, jx_coefficients
from .tangles import (
    SCENARIO_COLUMNS,
    TANGLE_FLOOR,
    _atom_marginal,
    _cut_tangles,
    _tcm_columns,
    _wootters_batch,
    check_tangle_columns,
)
from .tensor import DEFAULT_RANK_TOL, PureState, check_rank_tol

FOCK_PAD = 5
COHERENT_PAD = 2
MAX_STEPS = 10**7  # the grid plus seven float64 columns stay under 640 MB
MAX_PHOTONS = 10**5  # n, mean_n and scaling photon numbers; see _check_photons
# every time is gt; the echo keeps the unit line, which readers of the CSVs expect
_G_ECHO = "# g = 1.0"


class ConfigError(ValueError):
    """Invalid scenario or CLI configuration."""


def _integer(name: str, value) -> int:
    """``value`` as an int; ConfigError unless it is a whole number (NaN and inf are not)."""
    try:
        if value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _check_steps(steps) -> int:
    steps = _integer("steps", steps)
    if not 2 <= steps <= MAX_STEPS:
        raise ConfigError(f"steps must lie in 2 .. {MAX_STEPS}, got {steps}")
    return steps


def _check_photons(name: str, value, low: int = 0) -> None:
    """Bound a photon number before any field vector is allocated.

    The field cutoff D grows with it, and a run holds several 4*D-wide
    amplitude vectors: about 560 bytes per photon, so a run at MAX_PHOTONS
    peaks at 55 MiB of allocations (139 MiB RSS with the interpreter).
    """
    if not low <= value <= MAX_PHOTONS:
        raise ConfigError(f"{name} must lie in {low} .. {MAX_PHOTONS}, got {value}")


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario: initial state, grid, output path and tolerances.

    The grid covers gt in [0, t_max].
    """

    atomic: Union[str, tuple]
    field: str
    n: Optional[int] = None
    mean_n: Optional[float] = None
    t_max: float = 5.0
    steps: int = 2000
    out: Optional[str] = None
    tail_tol: float = 1e-10
    rank_tol: float = DEFAULT_RANK_TOL

    def __post_init__(self):
        for name in ("t_max", "mean_n"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        object.__setattr__(self, "steps", _check_steps(self.steps))
        if not self.t_max > 0:
            raise ConfigError("t_max must be positive")
        if self.field not in ("fock", "coherent"):
            raise ConfigError(f"field must be 'fock' or 'coherent', got {self.field!r}")
        if self.field == "fock":
            if self.n is None or self.mean_n is not None:
                raise ConfigError("a fock field takes n and no mean_n")
            object.__setattr__(self, "n", _integer("n", self.n))
            _check_photons("n", self.n)
        else:
            if self.mean_n is None or self.n is not None:
                raise ConfigError("a coherent field takes mean_n and no n")
            _check_photons("mean_n", self.mean_n)
        if not 0.0 < self.tail_tol < 1.0:
            raise ConfigError("tail_tol must lie strictly between 0 and 1")
        try:
            check_rank_tol(self.rank_tol)
            atomic_state(self.atomic)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


# what a scenario config file may set, and the type each value is read as
SCENARIO_TYPES = {
    "atomic": str,
    "field": str,
    "n": int,
    "mean_n": float,
    "t_max": float,
    "steps": int,
    "tail_tol": float,
    "rank_tol": float,
}


PRESETS = {
    "fig1": dict(atomic="ee", field="fock", n=10, t_max=5.0, steps=2000),
    "fig2": dict(atomic="ee", field="coherent", mean_n=100.0, t_max=80.0, steps=4000),
    "fig3": dict(atomic="sym_plus", field="coherent", mean_n=100.0, t_max=80.0, steps=4000),
    "fig4": dict(atomic="ee", field="coherent", mean_n=500.0, t_max=140.0, steps=4000),
}


def preset_config(name: str, **overrides) -> ScenarioConfig:
    """ScenarioConfig for a named preset, with keyword overrides."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return ScenarioConfig(**{**PRESETS[name], **overrides})


def _build_initial(config: ScenarioConfig) -> PureState:
    """Initial product state with a field truncation that keeps the
    guard band clear for number states yet still watches coherent tails."""
    if config.field == "fock":
        n_max = config.n + FOCK_PAD
        field = fock_state(config.n, n_max)
    else:
        field, n_field = coherent_state(config.mean_n, config.tail_tol)
        n_max = max(n_field, 3) + COHERENT_PAD
    return initial_state(config.atomic, field, n_max)


@dataclass(frozen=True)
class ScenarioResult:
    """Evolved time series as one array per ``SCENARIO_COLUMNS`` entry,
    plus the measured conservation drifts."""

    config: ScenarioConfig
    gt: np.ndarray
    columns: Mapping[str, np.ndarray]
    max_norm_drift: float
    max_excitation_drift: float

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Evolve the configured state and compute every column at each grid point.

    The grid is evolved and measured in bounded chunks by
    ``TcmPropagator.evolve_series``, whose one pass per chunk checks the
    norm and excitation distribution (to 1e-10) and the truncation guard
    at every point; the result reports its largest drifts.  Every column
    is range-checked (ConfigError naming ``rank_tol``: a coarse cutoff
    pushes ``tau_res`` below its floor).  Writes CSV to ``config.out``.
    """
    state = _build_initial(config)
    gts = np.linspace(0.0, config.t_max, config.steps)
    prop = TcmPropagator()
    chunks = [_tcm_columns(a, config.rank_tol) for a in prop.evolve_series(state, gts)]
    columns = {name: np.concatenate([c[name] for c in chunks]) for name in SCENARIO_COLUMNS}
    try:
        check_tangle_columns(columns)
    except ValueError as exc:
        raise ConfigError(f"{exc} at rank_tol = {config.rank_tol:g}") from None

    result = ScenarioResult(
        config=config,
        gt=gts,
        columns=columns,
        max_norm_drift=prop.max_norm_drift,
        max_excitation_drift=prop.max_excitation_drift,
    )
    if config.out:
        _write_scenario_csv(result)
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

    Everything that can make the comparison fail (the field, the
    approximation's domain and the window on the grid) depends only on
    the config and is checked before the exact run.  That run computes only
    ``tau_F_AA``, under ``TcmPropagator.evolve_series``'s per-point checks
    (norm, excitation distribution, truncation guard) and the column range
    check, and never reads ``rank_tol``.
    """
    if config.field != "coherent":
        raise ConfigError("the approximation comparison needs a coherent field")
    coeffs = jx_coefficients(atomic_state(config.atomic))
    try:  # a singlet component, or mean_n <= 1/2, is outside the approximation
        approx_tau_F_AA(coeffs, 0.0, config.mean_n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    gts = np.linspace(0.0, config.t_max, config.steps)
    revival_gt = 2.0 * math.pi * math.sqrt(config.mean_n)
    window = (0.2 * revival_gt, 0.8 * revival_gt)
    mask = (gts >= window[0]) & (gts <= window[1])
    if not mask.any():
        raise ConfigError(f"grid [0, {config.t_max}] misses the comparison window {window}")
    # the exact run raises OverflowError first for a grid too long to evolve
    series = TcmPropagator().evolve_series(_build_initial(config), gts)
    exact = np.concatenate([_cut_tangles(_atom_marginal(amps)[1])[1] for amps in series])
    check_tangle_columns({"tau_F_AA": exact})
    approx = approx_tau_F_AA(coeffs, gts, config.mean_n)
    sup = float(np.max(np.abs(exact - approx)[mask]))
    result = CompareResult(
        config=config,
        gt=gts,
        exact=exact,
        approx=approx,
        window=window,
        window_sup_norm=sup,
    )
    if config.out:
        _write_compare_csv(result)
    return result


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
    ns = tuple(_integer("scaling photon numbers", n) for n in ns)
    if len(set(ns)) < 3:
        raise ConfigError("scaling needs at least 3 distinct photon numbers")
    for n in ns:
        _check_photons("scaling photon numbers", n, low=2)
    steps = _check_steps(steps)

    peaks = []
    for n in ns:
        state = initial_state("gg", fock_state(n, n + FOCK_PAD), n + FOCK_PAD)
        period = 2.0 * math.pi / math.sqrt(4.0 * n - 2.0)
        times = np.linspace(0.0, period, steps)
        chunks = TcmPropagator().evolve_series(state, times)
        peaks.append(max(float(np.max(_wootters_batch(a.reshape(len(a), 4, -1)))) for a in chunks))
    peaks = np.array(peaks)
    slope = float(np.polyfit(np.log(np.array(ns, dtype=float)), np.log(peaks), 1)[0])

    result = ScalingResult(ns=ns, peaks=peaks, slope=slope)
    if out:
        _write_scaling_csv(result, steps, out)
    return result


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

def _fmt(value) -> str:
    """Presentation formatting; clamps negative dust above -1e-9 to 0."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if TANGLE_FLOOR < x < 0.0:
        x = 0.0
    return f"{x:.12g}"


def _config_echo(config: ScenarioConfig) -> list[str]:
    lines = ["# tcm-tangles"]
    for field in dataclasses.fields(config):
        if field.name == "t_max":
            lines.append(_G_ECHO)
        if field.name == "out":
            continue
        lines.append(f"# {field.name} = {getattr(config, field.name)}")
    return lines


def _write_rows(path: str, lines: list[str], header: str, rows) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_scenario_csv(result: ScenarioResult) -> None:
    rows = zip(result.gt, *(result.columns[name] for name in SCENARIO_COLUMNS))
    _write_rows(
        result.config.out,
        _config_echo(result.config),
        "gt," + ",".join(SCENARIO_COLUMNS),
        rows,
    )


def _write_compare_csv(result: CompareResult) -> None:
    rows = zip(result.gt, result.exact, result.approx, np.abs(result.exact - result.approx))
    lines = _config_echo(result.config)
    lines.append(f"# window_gt = [{result.window[0]:.12g}, {result.window[1]:.12g}]")
    lines.append(f"# window_sup_norm = {result.window_sup_norm:.12g}")
    _write_rows(
        result.config.out, lines, "gt,tau_F_AA_exact,tau_F_AA_approx,abs_diff", rows
    )


def _write_scaling_csv(result: ScalingResult, steps: int, out: str) -> None:
    lines = [
        "# tcm-tangles scaling",
        "# atomic = gg",
        _G_ECHO,
        f"# steps = {steps}",
        f"# loglog_slope = {result.slope:.12g}",
    ]
    rows = [[n, p] for n, p in zip(result.ns, result.peaks)]
    _write_rows(out, lines, "n,peak_tau_AA", rows)


# ---------------------------------------------------------------------------
# flat key=value config files
# ---------------------------------------------------------------------------

def load_config(path: str, types: Mapping[str, type]) -> dict:
    """Flat key=value file (``#`` comments, blank lines allowed) -> dict.

    ``types`` maps each key the caller accepts to the type its value is
    converted to; any other key is an error.
    """
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                if "=" not in text:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
                key, _, raw = (part.strip() for part in text.partition("="))
                if key not in types:
                    raise ConfigError(f"unknown config key {key!r}")
                try:
                    values[key] = types[key](raw)
                except ValueError:
                    raise ConfigError(
                        f"config key {key} expects {types[key].__name__}, got {raw!r}"
                    ) from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return values

"""Output checks for the benchmark workloads, against references built here.

The scenario reference evolves the initial state with a dense
diagonalization of the full (4D x 4D) truncated Hamiltonian, built below
from the model's definition, so it shares no code with the block
propagator under test.  Its field cutoff is chosen by its own, tighter
tail rule.  From the reference state the checks recompute the pure-state
tangles, the inversion, the field's effective dimension and the Wootters
tangle (in the ensemble form, from singular values, without the matrix
square root the package uses).  Every CSV row is also checked against its
own cells: the grid, the residual-tangle formula, the large-field closed
form and the window sup-norm.  Two checks call the package, as the
independent algorithm they name: ``tau_AF`` against the numerical convex
roof at a few points, and the sweep's minimum against the scalar
``i_residual_tangle`` of the written argmin state.

Every check adds one attempt per row or point it covers to a ``Tally``;
the benchmark's ``failed_ratio`` is failed / attempted.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

RANK_TOL = 1e-10  # the presets' rank_tol
REFERENCE_TAIL = 1e-12  # Poisson mass the reference field may drop (the package drops 1e-10)
SAMPLE_STRIDE = 20  # the reference covers every 20th grid point and the last
ROOF_FRACTIONS = (0.25, 0.5, 0.75)  # grid positions of the convex-roof checks

# Tolerances.  Truncation (1e-10 of Poisson tail) and the CSV's 12
# significant digits leave ~1e-10; the seed Wootters kernel drifts by up to
# ~4e-8; the rank-2 closed form loses up to ~1e-6 near pure pairs.  A wrong
# column misses by far more than any of these.
TOL_PURE = 1e-8
TOL_WOOTTERS = 1e-7
TOL_ROOF = 1e-6
TOL_SAME_FILE = 1e-8  # a cell recomputed from other cells of the same file
TOL_SWEEP = 1e-6
SWEEP_NEGATIVE_THRESHOLD = -1e-9

SCENARIO_HEADER = "gt,tau_F_AA,tau_A_rest,tau_AA,tau_AF,tau_res,inversion,field_eff_dim"
COMPARE_HEADER = "gt,tau_F_AA_exact,tau_F_AA_approx,abs_diff"

# sigma_y (x) sigma_y in the (ee, eg, ge, gg) basis
_YY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))


@dataclass
class Tally:
    """Checks attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def check(self, label: str, ok, detail: str = "") -> None:
        ok = np.atleast_1d(np.asarray(ok, dtype=bool))
        bad = int(ok.size - np.count_nonzero(ok))
        self.attempted += ok.size
        self.failed += bad
        if bad and len(self.messages) < 20:
            where = np.flatnonzero(~ok)[:3].tolist()
            self.messages.append(f"{label}: {bad} of {ok.size} failed at {where} {detail}".rstrip())

    def close(self, label: str, got, want, tol: float) -> None:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        err = np.abs(got - want)
        worst = float(np.nanmax(err)) if err.size else 0.0
        self.check(label, err <= tol, f"(max error {worst:.3e}, tol {tol:g})")

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for message in other.messages:
            if len(self.messages) < 20:
                self.messages.append(message)


@dataclass(frozen=True)
class ScenarioSpec:
    """The preset a scenario workload runs: both atoms excited, coherent field, g = 1."""

    mean_n: float
    t_max: float
    steps: int
    compare: bool

    def echo(self) -> dict[str, str]:
        """Config-echo lines the CSV must carry.  Other keys may appear too:
        the echo lists every config field, and fields nothing reads may go."""
        return {
            "atomic": "ee",
            "field": "coherent",
            "mean_n": repr(float(self.mean_n)),
            "g": "1.0",
            "t_max": repr(float(self.t_max)),
            "steps": str(self.steps),
        }

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.steps)


# ---------------------------------------------------------------------------
# reference dynamics
# ---------------------------------------------------------------------------

def coherent_field(mean_n: float, tail: float = REFERENCE_TAIL) -> np.ndarray:
    """Coherent amplitudes sqrt(Poisson), cut where the mass above drops below ``tail``."""
    top = int(mean_n + 30.0 * math.sqrt(mean_n) + 60)
    log_p = np.array([k * math.log(mean_n) - math.lgamma(k + 1.0) - mean_n for k in range(top + 1)])
    p = np.exp(log_p)
    above = np.append(np.cumsum(p[::-1])[::-1][1:], 0.0)
    cutoff = int(np.argmax(above < tail))
    amps = np.sqrt(p[: cutoff + 1])
    return amps / np.linalg.norm(amps)


def hamiltonian(field_dim: int, g: float = 1.0) -> np.ndarray:
    """g * sum_j (sigma-_j a^dag + h.c.) on (atom 1, atom 2, field), atom index e=0, g=1."""
    a_dag = np.diag(np.sqrt(np.arange(1.0, field_dim)), k=-1)
    lower = np.array([[0.0, 0.0], [1.0, 0.0]])  # |g><e|
    eye2 = np.eye(2)
    h = np.kron(np.kron(lower, eye2), a_dag) + np.kron(np.kron(eye2, lower), a_dag)
    return g * (h + h.T)


def wootters_ensemble(m: np.ndarray) -> np.ndarray:
    """Two-qubit tangle of rho = M M^dag for a (..., 4, D) stack, D >= 4.

    With rho = W W^dag, the l_i are the singular values of W^T (sy x sy) W;
    W = U S from the thin SVD of M is 4 x 4.
    """
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    w = u * s[..., None, :]
    lam = np.linalg.svd(w.swapaxes(-1, -2) @ _YY @ w, compute_uv=False)
    c = lam[..., 0] - lam[..., 1:].sum(axis=-1)
    return np.maximum(c, 0.0) ** 2


def _purity(rho: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...ji->...", rho, rho).real


@dataclass
class Reference:
    """Reference values at ``index`` (rows of the grid); eff_dim is -1 where
    an eigenvalue sits within a decade of rank_tol and the count is ambiguous."""

    spec: ScenarioSpec
    field_dim: int
    index: np.ndarray
    tau_F_AA: np.ndarray
    tau_A_rest: np.ndarray
    tau_AA: np.ndarray
    inversion: np.ndarray
    eff_dim: np.ndarray
    roof_index: np.ndarray
    roof_tau_AF: np.ndarray


def build_reference(spec: ScenarioSpec, roof: bool = True) -> Reference:
    field = coherent_field(spec.mean_n)
    d = field.size
    energies, vecs = np.linalg.eigh(hamiltonian(d))
    psi0 = np.kron(np.array([1.0, 0.0, 0.0, 0.0]), field)  # |ee> x coherent
    coeffs = vecs.T @ psi0

    grid = spec.grid()
    index = np.unique(np.append(np.arange(0, spec.steps, SAMPLE_STRIDE), spec.steps - 1))
    phased = np.exp(-1j * np.outer(energies, grid[index])) * coeffs[:, None]
    psi = (vecs @ phased.real + 1j * (vecs @ phased.imag)).T  # (points, 4D)

    m = psi.reshape(-1, 4, d)
    t = psi.reshape(-1, 2, 2, d)
    rho_aa = m @ m.conj().swapaxes(-1, -2)
    rho_a1 = np.einsum("nijk,nljk->nil", t, t.conj())
    rho_a2 = np.einsum("nijk,nimk->njm", t, t.conj())
    if np.max(np.abs(rho_a1 - rho_a2)) > 1e-10:
        raise RuntimeError("reference state lost the exchange symmetry of |ee>")

    evals = np.linalg.eigvalsh(rho_aa)
    ambiguous = np.any((evals > RANK_TOL / 10) & (evals < RANK_TOL * 10), axis=-1)
    eff_dim = np.where(ambiguous, -1, np.count_nonzero(evals > RANK_TOL, axis=-1))

    roof_index = np.array(
        [min(int(f * spec.steps), spec.steps - 1) for f in ROOF_FRACTIONS] if roof else [],
        dtype=int,
    )
    roof_values = np.array(
        [_roof_tau_af(vecs, energies, coeffs, grid[i], d) for i in roof_index]
    )
    return Reference(
        spec=spec,
        field_dim=d,
        index=index,
        tau_F_AA=2.0 * (1.0 - _purity(rho_aa)),
        tau_A_rest=2.0 * (1.0 - _purity(rho_a1)),
        tau_AA=wootters_ensemble(m),
        inversion=np.sum(np.abs(m[:, 0]) ** 2, axis=-1) - np.sum(np.abs(m[:, 3]) ** 2, axis=-1),
        eff_dim=eff_dim,
        roof_index=roof_index,
        roof_tau_AF=roof_values,
    )


def _roof_tau_af(vecs, energies, coeffs, t: float, d: int) -> float:
    """Convex-roof tangle of atom 1 vs the field at time ``t``.

    The field is first mapped onto its (at most 4-dimensional) Schmidt
    support by the isometry from the SVD of the 4 x D amplitude matrix;
    tangles are invariant under local isometries.
    """
    from tcm_tangles import DensityMatrix, convex_roof_itangle

    psi = vecs @ (np.exp(-1j * energies * t) * coeffs)
    u, s, _ = np.linalg.svd(psi.reshape(4, d), full_matrices=False)
    t3 = (u * s).reshape(2, 2, -1)
    r = t3.shape[-1]
    rho = np.einsum("ajk,bjl->akbl", t3, t3.conj()).reshape(2 * r, 2 * r)
    rho = 0.5 * (rho + rho.conj().T)
    return convex_roof_itangle(DensityMatrix((2, r), rho / np.trace(rho).real))


# ---------------------------------------------------------------------------
# large-field closed form (README / markoff docstrings), for |ee>
# ---------------------------------------------------------------------------

def approx_tau_f_aa(mean_n: float, gt: np.ndarray) -> np.ndarray:
    """2 * (1 - [c - h(t')] / 4) with the J_x weights of |ee>: |d+-1|^2 = 1/4, |d0|^2 = 1/2."""
    m1, z, p1 = 0.25, 0.5, 0.25
    c = 4.0 * (m1**2 + z**2 + p1**2) + 2.0 * z * (m1 + p1) + 3.0 * m1 * p1
    tp = gt / (2.0 * math.sqrt(mean_n - 1.0 + 0.5))
    h = (2.0 * z * (m1 + p1) + 4.0 * m1 * p1) * np.cos(4.0 * tp) - m1 * p1 * np.cos(8.0 * tp)
    return 2.0 * (1.0 - (c - h) / 4.0)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_ECHO = re.compile(r"^#\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*?)\s*$")


def _parse_table(text: str):
    """(comment key/values, header, rows as floats) of a '#'-commented CSV."""
    echo, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            found = _ECHO.match(line)
            if found:
                echo[found.group(1)] = found.group(2)
        elif header is None:
            header = line
        elif line:
            rows.append([float(cell) for cell in line.split(",")])
    return echo, header, np.array(rows, dtype=float)


def _parse_pair(text: Optional[str]) -> Optional[tuple[float, float]]:
    found = re.fullmatch(r"\[\s*([^,\s]+)\s*,\s*([^\]\s]+)\s*\]", text or "")
    return (float(found.group(1)), float(found.group(2))) if found else None


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _check_echo(tally: Tally, echo: dict, want: dict) -> None:
    for key, value in want.items():
        tally.check(f"config echo {key}", echo.get(key) == value, f"(got {echo.get(key)!r})")


def _bond_dims(tau_a_rest: np.ndarray):
    """Effective rank of a qubit marginal from its tangle 4*l*(1-l); -1 if ambiguous."""
    tau = np.clip(tau_a_rest, 0.0, 1.0)
    lam_min = tau / (2.0 * (1.0 + np.sqrt(1.0 - tau)))
    ambiguous = (lam_min > RANK_TOL / 10) & (lam_min < RANK_TOL * 10)
    return np.where(ambiguous, -1, np.where(lam_min > RANK_TOL, 2, 1))


def check_scenario(text: str, ref: Reference) -> Tally:
    """Check a ``scenario`` CSV (columns SCENARIO_HEADER) against ``ref``."""
    tally = Tally()
    spec = ref.spec
    try:
        echo, header, rows = _parse_table(text)
    except ValueError as exc:
        tally.check("parse", False, str(exc))
        return tally
    _check_echo(tally, echo, spec.echo())
    tally.check("header", header == SCENARIO_HEADER, f"(got {header!r})")
    tally.check("row count", rows.shape == (spec.steps, 8), f"(got {rows.shape})")
    if rows.shape != (spec.steps, 8):
        return tally
    tally.check("finite cells", np.all(np.isfinite(rows), axis=1))
    gt, tau_f, tau_a, tau_aa, tau_af, tau_res, inversion, eff = rows.T
    tally.close("gt grid", gt, spec.grid(), TOL_SAME_FILE)
    tally.check("tangles in range", np.all((rows[:, 1:6] >= 0.0) & (rows[:, 1:6] <= 2.0), axis=1))
    tally.check("field_eff_dim in 1..4", np.isin(eff, (1.0, 2.0, 3.0, 4.0)))

    # tau_res through its definition; |ee> keeps the atoms exchange-symmetric,
    # so atom 2's terms equal atom 1's
    d_a = _bond_dims(tau_a)
    ok_rows = d_a > 0
    one_vs_rest = d_a * tau_a + eff / 2.0 * tau_f
    pairwise = d_a / 2.0 * tau_aa + np.minimum(d_a, eff) * tau_af
    tally.close(
        "tau_res formula", tau_res[ok_rows], ((one_vs_rest - 2.0 * pairwise) / 3.0)[ok_rows], TOL_SAME_FILE
    )

    i = ref.index
    tally.close("tau_F_AA vs reference", tau_f[i], ref.tau_F_AA, TOL_PURE)
    tally.close("tau_A_rest vs reference", tau_a[i], ref.tau_A_rest, TOL_PURE)
    tally.close("inversion vs reference", inversion[i], ref.inversion, TOL_PURE)
    tally.close("tau_AA vs reference (Wootters)", tau_aa[i], ref.tau_AA, TOL_WOOTTERS)
    known = ref.eff_dim >= 0
    tally.check("field_eff_dim vs reference", eff[i][known] == ref.eff_dim[known])
    if ref.roof_index.size:
        tally.close("tau_AF vs convex roof", tau_af[ref.roof_index], ref.roof_tau_AF, TOL_ROOF)
    return tally


def check_compare(text: str, ref: Reference) -> Tally:
    """Check a ``compare-approx`` CSV (columns COMPARE_HEADER) against ``ref``."""
    tally = Tally()
    spec = ref.spec
    try:
        echo, header, rows = _parse_table(text)
        window = _parse_pair(echo.get("window_gt"))
        sup_norm = float(echo.get("window_sup_norm", "nan"))
    except ValueError as exc:
        tally.check("parse", False, str(exc))
        return tally
    _check_echo(tally, echo, spec.echo())
    tally.check("header", header == COMPARE_HEADER, f"(got {header!r})")
    tally.check("row count", rows.shape == (spec.steps, 4), f"(got {rows.shape})")
    if rows.shape != (spec.steps, 4):
        return tally
    tally.check("finite cells", np.all(np.isfinite(rows), axis=1))
    gt, exact, approx, diff = rows.T
    tally.close("gt grid", gt, spec.grid(), TOL_SAME_FILE)
    tally.close("approx vs closed form", approx, approx_tau_f_aa(spec.mean_n, spec.grid()), TOL_SAME_FILE)
    tally.close("abs_diff", diff, np.abs(exact - approx), TOL_SAME_FILE)
    tally.close("tau_F_AA_exact vs reference", exact[ref.index], ref.tau_F_AA, TOL_PURE)

    revival = 2.0 * math.pi * math.sqrt(spec.mean_n)
    tally.check("window_gt line", window is not None)
    if window is not None:
        tally.close("window_gt", window, (0.2 * revival, 0.8 * revival), TOL_SAME_FILE)
    mask = (gt >= 0.2 * revival) & (gt <= 0.8 * revival)
    tally.check("grid reaches the window", mask.any())
    if mask.any():
        tally.close("window_sup_norm", sup_norm, np.max(np.abs(exact - approx)[mask]), TOL_SAME_FILE)
    return tally


def check_sweep(text: str, samples: int, seed: int, counterexamples: Optional[str]) -> Tally:
    """Check a 2x2x3 Haar ``sweep`` summary: no negatives, and the argmin reproduces the minimum."""
    from tcm_tangles import PureState, SystemShape, i_residual_tangle

    tally = Tally()
    echo = {}
    for line in text.splitlines():
        found = _ECHO.match(line)
        if found:
            echo[found.group(1)] = found.group(2)
    _check_echo(tally, echo, {"dims": "2 2 3", "seed": str(seed), "measure": "haar"})
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    tally.check("header", lines[:1] == ["samples,min_value,negative_count"], f"(got {lines[:1]})")
    try:
        count, min_value, negatives = lines[1].split(",")
        count, min_value, negatives = int(count), float(min_value), int(negatives)
        amps_text = re.search(r"^# argmin_state:(.*)$", text, re.M).group(1)
        amps = np.array(
            [complex(float(re_), float(im)) for re_, im in re.findall(r"\(([^,()]+),([^,()]+)\)", amps_text)]
        )
    except (IndexError, ValueError, AttributeError) as exc:
        tally.check("parse", False, str(exc))
        return tally
    tally.check("samples", count == samples, f"(got {count})")
    tally.check("negative_count is 0", negatives == 0, f"(got {negatives})")
    tally.check("no counterexample file", not counterexamples)
    tally.check("min_value finite and above -1e-9", math.isfinite(min_value) and min_value >= SWEEP_NEGATIVE_THRESHOLD)
    tally.check("argmin has 12 amplitudes", amps.size == 12, f"(got {amps.size})")
    if amps.size != 12:
        return tally
    tally.close("argmin norm", np.linalg.norm(amps), 1.0, 1e-12)
    try:
        value = i_residual_tangle(PureState(SystemShape((2, 2, 3)), amps / np.linalg.norm(amps)))
    except ValueError as exc:
        tally.check("argmin state", False, str(exc))
        return tally
    tally.close("min_value vs i_residual_tangle(argmin)", min_value, value, TOL_SWEEP)
    return tally

"""Command-line entry point, and the one module that writes files.

Subcommands: ``scenario`` (tangle time series), ``compare-approx`` (exact
vs large-field approximation), ``sweep`` (residual-tangle positivity
search), ``scaling`` (peak atom-atom tangle vs photon number).  The library
returns arrays and writes no file; this module writes every output file.

Scenario settings are a preset overridden by explicit flags; no settings
file is read, and an unknown flag exits 1.  Exit codes: 0 success; 1 bad
input, a ValueError from whatever reads it, or an output path that is
empty, a directory or in a missing directory; 2 a run that stopped, a
RuntimeError (truncation guard, non-finite or out-of-range value,
conservation drift, or a forked sweep or scenario worker that died),
raised as with one worker.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import os
import sys
from typing import Mapping, Optional, Sequence

import numpy as np

from .dynamics import TAIL_MASS, TruncationError
from .random_states import positivity_sweep
from .scenarios import (
    PRESETS,
    ScenarioConfig,
    compare_exact_vs_approx,
    preset_config,
    run_scenario,
    scaling_study,
)
from .tangles import TANGLE_FLOOR
from .tensor import RANK_TOL

CSV_BLOCK = 10_000  # CSV rows formatted at a time; whole-column lists cost about 200 B a row
# every time is gt; the echo keeps the unit line, which readers of the CSVs expect
_G_ECHO = "# g = 1.0"


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage as ValueError (exit code 1)."""

    def error(self, message):
        raise ValueError(message)


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--preset", choices=sorted(PRESETS), help="named scenario preset")
    sub.add_argument("--atomic", help="ee, gg, sym_plus, cat_plus, singlet")
    sub.add_argument("--field", choices=["fock", "coherent"], help="field kind")
    sub.add_argument("--n", type=int, help="photon number for a fock field")
    sub.add_argument("--mean-n", type=float, help="mean photon number for a coherent field")
    sub.add_argument("--t-max", type=float, help="grid end in gt")
    sub.add_argument("--steps", type=int, help="number of grid points")
    sub.add_argument("--out", required=True, help="output CSV path")


def build_parser() -> _Parser:
    parser = _Parser(prog="tcm-tangles", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    scenario = commands.add_parser("scenario", help="tangle time series as CSV")
    _add_scenario_flags(scenario)

    compare = commands.add_parser(
        "compare-approx", help="exact vs approximate field-ensemble tangle"
    )
    _add_scenario_flags(compare)

    sweep = commands.add_parser("sweep", help="residual-tangle positivity sweep")
    sweep.add_argument("--dims", required=True, help="factor dims, e.g. 2x2x3")
    sweep.add_argument("--samples", type=int, required=True, help="number of random states")
    sweep.add_argument("--seed", type=int, default=0, help="RNG seed")
    sweep.add_argument("--out", required=True, help="summary file path")

    scaling = commands.add_parser("scaling", help="peak atom-atom tangle vs photon number")
    scaling.add_argument("--n", default="5,10,20,40", help="comma-separated photon numbers")
    scaling.add_argument("--steps", type=int, default=400, help="grid points per beat period")
    scaling.add_argument("--out", required=True, help="output CSV path")
    return parser


def _config_echo(config: ScenarioConfig) -> list[str]:
    lines = ["# tcm-tangles"]
    for field in dataclasses.fields(config):
        if field.name == "t_max":
            lines.append(_G_ECHO)
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


def _scenario_config(args: argparse.Namespace) -> ScenarioConfig:
    # every setting has a flag; an unset flag keeps the preset's value
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(ScenarioConfig)}
    return preset_config(args.preset, **{k: v for k, v in flags.items() if v is not None})


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split("x"))
    except ValueError:
        raise ValueError(f"cannot parse dims {text!r} (expected e.g. 2x2x3)") from None


def _run_sweep(args: argparse.Namespace) -> None:
    def amplitudes(amps: np.ndarray) -> str:
        # (re,im) pairs at 17 significant digits, which round-trip every float64
        return " ".join(f"({a.real:.17g},{a.imag:.17g})" for a in amps)

    dims = _parse_dims(args.dims)
    result = positivity_sweep(dims, args.samples, seed=args.seed)
    dims_text = " ".join(str(d) for d in dims)
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write("# tcm-tangles sweep\n")
        fh.write(f"# dims = {dims_text}\n")
        fh.write(f"# seed = {args.seed}\n")
        fh.write("# measure = haar\n")  # fixed; readers of the summary expect the key
        fh.write(f"# rank_tol = {RANK_TOL:g}\n")  # fixed, like the measure line
        fh.write("samples,min_value,negative_count\n")
        fh.write(f"{result.samples},{result.min_value:.17g},{result.negative_count}\n")
        fh.write(f"# argmin_state: {amplitudes(result.argmin_state.amplitudes)}\n")
    # the states below -1e-9 replace an earlier run's, which a run that finds none removes
    dump = args.out + ".counterexamples"
    if result.negative_count:
        with open(dump, "w", encoding="ascii", newline="\n") as fh:
            fh.write(f"# dims: {dims_text}\n")
            fh.writelines(amplitudes(row) + "\n" for row in result.negative_states)
    else:
        with contextlib.suppress(FileNotFoundError):
            os.remove(dump)
    print(
        f"sweep {dims}: {result.samples} samples, min {result.min_value:.3e}, "
        f"{result.negative_count} below -1e-9 -> {args.out}"
    )


def _run_scaling(args: argparse.Namespace) -> None:
    try:
        ns = tuple(int(p) for p in str(args.n).split(","))
    except ValueError:
        raise ValueError(f"cannot parse photon numbers {args.n!r}") from None
    result = scaling_study(ns, steps=args.steps)
    lines = ["# tcm-tangles scaling", "# atomic = gg", _G_ECHO, f"# steps = {args.steps}"]
    lines.append(f"# loglog_slope = {result.slope:.12g}")
    _write_rows(args.out, lines, {"n": result.ns, "peak_tau_AA": result.peaks})
    print(f"scaling {ns}: log-log slope {result.slope:.4f} -> {args.out}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # an output path that cannot be a file fails here, before any run
        if os.path.isdir(args.out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
        if not args.out or not os.path.isdir(os.path.dirname(args.out) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
        if args.command == "scenario":
            config = _scenario_config(args)
            result = run_scenario(config)
            _write_rows(args.out, _config_echo(config), {"gt": result.gt, **result.columns})
            print(f"scenario: {result.gt.size} points -> {args.out}")
        elif args.command == "compare-approx":
            config = _scenario_config(args)
            result = compare_exact_vs_approx(config)
            (lo, hi), sup = result.window, result.window_sup_norm
            lines = [f"# window_gt = [{lo:.12g}, {hi:.12g}]", f"# window_sup_norm = {sup:.12g}"]
            columns = dict(gt=result.gt, tau_F_AA_exact=result.exact,
                           tau_F_AA_approx=result.approx, abs_diff=result.abs_diff)
            _write_rows(args.out, _config_echo(config) + lines, columns)
            print(f"compare-approx: window sup-norm {sup:.4f} -> {args.out}")
        elif args.command == "sweep":
            _run_sweep(args)
        elif args.command == "scaling":
            _run_scaling(args)
    except ValueError as exc:  # bad input
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output path that cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except TruncationError as exc:
        print(f"truncation guard: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a value out of range, a conservation drift, a dead worker
        print(f"run error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

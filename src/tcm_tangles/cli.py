"""Command-line entry point.

Subcommands: ``scenario`` (tangle time series), ``compare-approx`` (exact
vs large-field approximation), ``sweep`` (residual-tangle positivity
search), ``scaling`` (peak atom-atom tangle vs photon number).

Scenario settings are a preset overridden by explicit flags; no settings
file is read, and an unknown flag exits 1.  Exit codes: 0 success; 1 bad
input, a ValueError from whatever reads it (or an OverflowError from a time
grid whose phases overflow), or an output path that is empty, a directory or
in a missing directory; 2 a run that stopped, a RuntimeError (truncation
guard, non-finite or out-of-range value, conservation drift, or a forked
sweep or scenario worker that died), raised as with one worker.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import sys
from typing import Optional, Sequence

from .dynamics import TruncationError
from .random_states import format_amplitudes, positivity_sweep
from .scenarios import (
    PRESETS,
    ScenarioConfig,
    compare_exact_vs_approx,
    run_scenario,
    scaling_study,
)
from .tensor import RANK_TOL


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


def _scenario_config(args: argparse.Namespace) -> ScenarioConfig:
    merged = dict(PRESETS[args.preset]) if args.preset else {}
    for field in dataclasses.fields(ScenarioConfig):  # every setting has a flag
        value = getattr(args, field.name)
        if value is not None:
            merged[field.name] = value
    # choosing a field kind explicitly drops the other kind's inherited value
    if (args.field == "fock" or args.n is not None) and args.mean_n is None:
        merged.pop("mean_n", None)
    if (args.field == "coherent" or args.mean_n is not None) and args.n is None:
        merged.pop("n", None)
    for key in ("atomic", "field"):
        if merged.get(key) is None:
            raise ValueError(f"missing required setting {key!r}")
    return ScenarioConfig(**merged)


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split("x"))
    except ValueError:
        raise ValueError(f"cannot parse dims {text!r} (expected e.g. 2x2x3)") from None


def _run_sweep(args: argparse.Namespace) -> None:
    dims = _parse_dims(args.dims)
    result = positivity_sweep(
        dims, args.samples, seed=args.seed, dump_path=args.out + ".counterexamples"
    )
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write("# tcm-tangles sweep\n")
        fh.write(f"# dims = {' '.join(str(d) for d in dims)}\n")
        fh.write(f"# seed = {args.seed}\n")
        fh.write("# measure = haar\n")  # fixed; readers of the summary expect the key
        fh.write(f"# rank_tol = {RANK_TOL:g}\n")  # fixed, like the measure line
        fh.write("samples,min_value,negative_count\n")
        fh.write(f"{result.samples},{result.min_value:.17g},{result.negative_count}\n")
        fh.write(f"# argmin_state: {format_amplitudes(result.argmin_state.amplitudes)}\n")
    print(
        f"sweep {dims}: {result.samples} samples, min {result.min_value:.3e}, "
        f"{result.negative_count} below -1e-9 -> {args.out}"
    )


def _run_scaling(args: argparse.Namespace) -> None:
    try:
        ns = tuple(int(p) for p in str(args.n).split(","))
    except ValueError:
        raise ValueError(f"cannot parse photon numbers {args.n!r}") from None
    result = scaling_study(ns, steps=args.steps, out=args.out)
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
            print(f"scenario: {result.gt.size} points -> {config.out}")
        elif args.command == "compare-approx":
            config = _scenario_config(args)
            result = compare_exact_vs_approx(config)
            print(
                f"compare-approx: window sup-norm {result.window_sup_norm:.4f} "
                f"-> {config.out}"
            )
        elif args.command == "sweep":
            _run_sweep(args)
        elif args.command == "scaling":
            _run_scaling(args)
    except (ValueError, OverflowError) as exc:  # bad input
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

"""One timed tcm-tangles CLI call in a fresh interpreter.

    python3 bench/child.py --spawned-at T --result R.json [--spans S.jsonl --run-id N] -- <cli args>

``T`` is the parent's ``time.monotonic()`` just before it started this
process; Linux's monotonic clock is shared by all processes, so
``setup_s`` covers interpreter start-up and the package import, and the
parent can place its speed probes inside ``run_window``.  The
package is imported from the ``src/`` tree next to this directory and
nowhere else.  With ``--spans`` the package's layer boundaries are wrapped
(see spans.py) and the spans are appended to ``S.jsonl`` after the call.
"""

import time  # first, so nothing below escapes setup_s

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "tcm_tangles"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, str(ROOT / "src"))
    import tcm_tangles
    import tcm_tangles.cli

    setup_s = time.monotonic() - args.spawned_at
    if Path(tcm_tangles.__file__).resolve().parent != PACKAGE_DIR:
        print(f"imported tcm_tangles from {tcm_tangles.__file__}, not {PACKAGE_DIR}", file=sys.stderr)
        return 3

    tracer = None
    if args.spans:
        import spans

        tracer = spans.Tracer(args.run_id)
        spans.install(tracer, tcm_tangles)
        root = tracer.begin(spans.ROOT_SPAN)
    started_at = time.monotonic()
    start = time.perf_counter()
    exit_code = tcm_tangles.cli.main(cli_args)
    run_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "run_window": [started_at, started_at + run_s],
        "exit_code": exit_code,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.end(root)
        tracer.write(args.spans)
        result["layers"] = spans.layer_metrics(tracer.spans, tracer.counts, run_s)
        result["absent"] = sorted(tracer.absent)
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One repetition of one workload, in a fresh process; prints one JSON line.

    python3 perfbench/rep.py --workload sim-failover --seed 0 --cells 0:12 --mode plain

``--mode plain`` runs the program untouched.  ``--mode spans`` records
spans around the public calls (written to ``--spans``), ``--mode profile``
runs under :mod:`cProfile` and reports the profile folded by layer.  The
modules for the two traced modes are imported only when asked for, so a
plain repetition carries no wrapper or profiler.

:mod:`run` starts one of these per repetition, because the RSS high-water
mark and the request-id counter are per process.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "spans", "profile"), default="plain")
    parser.add_argument(
        "--cells", default="0:1", help="START:STOP, the slice of the suite's cells to run"
    )
    parser.add_argument("--spans", type=Path, help="where --mode spans writes its spans")
    args = parser.parse_args(argv)
    start, stop = (int(bound) for bound in args.cells.split(":"))
    cells = range(start, stop)

    if args.mode == "plain":
        figures = workloads.run_repetition(args.workload, args.seed, cells)
    elif args.mode == "spans":
        import layers

        recorder = layers.SpanRecorder(run_id=f"{args.workload}-seed{args.seed}")
        layers.wrap_program(recorder)
        try:
            figures = workloads.run_repetition(args.workload, args.seed, cells, recorder.span)
        finally:
            recorder.unwrap()
        figures["verification_span_s"] = recorder.durations("verification")
        if args.spans is not None:
            recorder.write(args.spans)
    else:
        import layers

        profiler = layers.CellProfiler()
        figures = workloads.run_repetition(args.workload, args.seed, cells, profiler.hook)
        figures["profile"] = profiler.fold(figures["cells"])
    print(json.dumps(figures))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

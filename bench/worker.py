"""One benchmark process: set up a workload, run its rounds, report.

Started by ``run.py`` with the package's ``src`` directory on PYTHONPATH and
BLAS pinned to one thread.  Prints one JSON line: the round timings, the
call counts, the checks and, for a traced run, the per-layer metrics.  The
moment set-up ends is reported on the system-wide monotonic clock so the
parent can time set-up from the moment it started this process.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import scalehom

import tracing
from workloads import WORKLOADS, CallFailed, Calls


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True,
                        help="the src directory the package must be imported from")
    return parser.parse_args(argv)


def _round(workload, calls: Calls) -> tuple[float, list, bool]:
    """One round: wall seconds in program calls, its checks, whether every
    call returned."""
    before = calls.wall_s
    try:
        results = workload.run_round(calls)
    except CallFailed:
        return calls.wall_s - before, [], False
    return calls.wall_s - before, results, True


def measure(workload, calls: Calls, seconds: float) -> tuple[list, list, bool]:
    """Whole rounds until ``seconds`` would be exceeded; a round starts only
    if it fits in the time left.  Stops at the first round with a failed
    call, whose wall time is not kept."""
    walls, results = [], []
    start = time.monotonic()
    while True:
        wall, res, ok = _round(workload, calls)
        results += res
        if not ok:
            return walls, results, False
        walls.append(wall)
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(walls) > seconds:
            return walls, results, True


def traced(workload, calls: Calls, traced_first: bool,
           report: Path) -> tuple[list, list, bool, dict]:
    """One untraced and one traced round, in the order given, so that the
    overhead is not always taken against a warm process.  Returns the
    untraced wall time, the checks, whether every call returned and the
    per-layer metrics (empty if a call failed); writes the tracer's totals
    to ``report``."""
    tracer, patches = tracing.Tracer(), tracing.Patches()
    walls, results, cpu = {}, [], 0.0
    for is_traced in ((True, False) if traced_first else (False, True)):
        if is_traced:
            tracing.install(tracer, patches)
        cpu_before = calls.cpu_s
        try:
            wall, res, ok = _round(workload, calls)
        finally:
            patches.undo()
        results += res
        if not ok:
            return [], results, False, {}
        walls[is_traced] = wall
        if not is_traced:
            cpu = calls.cpu_s - cpu_before
    metrics = tracing.per_layer_metrics(tracer)
    metrics["trace.untraced_wall_s"] = (walls[False], "s")
    metrics["trace.traced_wall_s"] = (walls[True], "s")
    metrics["trace.overhead_s"] = (walls[True] - walls[False], "s")
    metrics["run.cpu_s"] = (cpu, "s")
    per_layer = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(report, "w") as fh:
        json.dump({"per_layer": per_layer, **tracer.report()}, fh)
    return [walls[False]], results, True, per_layer


def main(argv=None) -> int:
    args = _parse(argv)
    pkg = Path(scalehom.__file__).resolve().parent
    if pkg.parent != args.src.resolve():
        print(f"scalehom imported from {pkg}, not from {args.src}", file=sys.stderr)
        return 2
    shutil.rmtree(args.out, ignore_errors=True)
    args.out.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, args.size, args.out)
    setup_end = time.monotonic()

    calls = Calls()
    result = {"setup_end_monotonic": setup_end}
    if args.trace:
        # the traced round comes first on odd seeds, second on even ones
        walls, results, ok, result["per_layer"] = traced(
            workload, calls, args.seed % 2 == 1, args.out / "trace.json")
    else:
        walls, results, ok = measure(workload, calls, args.seconds)

    for line in calls.errors:
        print(f"call failed: {line}", file=sys.stderr)
    print("round wall times (s): " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    result.update({
        "wall_s": statistics.median(walls) if walls else None,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "checks": [check.line() for check in results],
        # a failed call leaves outputs unchecked, so the run is not correct
        "correct": ok and calls.failed == 0 and bool(results)
                   and all(check.ok for check in results),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

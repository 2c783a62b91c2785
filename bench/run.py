"""Benchmark entry point for scalehom.

    python3 bench/run.py --workload {sde_run,deep_tail,spatial} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Starts one worker process with the
checkout's ``src`` on PYTHONPATH and BLAS pinned to one thread, and prints
as its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``: from the start of the worker process until the package is
  imported and the workload's inputs are generated and validated;
* ``wall_s``: the median over rounds of the time spent in program calls,
  from the first call until the last output is written, checks excluded;
* ``peak_rss_mib``: the worker's peak resident memory.

With ``--trace 1`` the worker runs one untraced and one traced round and
the metrics are the per-layer ones.  A failed program call or a failed
check makes ``correct`` false and the exit code 1.  Outputs go to ``.bench_out/`` in the
checkout.  Exits non-zero, without a result line, if the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: a worker that has not finished by then is stopped and the run fails
WORKER_TIMEOUT_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}


def _parse(argv):
    parser = argparse.ArgumentParser(description="scalehom benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the benchmark's own smoke size")
    return parser.parse_args(argv)


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "scalehom" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = ROOT / ".bench_out" / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size,
           "--out", str(out), "--src", str(ROOT / "src")]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 4
    report = json.loads(lines[-1])
    for line in report["checks"]:
        print(line, file=sys.stderr)
    if args.trace:
        metrics = report["per_layer"]           # empty if a call failed
    else:
        values = {"setup_s": report["setup_end_monotonic"] - start,
                  "wall_s": report["wall_s"],      # None if no round completed
                  "peak_rss_mib": peak_kib / 1024.0}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items() if v is not None}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

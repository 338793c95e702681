"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs workload W (see workloads.py and README.md) in a process of its own,
with BLAS and OpenMP pinned to one thread, and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (set-up time, peak
memory, round time in calibration units); set-up is repeated in
SETUPS[workload] processes and its median reported.  With --trace 1 the
workload process records spans and the metrics are the per-layer ones.
The program is imported from src/ of the checkout this file sits in;
without it the run exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "workloads.py")
WORKLOADS = ("quadrature-cold", "search", "mc-energy", "trichotomy")
# set-ups per untraced run; search's includes a 7-8 s table build
SETUPS = {"quadrature-cold": 5, "search": 3, "mc-energy": 5, "trichotomy": 5}
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildError(RuntimeError):
    pass


def run_child(args: list[str], deadline: float) -> dict:
    """Start one workload process, wait for it, return its last JSON line."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args, "--t0", repr(t0)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildError("workload process exceeded the time limit")
    if proc.returncode != 0:
        raise ChildError(f"workload process exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise ChildError("workload process printed no result")
    return json.loads(lines[-1])


def end_to_end(setups: list[float], res: dict) -> dict:
    """End-to-end metrics from the set-up times and the workload result."""
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        "round_cal": {"value": res["round_cal"], "unit": "cal"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="heisenberg-hls benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "heisenberg_hls", "__init__.py")):
        print(f"no program to benchmark: {ROOT}/src/heisenberg_hls is missing", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS[args.workload] - 1):
                setups.append(run_child(common + ["--setup-only"], deadline)["setup_s"])
        res = run_child(common, deadline)
    except (ChildError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    metrics = res["layers"] if args.trace else end_to_end(setups, res)
    print(
        json.dumps(
            {
                "correct": res["correct"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

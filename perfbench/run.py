"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweep_study --seed 3 --seconds 35 --trace 0

Run from the root of a gridswing checkout (source tree, not an install).
The workload itself runs in a child process (worker.py) with BLAS and
OpenMP pinned to one thread. With ``--trace 0`` the result carries the
end-to-end metrics of BENCHMARK.json; set-up time is the median over
several fresh processes. Times are scaled to a nominal host speed (see
workloads.run_pass and NOTES.md). With ``--trace 1`` it carries the per-layer
metrics of a run that alternates untraced and traced passes. Metric names
and units come from BENCHMARK.json. The last line of standard output is
the result; exit status is nonzero, with no result, when the checkout has
no program to measure or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 7  # fresh processes whose set-up time gives the median
DEADLINE_S = 170.0  # whole run, so a hung worker cannot pass 180 s


def _worker(args: list[str], env: dict, deadline: float):
    """Run worker.py to completion; return (scaled set-up s, its result)."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args], env=env,
        stdout=subprocess.PIPE, text=True, timeout=deadline - spawned,
        check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # Both clocks are CLOCK_MONOTONIC, shared by every process on the host.
    return (result["ready_at"] - spawned) * result["host_scale"], result


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gridswing" / "cli.py").is_file() \
            or not (ROOT / "scenarios").is_dir():
        print(f"error: no gridswing source tree under {ROOT}",
              file=sys.stderr)
        return 2

    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"),
           "PYTHONPATH": str(ROOT / "src")}
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup = [] if args.trace else [
            _worker(["--setup-only"], env, deadline)[0]
            for _ in range(SETUP_SAMPLES - 1)]
        ready_s, result = _worker(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, deadline)
        setup.append(ready_s)
        values = dict(result["metrics"])
        if not args.trace:
            values["setup_s"] = statistics.median(setup)
        section = spec["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in section}
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1

    for line in result["failures"]:
        print(f"failure: {line}", file=sys.stderr)
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("passes " + json.dumps({
        "untraced_s": result["passes_s"],
        "traced_s": result["traced_passes_s"],
        "wall_s": result["wall_s"],
        "setup_s": setup,
        "failed_ratio": result["failed"] / result["attempted"]}))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One measured process: set up, run passes of a workload, print JSON.

Started by run.py with BLAS and OpenMP threads pinned to 1. The process
first does what every gridswing user pays before any study (imports, the
model build, the first power flow) and notes the monotonic clock when it
is ready; run.py subtracts its own spawn time to get the set-up time, and
scales it to the nominal host speed by the reference loop timed right
after (``host_scale``), as study times are.
Then it runs passes of the workload for the given number of seconds and
prints one JSON line with the pass times, failures and metrics.

    python3 perfbench/worker.py --workload calibrate --seed 0 --seconds 10
    python3 perfbench/worker.py --setup-only
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from run import ROOT, THREAD_VARS

MAX_REPORTED_FAILURES = 20


def _setup():
    """Imports, model build and first power flow; the user's fixed cost."""
    sys.path.insert(0, str(ROOT / "src"))
    import gridswing
    from gridswing import cli, netmodel, powerflow  # noqa: F401
    if not Path(gridswing.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported {gridswing.__file__}, not this checkout")
    powerflow.solve(netmodel.builtin_wscc9())


def environment() -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def _clear(out_dir: str) -> None:
    for name in os.listdir(out_dir):
        os.unlink(os.path.join(out_dir, name))


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """As many passes as fit in ``seconds``, at least one; with tracing,
    alternate untraced and traced passes, at least one of each."""
    import tracing
    import workloads

    refs = workloads.load_references()[workload]
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    try:
        op_list = workloads.ops(workload, seed, ROOT, out_dir)
        plain, slow, layers, wall = [], [], [], []
        hashes: dict[str, str] = {}
        attempted = failed = 0
        failures = []
        start = time.perf_counter()
        while True:
            tracer = tracing.Tracer() if traced and len(slow) < len(plain) \
                else None
            _clear(out_dir)
            gc.collect()
            if tracer is not None:
                tracer.install()
            try:
                times, scaled, codes = workloads.run_pass(op_list)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            wall.append(sum(times))
            if tracer is None:
                plain.append(sum(scaled))
            else:
                slow.append(sum(scaled))
                layers.append(tracer.metrics())
            for op, code in zip(op_list, codes):
                problems = workloads.check(op, code, out_dir,
                                           refs["ops"].get(op.name), hashes)
                attempted += 1
                if problems:
                    failed += 1
                    failures += [f"{op.name}: {p}" for p in problems]
            # Stop before a pass that would end past the deadline if it
            # took as long as this one.
            if time.perf_counter() - start + sum(times) > seconds and \
                    (not traced or slow):
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            scratch.rmdir()

    study_s = statistics.median(plain)
    if traced:
        metrics = tracing.median_metrics(layers)
        metrics["trace.study_s"] = statistics.median(slow)
        metrics["trace.overhead_s"] = metrics["trace.study_s"] - study_s
    else:
        metrics = {
            "study_s": study_s,
            "lane_steps_per_s": refs["lane_steps"] / study_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {"passes_s": plain, "traced_passes_s": slow, "wall_s": wall,
            "attempted": attempted, "failed": failed,
            "failures": failures[:MAX_REPORTED_FAILURES], "metrics": metrics,
            "env": environment()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.setup_only:
        parser.error("--workload is required unless --setup-only")
    _setup()
    result = {"ready_at": time.monotonic()}
    import workloads
    result["host_scale"] = \
        workloads.REFERENCE_NOMINAL_S / workloads.reference_s()
    if not args.setup_only:
        result.update(measure(args.workload, args.seed, args.seconds,
                              bool(args.trace)))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

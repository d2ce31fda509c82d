"""Write references.json from the program as it is now.

    python3 perfbench/capture.py

Runs one traced pass of each workload with seed 0 and records the values
the output checks compare against, plus each workload's RK4 lane-step
count: scalar runs' steps plus grid candidates x anchors x steps. That
count is the fixed work lane_steps_per_s divides by. Capture again only
when a change to the program is meant to change these outputs, and say
which values moved and why.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
import tempfile

from run import ROOT
from worker import _setup

WORKLOADS = ("cli_simulate", "sweep_study", "calibrate")


def main() -> int:
    _setup()
    import tracing
    import workloads

    refs = {}
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="capture-", dir=scratch)
    try:
        for workload in WORKLOADS:
            op_list = workloads.ops(workload, 0, ROOT, out_dir)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                *_, codes = workloads.run_pass(op_list)
            finally:
                tracer.uninstall()
            if any(code != 0 for code in codes):
                print(f"error: {workload} failed: {codes}", file=sys.stderr)
                return 1
            refs[workload] = {
                "lane_steps": tracer.lane_steps(),
                "ops": {op.name: workloads.observe(op, out_dir)
                        for op in op_list}}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

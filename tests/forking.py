"""Run test code in a fresh interpreter whose calibration grid may fork.

The grid splits its lanes across forked children only in a process with
one OS thread. numpy's BLAS pool is a second thread unless its size is
pinned to one, and the test process does not pin it. So the code that
checks the split runs in a child interpreter with every BLAS thread
variable at 1, as perfbench runs its workloads, and patches the usable-CPU
count to force a split on any host. The script fails by raising, and the
test shows its standard error.
"""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import gridswing

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SRC = Path(gridswing.__file__).resolve().parent.parent

requires_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and os.path.isdir("/proc/self/task")),
    reason="the grid forks only where os.fork and /proc/self/task exist")

# Defines, for the script: MODEL; CANDIDATES, 12 governor/damping sets;
# errors(), their grid errors over 10 s; usable_cpus(n), which makes the
# grid see n usable CPUs; FORKS, one entry per os.fork call; raised(fn),
# the type of the exception fn raises; and no_child_left().
PRELUDE = '''
import itertools
import os

from gridswing import analysis, netmodel

MODEL = netmodel.builtin_wscc9()
CANDIDATES = list(itertools.product([0.03, 0.05, 0.08], [1.0, 5.0],
                                    [0.0, 0.5]))
FORKS = []
_fork = os.fork


def counting_fork():
    FORKS.append(os.getpid())
    return _fork()


os.fork = counting_fork


def usable_cpus(n):
    os.sched_getaffinity = lambda pid: set(range(n))


def errors(candidates=CANDIDATES):
    return analysis._grid_anchor_errors(
        MODEL, analysis.DEFAULT_ANCHORS, candidates, dt=0.01, duration=10.0)


def raised(fn):
    try:
        fn()
    except Exception as exc:
        return type(exc)
    raise AssertionError("nothing raised")


def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


assert len(os.listdir("/proc/self/task")) == 1, "BLAS threads not pinned"
'''


def run_forking(script: str) -> None:
    """Run PRELUDE and then script, dedented, in a fresh interpreter."""
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"),
           "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(script)], env=env,
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr

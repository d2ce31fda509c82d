"""The three study workloads, their output checks and one timed pass.

A workload is a fixed list of CLI invocations, each run in-process through
``gridswing.cli.main`` one after another: a closed loop with one caller.
The seed only permutes the order of the invocations and of the sweep
points, so every seed does the same work and must give the same outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import signal
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from gridswing import cli

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

SCENARIOS = ("combination_di_8", "national_1400mw", "periodic_di_8",
             "periodic_slope_trigger", "static_di_12",
             "static_dr_12_reserves", "switching_di_8")
TIMINGS_S = tuple(range(3, 17))  # C07 reversion times
MAGNITUDES_PERCENT = (4, 6, 8, 9.4, 12, 14)  # C04 points
# Typical reference_s() on a 2-core Intel Xeon VM (Python 3.11, numpy 2.4).
# Changing it, or the reference loop, rescales every study_s.
REFERENCE_NOMINAL_S = 0.003
_REF_Y = (np.arange(9.0).reshape(3, 3) + 1j) / 10
_REF_E = np.array([1.0, 1.02, 0.98])
_REF_D = np.array([0.1, 0.2, 0.3])
_REF_LANES = np.linspace(0.0, 1.0, 405 * 3).reshape(405, 3)
SAMPLE_EVERY_S = 0.25
# Absolute tolerance on every checked value, in that value's own unit
# (Hz for frequencies, s for the optimal reversion time).
TOLERANCE = 1e-6


@dataclass(frozen=True)
class Op:
    """One CLI invocation and where its checked output lands."""

    name: str
    argv: tuple[str, ...]
    report: str  # JSON artifact in the output directory
    extract: Callable[[dict], dict]  # report -> values compared to references
    trace: str | None = None  # CSV whose sha256 must repeat across passes


def _simulate_values(report: dict) -> dict:
    mx = report["metrics"]
    return {"nadir_hz": mx["nadir_hz"], "zenith_hz": mx["zenith_hz"],
            "settled_f_hz": mx["settled_f_hz"],
            "events": len(report["events"])}


def _timing_values(report: dict) -> dict:
    return {"optimal_t1_s": report["optimal_t1_s"]}


def _fit_values(report: dict) -> dict:
    return dict(report["fit"])


def _calibration_values(report: dict) -> dict:
    return {**report["params"],
            "objective_residual_hz2": report["objective_residual_hz2"]}


def _numbers(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def ops(workload: str, seed: int, root: Path, out_dir: str) -> list[Op]:
    """The invocations of one pass, in the order the seed gives."""
    rng = random.Random(seed)

    def scn(stem):
        return str(root / "scenarios" / f"{stem}.scn")

    if workload == "cli_simulate":
        stems = list(SCENARIOS)
        rng.shuffle(stems)
        return [Op(s, ("simulate", scn(s), "--out-dir", out_dir),
                   f"{s}_report.json", _simulate_values, f"{s}_trace.csv")
                for s in stems]
    if workload == "sweep_study":
        t1s = list(TIMINGS_S)
        mags = list(MAGNITUDES_PERCENT)
        rng.shuffle(t1s)
        rng.shuffle(mags)
        sweeps = [
            Op("timing", ("sweep", scn("switching_di_8"), "--timings",
                          _numbers(t1s), "--out-dir", out_dir),
               "switching_di_8_sweep.json", _timing_values),
            Op("magnitude", ("sweep", scn("static_di_12"), "--magnitudes",
                             _numbers(mags), "--duration", "60",
                             "--out-dir", out_dir),
               "static_di_12_sweep.json", _fit_values),
        ]
        rng.shuffle(sweeps)
        return sweeps
    if workload == "calibrate":
        return [Op("calibrate", ("calibrate", "--out-dir", out_dir),
                   "calibrated_params.json", _calibration_values)]
    raise ValueError(f"unknown workload {workload!r}")


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def _reference_try() -> float:
    """Time one run of a fixed loop shaped like the integrators.

    Each iteration does what one RK4 stage does on 3 machines (small
    complex numpy operations and Python arithmetic); every tenth also does
    it for 405 lanes, as the calibration grid does. The loop never changes
    with the program, so its time tracks only the speed the host gives
    this process at that moment.
    """
    t0 = time.perf_counter()
    for i in range(200):
        ev = _REF_E * np.exp(1j * _REF_D)
        (ev * np.conj(_REF_Y @ ev)).real.sum()
        if i % 10 == 0:
            lanes = _REF_E * np.exp(1j * _REF_LANES)
            (lanes * np.conj(lanes @ _REF_Y.T)).real.sum(axis=1)
        acc = 0
        for k in range(50):
            acc += k * k
    return time.perf_counter() - t0


def reference_s() -> float:
    return statistics.fmean(_reference_try() for _ in range(5))


class _Sampler:
    """Times one reference try every SAMPLE_EVERY_S while an invocation
    runs, from a SIGALRM handler in the main thread; ``spent`` is the time
    the handler took, to be taken off the invocation's wall time."""

    def __init__(self):
        self.tries: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.tries.append(_reference_try())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_pass(op_list: list[Op]) -> tuple[list[float], list[float], list]:
    """Run every invocation once.

    Returns each invocation's wall seconds, the same scaled to the nominal
    host speed, and the exit codes. Only the CLI calls are timed. The
    reference loop runs before and after every invocation and every
    SAMPLE_EVERY_S during it; an invocation's scaled time is its wall time
    times REFERENCE_NOMINAL_S over the mean of those reference times. An
    exception escaping cli.main is recorded as that invocation's outcome
    instead of an exit code, so one broken scenario fails its operation,
    not the whole run.
    """
    sink = io.StringIO()
    times, scaled, codes = [], [], []
    ref_before = reference_s()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for op in op_list:
            sampler = _Sampler()
            t0 = time.perf_counter()
            with sampler:
                try:
                    codes.append(cli.main(list(op.argv)))
                except Exception:
                    codes.append(traceback.format_exc(limit=-1).strip())
            wall = time.perf_counter() - t0 - sampler.spent
            ref_after = reference_s()
            times.append(wall)
            scaled.append(wall * REFERENCE_NOMINAL_S / statistics.fmean(
                [ref_before, ref_after, *sampler.tries]))
            ref_before = ref_after
    return times, scaled, codes


def observe(op: Op, out_dir: str) -> dict:
    with open(os.path.join(out_dir, op.report), encoding="utf-8") as fh:
        return op.extract(json.load(fh))


def check(op: Op, code, out_dir: str, expected: dict | None,
          hashes: dict[str, str]) -> list[str]:
    """Problems with one invocation's outcome; empty when it is correct.

    ``hashes`` maps each trace CSV to the sha256 it had on the first pass
    of this run and is filled on first sight.
    """
    if code != 0:
        return [f"exit {code}"]
    if not expected:
        return ["no reference values"]
    try:
        got = observe(op, out_dir)
        if op.trace is not None:
            with open(os.path.join(out_dir, op.trace), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    problems = [f"{key} = {got.get(key)!r}, reference {want!r}"
                for key, want in expected.items()
                if not isinstance(got.get(key), (int, float))
                or abs(got[key] - want) > TOLERANCE]
    if op.trace is not None and hashes.setdefault(op.trace, digest) != digest:
        problems.append(f"{op.trace} sha256 differs from the first pass")
    return problems

"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The smoke tests run every workload once through run.py (about a minute on
two cores); the rest check that the output checks catch wrong results.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import _setup  # noqa: E402

_setup()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_pass_is_correct_and_reports_end_to_end(workload):
    proc, lines = _run("--workload", workload, "--seed", "7",
                       "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] == len(workloads.ops(workload, 7, ROOT, "."))
    assert [m["name"] for m in SPEC["end_to_end"]] == list(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc, lines = _run("--workload", "calibrate", "--seconds", "1",
                       "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics)
    assert metrics["analysis._grid_anchor_errors.lanes"]["value"] == 405
    refs = workloads.load_references()["calibrate"]
    assert refs["lane_steps"] == (
        metrics["dynamics.simulate.lane_steps"]["value"]
        + 405 * 4000 * metrics["analysis._grid_anchor_errors.calls"]["value"])


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _run("--workload", "calibrate", "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in lines)


def test_seed_only_permutes_the_work():
    base = workloads.ops("sweep_study", 0, ROOT, "out")
    for seed in range(1, 6):
        other = workloads.ops("sweep_study", seed, ROOT, "out")
        assert sorted(op.name for op in other) == \
            sorted(op.name for op in base)
        for a in base:
            b = next(op for op in other if op.name == a.name)
            # argv is ("sweep", scenario, "--timings"/"--magnitudes", points)
            assert sorted(map(float, a.argv[3].split(","))) == \
                sorted(map(float, b.argv[3].split(",")))
    orders = {tuple(op.name for op in workloads.ops("cli_simulate", s, ROOT,
                                                     "out"))
              for s in range(6)}
    assert len(orders) > 1
    assert all(sorted(o) == sorted(workloads.SCENARIOS) for o in orders)


@pytest.fixture(scope="module")
def static_run(tmp_path_factory):
    """One cheap real invocation: the 12 % static step scenario."""
    out = str(tmp_path_factory.mktemp("static"))
    op = next(op for op in workloads.ops("cli_simulate", 0, ROOT, out)
              if op.name == "static_di_12")
    *_, codes = workloads.run_pass([op])
    return op, codes[0], out


def test_matching_reference_passes(static_run):
    op, code, out = static_run
    refs = workloads.load_references()["cli_simulate"]["ops"][op.name]
    assert workloads.check(op, code, out, refs, {}) == []


@pytest.mark.parametrize("key", ["nadir_hz", "zenith_hz", "settled_f_hz",
                                 "events"])
def test_perturbed_reference_is_a_failure(static_run, key):
    op, code, out = static_run
    refs = copy.deepcopy(
        workloads.load_references()["cli_simulate"]["ops"][op.name])
    refs[key] += 2e-6 if key != "events" else 1
    problems = workloads.check(op, code, out, refs, {})
    assert len(problems) == 1 and key in problems[0]


def test_changed_trace_hash_is_a_failure(static_run):
    op, code, out = static_run
    refs = workloads.load_references()["cli_simulate"]["ops"][op.name]
    problems = workloads.check(op, code, out, refs, {op.trace: "0" * 64})
    assert len(problems) == 1 and "sha256" in problems[0]


def test_nonzero_exit_and_missing_output_are_failures(static_run, tmp_path):
    op, _, out = static_run
    refs = workloads.load_references()["cli_simulate"]["ops"][op.name]
    assert workloads.check(op, 4, out, refs, {}) == ["exit 4"]
    assert "unreadable" in workloads.check(op, 0, str(tmp_path), refs, {})[0]


def test_tracer_restores_every_function(static_run):
    originals = [getattr(owner, attr) for _, owner, attr, _ in
                 tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not fn for (_, owner, attr, _), fn
                   in zip(tracing.TARGETS, originals))
        workloads.run_pass([static_run[0]])
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for (_, owner, attr, _), fn
               in zip(tracing.TARGETS, originals))
    counts = tracer.metrics()
    assert counts["dynamics.simulate.calls"] == 1
    assert counts["dynamics.simulate.lane_steps"] == 4000
    assert counts["cli.write_trace_csv.bytes"] > 0

"""The benchmark's per-layer tracer still binds to the package.

perfbench/tracing.py rebinds gridswing functions by name and reads some of
their arguments by name; a rename or a new signature would silently zero
its counts. Loaded from its file as it is, without importing perfbench.
"""
import importlib.util
import inspect
from pathlib import Path

from gridswing import analysis, attacks, dynamics, netmodel, powerflow
from criteria import attack
from forking import requires_fork, run_forking

PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# The bound arguments each counter reads, by counter name.
COUNTER_ARGS = {
    "_simulate_steps": set(),
    "_grid_lanes": {"anchors", "dt", "duration"},
    "_pf_iterations": set(),
    "_load_vector": {"loads_p"},
    "_csv_bytes": {"path"},
}


def test_every_traced_function_resolves():
    for name, owner, attr, _ in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), name


def test_counters_read_parameters_their_functions_have():
    for name, owner, attr, counter in tracing.TARGETS:
        if counter is not None:
            params = inspect.signature(getattr(owner, attr)).parameters
            assert COUNTER_ARGS[counter.__name__] <= set(params), name
    params = inspect.signature(
        tracing.analysis._grid_anchor_errors).parameters
    assert {"anchors", "dt", "duration"} <= set(params)


def test_tracer_counts_a_power_flow_and_restores_it():
    original = powerflow.solve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sol = powerflow.solve(netmodel.builtin_wscc9())
    finally:
        tracer.uninstall()
    assert powerflow.solve is original
    out = tracer.metrics()
    assert out["powerflow.solve.calls"] == 1
    assert out["powerflow.solve.iterations"] == sol.iterations > 0


def test_tracer_counts_candidate_lanes_and_their_steps(model):
    """Two candidates over 0.1 s at 0.01 s: 2 lanes of 10 steps for the
    one default anchor."""
    original = analysis._grid_anchor_errors
    tracer = tracing.Tracer()
    tracer.install()
    try:
        errors = analysis._grid_anchor_errors(
            model, analysis.DEFAULT_ANCHORS,
            [(0.08, 5.0, 0.0), (0.05, 2.0, 0.5)], dt=0.01, duration=0.1)
    finally:
        tracer.uninstall()
    assert analysis._grid_anchor_errors is original
    assert errors.shape == (2,)
    out = tracer.metrics()
    assert out["analysis._grid_anchor_errors.calls"] == 1
    assert out["analysis._grid_anchor_errors.lanes"] == 2
    assert tracer.lane_steps() == 20


@requires_fork
def test_tracer_counts_every_lane_of_a_split_grid():
    """The slices of a forked grid are scored through an inner helper, so
    the tracer sees one _grid_anchor_errors call with all 12 lanes and
    their 1000 steps each."""
    run_forking(f'''
        import importlib.util

        spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                      {str(PATH)!r})
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        usable_cpus(2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            errors()
        finally:
            tracer.uninstall()
        assert len(FORKS) == 1
        out = tracer.metrics()
        assert out["analysis._grid_anchor_errors.calls"] == 1
        assert out["analysis._grid_anchor_errors.lanes"] == 12
        assert tracer.lane_steps() == 12 * 1000
    ''')


def test_tracer_counts_slope_trigger_observations(model):
    """The integrator looks observe up on the trigger at each boundary, so
    the rebound method sees the calls of a slope-triggered run."""
    original = attacks.SlopeTrigger.observe
    schedule = attack(model, family="periodic", interval=2.0, count=2,
                      trigger="slope")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        dynamics.simulate(model, schedule, dynamics.SimConfig(duration=5.0))
    finally:
        tracer.uninstall()
    assert attacks.SlopeTrigger.observe is original
    assert tracer.metrics()["attacks.SlopeTrigger.observe.calls"] > 0

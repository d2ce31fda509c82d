"""Metrics, sweeps, calibration, and feasibility reporting."""
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridswing import (analysis, attacks, dynamics, netmodel, powerflow,
                       reserves)
from gridswing.attacks import AttackType
from criteria import attack
from forking import requires_fork, run_forking


def fake_trace(f, dt=0.01):
    f = np.asarray(f, dtype=float)
    n = len(f)
    return dynamics.SimulationTrace(
        t=np.arange(n) * dt, f_coi=f, f_gen=np.repeat(f[:, None], 3, axis=1),
        p_attack=np.zeros(n), p_reserve_up=np.zeros(n),
        p_reserve_down=np.zeros(n), events=(), dt=dt, f_nominal=50.0)


def test_metrics_constant_trace():
    mx = analysis.metrics(fake_trace(np.full(1000, 50.0)))
    assert mx.nadir_hz == 50.0
    assert mx.zenith_hz == 50.0
    assert mx.settled_f_hz == 50.0
    assert mx.violations == ()
    assert mx.settle_time_s == 0.0
    assert mx.oscillation_hz == 0.0


def test_metrics_sine_trace():
    dt = 0.01
    t = np.arange(6000) * dt
    f = 50.0 + 0.6 * np.sin(t)
    mx = analysis.metrics(fake_trace(f, dt))
    assert mx.zenith_hz == f.max()
    assert mx.nadir_hz == f.min()
    assert mx.settle_time_s is None  # never dwells within the band
    crossed = {th for th, _ in mx.violations}
    assert crossed == {49.9, 50.1, 49.7, 49.5}
    # first-crossing times agree with a plain scan
    for th, when in mx.violations:
        beyond = f < th if th < 50 else f > th
        assert when == pytest.approx(t[np.argmax(beyond)])
    assert mx.oscillation_hz == pytest.approx(1.2, abs=0.01)


def test_metrics_empty_trace_rejected():
    with pytest.raises(ValueError):
        analysis.metrics(fake_trace(np.array([])))


def test_offsets_give_the_50_hz_levels_bit_for_bit():
    """Every Hz level is f_nominal + offset; at 50 Hz each sum is the
    50 Hz figure exactly (50.0 + -0.1 == 49.9), so 50 Hz outputs keep
    their bytes."""
    assert [50.0 + off for off in analysis.THRESHOLDS_HZ] == [
        49.9, 50.1, 49.7, 49.5, 48.8, 47.5, 52.0]
    levels = {p.name: [50.0 + p.activation_start] + (
        [] if p.direction == "both" else [50.0 + p.full_activation])
        for p in reserves.default_products()}
    assert levels == {"FFR": [49.6, 49.6], "FCR-D up": [49.9, 49.5],
                      "FCR-D down": [50.1, 50.5], "FCR-N": [50.0],
                      "aFRR": [50.0], "mFRR": [50.0]}


@pytest.fixture(scope="module")
def model_60hz():
    return replace(netmodel.builtin_wscc9(), f_nominal=60.0)


def test_60_hz_case_reads_its_levels_from_f_nominal(model_60hz):
    """A 4 % DI on a 60 Hz case crosses only the lower band edge, after
    onset; reserves absorb nothing and lift the nadir."""
    di_4 = attack(model_60hz, magnitude_percent=4.0)
    bare = dynamics.simulate(model_60hz, di_4, quick_cfg(20.0))
    mx = analysis.metrics(bare)
    assert [th for th, _ in mx.violations] == [59.9]
    assert mx.violations[0][1] > 1.0
    held = dynamics.simulate(model_60hz, di_4, dynamics.SimConfig(
        duration=20.0, reserves=reserves.default_products()))
    assert not held.p_reserve_down.any()
    assert held.p_reserve_up.max() > 0.0
    assert held.f_coi.min() > bare.f_coi.min()


@pytest.mark.parametrize("f_nominal", [50.0, 60.0])
def test_every_product_rests_at_nominal(f_nominal):
    for p in reserves.default_products():
        assert reserves.command(p, f_nominal, f_nominal) == 0.0, p.name


def test_60_hz_timing_sweep_has_no_crossing_at_onset(model_60hz):
    _, results = analysis.timing_sweep(
        model_60hz, attack(family="switching", t1=8.0, magnitude_percent=4.0),
        [4.0, 8.0], quick_cfg(20.0))
    for mx in results.values():
        assert mx.violations and all(t > 1.0 for _, t in mx.violations)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=47.0, max_value=53.0),
                min_size=2, max_size=400))
def test_metrics_ordering_invariants(samples):
    mx = analysis.metrics(fake_trace(np.array(samples)))
    assert mx.nadir_hz <= mx.settled_f_hz <= mx.zenith_hz
    assert mx.nadir_hz <= mx.zenith_hz
    if mx.settle_time_s is not None:
        assert mx.settle_time_s >= 0.0


def _loop_settle_time(t, f, dt):
    """The settle time as a per-sample loop over the in-band flags: the
    start of the first dwell_n + 1 in-band samples in a row, the oracle for
    _coi_metrics' search over the out-of-band indices."""
    inside = np.abs(f - f[-1]) <= analysis.SETTLE_BAND_HZ
    dwell_n = int(round(analysis.SETTLE_DWELL_S / dt))
    if len(f) > dwell_n:
        run = 0
        for i, ok in enumerate(inside):
            run = run + 1 if ok else 0
            if run == dwell_n + 1:
                return float(t[i - dwell_n])
    return None


# offsets from 50 Hz: in band of the last sample or not, and NaN
SETTLE_OFFSETS = st.sampled_from([0.0, 0.015, -0.02, 0.03, -0.4, np.nan])


@settings(max_examples=300, deadline=None)
@given(st.lists(SETTLE_OFFSETS, min_size=1, max_size=40),
       st.integers(min_value=0, max_value=12))
@example([0.0] * 3, 5)  # len(f) <= dwell_n
@example([0.0] * 6, 5)  # settled from sample 0
@example([0.4, 0.0, 0.0, 0.4, 0.0], 2)  # never settled
@example([0.4, 0.0, 0.4, 0.0, 0.0, 0.0], 2)  # the run ends on the last
def test_settle_time_equals_the_per_sample_loop(offsets, dwell_n):
    """The settle search gives the loop's index, or its None, for any
    in/out-of-band pattern and dwell (dt = 5 s / dwell_n; 20 s gives a
    zero dwell)."""
    dt = analysis.SETTLE_DWELL_S / dwell_n if dwell_n else 20.0
    f = 50.0 + np.array(offsets)
    t = np.arange(len(f)) * dt
    assert analysis._coi_metrics(t, f, dt, 50.0).settle_time_s \
        == _loop_settle_time(t, f, dt)


def quick_cfg(duration=30.0):
    return dynamics.SimConfig(duration=duration)


# static attacks with no magnitude yet: a magnitude sweep's base
DI_BASE = attack(magnitude_percent=None)
DR_BASE = attack(attack_type=AttackType.DEMAND_REDUCTION,
                 magnitude_percent=None)


def test_magnitude_sweep_orders_points(model):
    fit = analysis.magnitude_sweep(model, DI_BASE, [8.0, 4.0],
                                   config=quick_cfg())
    assert [p for p, _ in fit.points] == [4.0, 8.0]
    assert fit.slope < 0
    swapped = analysis.magnitude_sweep(model, DI_BASE, [4.0, 8.0],
                                       config=quick_cfg())
    assert swapped.points == fit.points


def test_magnitude_sweep_skips_unstable_runs(model):
    # overdriving a 1 pu load bus far into net export destabilizes the case
    fit = analysis.magnitude_sweep(
        model, DR_BASE, [60.0, 100.0, 200.0],
        config=quick_cfg(10.0))
    assert len(fit.points) == 2
    assert len(fit.skipped) == 1
    assert fit.skipped[0][0] == 200.0


def test_magnitude_sweep_needs_two_points(model):
    with pytest.raises(analysis.FitError, match="only 1 sweep points"):
        analysis.magnitude_sweep(model, DI_BASE, [8.0],
                                 config=quick_cfg(10.0))
    # two points, both at one magnitude: no slope to fit
    with pytest.raises(analysis.FitError, match="two distinct magnitudes"):
        analysis.magnitude_sweep(model, DI_BASE, [8, 8],
                                 config=quick_cfg(10.0))


def test_magnitude_sweep_with_no_response_cannot_fit(model):
    """An attack starting after the horizon leaves every point at exactly
    nominal: no line, rather than a flat one with R^2 = 1."""
    with pytest.raises(analysis.FitError, match="do not vary"):
        analysis.magnitude_sweep(
            model, attack(magnitude_percent=None, t_start=25.0),
            [4.0, 8.0], config=quick_cfg(20.0))


def test_magnitude_sweep_reduction_tracks_zenith(model):
    fit = analysis.magnitude_sweep(model, DR_BASE, [4.0, 8.0],
                                   config=quick_cfg())
    assert fit.slope > 0  # zenith climbs with magnitude
    assert all(hz > 50.0 for _, hz in fit.points)


def test_magnitude_sweep_runs_the_scenario_it_is_given(model):
    """Each point is the base scenario at that percent: same type, target
    and start, so its nadir equals a simulate of that point; the family,
    trigger and megawatt size of the base are not carried over."""
    config = quick_cfg(20.0)
    base = attack(magnitude_percent=None, t_start=12.0, target_bus=5)
    fit = analysis.magnitude_sweep(model, base, [12.0, 4.0], config)
    for mag, nadir in fit.points:
        tr = dynamics.simulate(model, attacks.compile_scenario(
            model, replace(base, magnitude_percent=mag)), config)
        assert nadir == analysis.metrics(tr).nadir_hz
    periodic = replace(base, family="periodic", magnitude_mw=1400.0,
                       interval=2.0, count=3, trigger="slope")
    assert analysis.magnitude_sweep(model, periodic, [12.0, 4.0],
                                    config) == fit


def test_timing_sweep_prefers_real_reversion(model):
    """Reverting one step after onset barely disturbs anything; a reversion
    a few seconds in leaves a large post-reversion swing."""
    optimal, results = analysis.timing_sweep(
        model, attack(family="switching", t1=8.0), [1.01, 4.0],
        quick_cfg(20.0))
    assert optimal == 4.0
    assert results[1.01].nadir_hz > 49.99
    assert results[4.0].nadir_hz < 49.7


def test_timing_sweep_rejects_early_t1(model):
    with pytest.raises(ValueError):
        analysis.timing_sweep(model, attack(family="switching", t1=8.0),
                              [0.5, 4.0], quick_cfg(20.0))


def test_timing_sweep_needs_a_t1(model):
    with pytest.raises(ValueError, match="no t1 values to sweep"):
        analysis.timing_sweep(model, attack(family="switching", t1=8.0),
                              [], quick_cfg(20.0))


def test_late_reversion_acts_like_a_fresh_opposite_step(model):
    """Reverting after the transient has settled looks like a fresh
    demand-reduction step of the same size, by superposition."""
    sw = dynamics.simulate(
        model, attack(model, family="switching", t1=60.0),
        dynamics.SimConfig(duration=100.0))
    # deviation is measured from the droop-settled level the reversion
    # starts at, which is what the superposed step acts on
    post = np.abs(sw.f_coi[6000:] - sw.f_coi[5999]).max()
    dr = dynamics.simulate(
        model, attack(model, attack_type=AttackType.DEMAND_REDUCTION),
        dynamics.SimConfig(duration=40.0))
    fresh = np.abs(dr.f_coi - 50.0).max()
    assert post == pytest.approx(fresh, rel=0.10)


def test_calibrate_default_anchor_hits_box_corner(calibrated):
    """The anchor response is slower than anything inside the search box,
    so the fit parks at the softest corner and flags the misfit."""
    assert (calibrated.r_droop, calibrated.t_g, calibrated.d) == \
        (0.08, 5.0, 0.0)
    assert calibrated.objective_residual == 0.04431508330697249
    assert calibrated.quality_warning is True


def test_calibrated_defaults_are_baked_into_the_case(model, calibrated):
    # builtin_wscc9 ships exactly what the default calibration produces
    assert calibrated.apply(model) == model


def test_calibrate_settled_only_anchor(model, monkeypatch):
    """The fit, and one power flow under the grid and every refinement
    run: governor settings never enter it."""
    solves = []
    solve = powerflow.solve
    for owner, name in ((powerflow, "solve"), (dynamics, "solve_pf")):
        monkeypatch.setattr(owner, name,
                            lambda m: solves.append(m) or solve(m))
    cal = analysis.calibrate(model,
                             anchors=(analysis.Anchor(12.0, settled_hz=49.8),))
    assert solves == [model]
    assert (cal.r_droop, cal.t_g, cal.d) == (0.065, 5.0, 0.0625)
    assert cal.objective_residual == 2.9227508903054347e-07
    assert cal.quality_warning is False
    tuned = cal.apply(model)
    tr = dynamics.simulate(tuned, attack(tuned, magnitude_percent=12.0),
                           dynamics.SimConfig(duration=40.0))
    dev_pu = (50.0 - tr.f_coi[-1]) / 50.0
    composite_gain = 0.12 / dev_pu  # pu power per pu frequency
    assert 24.0 <= composite_gain <= 33.0


def test_calibrate_anchor_validation(model, monkeypatch):
    """Anchors that the anchor file check rejects raise ValueError from
    calibrate too, naming each problem, before any run."""
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(analysis, "_grid_anchor_errors", no_run)
    Anchor = analysis.Anchor
    for anchors, message in [
            ((), "need at least one calibration anchor"),
            ((Anchor(12.0),),
             "anchor 1: has no targets: give nadir_hz or settled_hz"),
            ((Anchor(150.0, 49.0),), "anchor 1: percent must not exceed "
             "100, the scheduled generation"),
            ((Anchor(12.0, settled_hz=49.8), Anchor(8.0, 49.0, 100.0)),
             "anchor 2: settled_hz must lie between 0 and 100 Hz"),
            ((Anchor(0.0, -1.0),), "anchor 1: percent must be positive; "
             "anchor 1: nadir_hz must lie between 0 and 100 Hz")]:
        with pytest.raises(ValueError) as exc:
            analysis.calibrate(model, anchors=anchors)
        assert str(exc.value) == message


def closed_form(target, weights, offset, scale):
    """A cheap calibration objective of (r_droop, t_g, d): offset plus
    scale times a weighted squared distance to target, formed with + - *
    only, so float and float64-array arguments give the same bits."""
    (a, b, c), (wr, wt, wd) = target, weights

    def objective(r, tg, d):
        return offset + scale * (wr * (r - a) * (r - a)
                                 + wt * (tg - b) * (tg - b)
                                 + wd * (d - c) * (d - c))

    return objective


def sequential_fit(objective):
    """calibrate's fit as one scalar objective call per point: the grid's
    best point, then three rounds of coordinate halving that try each
    candidate on its own, in order. Returns the fit, its error, the tried
    candidates, the kinds of step met: "interior", "face" or "corner"
    for where the fit lies in the box, "tie" for a candidate within
    1e-15 of the incumbent, "inexact" for a step up after an accepted
    step down that does not land where the axis started, and the rounds
    (0, 1 or 2) that moved the incumbent."""
    axes = [np.linspace(lo, hi, n).tolist() for (lo, hi), n in zip(
        analysis.CALIBRATION_BOUNDS.values(), (9, 9, 5))]
    grid = list(itertools.product(*axes))
    current = list(grid[int(np.argmin([objective(*p) for p in grid]))])
    best_err = objective(*current)
    tried, kinds, moved = [], set(), []
    steps = [values[1] - values[0] for values in axes]
    lows, highs = zip(*analysis.CALIBRATION_BOUNDS.values())
    for r in range(3):
        start_point = current
        for axis in range(3):
            steps[axis] *= 0.5
            start = current[axis]
            for sign in (-1.0, 1.0):
                cand = list(current)
                cand[axis] = min(max(cand[axis] + sign * steps[axis],
                                     lows[axis]), highs[axis])
                if cand == current:
                    continue
                if sign > 0 and current[axis] != start != cand[axis]:
                    kinds.add("inexact")
                err = objective(*cand)
                tried.append(tuple(cand))
                if abs(err - best_err) <= 1e-15:
                    kinds.add("tie")
                if err < best_err - 1e-15:
                    current, best_err = cand, err
        if current != start_point:
            moved.append(r)
    on_bounds = sum(v in bounds for v, bounds in zip(
        current, analysis.CALIBRATION_BOUNDS.values()))
    kinds.add(("interior", "face", "face", "corner")[on_bounds])
    return tuple(current), best_err, tried, kinds, moved


def check_refinement(model, objective):
    """calibrate under the closed-form objective equals sequential_fit's
    result, scores each candidate once and runs no simulate. After the
    grid it scores one batch, and one more for each of the first two
    rounds that moves the incumbent, at most."""
    def lane_errors(lanes, model, anchors, pf, config):
        gens = [lane.generators[0] for lane in lanes]
        return objective(*np.array(
            [(g.governor.r_droop, g.governor.t_g, g.d) for g in gens]).T)

    def no_simulate(*args, **kwargs):
        raise AssertionError("calibrate ran simulate")

    batches = []
    score = analysis._grid_anchor_errors

    def recording(model, anchors, candidates, dt, duration, pf=None):
        batches.append(list(candidates))
        return score(model, anchors, candidates, dt, duration, pf)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_lane_errors", lane_errors)
        mp.setattr(analysis, "_grid_anchor_errors", recording)
        mp.setattr(dynamics, "simulate", no_simulate)
        cal = analysis.calibrate(model)
    fit, best_err, tried, _, moved = sequential_fit(objective)
    assert cal == analysis.CalibratedParams(
        *fit, objective_residual=best_err,
        quality_warning=best_err > analysis.RESIDUAL_WARN_PER_ANCHOR)
    scored = [cand for batch in batches for cand in batch]
    assert len(batches[0]) == 405
    early_moves = sum(r < 2 for r in moved)
    if early_moves:
        assert len(batches) <= 2 + early_moves
    else:
        assert len(batches) == 2
    assert len(set(scored)) == len(scored)
    assert set(tried) <= set(scored)


# (target, weights, offset, scale) of closed-form objectives whose
# refinements meet, between them, every kind of step sequential_fit names
REFINEMENT_CASES = [
    ((0.1, 6.0, -0.5), (1.0, 1.0, 1.0), 0.0, 1.0),  # beyond a corner
    ((0.05, 2.42, 1.1), (1.0, 1.0, 1.0), 0.0, 1.0),  # t_g 2.6 - 0.3 + 0.3
    ((0.05, 6.0, 1.1), (1.0, 1.0, 1.0), 0.0, 1.0),  # on the t_g = 5 face
    ((0.05, 2.42, 1.1), (1.0, 1.0, 1.0), 1.0, 1e-13),  # steps near 1e-15
    ((0.05, 2.42, 1.1), (1.0, 0.0, 1.0), 0.0, 1.0),  # t_g does not matter
]


def test_refinement_cases_meet_every_kind_of_step():
    kinds = set().union(*(sequential_fit(closed_form(*case))[3]
                          for case in REFINEMENT_CASES))
    assert kinds == {"interior", "face", "corner", "tie", "inexact"}


@pytest.mark.parametrize("case", REFINEMENT_CASES)
def test_refinement_replays_the_sequential_rule(model, case):
    check_refinement(model, closed_form(*case))


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.floats(0.0, 0.1), st.floats(0.0, 6.0),
                 st.floats(-0.5, 2.5)),
       st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 1e3])] * 3),
       st.sampled_from([0.0, 1e-3, 1.0]),
       st.sampled_from([0.0, 1e-15, 1e-13, 1e-9, 1.0]))
def test_refinement_replays_the_sequential_rule_anywhere(
        model, target, weights, offset, scale):
    """Any optimum, inside the box or beyond a face or corner, and error
    steps from exact ties to far beyond 1e-15."""
    check_refinement(model, closed_form(target, weights, offset, scale))


def test_grid_stage_matches_scalar_objective(model):
    """Each candidate lane's error equals, bit for bit, the same sum of
    squared misses formed from the candidate's own simulate run and
    metrics, term by term in the same order."""
    anchors = analysis.DEFAULT_ANCHORS
    candidates = [(0.03, 1.0, 0.5), (0.03, 5.0, 0.5), (0.08, 1.0, 0.5),
                  (0.08, 5.0, 0.5)]
    grid = analysis._grid_anchor_errors(model, anchors, candidates,
                                        dt=0.01, duration=40.0)
    cfg = dynamics.SimConfig(dt=0.01, duration=40.0)
    for lane, params in enumerate(candidates):
        tuned = netmodel.with_dynamic_params(model, *params)
        scalar = 0.0
        for anchor in anchors:
            mx = analysis.metrics(dynamics.simulate(
                tuned, attack(tuned, magnitude_percent=anchor.percent), cfg))
            scalar += (mx.nadir_hz - anchor.nadir_hz) ** 2
            scalar += (mx.settled_f_hz - anchor.settled_hz) ** 2
        assert grid[lane] == scalar


def test_grid_lanes_are_independent(model):
    """A candidate's error depends on neither its lane position nor the
    other lanes: permuted candidates give permuted errors, and a batch of
    one (the single-lane form) matches its entry in a wider batch."""
    anchors = analysis.DEFAULT_ANCHORS
    r_vals, tg_vals, d_vals = [0.03, 0.05, 0.08], [1.0, 5.0], [0.0, 0.5]
    grid = analysis._grid_anchor_errors(
        model, anchors, list(itertools.product(r_vals, tg_vals, d_vals)),
        dt=0.01, duration=10.0)
    grid = grid.reshape(3, 2, 2)
    perm = [2, 0, 1]
    permuted = analysis._grid_anchor_errors(
        model, anchors, list(itertools.product(
            [r_vals[i] for i in perm], tg_vals, d_vals)),
        dt=0.01, duration=10.0)
    assert np.array_equal(permuted.reshape(3, 2, 2), grid[perm])
    for i_r, i_t, i_d in [(1, 1, 1), (2, 1, 0)]:  # (2, 1, 0): box corner
        one = analysis._grid_anchor_errors(
            model, anchors, [(r_vals[i_r], tg_vals[i_t], d_vals[i_d])],
            dt=0.01, duration=10.0)
        assert one.shape == (1,)
        assert one[0] == grid[i_r, i_t, i_d]


def test_grid_of_no_candidates_scores_nothing(model):
    """No candidates give no errors, as a sweep of no schedules gives no
    lanes, instead of an IndexError from an integrator with no lanes."""
    errors = analysis._grid_anchor_errors(model, analysis.DEFAULT_ANCHORS,
                                          [], 0.01, 1.0)
    assert errors.shape == (0,)
    f, trips = analysis._sweep_lanes(model, [], dynamics.SimConfig(
        duration=1.0))
    assert f.shape == (101, 0) and trips == []


@requires_fork
def test_split_grid_keeps_every_bit():
    """Forced into three slices, two of them forked, the grid gives the
    one-slice errors bit for bit and leaves no child; two lanes take two
    slices, not three. A process with a second OS thread never forks."""
    run_forking('''
        import threading

        usable_cpus(1)
        one = errors()
        assert not FORKS
        usable_cpus(3)
        assert errors().tobytes() == one.tobytes()
        assert len(FORKS) == 2 and no_child_left()
        assert errors(CANDIDATES[:2]).tobytes() == one[:2].tobytes()
        assert len(FORKS) == 3 and no_child_left()

        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        def refuse():
            raise AssertionError("forked beside a second thread")
        os.fork = refuse
        try:
            assert errors().tobytes() == one.tobytes()
        finally:
            release.set()
            thread.join(10)
    ''')


@requires_fork
def test_split_grid_survives_its_children():
    """A child that dies, or that cannot start, leaves its slice to the
    caller, and the errors stay exact. A slice that raises raises what the
    one-slice run raises. No child outlives a call."""
    run_forking('''
        import errno

        usable_cpus(1)
        one = errors()
        poisoned = CANDIDATES + [(0.0, 1.0, 0.5)]  # zero droop: 1 / 0
        expected = raised(lambda: errors(poisoned))
        assert expected is ZeroDivisionError

        usable_cpus(3)
        parent = os.getpid()
        score = analysis._lane_errors
        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return score(*args, **kwargs)
        analysis._lane_errors = dying
        assert errors().tobytes() == one.tobytes()
        assert len(FORKS) == 2 and no_child_left()
        analysis._lane_errors = score

        assert raised(lambda: errors(poisoned)) is expected
        assert len(FORKS) == 4 and no_child_left()

        def no_fork():
            raise OSError(errno.EAGAIN, "no process to spare")
        os.fork = no_fork
        assert errors().tobytes() == one.tobytes()
    ''')


@requires_fork
def test_split_grid_without_shared_memory_forks_nothing():
    """With no shared mapping for the children to write to, the grid forks
    none and scores every lane here, bit for bit."""
    run_forking('''
        import errno
        import mmap

        usable_cpus(1)
        one = errors()
        usable_cpus(3)
        def no_mapping(*args):
            raise OSError(errno.ENOMEM, "no memory to map")
        mmap.mmap = no_mapping
        assert errors().tobytes() == one.tobytes()
        assert not FORKS and no_child_left()
    ''')


SWEEP_MAGNITUDES = (2.0, 4.0, 6.0, 8.0, 9.4, 12.0, 14.0)
SHORT = dynamics.SimConfig(duration=2.0)


@pytest.fixture(scope="module")
def single_runs(model):
    """f_coi of each sweep magnitude's own simulate run over SHORT."""
    return {mag: dynamics.simulate(
        model, attack(model, magnitude_percent=mag), SHORT).f_coi
            for mag in SWEEP_MAGNITUDES}


@settings(max_examples=10, deadline=None)
@given(st.permutations(SWEEP_MAGNITUDES).flatmap(
    lambda mags: st.integers(1, len(mags)).map(lambda n: mags[:n])))
def test_sweep_lanes_are_exact(model, single_runs, mags):
    """Any subset and order of magnitude-sweep lanes gives each lane the
    bits of its own simulate run."""
    f, trips = analysis._sweep_lanes(
        model, [attack(model, magnitude_percent=mag) for mag in mags], SHORT)
    assert f.shape == (201, len(mags))
    assert trips == [None] * len(mags)
    for lane, mag in enumerate(mags):
        assert np.array_equal(f[:, lane], single_runs[mag])


def test_sweep_skip_matches_single_run_instability(model):
    config = quick_cfg(10.0)
    fit = analysis.magnitude_sweep(model, DR_BASE, [60.0, 200.0, 100.0],
                                   config)
    with pytest.raises(dynamics.InstabilityError) as exc:
        dynamics.simulate(model, attack(
            model, attack_type=AttackType.DEMAND_REDUCTION,
            magnitude_percent=200.0), config)
    assert fit.skipped == ((200.0, str(exc.value)),)


GUARD = dynamics._mark_trips


def feed_speeds(monkeypatch, speeds):
    """Make the speed guard of the real integrator see speeds[k0:k1], the
    (rows, lanes, machines) speeds of boundaries k0 .. k1 - 1, for each
    span instead of the integrated ones."""
    monkeypatch.setattr(dynamics, "_mark_trips", lambda span, trip, k0: GUARD(
        speeds[k0:k0 + len(span)], trip, k0))


def test_guard_trips_beside_nan_in_every_form(model, monkeypatch):
    """A NaN speed trips nothing, but a machine past the guard beside it
    does: lane 0 trips at step 1, lane 1 at step 2, lane 2 never. The span
    guard decides simulate's trip for one lane, and the sweep's trip times
    and the grid's inf for a batch."""
    nan = float("nan")
    speeds = np.array([
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        [[nan, 0.6, 0.0], [nan, 0.1, 0.0], [0.0, 0.0, 0.0]],
        [[0.0, 0.0, 0.0], [0.7, 0.0, 0.0], [nan, nan, nan]]])
    config = dynamics.SimConfig(duration=0.02)
    schedule = attack(model, magnitude_percent=8.0)
    single = []
    for lane in range(3):
        feed_speeds(monkeypatch, speeds[:, lane:lane + 1])
        try:
            dynamics.simulate(model, schedule, config)
            single.append(None)
        except dynamics.InstabilityError as exc:
            single.append(exc.time_s)
    assert single == [0.01, 0.02, None]
    feed_speeds(monkeypatch, speeds)
    _, trips = analysis._sweep_lanes(model, [schedule] * 3, config)
    assert trips == single
    # the fed speeds are one batch of all three lanes, so no split
    monkeypatch.setattr(analysis, "_slice_count", lambda n: 1)
    errors = analysis._grid_anchor_errors(
        model, analysis.DEFAULT_ANCHORS,
        [(0.03, 1.0, 0.5), (0.05, 1.0, 0.5), (0.08, 1.0, 0.5)],
        dt=0.01, duration=0.02)
    assert np.isinf(errors).tolist() == [True, True, False]


def test_all_tripped_batch_stops_at_its_last_trip(model, monkeypatch):
    """A batch whose lanes have all tripped integrates no further than the
    end of the span of its last trip, its rows end at that trip, and its
    skip reasons are the single runs' messages."""
    config = dynamics.SimConfig(duration=60.0)
    mags = [200.0, 400.0]
    single = []
    for mag in mags:
        with pytest.raises(dynamics.InstabilityError) as exc:
            dynamics.simulate(model, attack(
                model, attack_type=AttackType.DEMAND_REDUCTION,
                magnitude_percent=mag), config)
        single.append(exc.value)
    assert [e.time_s for e in single] == pytest.approx([5.20, 4.36])
    seen = []  # (first boundary, rows, trip) of each span
    powers = []  # one per kernel call of the two-lane batch, 4 per step
    lockstep, kernel = dynamics._lockstep, dynamics._power_kernel

    def counted(*args):
        for out in lockstep(*args):
            seen.append((out[0], len(out[1]), out[-1]))
            yield out

    def counting(e_int, n_lanes):
        power = kernel(e_int, n_lanes)

        def count(*args):
            powers.append(n_lanes)
            return power(*args)
        return count if n_lanes == len(mags) else power

    monkeypatch.setattr(dynamics, "_lockstep", counted)
    monkeypatch.setattr(dynamics, "_power_kernel", counting)
    with pytest.raises(analysis.FitError):
        analysis.magnitude_sweep(model, DR_BASE, mags, config)
    assert [k for k0, rows, _ in seen
            for k in range(k0, k0 + rows)] == list(range(521))
    assert 520 * 4 <= len(powers) <= (520 + dynamics.SPAN_STEPS) * 4
    reasons = [str(dynamics.InstabilityError(k * config.dt))
               for k in seen[-1][2].tolist()]
    assert reasons == [str(e) for e in single]


def test_unstable_timing_sweep_raises_like_its_single_run(model):
    config = quick_cfg(10.0)
    base = attack(family="switching", t1=8.0,
                  attack_type=AttackType.DEMAND_REDUCTION,
                  magnitude_percent=200.0)
    with pytest.raises(dynamics.InstabilityError) as single:
        dynamics.simulate(model, attacks.compile_scenario(model, base), config)
    with pytest.raises(dynamics.InstabilityError) as swept:
        analysis.timing_sweep(model, base, [8.0, 9.0], config)
    assert str(swept.value) == str(single.value)
    assert swept.value.time_s == single.value.time_s


def test_timing_sweep_matches_single_runs(model):
    config = quick_cfg(20.0)
    t1s = [6.0, 3.0, 10.0]
    _, results = analysis.timing_sweep(
        model, attack(family="switching", t1=8.0), t1s, config)
    assert sorted(results) == sorted(t1s)
    for v in t1s:
        tr = dynamics.simulate(
            model, attack(model, family="switching", t1=v), config)
        assert results[v] == analysis.metrics(tr)


def test_reserve_sweep_matches_single_runs(model):
    """Reserve lags per lane: every lane's trace and sweep point equal its
    own run with the full reserve stack."""
    config = dynamics.SimConfig(duration=10.0,
                                reserves=reserves.default_products())
    mags = [12.0, 4.0, 8.0]
    schedules = [attack(model, attack_type=AttackType.DEMAND_REDUCTION,
                        magnitude_percent=mag) for mag in mags]
    singles = {mag: dynamics.simulate(model, sch, config)
               for mag, sch in zip(mags, schedules)}
    f, _ = analysis._sweep_lanes(model, schedules, config)
    for lane, mag in enumerate(mags):
        assert np.array_equal(f[:, lane], singles[mag].f_coi)
    fit = analysis.magnitude_sweep(model, DR_BASE, mags, config)
    for mag, zenith in fit.points:
        assert zenith == analysis.metrics(singles[mag]).zenith_hz


def test_linear_sweep_matches_single_runs(model):
    """Linear coupling runs in lanes like network coupling: every lane's
    trace and sweep point equal its own linear run."""
    config = dynamics.SimConfig(duration=10.0, coupling="linear")
    mags = [12.0, 4.0, 8.0]
    schedules = [attack(model, magnitude_percent=mag) for mag in mags]
    singles = {mag: dynamics.simulate(model, sch, config)
               for mag, sch in zip(mags, schedules)}
    f, trips = analysis._sweep_lanes(model, schedules, config)
    assert trips == [None] * len(mags)
    for lane, mag in enumerate(mags):
        assert np.array_equal(f[:, lane], singles[mag].f_coi)
    fit = analysis.magnitude_sweep(model, DI_BASE, mags, config)
    for mag, nadir in fit.points:
        assert nadir == analysis.metrics(singles[mag]).nadir_hz


def test_feasibility_2025_large_attack():
    rep = analysis.feasibility(1400.0, 2025)
    assert rep.feasible is True
    assert rep.margin_mw == pytest.approx(347.0)
    assert rep.sufficient_classes == ()  # no single class covers 1400 MW
    assert rep.demand_share_percent == pytest.approx(7.865, abs=1e-3)


def test_feasibility_2025_battery_sufficient():
    rep = analysis.feasibility(1000.0, 2025)
    assert rep.sufficient_classes == ("battery",)
    assert rep.demand_share_percent == pytest.approx(5.618, abs=1e-3)


def test_feasibility_2030_infeasible():
    rep = analysis.feasibility(9000.0, 2030)
    assert rep.feasible is False
    assert rep.margin_mw == pytest.approx(-1000.0)


def test_feasibility_threshold_is_inclusive():
    assert analysis.feasibility(1747.0, 2025).feasible is True
    assert analysis.feasibility(1747.01, 2025).feasible is False


def test_feasibility_argument_errors():
    with pytest.raises(ValueError, match="no forecast"):
        analysis.feasibility(100.0, 2040)
    with pytest.raises(ValueError, match="non-negative"):
        analysis.feasibility(-1.0, 2025)
    for mw in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            analysis.feasibility(mw, 2025)


def test_default_forecast_is_consistent():
    fc = analysis.default_forecast()
    assert fc.years() == [2025, 2030]
    for year in fc.years():
        assert sum(fc.classes_mw[year].values()) <= fc.totals_mw[year]
        assert fc.demand_mw[year] > fc.totals_mw[year]

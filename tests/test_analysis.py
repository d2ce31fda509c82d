"""Metrics, sweeps, calibration, and feasibility reporting."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridswing import analysis, attacks, dynamics, netmodel, reserves
from gridswing.attacks import AttackType


def fake_trace(f, dt=0.01):
    f = np.asarray(f, dtype=float)
    n = len(f)
    return dynamics.SimulationTrace(
        t=np.arange(n) * dt, f_coi=f, f_gen=np.repeat(f[:, None], 3, axis=1),
        p_attack=np.zeros(n), p_reserve_up=np.zeros(n),
        p_reserve_down=np.zeros(n), events=(), dt=dt)


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


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=47.0, max_value=53.0),
                min_size=2, max_size=400))
def test_metrics_ordering_invariants(samples):
    mx = analysis.metrics(fake_trace(np.array(samples)))
    assert mx.nadir_hz <= mx.settled_f_hz <= mx.zenith_hz
    assert mx.nadir_hz <= mx.zenith_hz
    if mx.settle_time_s is not None:
        assert mx.settle_time_s >= 0.0


def quick_cfg(duration=30.0):
    return dynamics.SimConfig(duration=duration)


def test_magnitude_sweep_orders_points(model):
    fit = analysis.magnitude_sweep(model, AttackType.DEMAND_INCREASE,
                                   [8.0, 4.0], config=quick_cfg())
    assert [p for p, _ in fit.points] == [4.0, 8.0]
    assert fit.slope < 0
    swapped = analysis.magnitude_sweep(model, AttackType.DEMAND_INCREASE,
                                       [4.0, 8.0], config=quick_cfg())
    assert swapped.points == fit.points


def test_magnitude_sweep_skips_unstable_runs(model):
    # overdriving a 1 pu load bus far into net export destabilizes the case
    fit = analysis.magnitude_sweep(model, AttackType.DEMAND_REDUCTION,
                                   [60.0, 100.0, 200.0], config=quick_cfg(10.0))
    assert len(fit.points) == 2
    assert len(fit.skipped) == 1
    assert fit.skipped[0][0] == 200.0


def test_magnitude_sweep_needs_two_points(model):
    with pytest.raises(analysis.FitError):
        analysis.magnitude_sweep(model, AttackType.DEMAND_INCREASE,
                                 [8.0], config=quick_cfg(10.0))


def test_magnitude_sweep_reduction_tracks_zenith(model):
    fit = analysis.magnitude_sweep(model, AttackType.DEMAND_REDUCTION,
                                   [4.0, 8.0], config=quick_cfg())
    assert fit.slope > 0  # zenith climbs with magnitude
    assert all(hz > 50.0 for _, hz in fit.points)


def base_switching(**kw):
    kw.setdefault("family", "switching")
    kw.setdefault("attack_type", AttackType.DEMAND_INCREASE)
    kw.setdefault("magnitude_percent", 8.0)
    kw.setdefault("t1", 8.0)
    return attacks.AttackScenario(**kw)


def test_timing_sweep_prefers_real_reversion(model):
    """Reverting one step after onset barely disturbs anything; a reversion
    a few seconds in leaves a large post-reversion swing."""
    optimal, results = analysis.timing_sweep(model, base_switching(),
                                             [1.01, 4.0], quick_cfg(20.0))
    assert optimal == 4.0
    assert results[1.01].nadir_hz > 49.99
    assert results[4.0].nadir_hz < 49.7


def test_timing_sweep_rejects_early_t1(model):
    with pytest.raises(ValueError):
        analysis.timing_sweep(model, base_switching(), [0.5, 4.0],
                              quick_cfg(20.0))


def test_late_reversion_acts_like_a_fresh_opposite_step(model):
    """Reverting after the transient has settled looks like a fresh
    demand-reduction step of the same size, by superposition."""
    sw = dynamics.simulate(
        model, attacks.compile_scenario(model, base_switching(t1=60.0)),
        dynamics.SimConfig(duration=100.0))
    # deviation is measured from the droop-settled level the reversion
    # starts at, which is what the superposed step acts on
    post = np.abs(sw.f_coi[6000:] - sw.f_coi[5999]).max()
    dr = dynamics.simulate(
        model,
        attacks.compile_scenario(
            model, attacks.AttackScenario(
                family="static", attack_type=AttackType.DEMAND_REDUCTION,
                magnitude_percent=8.0)),
        dynamics.SimConfig(duration=40.0))
    fresh = np.abs(dr.f_coi - 50.0).max()
    assert post == pytest.approx(fresh, rel=0.10)


def test_calibrate_default_anchor_hits_box_corner(calibrated):
    """The anchor response is slower than anything inside the search box,
    so the fit parks at the softest corner and flags the misfit."""
    assert calibrated.r_droop == pytest.approx(0.08)
    assert calibrated.t_g == pytest.approx(5.0)
    assert calibrated.d == pytest.approx(0.0)
    assert calibrated.objective_residual == pytest.approx(0.0443, abs=2e-3)
    assert calibrated.quality_warning is True


def test_calibrated_defaults_are_baked_into_the_case(model, calibrated):
    # builtin_wscc9 ships exactly what the default calibration produces
    assert calibrated.apply(model) == model


def test_calibrate_settled_only_anchor(model):
    cal = analysis.calibrate(model, anchors=((12.0, None, 49.8),))
    assert cal.objective_residual < 1e-3
    assert cal.quality_warning is False
    tuned = cal.apply(model)
    tr = dynamics.simulate(
        tuned,
        attacks.compile_scenario(tuned, attacks.AttackScenario(
            family="static", attack_type=AttackType.DEMAND_INCREASE,
            magnitude_percent=12.0)),
        dynamics.SimConfig(duration=40.0))
    dev_pu = (50.0 - tr.f_coi[-1]) / 50.0
    composite_gain = 0.12 / dev_pu  # pu power per pu frequency
    assert 24.0 <= composite_gain <= 33.0


def test_calibrate_anchor_validation(model):
    with pytest.raises(ValueError):
        analysis.calibrate(model, anchors=())
    with pytest.raises(ValueError):
        analysis.calibrate(model, anchors=((12.0, None, None),))
    with pytest.raises(ValueError):
        analysis.calibrate(model, anchors=((12.0, 49.17),))


def test_grid_stage_matches_scalar_objective(model):
    """The vectorized coarse pass must agree bit for bit with the
    authoritative integrator at shared parameter points."""
    anchors = analysis.DEFAULT_ANCHORS
    r_vals, tg_vals, d_vals = [0.03, 0.08], [1.0, 5.0], [0.5]
    grid = analysis._grid_anchor_errors(model, anchors, r_vals, tg_vals,
                                        d_vals, dt=0.01, duration=40.0)
    cfg = dynamics.SimConfig(dt=0.01, duration=40.0)
    flat = 0
    for r in r_vals:
        for tg in tg_vals:
            for d in d_vals:
                scalar = analysis._anchor_error(
                    netmodel.with_dynamic_params(model, r, tg, d), anchors, cfg)
                assert grid[flat] == scalar
                flat += 1


def test_grid_lanes_are_independent(model):
    """A candidate's error depends on neither its lane position nor the
    other lanes: permuted candidates give permuted errors, and a grid of
    one (the single-lane form) matches its entry in a wider grid."""
    anchors = analysis.DEFAULT_ANCHORS
    r_vals, tg_vals, d_vals = [0.03, 0.05, 0.08], [1.0, 5.0], [0.0, 0.5]
    grid = analysis._grid_anchor_errors(
        model, anchors, r_vals, tg_vals, d_vals, dt=0.01, duration=10.0)
    grid = grid.reshape(3, 2, 2)
    perm = [2, 0, 1]
    permuted = analysis._grid_anchor_errors(
        model, anchors, [r_vals[i] for i in perm], tg_vals, d_vals,
        dt=0.01, duration=10.0)
    assert np.array_equal(permuted.reshape(3, 2, 2), grid[perm])
    for i_r, i_t, i_d in [(1, 1, 1), (2, 1, 0)]:  # (2, 1, 0): box corner
        one = analysis._grid_anchor_errors(
            model, anchors, [r_vals[i_r]], [tg_vals[i_t]], [d_vals[i_d]],
            dt=0.01, duration=10.0)
        assert one.shape == (1,)
        assert one[0] == grid[i_r, i_t, i_d]


SWEEP_MAGNITUDES = (2.0, 4.0, 6.0, 8.0, 9.4, 12.0, 14.0)
SHORT = dynamics.SimConfig(duration=2.0)


def sweep_schedule(model, mag):
    return attacks.compile_scenario(model, attacks.AttackScenario(
        family="static", attack_type=AttackType.DEMAND_INCREASE,
        magnitude_percent=mag))


@pytest.fixture(scope="module")
def single_runs(model):
    """f_coi of each sweep magnitude's own simulate run over SHORT."""
    return {mag: dynamics.simulate(model, sweep_schedule(model, mag),
                                   SHORT).f_coi
            for mag in SWEEP_MAGNITUDES}


@settings(max_examples=10, deadline=None)
@given(st.permutations(SWEEP_MAGNITUDES).flatmap(
    lambda mags: st.integers(1, len(mags)).map(lambda n: mags[:n])))
def test_sweep_lanes_are_exact(model, single_runs, mags):
    """Any subset and order of magnitude-sweep lanes gives each lane the
    bits of its own simulate run."""
    f, trips = analysis._sweep_lanes(
        model, [sweep_schedule(model, mag) for mag in mags], SHORT)
    assert f.shape == (201, len(mags))
    assert trips == [None] * len(mags)
    for lane, mag in enumerate(mags):
        assert np.array_equal(f[:, lane], single_runs[mag])


def test_sweep_skip_matches_single_run_instability(model):
    config = quick_cfg(10.0)
    fit = analysis.magnitude_sweep(model, AttackType.DEMAND_REDUCTION,
                                   [60.0, 200.0, 100.0], config)
    with pytest.raises(dynamics.InstabilityError) as exc:
        dynamics.simulate(model, attacks.compile_scenario(
            model, attacks.AttackScenario(
                family="static", attack_type=AttackType.DEMAND_REDUCTION,
                magnitude_percent=200.0)), config)
    assert fit.skipped == ((200.0, str(exc.value)),)


GUARD = dynamics._mark_trips


def feed_speeds(monkeypatch, speeds):
    """Make the speed guard of the real integrator see speeds[k] at
    boundary k instead of the integrated d_omega."""
    monkeypatch.setattr(dynamics, "_mark_trips",
                        lambda d_omega, trip, k: GUARD(speeds[k], trip, k))


def test_guard_trips_beside_nan_in_every_form(model, monkeypatch):
    """A NaN speed trips nothing, but a machine past the guard beside it
    does: lane 0 trips at step 1, lane 1 at step 2, lane 2 never. The
    one-lane form decides simulate, the batched form the sweep's trip
    times and the grid's inf."""
    nan = float("nan")
    speeds = np.array([
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        [[nan, 0.6, 0.0], [nan, 0.1, 0.0], [0.0, 0.0, 0.0]],
        [[0.0, 0.0, 0.0], [0.7, 0.0, 0.0], [nan, nan, nan]]])
    config = dynamics.SimConfig(duration=0.02)
    schedule = sweep_schedule(model, 8.0)
    single = []
    for lane in range(3):
        feed_speeds(monkeypatch, speeds[:, lane])
        try:
            dynamics.simulate(model, schedule, config)
            single.append(None)
        except dynamics.InstabilityError as exc:
            single.append(exc.time_s)
    assert single == [0.01, 0.02, None]
    feed_speeds(monkeypatch, speeds)
    _, trips = analysis._sweep_lanes(model, [schedule] * 3, config)
    assert trips == single
    errors = analysis._grid_anchor_errors(
        model, analysis.DEFAULT_ANCHORS, [0.03, 0.05, 0.08], [1.0], [0.5],
        dt=0.01, duration=0.02)
    assert np.isinf(errors).tolist() == [True, True, False]


def test_all_tripped_batch_stops_at_its_last_trip(model, monkeypatch):
    """A batch whose lanes have all tripped integrates no further, and
    its skip reasons are the single runs' messages."""
    config = dynamics.SimConfig(duration=60.0)
    mags = [200.0, 400.0]
    single = []
    for mag in mags:
        with pytest.raises(dynamics.InstabilityError) as exc:
            dynamics.simulate(model, attacks.compile_scenario(
                model, attacks.AttackScenario(
                    family="static", attack_type=AttackType.DEMAND_REDUCTION,
                    magnitude_percent=mag)), config)
        single.append(exc.value)
    assert [e.time_s for e in single] == pytest.approx([5.20, 4.36])
    seen = []  # (k, trip) of each boundary
    lockstep = dynamics._lockstep

    def counted(*args):
        for out in lockstep(*args):
            seen.append((out[0], out[-1]))
            yield out

    monkeypatch.setattr(dynamics, "_lockstep", counted)
    with pytest.raises(analysis.FitError):
        analysis.magnitude_sweep(model, AttackType.DEMAND_REDUCTION, mags,
                                 config)
    assert [k for k, _ in seen] == list(range(521))
    reasons = [str(dynamics.InstabilityError(k * config.dt))
               for k in seen[-1][1].tolist()]
    assert reasons == [str(e) for e in single]


def test_unstable_timing_sweep_raises_like_its_single_run(model):
    config = quick_cfg(10.0)
    base = base_switching(attack_type=AttackType.DEMAND_REDUCTION,
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
    _, results = analysis.timing_sweep(model, base_switching(), t1s, config)
    assert sorted(results) == sorted(t1s)
    for v in t1s:
        tr = dynamics.simulate(model, attacks.compile_scenario(
            model, base_switching(t1=v)), config)
        assert results[v] == analysis.metrics(tr)


def test_reserve_sweep_matches_single_runs(model):
    """Reserve lags per lane: every lane's trace and sweep point equal its
    own run with the full reserve stack."""
    config = dynamics.SimConfig(duration=10.0,
                                reserves=reserves.default_products())
    mags = [12.0, 4.0, 8.0]
    schedules = [attacks.compile_scenario(model, attacks.AttackScenario(
        family="static", attack_type=AttackType.DEMAND_REDUCTION,
        magnitude_percent=mag)) for mag in mags]
    singles = {mag: dynamics.simulate(model, sch, config)
               for mag, sch in zip(mags, schedules)}
    f, _ = analysis._sweep_lanes(model, schedules, config)
    for lane, mag in enumerate(mags):
        assert np.array_equal(f[:, lane], singles[mag].f_coi)
    fit = analysis.magnitude_sweep(model, AttackType.DEMAND_REDUCTION, mags,
                                   config)
    for mag, zenith in fit.points:
        assert zenith == analysis.metrics(singles[mag]).zenith_hz


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

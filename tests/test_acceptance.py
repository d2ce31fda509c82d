"""The twelve go/no-go checks, one test each, at their stated tolerances.

Each test records a scoreboard line before asserting, so the terminal
summary shows every verdict even when a criterion fails. Criteria 3 to 9
run on the calibrated model; 1, 2 and 10 to 12 are calibration-independent.
"""
import time

import numpy as np
import pytest
from scipy.optimize import fsolve

from gridswing import analysis, attacks, cli, dynamics, netmodel, powerflow, reserves
from gridswing.attacks import AttackType
from conftest import record_criterion


def run(model, scenario, duration, reserves_set=(), dt=0.01):
    sch = attacks.compile_scenario(model, scenario)
    cfg = dynamics.SimConfig(dt=dt, duration=duration, reserves=reserves_set)
    return dynamics.simulate(model, sch, cfg)


def static(atype, percent, **kw):
    return attacks.AttackScenario(family="static", attack_type=atype,
                                  magnitude_percent=percent, **kw)


def test_c01_equilibrium(model):
    t0 = time.perf_counter()
    tr = dynamics.simulate(model, None, dynamics.SimConfig(duration=60.0))
    elapsed = time.perf_counter() - t0
    worst = float(np.max(np.abs(tr.f_coi - 50.0)))
    ok = worst < 1e-4 and elapsed < 1.0
    record_criterion(1, "equilibrium hold",
                     ok, f"max|f-50| = {worst:.2e} Hz in {elapsed:.2f} s")
    assert worst < 1e-4
    assert elapsed < 1.0


def test_c02_powerflow_oracle(model):
    t0 = time.perf_counter()
    sol = powerflow.solve(model)
    elapsed = time.perf_counter() - t0

    idx_kind = [b.kind for b in model.buses]
    ang_idx = [i for i, k in enumerate(idx_kind) if k != "slack"]
    pq_idx = [i for i, k in enumerate(idx_kind) if k == "pq"]
    idx = model.bus_index()
    ybus = powerflow.build_ybus(model)
    p_sched = np.zeros(9)
    q_sched = np.zeros(9)
    for g in model.generators:
        p_sched[idx[g.bus]] += g.p_set
    for ld in model.loads:
        p_sched[idx[ld.bus]] -= ld.p
        q_sched[idx[ld.bus]] -= ld.q
    v_fixed = np.array([b.v_set if b.v_set is not None else 1.0
                        for b in model.buses])

    def residual(x):
        theta = np.zeros(9)
        theta[ang_idx] = x[:len(ang_idx)]
        v = v_fixed.copy()
        v[pq_idx] = x[len(ang_idx):]
        s = v * np.exp(1j * theta) * np.conj(ybus @ (v * np.exp(1j * theta)))
        return np.concatenate([(s.real - p_sched)[ang_idx],
                               (s.imag - q_sched)[pq_idx]])

    x0 = np.concatenate([np.zeros(len(ang_idx)), np.ones(len(pq_idx))])
    ref = fsolve(residual, x0)
    v_ref = v_fixed.copy()
    v_ref[pq_idx] = ref[len(ang_idx):]
    theta_ref = np.zeros(9)
    theta_ref[ang_idx] = ref[:len(ang_idx)]

    dv = float(np.max(np.abs(sol.v - v_ref)))
    dth = float(np.max(np.abs(sol.theta - theta_ref)))
    ok = sol.iterations <= 10 and dv < 1e-6 and dth < 1e-6 and elapsed < 1.0
    record_criterion(2, "power flow oracle", ok,
                     f"{sol.iterations} iterations, |dV| = {dv:.1e}, "
                     f"|dtheta| = {dth:.1e}")
    assert sol.iterations <= 10
    assert dv < 1e-6 and dth < 1e-6
    assert elapsed < 1.0


def test_c03_static_di12_depth(calibrated_model):
    tr = run(calibrated_model, static(AttackType.DEMAND_INCREASE, 12.0), 40.0)
    mx = analysis.metrics(tr)
    nadir_ok = abs(mx.nadir_hz - 49.17) <= 0.10
    settled_ok = abs(mx.settled_f_hz - 49.8) <= 0.05
    record_criterion(3, "static DI 12% depth", nadir_ok and settled_ok,
                     f"nadir {mx.nadir_hz:.3f} Hz (target 49.17 +- 0.10), "
                     f"settled {mx.settled_f_hz:.3f} Hz (target 49.8 +- 0.05)")
    assert settled_ok, mx.settled_f_hz
    assert nadir_ok, mx.nadir_hz


def test_c04_linear_law(calibrated_model):
    t0 = time.perf_counter()
    fit = analysis.magnitude_sweep(
        calibrated_model, attacks.AttackScenario(
            family="static", attack_type=AttackType.DEMAND_INCREASE),
        [4.0, 6.0, 8.0, 9.4, 12.0, 14.0],
        config=dynamics.SimConfig(duration=60.0))
    elapsed = time.perf_counter() - t0
    slope_ok = abs(fit.slope - (-0.06)) <= 0.012
    icept_ok = abs(fit.intercept - 49.92) <= 0.08
    r2_ok = fit.r_squared > 0.99
    ok = slope_ok and icept_ok and r2_ok and elapsed < 60.0
    record_criterion(4, "linear nadir law", ok,
                     f"slope {fit.slope:.4f} Hz/% (target -0.06 +- 0.012), "
                     f"intercept {fit.intercept:.3f} Hz (target 49.92 +- 0.08), "
                     f"R^2 {fit.r_squared:.5f}")
    assert slope_ok, fit.slope
    assert icept_ok, fit.intercept
    assert r2_ok, fit.r_squared
    assert elapsed < 60.0


def test_c05_reduction_asymmetry(calibrated_model):
    prods = reserves.default_products()
    dr = run(calibrated_model, static(AttackType.DEMAND_REDUCTION, 12.0),
             40.0, reserves_set=prods)
    di = run(calibrated_model, static(AttackType.DEMAND_INCREASE, 12.0),
             40.0, reserves_set=prods)
    up_dev = float(dr.f_coi.max() - 50.0)
    down_dev = float(50.0 - di.f_coi.min())
    value_ok = abs(up_dev - 0.88) <= 0.10
    order_ok = up_dev > down_dev
    record_criterion(5, "DR/DI asymmetry with reserves", value_ok and order_ok,
                     f"DR zenith dev {up_dev:.3f} Hz (target 0.88 +- 0.10), "
                     f"DI nadir dev {down_dev:.3f} Hz, DR > DI: {order_ok}")
    assert order_ok, (up_dev, down_dev)
    assert value_ok, up_dev


def test_c06_switching_swing(calibrated_model):
    sw = attacks.AttackScenario(family="switching",
                                attack_type=AttackType.DEMAND_INCREASE,
                                magnitude_percent=8.0, t1=8.0)
    tr = run(calibrated_model, sw, 40.0)
    st = run(calibrated_model, static(AttackType.DEMAND_INCREASE, 8.0), 40.0)
    lo = float(tr.f_coi.min())
    hi = float(tr.f_coi.max())
    cut = int(round(8.0 / 0.01))
    prefix_ok = bool(np.array_equal(tr.f_coi[:cut], st.f_coi[:cut]))
    lo_ok = abs(lo - 49.4) <= 0.15
    hi_ok = abs(hi - 50.4) <= 0.15
    record_criterion(6, "switching swing span", lo_ok and hi_ok and prefix_ok,
                     f"span {lo:.3f} .. {hi:.3f} Hz (targets 49.4 / 50.4 "
                     f"+- 0.15), prefix bit-exact: {prefix_ok}")
    assert prefix_ok
    assert hi_ok, hi
    assert lo_ok, lo


def test_c07_optimal_reversion_window(calibrated_model):
    base = attacks.AttackScenario(family="switching",
                                  attack_type=AttackType.DEMAND_INCREASE,
                                  magnitude_percent=8.0, t1=8.0)
    optimal, _ = analysis.timing_sweep(
        calibrated_model, base, [float(v) for v in range(3, 17)],
        dynamics.SimConfig(duration=40.0))
    interior = 3.0 < optimal < 16.0
    window_ok = 6.0 <= optimal <= 10.0
    record_criterion(7, "optimal reversion timing", interior and window_ok,
                     f"optimum t1 = {optimal:g} s (target interior, in [6, 10])")
    assert interior, optimal
    assert window_ok, optimal


def test_c08_periodic_boundedness(calibrated_model):
    per = attacks.AttackScenario(family="periodic",
                                 attack_type=AttackType.DEMAND_INCREASE,
                                 magnitude_percent=8.0, interval=8.0, count=25)
    tr = run(calibrated_model, per, 400.0)
    early = float(tr.f_coi[tr.t < 120.0].max())
    run_max = np.maximum.accumulate(tr.f_coi)
    growth = float(run_max[-1] - run_max[np.searchsorted(tr.t, 120.0)])
    peak_ok = abs(early - 50.476) <= 0.10
    growth_ok = growth < 0.05
    record_criterion(8, "periodic boundedness", peak_ok and growth_ok,
                     f"peak before 120 s = {early:.3f} Hz (target 50.476 "
                     f"+- 0.10), later running-max growth {growth:.4f} Hz")
    assert peak_ok, early
    assert growth_ok, growth


def test_c09_combination_strength(calibrated_model):
    comb = attacks.AttackScenario(family="combination",
                                  attack_type=AttackType.DEMAND_INCREASE,
                                  magnitude_percent=8.0, interval=8.0, count=9)
    per16 = attacks.AttackScenario(family="periodic",
                                   attack_type=AttackType.DEMAND_INCREASE,
                                   magnitude_percent=16.0, interval=8.0, count=5)
    per8 = attacks.AttackScenario(family="periodic",
                                  attack_type=AttackType.DEMAND_INCREASE,
                                  magnitude_percent=8.0, interval=8.0, count=5)
    dev = {}
    peak = {}
    for name, sc in (("comb", comb), ("per16", per16), ("per8", per8)):
        tr = run(calibrated_model, sc, 80.0)
        dev[name] = float(np.max(np.abs(tr.f_coi - 50.0)))
        peak[name] = float(tr.f_coi.max())
    peak_ok = abs(peak["comb"] - 51.11) <= 0.15
    match = abs(dev["comb"] / dev["per16"] - 1.0)
    match_ok = match <= 0.05
    ratio = dev["comb"] / dev["per8"]
    ratio_ok = ratio >= 2.0 * 0.85
    ok = peak_ok and match_ok and ratio_ok
    record_criterion(9, "combination strength", ok,
                     f"peak {peak['comb']:.3f} Hz (target 51.11 +- 0.15), "
                     f"vs periodic 16%: {match * 100:.1f}% apart (limit 5%), "
                     f"vs periodic 8%: x{ratio:.2f} (needs >= 1.7)")
    assert peak_ok, peak["comb"]
    assert ratio_ok, ratio
    assert match_ok, match


def test_c10_reserve_arithmetic():
    r1 = reserves.analytic_residual(1000.0, "raises_f")
    r2 = reserves.analytic_residual(1200.0, "raises_f")
    caps = {p.name: p.capacity_mw for p in reserves.default_products()}
    table = {"FFR": 100.0, "FCR-D up": 567.0, "FCR-D down": 547.0,
             "FCR-N": 235.0, "aFRR": 111.0, "mFRR": 300.0}
    ok = (r1.residual_mw == 218.0 and r2.residual_mw == 418.0 and caps == table)
    record_criterion(10, "reserve arithmetic", ok,
                     f"residuals {r1.residual_mw:g} / {r2.residual_mw:g} MW, "
                     f"capacity table exact: {caps == table}")
    assert r1.residual_mw == 218.0
    assert r2.residual_mw == 418.0
    assert caps == table


def test_c11_property_suite(model, tmp_path):
    lin = dynamics.SimConfig(duration=30.0, coupling="linear")
    di = run(model, static(AttackType.DEMAND_INCREASE, 8.0), 30.0)
    mirror_di = dynamics.simulate(
        model, attacks.compile_scenario(
            model, static(AttackType.DEMAND_INCREASE, 8.0)), lin)
    mirror_dr = dynamics.simulate(
        model, attacks.compile_scenario(
            model, static(AttackType.DEMAND_REDUCTION, 8.0)), lin)
    mirror = float(np.max(np.abs((mirror_di.f_coi - 50.0)
                                 + (mirror_dr.f_coi - 50.0))))
    mirror_ok = mirror < 1e-6

    d2 = 50.0 - run(model, static(AttackType.DEMAND_INCREASE, 2.0),
                    30.0).f_coi.min()
    d4 = 50.0 - run(model, static(AttackType.DEMAND_INCREASE, 4.0),
                    30.0).f_coi.min()
    doubling = d4 / d2
    doubling_ok = abs(doubling - 2.0) <= 0.10

    half = run(model, static(AttackType.DEMAND_INCREASE, 8.0), 30.0, dt=0.005)
    dt_shift = abs(float(half.f_coi.min()) - float(di.f_coi.min()))
    dt_ok = dt_shift < 1e-3

    rerun = run(model, static(AttackType.DEMAND_INCREASE, 8.0), 30.0)
    a, b = tmp_path / "one.csv", tmp_path / "two.csv"
    cli.write_trace_csv(di, str(a))
    cli.write_trace_csv(rerun, str(b))
    repeat_ok = a.read_bytes() == b.read_bytes()

    ok = mirror_ok and doubling_ok and dt_ok and repeat_ok
    record_criterion(11, "property suite", ok,
                     f"mirror {mirror:.1e} Hz, 2x magnitude -> x{doubling:.4f} "
                     f"nadir dev, dt halving shift {dt_shift:.1e} Hz, "
                     f"repeat byte-identical: {repeat_ok}")
    assert mirror_ok, mirror
    assert doubling_ok, doubling
    assert dt_ok, dt_shift
    assert repeat_ok


def test_c12_feasibility_reports():
    near = analysis.feasibility(1400.0, 2025)
    far = analysis.feasibility(9000.0, 2030)
    checks = {"near feasible": near.feasible is True,
              "near cap": near.total_flexibility_mw == 1747.0,
              "near margin": near.margin_mw == 347.0,
              "far infeasible": far.feasible is False,
              "far cap": far.total_flexibility_mw == 8000.0,
              "far margin": far.margin_mw == -1000.0}
    record_criterion(12, "feasibility thresholds", all(checks.values()),
                     f"1400 MW in 2025 feasible: {near.feasible} (cap 1747), "
                     f"9000 MW in 2030 feasible: {far.feasible} (cap 8000)")
    assert all(checks.values()), checks

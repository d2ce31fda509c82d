"""The twelve acceptance criteria as functions of a model.

Each criterion runs its experiment on the model it is given and returns a
Verdict: the parts of its scoreboard line and its checks, each stated once
as (name, passed, value) in the order test_acceptance.py asserts them.
C01, C02 and C11 take the base model, C03 to C09 the calibrated one, and
C10 and C12 take none. scan() prints the board for any list of models:

    PYTHONPATH=src python tests/criteria.py
"""
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.optimize import fsolve

from gridswing import analysis, attacks, cli, dynamics, netmodel, powerflow, reserves
from gridswing.attacks import AttackType


def attack(model=None, **kw):
    """A static DI 8 % attack with kw's fields replaced; compiled into its
    schedule when a model is given."""
    scenario = attacks.AttackScenario(**{
        "family": "static", "attack_type": AttackType.DEMAND_INCREASE,
        "magnitude_percent": 8.0, **kw})
    return scenario if model is None else \
        attacks.compile_scenario(model, scenario)


def run(model, scenario, duration, reserves_set=(), dt=0.01):
    return dynamics.simulate(model, attacks.compile_scenario(model, scenario),
                             dynamics.SimConfig(dt=dt, duration=duration,
                                                reserves=reserves_set))


class Verdict(NamedTuple):
    """A criterion's outcome: it passes when every check does."""

    num: int
    title: str
    detail: str
    checks: tuple  # (name, passed, value), in assertion order

    def line(self) -> str:
        tag = "PASS" if all(ok for _, ok, _ in self.checks) else "FAIL"
        return f"[{tag}] C{self.num:02d} {self.title}: {self.detail}"


def near(name, value, target, tol):
    """The check that value lies within tol of target."""
    return name, abs(value - target) <= tol, value


def c01(model) -> Verdict:
    t0 = time.perf_counter()
    tr = dynamics.simulate(model, None, dynamics.SimConfig(duration=60.0))
    elapsed = time.perf_counter() - t0
    worst = float(np.max(np.abs(tr.f_coi - model.f_nominal)))
    return Verdict(1, "equilibrium hold",
                   f"max|f-50| = {worst:.2e} Hz in {elapsed:.2f} s",
                   (("deviation", worst < 1e-4, worst),
                    ("elapsed", elapsed < 1.0, elapsed)))


def ybus_by_hand(model):
    idx = model.bus_index()
    n = len(model.buses)
    y = np.zeros((n, n), complex)
    for ln in model.lines:
        i, j = idx[ln.from_bus], idx[ln.to_bus]
        ys = 1.0 / complex(ln.r, ln.x)
        y[i, i] += ys + 1j * ln.b / 2
        y[j, j] += ys + 1j * ln.b / 2
        y[i, j] -= ys
        y[j, i] -= ys
    return y


def fsolve_operating_point(model):
    """(v, theta, converged, message): an independent root find of the
    power-flow mismatch equations, with scipy's fsolve as the solver."""
    n = len(model.buses)
    idx = model.bus_index()
    ybus = ybus_by_hand(model)
    p_sched = np.zeros(n)
    q_sched = np.zeros(n)
    for g in model.generators:
        p_sched[idx[g.bus]] += g.p_set
    for ld in model.loads:
        p_sched[idx[ld.bus]] -= ld.p
        q_sched[idx[ld.bus]] -= ld.q
    kinds = [b.kind for b in model.buses]
    ang_idx = [i for i, k in enumerate(kinds) if k != "slack"]
    pq_idx = [i for i, k in enumerate(kinds) if k == "pq"]
    v_fixed = np.array([b.v_set if b.v_set is not None else 1.0
                        for b in model.buses])

    def unpack(x):
        theta = np.zeros(n)
        theta[ang_idx] = x[:len(ang_idx)]
        v = v_fixed.copy()
        v[pq_idx] = x[len(ang_idx):]
        return v, theta

    def residual(x):
        v, theta = unpack(x)
        s = v * np.exp(1j * theta) * np.conj(ybus @ (v * np.exp(1j * theta)))
        return np.concatenate([(s.real - p_sched)[ang_idx],
                               (s.imag - q_sched)[pq_idx]])

    x0 = np.concatenate([np.zeros(len(ang_idx)), np.ones(len(pq_idx))])
    x, _, ier, msg = fsolve(residual, x0, full_output=True)
    return (*unpack(x), ier == 1, msg)


def c02(model) -> Verdict:
    t0 = time.perf_counter()
    sol = powerflow.solve(model)
    elapsed = time.perf_counter() - t0
    v_ref, theta_ref, _, _ = fsolve_operating_point(model)
    dv = float(np.max(np.abs(sol.v - v_ref)))
    dth = float(np.max(np.abs(sol.theta - theta_ref)))
    return Verdict(2, "power flow oracle",
                   f"{sol.iterations} iterations, |dV| = {dv:.1e}, "
                   f"|dtheta| = {dth:.1e}",
                   (("iterations", sol.iterations <= 10, sol.iterations),
                    ("dV", dv < 1e-6, dv), ("dtheta", dth < 1e-6, dth),
                    ("elapsed", elapsed < 1.0, elapsed)))


def c03(model) -> Verdict:
    mx = analysis.metrics(run(model, attack(magnitude_percent=12.0), 40.0))
    return Verdict(3, "static DI 12% depth",
                   f"nadir {mx.nadir_hz:.3f} Hz (target 49.17 +- 0.10), "
                   f"settled {mx.settled_f_hz:.3f} Hz (target 49.8 +- 0.05)",
                   (near("settled", mx.settled_f_hz, 49.8, 0.05),
                    near("nadir", mx.nadir_hz, 49.17, 0.10)))


def c04(model) -> Verdict:
    t0 = time.perf_counter()
    fit = analysis.magnitude_sweep(
        model, attack(magnitude_percent=None),
        [4.0, 6.0, 8.0, 9.4, 12.0, 14.0],
        config=dynamics.SimConfig(duration=60.0))
    elapsed = time.perf_counter() - t0
    return Verdict(4, "linear nadir law",
                   f"slope {fit.slope:.4f} Hz/% (target -0.06 +- 0.012), "
                   f"intercept {fit.intercept:.3f} Hz "
                   f"(target 49.92 +- 0.08), R^2 {fit.r_squared:.5f}",
                   (near("slope", fit.slope, -0.06, 0.012),
                    near("intercept", fit.intercept, 49.92, 0.08),
                    ("R^2", fit.r_squared > 0.99, fit.r_squared),
                    ("elapsed", elapsed < 60.0, elapsed)))


def c05(model) -> Verdict:
    prods = reserves.default_products()
    dr = run(model, attack(attack_type=AttackType.DEMAND_REDUCTION,
                           magnitude_percent=12.0), 40.0, reserves_set=prods)
    di = run(model, attack(magnitude_percent=12.0), 40.0, reserves_set=prods)
    up_dev = float(dr.f_coi.max() - model.f_nominal)
    down_dev = float(model.f_nominal - di.f_coi.min())
    order_ok = up_dev > down_dev
    return Verdict(5, "DR/DI asymmetry with reserves",
                   f"DR zenith dev {up_dev:.3f} Hz (target 0.88 +- 0.10), "
                   f"DI nadir dev {down_dev:.3f} Hz, DR > DI: {order_ok}",
                   (("DR > DI", order_ok, (up_dev, down_dev)),
                    near("DR zenith dev", up_dev, 0.88, 0.10)))


def c06(model) -> Verdict:
    tr = run(model, attack(family="switching", t1=8.0), 40.0)
    st = run(model, attack(), 40.0)
    lo = float(tr.f_coi.min())
    hi = float(tr.f_coi.max())
    cut = int(round(8.0 / 0.01))
    prefix_ok = bool(np.array_equal(tr.f_coi[:cut], st.f_coi[:cut]))
    return Verdict(6, "switching swing span",
                   f"span {lo:.3f} .. {hi:.3f} Hz (targets 49.4 / 50.4 "
                   f"+- 0.15), prefix bit-exact: {prefix_ok}",
                   (("prefix bit-exact", prefix_ok, prefix_ok),
                    near("high", hi, 50.4, 0.15),
                    near("low", lo, 49.4, 0.15)))


def c07(model) -> Verdict:
    optimal, _ = analysis.timing_sweep(
        model, attack(family="switching", t1=8.0),
        [float(v) for v in range(3, 17)], dynamics.SimConfig(duration=40.0))
    return Verdict(7, "optimal reversion timing",
                   f"optimum t1 = {optimal:g} s (target interior, in [6, 10])",
                   (("interior", 3.0 < optimal < 16.0, optimal),
                    ("window", 6.0 <= optimal <= 10.0, optimal)))


def c08(model) -> Verdict:
    tr = run(model, attack(family="periodic", interval=8.0, count=25), 400.0)
    early = float(tr.f_coi[tr.t < 120.0].max())
    run_max = np.maximum.accumulate(tr.f_coi)
    growth = float(run_max[-1] - run_max[np.searchsorted(tr.t, 120.0)])
    return Verdict(8, "periodic boundedness",
                   f"peak before 120 s = {early:.3f} Hz (target 50.476 "
                   f"+- 0.10), later running-max growth {growth:.4f} Hz",
                   (near("peak", early, 50.476, 0.10),
                    ("growth", growth < 0.05, growth)))


def c09(model) -> Verdict:
    dev = {}
    peak = {}
    for name, sc in (
            ("comb", attack(family="combination", interval=8.0, count=9)),
            ("per16", attack(family="periodic", magnitude_percent=16.0,
                             interval=8.0, count=5)),
            ("per8", attack(family="periodic", interval=8.0, count=5))):
        tr = run(model, sc, 80.0)
        dev[name] = float(np.max(np.abs(tr.f_coi - model.f_nominal)))
        peak[name] = float(tr.f_coi.max())
    match = abs(dev["comb"] / dev["per16"] - 1.0)
    ratio = dev["comb"] / dev["per8"]
    return Verdict(9, "combination strength",
                   f"peak {peak['comb']:.3f} Hz (target 51.11 +- 0.15), "
                   f"vs periodic 16%: {match * 100:.1f}% apart (limit 5%), "
                   f"vs periodic 8%: x{ratio:.2f} (needs >= 1.7)",
                   (near("peak", peak["comb"], 51.11, 0.15),
                    ("ratio", ratio >= 2.0 * 0.85, ratio),
                    ("match", match <= 0.05, match)))


def c10() -> Verdict:
    r1 = reserves.analytic_residual(1000.0, "raises_f")
    r2 = reserves.analytic_residual(1200.0, "raises_f")
    caps = {p.name: p.capacity_mw for p in reserves.default_products()}
    table = {"FFR": 100.0, "FCR-D up": 567.0, "FCR-D down": 547.0,
             "FCR-N": 235.0, "aFRR": 111.0, "mFRR": 300.0}
    return Verdict(10, "reserve arithmetic",
                   f"residuals {r1.residual_mw:g} / {r2.residual_mw:g} MW, "
                   f"capacity table exact: {caps == table}",
                   (("residual 1000", r1.residual_mw == 218.0, r1.residual_mw),
                    ("residual 1200", r2.residual_mw == 418.0, r2.residual_mw),
                    ("capacity table", caps == table, caps)))


def c11(model) -> Verdict:
    fn = model.f_nominal
    lin = dynamics.SimConfig(duration=30.0, coupling="linear")
    di = run(model, attack(), 30.0)
    mirror_di = dynamics.simulate(model, attack(model), lin)
    mirror_dr = dynamics.simulate(model, attack(
        model, attack_type=AttackType.DEMAND_REDUCTION), lin)
    mirror = float(np.max(np.abs((mirror_di.f_coi - fn)
                                 + (mirror_dr.f_coi - fn))))

    d2 = fn - run(model, attack(magnitude_percent=2.0), 30.0).f_coi.min()
    d4 = fn - run(model, attack(magnitude_percent=4.0), 30.0).f_coi.min()
    doubling = d4 / d2

    half = run(model, attack(), 30.0, dt=0.005)
    dt_shift = abs(float(half.f_coi.min()) - float(di.f_coi.min()))

    rerun = run(model, attack(), 30.0)
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "one.csv"), Path(tmp, "two.csv")
        cli.write_trace_csv(di, str(a))
        cli.write_trace_csv(rerun, str(b))
        repeat_ok = a.read_bytes() == b.read_bytes()

    return Verdict(11, "property suite",
                   f"mirror {mirror:.1e} Hz, 2x magnitude -> x{doubling:.4f} "
                   f"nadir dev, dt halving shift {dt_shift:.1e} Hz, "
                   f"repeat byte-identical: {repeat_ok}",
                   (("mirror", mirror < 1e-6, mirror),
                    near("doubling", doubling, 2.0, 0.10),
                    ("dt halving", dt_shift < 1e-3, dt_shift),
                    ("repeat byte-identical", repeat_ok, repeat_ok)))


def c12() -> Verdict:
    near = analysis.feasibility(1400.0, 2025)
    far = analysis.feasibility(9000.0, 2030)
    return Verdict(12, "feasibility thresholds",
                   f"1400 MW in 2025 feasible: {near.feasible} (cap 1747), "
                   f"9000 MW in 2030 feasible: {far.feasible} (cap 8000)",
                   (("near feasible", near.feasible is True, near.feasible),
                    ("near cap", near.total_flexibility_mw == 1747.0,
                     near.total_flexibility_mw),
                    ("near margin", near.margin_mw == 347.0, near.margin_mw),
                    ("far infeasible", far.feasible is False, far.feasible),
                    ("far cap", far.total_flexibility_mw == 8000.0,
                     far.total_flexibility_mw),
                    ("far margin", far.margin_mw == -1000.0, far.margin_mw)))


def scan(models) -> list[list[str]]:
    """Each model's 12 scoreboard lines, printed board by board. C03 to
    C09 run on the model calibrated as the calibrated_model fixture does."""
    boards = []
    for model in models:
        tuned = analysis.calibrate(model).apply(model)
        verdicts = (c01(model), c02(model), c03(tuned), c04(tuned),
                    c05(tuned), c06(tuned), c07(tuned), c08(tuned),
                    c09(tuned), c10(), c11(model), c12())
        if boards:
            print()
        boards.append([v.line() for v in verdicts])
        print("\n".join(boards[-1]))
    return boards


if __name__ == "__main__":
    scan([netmodel.builtin_wscc9()])

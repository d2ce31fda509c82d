"""Swing integration: equilibrium, inertial response, droop, events, guards."""
import hashlib

import numpy as np
import pytest

from gridswing import attacks, dynamics, netmodel, powerflow, reserves
from gridswing.attacks import AttackType

DT = 0.01


def make_schedule(model, **kw):
    kw.setdefault("family", "static")
    kw.setdefault("attack_type", AttackType.DEMAND_INCREASE)
    kw.setdefault("magnitude_percent", 8.0)
    return attacks.compile_scenario(model, attacks.AttackScenario(**kw))


def test_equilibrium_is_a_fixed_point(model):
    tr = dynamics.simulate(model, None, dynamics.SimConfig(duration=10.0))
    assert np.max(np.abs(tr.f_coi - 50.0)) < 1e-9
    assert np.max(np.abs(tr.f_gen - 50.0)) < 1e-9
    assert tr.events == ()


def test_init_state_matches_dispatch(model, pf):
    delta, e_int, p_m, y_red = dynamics.init_state(model, pf)
    idx = model.bus_index()
    dispatch = np.array([pf.p_inj[idx[g.bus]] for g in model.generators])
    assert p_m == pytest.approx(dispatch, abs=1e-9)
    base = dynamics.build_reduced(model, pf, dynamics.base_loads(model))
    assert np.array_equal(y_red, base)
    pe = dynamics.electrical_power(y_red, e_int, delta)
    assert pe == pytest.approx(p_m, abs=1e-9)


def _kron_pe_by_hand(model, pf, loads_p, e_int, delta):
    """Reduction done from scratch so the product path has a second opinion."""
    idx = model.bus_index()
    n = len(model.buses)
    yb = powerflow.build_ybus(model).copy()
    lq = np.zeros(n)
    for ld in model.loads:
        lq[idx[ld.bus]] = ld.q
    np.fill_diagonal(yb, yb.diagonal() + (loads_p - 1j * lq) / pf.v ** 2)
    yg = np.array([1.0 / (1j * g.xd_t) for g in model.generators])
    conn = np.zeros((3, n), complex)
    for i, g in enumerate(model.generators):
        j = idx[g.bus]
        conn[i, j] = yg[i]
        yb[j, j] += yg[i]
    yred = np.diag(yg) - conn @ np.linalg.solve(yb, conn.T)
    ev = e_int * np.exp(1j * delta)
    return (ev * np.conj(yred @ ev)).real


def test_initial_rocof_matches_power_jump(model, pf):
    """df/dt right after the step equals the reduced-network power jump
    over 2H. The jump is smaller than the commanded 0.252 pu because the
    voltage dip instantly sheds part of the other constant-admittance loads.
    """
    delta, e_int, _, _ = dynamics.init_state(model, pf)
    idx = model.bus_index()
    base = dynamics.base_loads(model)
    post = base.copy()
    post[idx[8]] += 0.252
    dpe = (_kron_pe_by_hand(model, pf, post, e_int, delta).sum()
           - _kron_pe_by_hand(model, pf, base, e_int, delta).sum())
    _, h_sys, _, _, _, _ = dynamics.machine_params(model)
    predicted = -dpe / (2 * h_sys.sum()) * 50.0

    tr = dynamics.simulate(model, make_schedule(model),
                           dynamics.SimConfig(duration=2.0))
    f = tr.f_coi
    k = 100  # boundary where the event lands
    measured = (-3 * f[k] + 4 * f[k + 1] - f[k + 2]) / (2 * DT)
    assert measured == pytest.approx(predicted, rel=0.01)
    naive = -0.252 / (2 * h_sys.sum()) * 50.0
    assert abs(measured) < abs(naive)  # relief only ever softens the drop


@pytest.mark.parametrize("coupling", ["network", "linear"])
def test_settled_droop_band(model, coupling):
    """Settled deviation sits just under the rigid droop prediction."""
    tr = dynamics.simulate(model, make_schedule(model),
                           dynamics.SimConfig(duration=40.0, coupling=coupling))
    dev = 50.0 - tr.f_coi[-1]
    _, _, _, gain, _, _ = dynamics.machine_params(model)
    ideal = 0.252 / gain.sum() * 50.0
    assert 0.85 * ideal <= dev < ideal


def test_voltage_relief_larger_with_network_coupling(model):
    net = dynamics.simulate(model, make_schedule(model),
                            dynamics.SimConfig(duration=40.0))
    lin = dynamics.simulate(model, make_schedule(model),
                            dynamics.SimConfig(duration=40.0, coupling="linear"))
    assert (50.0 - net.f_coi[-1]) <= (50.0 - lin.f_coi[-1])
    assert abs(net.f_coi.min() - lin.f_coi.min()) < 0.02


def test_event_snaps_to_next_boundary(model):
    sch = attacks.EventSchedule(events=(attacks.Event(1.005, 8, 0.1),))
    tr = dynamics.simulate(model, sch, dynamics.SimConfig(duration=2.0))
    assert tr.p_attack[100] == 0.0  # t = 1.00, before the snap point
    assert tr.p_attack[101] == pytest.approx(0.1)
    assert len(tr.events) == 1
    assert tr.events[0][0] == pytest.approx(1.01)


@pytest.mark.parametrize("kw", [{}, {"family": "periodic", "interval": 0.2,
                                      "count": 2}], ids=["static", "periodic"])
def test_base_reduction_is_built_once(model, pf, monkeypatch, kw):
    """One reduction per distinct load vector: the base network and the
    attacked one, however often a periodic attack switches between them."""
    loads = []

    def counting(model, pf, loads_p):
        loads.append(loads_p.copy())
        return build(model, pf, loads_p)

    build = dynamics.build_reduced
    monkeypatch.setattr(dynamics, "build_reduced", counting)
    tr = dynamics.simulate(model, make_schedule(model, **kw),
                           dynamics.SimConfig(duration=2.0), pf)
    assert len(tr.events) == (4 if kw else 1)
    assert len(loads) == 2
    assert np.array_equal(loads[0], dynamics.base_loads(model))


def test_event_beyond_horizon_is_skipped(model):
    sch = attacks.EventSchedule(events=(attacks.Event(100.0, 8, 0.1),))
    tr = dynamics.simulate(model, sch, dynamics.SimConfig(duration=2.0))
    assert tr.events == ()
    assert np.all(tr.p_attack == 0.0)
    assert np.max(np.abs(tr.f_coi - 50.0)) < 1e-9


@pytest.mark.parametrize("t_event", [1.995, 2.0])
def test_event_on_last_boundary_applies(model, t_event):
    sch = attacks.EventSchedule(events=(attacks.Event(t_event, 8, 0.1),))
    tr = dynamics.simulate(model, sch, dynamics.SimConfig(duration=2.0))
    assert [t for t, _ in tr.events] == [pytest.approx(2.0)]
    assert tr.p_attack[-1] == pytest.approx(0.1)
    assert tr.p_attack[-2] == 0.0


def test_switching_prefix_equals_static(model):
    static = dynamics.simulate(model, make_schedule(model),
                               dynamics.SimConfig(duration=20.0))
    switching = dynamics.simulate(
        model, make_schedule(model, family="switching", t1=8.0),
        dynamics.SimConfig(duration=20.0))
    cut = 800  # t < 8.0
    assert np.array_equal(static.f_coi[:cut], switching.f_coi[:cut])
    assert np.array_equal(static.f_gen[:cut], switching.f_gen[:cut])
    assert switching.p_attack[cut] == 0.0
    assert static.p_attack[cut] == pytest.approx(0.252)


# sha256 over the partial trace's t, f_coi, f_gen, p_attack, p_reserve_up
# and p_reserve_down bytes, without and with the default reserves;
# captured with numpy 2.4.6 before simulate recorded raw speeds.
PARTIAL_TRACE_SHA256 = (
    "5321ac6cb4c7171e3a20077c0ac89986021eb642d117353808d16a3c911dad18",
    "8fcf00e38c93ed018a50ff2730984d44396004f85fe9e167bc5ba078e1382733")


def test_instability_guard_preserves_partial_trace(model):
    # demand reduction at twice the scheduled total flips the bus into a
    # negative admittance; the frequency runs away and trips the guard
    for prods, digest in zip(((), reserves.default_products()),
                             PARTIAL_TRACE_SHA256):
        with pytest.raises(dynamics.InstabilityError) as exc:
            dynamics.simulate(
                model, make_schedule(model,
                                     attack_type=AttackType.DEMAND_REDUCTION,
                                     magnitude_percent=200.0),
                dynamics.SimConfig(duration=20.0, reserves=prods))
        err = exc.value
        tr = err.trace
        assert err.time_s > 1.0
        assert len(tr) >= 2
        assert tr.t[-1] == pytest.approx(err.time_s)
        # the trace documents the runaway, not a clean horizon
        assert tr.t[-1] < 20.0
        # speeds are in Hz on the raise path too
        assert np.all(tr.f_gen[0] == 50.0)
        arrays = (tr.t, tr.f_coi, tr.f_gen, tr.p_attack, tr.p_reserve_up,
                  tr.p_reserve_down)
        assert hashlib.sha256(b"".join(
            a.tobytes() for a in arrays)).hexdigest() == digest


def test_reserve_columns_signed(model):
    prods = reserves.default_products()
    tr = dynamics.simulate(
        model, make_schedule(model, attack_type=AttackType.DEMAND_REDUCTION,
                             magnitude_percent=12.0),
        dynamics.SimConfig(duration=30.0, reserves=prods))
    assert np.all(tr.p_reserve_up >= 0.0)
    assert np.all(tr.p_reserve_down <= 0.0)
    assert tr.p_reserve_down.min() < 0.0  # down products actually engaged

    bare = dynamics.simulate(model, make_schedule(model),
                             dynamics.SimConfig(duration=5.0))
    assert np.all(bare.p_reserve_up == 0.0)
    assert np.all(bare.p_reserve_down == 0.0)


def test_reserves_lift_the_nadir(model):
    plain = dynamics.simulate(model, make_schedule(model, magnitude_percent=12.0),
                              dynamics.SimConfig(duration=30.0))
    helped = dynamics.simulate(
        model, make_schedule(model, magnitude_percent=12.0),
        dynamics.SimConfig(duration=30.0, reserves=reserves.default_products()))
    assert helped.f_coi.min() > plain.f_coi.min()


def test_coi_is_inertia_weighted(model):
    tr = dynamics.simulate(model, make_schedule(model),
                           dynamics.SimConfig(duration=5.0))
    _, h_sys, _, _, _, _ = dynamics.machine_params(model)
    recomputed = tr.f_gen @ h_sys / h_sys.sum()
    assert np.allclose(tr.f_coi, recomputed, atol=1e-12)


def test_slope_triggered_periodic_in_simulation(model):
    sch = make_schedule(model, family="periodic", interval=8.0, count=2,
                        trigger="slope")
    tr = dynamics.simulate(model, sch, dynamics.SimConfig(duration=80.0))
    assert len(tr.events) == 4  # opening step plus three triggered releases
    times = [t for t, _ in tr.events]
    assert times[0] == pytest.approx(1.0)
    # first release rides the recovery after the nadir near 4.8 s
    assert 5.0 < times[1] < 7.0
    for a, b in zip(times[1:], times[2:]):
        assert b - a >= 8.0 - 1e-9  # refractory honoured
    assert tr.p_attack[-1] == pytest.approx(0.0, abs=1e-15)


def test_simconfig_rejects_bad_values():
    nan, inf = float("nan"), float("inf")
    for kw in ({"dt": 0.0}, {"duration": -1.0}, {"coupling": "spooky"},
               {"dt": nan}, {"duration": nan}, {"dt": inf},
               {"duration": inf}, {"dt": 1e-300, "duration": 1e300},
               # 0.3 s steps reach 0.9 s or 1.2 s, never the asked 1.0 s
               {"dt": 0.3, "duration": 1.0}):
        with pytest.raises(ValueError):
            dynamics.SimConfig(**kw)


# 0.7 / 0.1 = 6.999999999999999 and 1.1 / 0.1 = 11.000000000000002
@pytest.mark.parametrize("dt, duration, steps", [(0.1, 0.7, 7),
                                                 (0.1, 1.1, 11),
                                                 (0.01, 0.03, 3)])
def test_horizon_is_exact_despite_float_rounding(dt, duration, steps):
    assert dynamics.SimConfig(dt=dt, duration=duration).n_steps == steps


def test_machine_params_totals(model):
    mva, h_sys, d_sys, gain, t_g, p_max = dynamics.machine_params(model)
    assert mva.tolist() == [247.5, 192.0, 128.0]
    assert h_sys.sum() == pytest.approx(33.03785)
    assert gain.sum() == pytest.approx(70.9375)
    assert np.all(d_sys == 0.0)
    assert p_max.tolist() == [2.5, 3.0, 2.7]


@pytest.mark.parametrize("coupling, schedule_kw, feature", [
    ("linear", {}, "linear coupling"),
    ("network", {"family": "periodic", "interval": 8.0, "count": 2,
                 "trigger": "slope"}, "slope trigger"),
], ids=["linear", "slope"])
def test_single_lane_features_reject_batches(model, pf, coupling,
                                             schedule_kw, feature):
    sch = make_schedule(model, **schedule_kw)
    config = dynamics.SimConfig(duration=1.0, coupling=coupling)
    with pytest.raises(ValueError, match=feature):
        next(dynamics._lockstep([model, model], pf, [sch, sch], config))

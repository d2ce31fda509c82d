"""Swing integration: equilibrium, inertial response, droop, events, guards."""
import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from gridswing import attacks, dynamics, netmodel, powerflow, reserves
from gridswing.attacks import AttackType
from criteria import attack

DT = 0.01


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


def same_bits(a, b):
    return np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                          np.ascontiguousarray(b).view(np.uint64))


def _allocating_pe(y_red, e_int, delta):
    """The electrical power as one allocating expression, per lane."""
    ev = e_int * np.exp(1j * delta)
    return (ev * np.conj(y_red @ ev)).real


def test_power_kernel_bits_equal_the_allocating_expression(model, pf):
    """The buffered kernel, reused across calls with y_red swapped between
    them as an event does, gives the bits of the allocating expression for
    one lane and for a 5-lane batch, whose flat angle row gives a flat
    power row, under a (lanes, m, m) stack and under one shared reduction;
    negative angles included. So does a 405-lane batch, wide enough for
    numpy's vector loops, at angles up to +-1e4 rad, which a lane past the
    speed guard reaches as it winds until its span ends."""
    _, e_int, _, y_base = dynamics.init_state(model, pf)
    loads = dynamics.base_loads(model)
    loads[model.bus_index()[8]] += 0.3
    y_event = dynamics.build_reduced(model, pf, loads)
    rng = np.random.default_rng(7)
    angles = rng.uniform(-4.0, 4.0, size=(6, 5, 3))
    angles[0, 0] = (-0.5, -1e-300, -0.0)
    one = dynamics._power_kernel(e_int, 1)
    batch = dynamics._power_kernel(e_int, 5)
    stack = np.stack([y_base, y_event, y_event, y_base, y_event])
    for i, delta in enumerate(angles):
        y_red = (y_base, y_event)[i % 2]
        assert same_bits(one(y_red, delta[0]),
                         _allocating_pe(y_red, e_int, delta[0]))
        stack[i % 5] = y_red
        for coupling in (stack, y_red):
            got = batch(coupling, delta.reshape(-1))
            assert got.shape == (15,)
            for lane, lane_pe in enumerate(got.reshape(5, 3)):
                assert same_bits(lane_pe, _allocating_pe(
                    np.broadcast_to(coupling, stack.shape)[lane], e_int,
                    delta[lane]))
    assert same_bits(dynamics.electrical_power(y_event, e_int, angles[0, 0]),
                     _allocating_pe(y_event, e_int, angles[0, 0]))
    wide = rng.uniform(-1e4, 1e4, size=(405, 3))
    stack = np.stack([(y_base, y_event)[lane % 2] for lane in range(405)])
    for coupling in (stack, y_event):
        got = dynamics._power_kernel(e_int, 405)(coupling, wide.reshape(-1))
        for lane, lane_pe in enumerate(got.reshape(405, 3)):
            assert same_bits(lane_pe, _allocating_pe(
                np.broadcast_to(coupling, stack.shape)[lane], e_int,
                wide[lane]))


@pytest.mark.parametrize("n_lanes", [1, 405])
def test_power_kernel_allocates_no_buffer(model, pf, n_lanes):
    """Once made, the kernel writes into its own buffers: a call allocates
    nothing at one lane, and at 405 lanes, under a shared reduction or a
    stack, only numpy's few hundred bytes of per-call gufunc bookkeeping,
    below an eighth of one (B m,) row of float64."""
    _, e_int, _, y_red = dynamics.init_state(model, pf)
    power = dynamics._power_kernel(e_int, n_lanes)
    delta = np.random.default_rng(5).uniform(-4.0, 4.0, 3 * n_lanes)
    couplings = [y_red] if n_lanes == 1 else [
        y_red, np.broadcast_to(y_red, (n_lanes, 3, 3)).copy()]
    for coupling in couplings:
        power(coupling, delta)  # numpy's first-call set-up
        tracemalloc.start()
        try:
            power(coupling, delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak == 0 if n_lanes == 1 else peak < delta.nbytes / 8


def _plain_rk4(models, pf, schedules, config, n_steps):
    """Each lane's (f_coi, d_omega) at boundaries 0 .. n_steps from the
    per-variable RK4 y + dt/6 (k1 + 2 k2 + 2 k3 + k4), one lane at a time,
    in the integrator's boundary order: events, reserve update, step. Every
    machine constant and the MW scale come from the lane's own model; the
    network, loads, dispatch and f_nominal from models[0]."""
    model = models[0]
    delta0, e_int, p_ref, y_red0 = dynamics.init_state(model, pf)
    f_nom = model.f_nominal
    omega_s = 2.0 * np.pi * f_nom
    dt = config.dt
    products = tuple(p for p in config.reserves if p.enabled)
    alpha = reserves.lag_factors(products, dt)
    if config.coupling == "linear":
        build, power = dynamics._linear_coupling(model, pf, y_red0, e_int,
                                                 delta0, p_ref)
    else:
        def power(y_red, delta):
            return dynamics.electrical_power(y_red, e_int, delta)

        def build(loads_p):
            return dynamics.build_reduced(model, pf, loads_p)

    lanes = []
    for lane_model, schedule in zip(models, schedules):
        mva, h_sys, d_sys, droop_gain, t_g, p_max = dynamics.machine_params(
            lane_model)
        mw_to_pu = netmodel.national_mw_scale(lane_model)
        loads = dynamics.base_loads(model)
        coupling = build(loads.copy())
        delta, dw, pm = delta0.copy(), np.zeros_like(delta0), p_ref.copy()
        outputs = np.zeros((1, len(products)))
        p_res = None

        def rhs(dl, w, m):
            surplus = m - power(coupling, dl) if p_res is None \
                else (m + p_res) - power(coupling, dl)
            return (omega_s * w, (surplus - d_sys * w) / (2.0 * h_sys),
                    ((p_ref - droop_gain * w) - m) / t_g)

        samples = []
        for k in range(n_steps + 1):
            for ev in schedule.events:
                if dynamics.step_index(ev.time, dt) == k:
                    loads[model.bus_index()[ev.bus]] += ev.delta_p
                    coupling = build(loads.copy())
            f_coi = f_nom * (1.0 + np.vecdot(dw, h_sys) / h_sys.sum())
            if products:
                outputs = reserves.respond(outputs, [[
                    reserves.command(p, float(f_coi), f_nom)
                    for p in products]], alpha)
                p_res = mva / mva.sum() * (sum(outputs[0].tolist())
                                           * mw_to_pu)
            samples.append((f_coi, dw.copy()))
            y = (delta, dw, pm)
            k1 = rhs(*y)
            k2 = rhs(*(v + 0.5 * dt * s for v, s in zip(y, k1)))
            k3 = rhs(*(v + 0.5 * dt * s for v, s in zip(y, k2)))
            k4 = rhs(*(v + dt * s for v, s in zip(y, k3)))
            delta, dw, pm = (v + dt / 6.0 * (((a + 2.0 * b) + 2.0 * c) + d)
                             for v, a, b, c, d in zip(y, k1, k2, k3, k4))
            pm = np.minimum(np.maximum(pm, 0.0), p_max)
        lanes.append(samples)
    return lanes


def machines(model, h=1.0, headroom=None, ratings=(1.0, 1.0, 1.0),
             **fields):
    """The model with every machine's H times h, each rating times its
    factor in ratings and, given headroom, every governor ceiling headroom
    pu above the machine's p_set; fields replace NetworkModel fields."""
    def governor(g):
        return g.governor if headroom is None else dataclasses.replace(
            g.governor, p_max=g.p_set + headroom)
    return dataclasses.replace(model, generators=tuple(
        dataclasses.replace(g, h=g.h * h, mva_base=g.mva_base * rating,
                            governor=governor(g))
        for g, rating in zip(model.generators, ratings)), **fields)


def own_machines(model):
    """Lanes that differ from the model in H, in p_max (the slack's ceiling
    sits below its dispatch, so its clip binds from the first step) and in
    what sets the reserves' share per machine and MW scale (H, the slack's
    rating and national_total_mw)."""
    return [model, machines(model, h=0.6), machines(model, headroom=0.02),
            machines(model, h=0.8, ratings=(1.5, 1.0, 1.0),
                     national_total_mw=12000.0)]


@pytest.mark.parametrize("coupling", ["network", "linear"])
def test_lockstep_is_plain_rk4_bit_for_bit(model, pf, coupling):
    """The integrator's doubled-slope stages (2 k2 and 2 k3 straight from
    rhs) give the bits of textbook RK4: for one lane without reserves, for
    six lanes with their own governors, magnitudes, inertia, ceilings and
    MW scale under the default reserves, and for one lane whose governor
    ceiling binds."""
    n_steps = 100
    one = ([model], [attack(model, t_start=0.05)],
           dynamics.SimConfig(duration=n_steps * DT, coupling=coupling))
    # machine 3's ceiling 0.9 pu, 0.05 above its dispatch, binds from about
    # 0.66 s under a fast, stiff governor
    *rest, g3 = model.generators
    capped = dataclasses.replace(model, generators=(*rest, dataclasses.replace(
        g3, governor=dataclasses.replace(g3.governor, p_max=0.9))))
    fast = (0.03, 1.0, 0.0)
    clipped = ([netmodel.with_dynamic_params(capped, *fast)],
               [attack(model, t_start=0.05, magnitude_percent=20.0)],
               one[2])
    # lanes 3, 4 and 5 are lanes 0, 1 and 2 on machines of their own
    six = ([netmodel.with_dynamic_params(lane, *params) for lane, params in
            zip([model] * 2 + own_machines(model),
                ((0.05, 2.0, 0.0), (0.08, 5.0, 1.0), (0.03, 1.0, 2.0)) * 2)],
           [attack(model, t_start=0.05, magnitude_percent=mag)
            for mag in (4.0, 8.0, 12.0) * 2],
           dynamics.SimConfig(duration=n_steps * DT, coupling=coupling,
                              reserves=reserves.default_products()))
    for models, schedules, config in (one, six, clipped):
        want = _plain_rk4(models, pf, schedules, config, n_steps)
        # no two lanes end alike, so each machine difference acted
        assert len({lane[-1][1].tobytes() for lane in want}) == len(want)
        seen = 0
        for k0, f_coi, d_omega, *_ in dynamics._lockstep(
                models, pf, schedules, config):
            for k, (f_row, dw_row) in enumerate(zip(f_coi, d_omega), k0):
                for lane, samples in enumerate(want):
                    f_ref, dw_ref = samples[k]
                    assert same_bits(f_row[lane], f_ref)
                    assert same_bits(dw_row[lane], dw_ref)
                seen += 1
        assert seen == n_steps + 1
        assert np.abs(want[-1][-1][1]).max() > 1e-4  # the attack acted
    # the clip fired: without the ceiling the clipped lane, the loop's last,
    # ends on other speeds
    free = _plain_rk4([netmodel.with_dynamic_params(model, *fast)], pf,
                      *clipped[1:], n_steps)
    assert not same_bits(free[0][-1][1], want[0][-1][1])


@pytest.mark.parametrize("coupling", ["network", "linear"])
def test_lanes_keep_their_bits_through_every_coupling_state(model, pf,
                                                           monkeypatch,
                                                           coupling):
    """Each lane's f_coi and speeds equal its one-lane simulate at every
    boundary, bit for bit: in a switching batch whose lanes share the base
    load vector, then differ, then share it again once every reversion has
    landed (the 4 % one too, which accumulated loads would miss by one
    rounding), in a grid-like batch of governors that share one schedule
    throughout, and in a batch of lanes on machines of their own (inertia,
    ceilings, MW scale) under the default reserves, where each lane's
    yielded product outputs, split by sign and scaled by its own MW scale,
    are its simulate's reserve columns. The kernel takes one coupling while
    the lanes share a load vector and a stack while they differ, and each
    distinct load vector is built once."""
    config = dynamics.SimConfig(duration=0.6, coupling=coupling)
    shared = [attack(model, t_start=0.1)]
    batches = {
        "switching": ([model] * 4, [
            attack(model, family="switching", t_start=0.1, t1=t1,
                   magnitude_percent=mag)
            for t1, mag in ((0.2, 6.0), (0.25, 4.0), (0.3, 8.0),
                            (0.45, 12.0))], config),
        "grid": ([netmodel.with_dynamic_params(model, *params) for params in
                  ((0.05, 2.0, 0.0), (0.08, 5.0, 1.0), (0.03, 1.0, 2.0))],
                 shared * 3, config),
        "machines": (own_machines(model), shared * 4, dataclasses.replace(
            config, reserves=reserves.default_products()))}
    want = {name: [dynamics.simulate(lane, schedule, batch[2], pf)
                   for lane, schedule in zip(*batch[:2])]
            for name, batch in batches.items()}

    built, states = [], []
    # a stack of (m, m) reductions or of (m,) offsets has a lane axis more
    stack_ndim = 3 if coupling == "network" else 2

    def record(y_red):
        states.append("stack" if np.ndim(y_red) == stack_ndim else "one")

    def spying(power):  # a kernel that records each coupling it takes
        def spy(y_red, delta):
            record(y_red)
            return power(y_red, delta)
        return spy

    def counting(build):  # a builder that records each load vector
        def count(*args):
            built.append(args[-1].tobytes())
            return build(*args)
        return count

    if coupling == "network":
        make = dynamics._power_kernel
        monkeypatch.setattr(dynamics, "_power_kernel",
                            lambda *args: spying(make(*args)))
        monkeypatch.setattr(dynamics, "build_reduced",
                            counting(dynamics.build_reduced))
    else:
        pair = dynamics._linear_coupling

        def coupling_spy(*args):  # the pair, both of its functions spied on
            build, power = pair(*args)
            return counting(build), spying(power)

        monkeypatch.setattr(dynamics, "_linear_coupling", coupling_spy)
    for name, (models, schedules, config) in batches.items():
        built.clear()
        states.clear()
        seen = 0
        scales = list(map(netmodel.national_mw_scale, models))
        for k0, f_coi, d_omega, _, outputs, *_ in dynamics._lockstep(
                models, pf, schedules, config):
            for k, rows in enumerate(zip(f_coi, d_omega, outputs), k0):
                for lane, trace in enumerate(want[name]):
                    f_row, dw_row, mw_row = (r[lane] for r in rows)
                    assert same_bits(f_row, trace.f_coi[k])
                    assert same_bits(model.f_nominal * (1.0 + dw_row),
                                     trace.f_gen[k])
                    mw = mw_row.tolist()
                    assert same_bits(
                        sum(v for v in mw if v > 0) * scales[lane],
                        trace.p_reserve_up[k])
                    assert same_bits(
                        sum(v for v in mw if v < 0) * scales[lane],
                        trace.p_reserve_down[k])
                seen += 1
        assert seen == config.n_steps + 1
        assert len(built) == len(set(built)) == (5 if name == "switching"
                                                 else 2)
        runs = [s for i, s in enumerate(states) if states[i - 1:i] != [s]]
        assert runs == (["one", "stack", "one"] if name == "switching"
                        else ["one"])
    assert want["switching"][3].events[-1][0] == pytest.approx(0.45)
    # the reserves act in every machines lane, at two MW scales
    assert all(tr.p_reserve_up.max() > 0.0 for tr in want["machines"])
    assert len(set(map(netmodel.national_mw_scale,
                       batches["machines"][0]))) == 2


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
    return _allocating_pe(yred, e_int, delta)


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

    tr = dynamics.simulate(model, attack(model),
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
    tr = dynamics.simulate(model, attack(model),
                           dynamics.SimConfig(duration=40.0, coupling=coupling))
    dev = 50.0 - tr.f_coi[-1]
    _, _, _, gain, _, _ = dynamics.machine_params(model)
    ideal = 0.252 / gain.sum() * 50.0
    assert 0.85 * ideal <= dev < ideal


def test_voltage_relief_larger_with_network_coupling(model):
    net = dynamics.simulate(model, attack(model),
                            dynamics.SimConfig(duration=40.0))
    lin = dynamics.simulate(model, attack(model),
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


@pytest.mark.parametrize("kw", [
    {}, {"family": "periodic", "interval": 0.2, "count": 2},
    {"family": "periodic", "interval": 0.2, "count": 2,
     "magnitude_percent": 4.0}], ids=["static", "periodic", "periodic_4"])
def test_base_reduction_is_built_once(model, pf, monkeypatch, kw):
    """One reduction per distinct load vector: the base network and the
    attacked one, however often a periodic attack switches between them.
    At 4 % a reversion by accumulated loads, 1.0 + 0.126 - 0.126, would
    miss the base vector by one rounding."""
    loads = []

    def counting(model, pf, loads_p):
        loads.append(loads_p.copy())
        return build(model, pf, loads_p)

    build = dynamics.build_reduced
    monkeypatch.setattr(dynamics, "build_reduced", counting)
    tr = dynamics.simulate(model, attack(model, **kw),
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
    static = dynamics.simulate(model, attack(model),
                               dynamics.SimConfig(duration=20.0))
    switching = dynamics.simulate(
        model, attack(model, family="switching", t1=8.0),
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
                model, attack(model, attack_type=AttackType.DEMAND_REDUCTION,
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
        model, attack(model, attack_type=AttackType.DEMAND_REDUCTION,
                      magnitude_percent=12.0),
        dynamics.SimConfig(duration=30.0, reserves=prods))
    assert np.all(tr.p_reserve_up >= 0.0)
    assert np.all(tr.p_reserve_down <= 0.0)
    assert tr.p_reserve_down.min() < 0.0  # down products actually engaged

    bare = dynamics.simulate(model, attack(model),
                             dynamics.SimConfig(duration=5.0))
    assert np.all(bare.p_reserve_up == 0.0)
    assert np.all(bare.p_reserve_down == 0.0)


def test_reserves_lift_the_nadir(model):
    plain = dynamics.simulate(model, attack(model, magnitude_percent=12.0),
                              dynamics.SimConfig(duration=30.0))
    helped = dynamics.simulate(
        model, attack(model, magnitude_percent=12.0),
        dynamics.SimConfig(duration=30.0, reserves=reserves.default_products()))
    assert helped.f_coi.min() > plain.f_coi.min()


def test_coi_is_inertia_weighted(model):
    tr = dynamics.simulate(model, attack(model),
                           dynamics.SimConfig(duration=5.0))
    _, h_sys, _, _, _, _ = dynamics.machine_params(model)
    recomputed = tr.f_gen @ h_sys / h_sys.sum()
    assert np.allclose(tr.f_coi, recomputed, atol=1e-12)


def test_slope_triggered_periodic_in_simulation(model):
    sch = attack(model, family="periodic", interval=8.0, count=2,
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


def spans_of(models, pf, schedules, config):
    """(k0, rows, p_attack copy, f_coi, d_omega, outputs) of each span of
    _lockstep, and its applied events."""
    spans = []
    for k0, f_coi, d_omega, p_attack, outputs, applied, _ in \
            dynamics._lockstep(models, pf, schedules, config):
        assert 1 <= len(f_coi) <= dynamics.SPAN_STEPS
        assert len(d_omega) == len(outputs) == len(f_coi)
        spans.append((k0, len(f_coi), p_attack.copy(), f_coi, d_omega,
                      outputs))
    assert [k for k0, rows, *_ in spans for k in range(k0, k0 + rows)] == \
        list(range(config.n_steps + 1))
    return spans, applied


def test_spans_end_where_the_next_step_changes(model, pf, monkeypatch):
    """Every applied event and every slope release lands on a span's first
    row, so p_attack holds within a span, and no span exceeds SPAN_STEPS
    rows: in a switching batch under the default reserves and in a
    slope-triggered periodic attack. Reserves update and the trigger
    observes at every boundary once, as one boundary at a time did."""
    calls = {"command": 0, "respond": 0}
    observed = []
    for name in calls:
        def counted(*args, fn=getattr(reserves, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(reserves, name, counted)
    observe = attacks.SlopeTrigger.observe
    monkeypatch.setattr(attacks.SlopeTrigger, "observe",
                        lambda self, t, f_hz: observed.append(t)
                        or observe(self, t, f_hz))
    products = reserves.default_products()
    switching = ([model] * 3, [
        attack(model, family="switching", t_start=0.1, t1=t1)
        for t1 in (0.73, 1.5, 2.0)], dynamics.SimConfig(
            duration=3.0, reserves=products))
    slope = ([model], [attack(model, family="periodic", interval=8.0,
                              count=2, trigger="slope")],
             dynamics.SimConfig(duration=20.0))
    for models, schedules, config in (switching, slope):
        spans, applied = spans_of(models, pf, schedules, config)
        starts = {k0 for k0, *_ in spans}
        event_steps = set()
        for lane, events in enumerate(applied):
            steps = [dynamics.step_index(t, config.dt) for t, *_ in events]
            event_steps.update(steps)
            for k0, _, p_attack, *_ in spans:  # the events up to k0 apply
                assert p_attack[lane] == pytest.approx(sum(
                    dp for k, (_, _, dp) in zip(steps, events) if k <= k0),
                    abs=1e-12)
        assert event_steps <= starts
        assert starts - event_steps - {0}  # the cap cut spans too
    assert [len(events) for events in applied] == [3]  # two releases
    boundaries = switching[2].n_steps + 1
    assert calls == {"command": boundaries * 3 * len(
        [p for p in products if p.enabled]), "respond": boundaries}
    assert observed == [k * 0.01 for k in range(slope[2].n_steps + 1)]


def test_span_buffers_are_made_once_within_their_budget(model, pf):
    """A 405-lane run, three spans long (the cap, then the attack at 1 s),
    reuses one pair of span buffers, SPAN_STEPS rows of every lane's speeds
    and reserve outputs: SPAN_STEPS * 405 * m float64 without reserves."""
    config = dynamics.SimConfig(duration=1.0)
    spans, _ = spans_of([model] * 405, pf, [attack(model)] * 405, config)
    cap = dynamics.SPAN_STEPS
    assert [(k0, rows) for k0, rows, *_ in spans] == [
        (0, cap), (cap, 100 - cap), (100, 1)]
    bases = {id(a.base): a.base for *_, d_omega, outputs in spans
             for a in (d_omega, outputs)}
    assert len(bases) == 2
    assert sum(b.nbytes for b in bases.values()) == cap * 405 * 3 * 8


@pytest.mark.parametrize("schedule_kw, feature", [
    ({"family": "periodic", "interval": 8.0, "count": 2,
      "trigger": "slope"}, "slope trigger"),
], ids=["slope"])
def test_single_lane_features_reject_batches(model, pf, schedule_kw, feature):
    sch = attack(model, **schedule_kw)
    config = dynamics.SimConfig(duration=1.0)
    with pytest.raises(ValueError, match=feature):
        next(dynamics._lockstep([model, model], pf, [sch, sch], config))


def small_signal(model, pf):
    """The 9-state small-signal matrix A of the machines linearized at the
    operating point, in x = (delta - delta0, d_omega, p_m - p_ref), and
    the diagonal 1 / (2H) of its swing rows:

        delta' = omega_s dw,  2H dw' = p_m - K delta - D dw,
        T_g p_m' = -droop_gain dw - p_m,

    K from central differences of electrical_power at delta0, step 1e-6."""
    delta0, e_int, _, y_red0 = dynamics.init_state(model, pf)
    _, h, d, gain, t_g, _ = dynamics.machine_params(model)
    omega_s = 2.0 * np.pi * model.f_nominal
    m, zero = len(h), np.zeros((len(h), len(h)))
    k_sync = np.column_stack([
        (dynamics.electrical_power(y_red0, e_int, delta0 + step)
         - dynamics.electrical_power(y_red0, e_int, delta0 - step)) / 2e-6
        for step in np.eye(m) * 1e-6])
    swing = np.diag(1 / (2 * h))
    return np.block([
        [zero, omega_s * np.eye(m), zero],
        [-swing @ k_sync, -swing @ np.diag(d), swing],
        [zero, np.diag(-gain / t_g), np.diag(-1 / t_g)]]), swing


def modes(model):
    """(frequency in Hz, damping ratio, period in s) of each oscillatory
    mode of small_signal's matrix, fastest first."""
    lam = np.linalg.eigvals(small_signal(model, powerflow.solve(model))[0])
    return sorted(((mode.imag / (2.0 * np.pi), -mode.real / abs(mode),
                    2.0 * np.pi / mode.imag) for mode in lam if mode.imag > 0),
                  reverse=True)


def test_modes_of_the_small_signal_matrix(model):
    """Two lightly damped electromechanical modes and the slow governor
    mode."""
    (f1, z1, _), (f2, z2, _), (f3, z3, period) = modes(model)
    assert (f1, f2, f3) == pytest.approx((1.9450, 1.2662, 0.0730),
                                         abs=1e-4)
    assert (z1, z2) == pytest.approx((3e-5, 6e-5), abs=5e-6)
    assert z3 == pytest.approx(0.213, abs=5e-4)
    assert period == pytest.approx(13.70, abs=0.01)


def test_electromechanical_modes_show_in_the_linear_run(model, pf):
    """In a 40 s linear DI 8 % run, each machine's f_gen - f_coi from t = 1
    s, Hann-windowed, has its two largest spectral peaks within one bin
    (1 / 39.01 s = 0.0256 Hz) of the two electromechanical modes (peaks
    at 1.2561 and 1.9482 Hz)."""
    trace = dynamics.simulate(model, attack(model), dynamics.SimConfig(
        duration=40.0, coupling="linear"), pf)
    swing = (trace.f_gen - trace.f_coi[:, None])[
        dynamics.step_index(1.0, DT):]
    n = len(swing)
    spectrum = np.abs(np.fft.rfft(swing * np.hanning(n)[:, None], axis=0))
    freqs, bin_hz = np.fft.rfftfreq(n, DT), 1.0 / (n * DT)
    electromechanical = sorted(f for f, *_ in modes(model)[:2])
    for column in spectrum.T:
        peaks = [i for i in range(1, len(column) - 1)
                 if column[i - 1] < column[i] >= column[i + 1]]
        top = sorted(freqs[sorted(peaks, key=column.__getitem__)[-2:]])
        assert np.abs(np.subtract(top, electromechanical)).max() <= bin_hz


@pytest.mark.parametrize("kw", [{}, {"family": "switching", "t1": 6.0}],
                         ids=["static", "switching"])
def test_linear_coupling_matches_its_closed_form(model, pf, kw):
    """While no governor clip binds, linear coupling is a linear
    time-invariant system in (delta - delta0, d_omega, p_m - p_ref) driven by
    a power offset held over each step, so a zero-order-hold step of expm
    is its exact response; RK4 at 10 ms must agree within 1e-6 Hz. The
    oracle takes K from central differences of the network kernel at
    delta0, not from the coupling it checks."""
    schedule = attack(model, **kw)
    trace = dynamics.simulate(model, schedule, dynamics.SimConfig(
        duration=40.0, coupling="linear"), pf)
    delta0, e_int, p_ref, y_red0 = dynamics.init_state(model, pf)
    build, _ = dynamics._linear_coupling(model, pf, y_red0, e_int, delta0,
                                         p_ref)
    a, swing = small_signal(model, pf)
    h = dynamics.machine_params(model)[1]
    m, zero = len(h), np.zeros((len(h), len(h)))
    # the offset enters the swing rows as -offset / (2H)
    b = np.vstack([zero, -swing, zero])
    aug = np.zeros((4 * m, 4 * m))
    aug[:3 * m, :3 * m], aug[:3 * m, 3 * m:] = a, b
    step = expm(aug * DT)
    a_d, b_d = step[:3 * m, :3 * m], step[:3 * m, 3 * m:]

    loads = dynamics.base_loads(model)
    idx = model.bus_index()
    due = {}
    for ev in schedule.events:
        due.setdefault(dynamics.step_index(ev.time, DT), []).append(ev)
    x, offset = np.zeros(3 * m), np.zeros(m)
    f_coi, p_m = np.empty(len(trace)), np.empty((len(trace), m))
    for k in range(len(trace)):
        for ev in due.get(k, ()):
            loads[idx[ev.bus]] += ev.delta_p
            offset = build(loads)
        f_coi[k] = model.f_nominal * (1.0 + h @ x[m:2 * m] / h.sum())
        p_m[k] = p_ref + x[2 * m:]
        x = a_d @ x + b_d @ offset
    p_max = [g.governor.p_max for g in model.generators]
    assert np.all((p_m > 0) & (p_m < p_max))  # the clip never binds
    assert np.abs(trace.f_coi - f_coi).max() < 1e-6


def test_linear_coupling_is_the_network_kernels_first_order_expansion(
        model, pf):
    """K and the load sensitivities are the network kernel's derivatives
    at the operating point: moving one machine angle by eps, or one load
    bus by dp through build_reduced, the gap between the two couplings'
    powers is a second-order remainder, so it shrinks about fourfold each
    time the step halves (largest gaps 5.9e-5, 1.5e-5 and 3.7e-6 pu at
    eps 0.01, 0.005 and 0.0025 rad; 3.5e-4, 8.7e-5 and 2.2e-5 pu at dp
    0.1, 0.05 and 0.025 pu)."""
    delta0, e_int, p_ref, y_red0 = dynamics.init_state(model, pf)
    build, power = dynamics._linear_coupling(model, pf, y_red0, e_int, delta0,
                                             p_ref)
    base = dynamics.base_loads(model)
    idx = model.bus_index()

    def angle_gaps(eps):
        return [np.abs(power(build(base), delta0 + step) - dynamics
                       .electrical_power(y_red0, e_int, delta0 + step)).max()
                for step in np.eye(len(delta0)) * eps]

    def load_gaps(dp):
        gaps = []
        for load in model.loads:
            loads = base.copy()
            loads[idx[load.bus]] += dp
            y_red = dynamics.build_reduced(model, pf, loads)
            gaps.append(np.abs(power(build(loads), delta0) - dynamics
                               .electrical_power(y_red, e_int, delta0)).max())
        return gaps

    for gaps, step in ((angle_gaps, 0.01), (load_gaps, 0.1)):
        wide, mid, narrow = (np.array(gaps(step / 2 ** i)) for i in range(3))
        for ratio in (wide / mid, mid / narrow):
            assert np.all((3.5 <= ratio) & (ratio <= 4.5)), ratio


@pytest.mark.parametrize("attack_type, products, bound", [
    (AttackType.DEMAND_INCREASE, reserves.default_products(), 1e-4),
    (AttackType.DEMAND_REDUCTION, reserves.default_products(), 1e-4),
    (AttackType.DEMAND_INCREASE, (), 1e-6),
], ids=["DI-reserves", "DR-reserves", "no-reserves"])
def test_reserve_sampling_bounds_the_step_error(model, pf, attack_type,
                                                products, bound):
    """Reserves are sampled at each boundary and held over the step, so
    --dt is the reserve controller's sampling period and a run with
    reserves converges at first order in dt, without them at fourth. A
    static 12 % attack at bus 8 over 10 s at dt = 0.01 s stays within
    bound of a dt = 0.00125 s run (gaps 4.2e-5, 8.0e-7 and 4.3e-8 Hz)."""
    schedule = attack(model, attack_type=attack_type,
                      magnitude_percent=12.0, target_bus=8)

    def run(dt):
        return dynamics.simulate(model, schedule, dynamics.SimConfig(
            dt=dt, duration=10.0, reserves=products), pf).f_coi

    assert np.abs(run(0.01) - run(0.00125)[::8]).max() < bound


def test_released_events_must_target_load_buses(model):
    """Under the slope trigger the load-bus check covers the released
    events too, before the run starts."""
    sch = attacks.EventSchedule(events=(attacks.Event(1.0, 8, 0.1),
                                        attacks.Event(2.0, 4, -0.1)),
                                refractory_s=2.0)
    with pytest.raises(ValueError, match="bus 4 which has no load"):
        dynamics.simulate(model, sch, dynamics.SimConfig(duration=1.0))


def sfr_response(model, pf, percent, t):
    """The COI frequency of the one-mass system-frequency-response model
    (Anderson and Mirheydar, IEEE Trans. Power Systems 5(3), 1990, without
    reheat) after the static DI attack of criteria.attack, on the times t:

        2H x' = dPm - dP - D x,    T_g dPm' = -K x - dPm,

    x the speed deviation in pu, H, D and K the sums of machine_params'
    h_sys, d_sys and droop_gain. dP is the step of the reduced network's
    power at the initial angles, not the scheduled demand step. The step
    response A^-1 (exp(A s) - I) b of z' = A z + b, z = (x, dPm), is
    evaluated through A's eigendecomposition, with no integration."""
    _, h, d, gain, t_g, _ = dynamics.machine_params(model)
    assert np.all(t_g == t_g[0])
    event = attack(model, magnitude_percent=percent).events[0]
    delta0, e_int, p_ref, _ = dynamics.init_state(model, pf)
    loads = dynamics.base_loads(model)
    loads[model.bus_index()[event.bus]] += event.delta_p
    d_p = (dynamics.electrical_power(dynamics.build_reduced(model, pf, loads),
                                     e_int, delta0) - p_ref).sum()
    two_h = 2.0 * h.sum()
    a = np.array([[-d.sum() / two_h, 1.0 / two_h],
                  [-gain.sum() / t_g[0], -1.0 / t_g[0]]])
    b = np.array([-d_p / two_h, 0.0])
    lam, vec = np.linalg.eig(a)
    s = np.maximum(t - event.time, 0.0)
    coef = np.linalg.solve(vec, b) / lam  # A^-1 b in the eigenbasis
    x = ((np.exp(np.outer(s, lam)) - 1.0) * coef) @ vec[0]
    return model.f_nominal * (1.0 + x.real)


@pytest.mark.parametrize("params", [(0.08, 5.0, 0.0), (0.05, 2.6, 1.0),
                                    (0.03, 1.0, 0.5)])
@pytest.mark.parametrize("percent", [4.0, 12.0])
def test_coi_response_matches_the_sfr_model(model, pf, params, percent):
    """The simulated COI frequency of a static DI attack follows the
    closed-form one-mass response: nadir within 0.02 Hz and the last
    sample of 40 s within 0.005 Hz, at three governor and damping points
    of the calibration box (largest gaps 0.014 and 0.0016 Hz)."""
    tuned = netmodel.with_dynamic_params(model, *params)
    trace = dynamics.simulate(
        tuned, attack(tuned, magnitude_percent=percent),
        dynamics.SimConfig(duration=40.0), pf)
    sfr = sfr_response(tuned, pf, percent, trace.t)
    assert abs(trace.f_coi.min() - sfr.min()) < 0.02
    assert abs(trace.f_coi[-1] - sfr[-1]) < 0.005

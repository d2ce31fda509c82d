"""Transient frequency dynamics for aggregated load-attack studies.

Machine model: classical second-order swing per generator with a constant
voltage behind transient reactance, plus a first-order governor with droop
on the machine's own speed. Loads become constant admittances and the
network is Kron-reduced to the internal machine nodes, so an attack that
changes demand at a bus enters as an admittance change and every electrical
quantity downstream of it responds through the reduced network.

Per generator i (all in system pu on the model MVA base, delta in rad):

    d delta_i / dt  = omega_s * dw_i
    2 H_i d dw_i/dt = p_m_i + p_res_i - p_e_i(delta) - D_i * dw_i
    T_g d p_m_i/dt  = (p_ref_i - dw_i / R_i) - p_m_i,   0 <= p_m_i <= p_max_i

One fixed-step RK4 integrator, ``_lockstep``, serves every caller: attack
events and reserve updates land on step boundaries, and it carries either
one system (``simulate``) or a batch of lanes, each with its own event
schedule, governor and damping (sweeps and the calibration grid), through
the same expressions; every lane is bit-identical to its one-lane run. Two
electrical couplings are available:

* "network" (default): p_e from the Kron-reduced admittance matrix, rebuilt
  at every demand event. Voltage dependence of the load response is kept.
* "linear": p_e linearized at the operating point and events mapped through
  fixed sensitivities. Strictly odd-symmetric around nominal, so mirrored
  attacks produce mirrored traces to machine precision. Useful to separate
  voltage-coupling effects from the swing response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import attacks as _attacks
from . import reserves as _reserves
from .netmodel import NetworkModel, scheduled_generation
from .powerflow import PowerFlowSolution, build_ybus, solve as solve_pf

# Speed deviation beyond which a machine has lost synchronism, pu.
SPEED_GUARD_PU = 0.5


class InstabilityError(RuntimeError):
    """Loss of synchronism: a machine speed left the SPEED_GUARD_PU band.

    The truncated trace up to the failing step is attached so callers can
    inspect how the collapse developed; a lane of a sweep keeps none.
    """

    def __init__(self, time_s: float, trace: "SimulationTrace | None" = None):
        super().__init__(
            f"simulation unstable at t = {time_s:.2f} s: "
            f"machine speed deviation exceeded {SPEED_GUARD_PU} pu")
        self.time_s = time_s
        self.trace = trace


def step_index(t: float, dt: float) -> int:
    """Index of the first step boundary at or after time t.

    A time up to 1e-9 of a step short of a boundary counts as on it, so
    rounding in t / dt (0.03 / 0.01 = 2.9999999999999996) adds no step.
    """
    return math.ceil(t / dt - 1e-9)


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.01
    duration: float = 40.0  # a whole number of dt steps
    reserves: tuple = ()  # ReserveProduct set; empty = governor response only
    coupling: str = "network"  # "network" | "linear"

    def __post_init__(self):
        # NaN fails every comparison; the ratio also catches an infinite
        # duration and a step count too large for a float.
        if not (0 < self.dt < math.inf
                and 0 < self.duration / self.dt < math.inf):
            raise ValueError("dt and duration must be positive and finite")
        if abs(self.n_steps * self.dt - self.duration) > 1e-9 * self.duration:
            raise ValueError(
                f"duration {self.duration:g} s is not a whole number of "
                f"dt = {self.dt:g} s steps")
        if self.coupling not in ("network", "linear"):
            raise ValueError(f"unknown coupling {self.coupling!r}")

    @property
    def n_steps(self) -> int:
        return step_index(self.duration, self.dt)


@dataclass(frozen=True)
class SimulationTrace:
    t: np.ndarray
    f_coi: np.ndarray
    f_gen: np.ndarray  # (samples, machines)
    p_attack: np.ndarray  # commanded demand offset, pu
    p_reserve_up: np.ndarray  # pu, >= 0
    p_reserve_down: np.ndarray  # pu, <= 0
    events: tuple  # (time, label) pairs actually applied
    dt: float

    def __len__(self) -> int:
        return len(self.t)


def machine_params(model: NetworkModel):
    """System-base machine constants as arrays ordered like model.generators."""
    s_base = model.mva_base
    mva = np.array([g.mva_base for g in model.generators])
    h_sys = np.array([g.h * g.mva_base / s_base for g in model.generators])
    d_sys = np.array([g.d * g.mva_base / s_base for g in model.generators])
    droop_gain = np.array([(g.mva_base / s_base) / g.governor.r_droop
                           for g in model.generators])
    t_g = np.array([g.governor.t_g for g in model.generators])
    p_max = np.array([g.governor.p_max for g in model.generators])
    return mva, h_sys, d_sys, droop_gain, t_g, p_max


def build_reduced(model: NetworkModel, pf: PowerFlowSolution,
                  loads_p: np.ndarray) -> np.ndarray:
    """Kron-reduce the network to the (m, m) complex admittance matrix that
    couples the machine internal nodes, seen from behind xd'.

    Loads convert to admittances at the pre-attack operating voltage from
    pf, so a demand change delta_p maps to delta_y = delta_p / |V0|^2 and
    reverting the demand restores the admittance bit-for-bit.
    """
    n = len(model.buses)
    m = len(model.generators)
    idx = model.bus_index()
    ybus = build_ybus(model).copy()

    loads_q = np.zeros(n)
    for ld in model.loads:
        loads_q[idx[ld.bus]] = ld.q
    v0sq = pf.v ** 2
    np.fill_diagonal(ybus, ybus.diagonal()
                     + (loads_p - 1j * loads_q) / v0sq)

    y_g = np.array([1.0 / (1j * g.xd_t) for g in model.generators])
    conn = np.zeros((m, n), dtype=complex)
    for i, g in enumerate(model.generators):
        j = idx[g.bus]
        conn[i, j] = y_g[i]
        ybus[j, j] += y_g[i]

    return np.diag(y_g) - conn @ np.linalg.solve(ybus, conn.T)


def electrical_power(y_red: np.ndarray, e_int: np.ndarray,
                     delta: np.ndarray) -> np.ndarray:
    """Machine electrical powers for angles of shape (m,) with an (m, m)
    y_red, or (lanes, m) with a (lanes, m, m) stack.

    The stacked matrix-vector product reduces each lane in the same order
    whatever the lane count and gives the same bits as the 1-d product,
    which one lane keeps because it is faster.
    """
    ev = e_int * np.exp(1j * delta)
    if ev.ndim == 1:
        current = y_red @ ev
    else:
        current = np.matmul(y_red, ev[..., None])[..., 0]
    return (ev * np.conj(current)).real


def base_loads(model: NetworkModel) -> np.ndarray:
    n = len(model.buses)
    idx = model.bus_index()
    p = np.zeros(n)
    for ld in model.loads:
        p[idx[ld.bus]] = ld.p
    return p


def init_state(model: NetworkModel, pf: PowerFlowSolution | None = None):
    """Equilibrium (delta, e_int, p_m, y_red) at nominal speed.

    EMFs come from the power flow and y_red is the base-load reduction.
    Mechanical power is set to the reduced-network electrical power at the
    initial angles rather than to the dispatch, so with no disturbance the
    state is a fixed point of the integrator and the trace holds nominal.
    """
    if pf is None:
        pf = solve_pf(model)
    idx = model.bus_index()
    gen_ix = np.array([idx[g.bus] for g in model.generators])
    vc = pf.v * np.exp(1j * pf.theta)
    s_gen = pf.p_inj[gen_ix] + 1j * pf.q_inj[gen_ix]
    # Net injection at a generator bus is the machine output: loads are not
    # allowed to share generator buses in a valid model.
    v_t = vc[gen_ix]
    i_t = np.conj(s_gen / v_t)
    xd = np.array([g.xd_t for g in model.generators])
    e = v_t + 1j * xd * i_t

    y_red = build_reduced(model, pf, base_loads(model))
    delta = np.angle(e)
    e_int = np.abs(e)
    return delta, e_int, electrical_power(y_red, e_int, delta), y_red


def _mark_trips(d_omega: np.ndarray, trip: np.ndarray, k: int) -> int:
    """The speed guard: mark boundary k in trip for each unmarked lane with
    a machine past SPEED_GUARD_PU; return how many it marked. A NaN speed
    trips nothing, but a machine past the guard beside it does. Only when
    a quick test fails (one lane's Python floats, which is faster, or a
    batch's global max, which a NaN fails too) does fmax, skipping NaN,
    take each lane's largest speed."""
    if d_omega.ndim == 1:
        if not any(abs(w) > SPEED_GUARD_PU for w in d_omega.tolist()):
            return 0
    elif np.abs(d_omega).max() <= SPEED_GUARD_PU:
        return 0
    new = (trip < 0) & (np.fmax.reduce(np.abs(d_omega), axis=-1)
                        > SPEED_GUARD_PU)
    trip[new] = k
    return int(np.count_nonzero(new))


class _Linearization:
    """Frozen small-signal electrical model around the base-load operating
    point that y_red0 encodes."""

    def __init__(self, model, pf, y_red0, e_int, delta0):
        self.delta0 = delta0.copy()
        self.pe0 = electrical_power(y_red0, e_int, delta0)
        g, b = y_red0.real, y_red0.imag
        th = delta0[:, None] - delta0[None, :]
        ee = e_int[:, None] * e_int[None, :]
        # dPe_i/ddelta_j, j != i: E_i E_j (G sin - B cos); the diagonal
        # balances rows so a uniform angle shift leaves power unchanged.
        kk = ee * (g * np.sin(th) - b * np.cos(th))
        np.fill_diagonal(kk, 0.0)
        np.fill_diagonal(kk, -kk.sum(axis=1))
        self.k = kk

        # Sensitivity of machine powers to a demand change at each load bus,
        # central difference through the reduction at the frozen angles.
        self.sens = {}
        h = 1e-6
        for ld in model.loads:
            j = model.bus_index()[ld.bus]
            up = base_loads(model)
            dn = base_loads(model)
            up[j] += h
            dn[j] -= h
            pe_up = electrical_power(build_reduced(model, pf, up), e_int, delta0)
            pe_dn = electrical_power(build_reduced(model, pf, dn), e_int, delta0)
            self.sens[j] = (pe_up - pe_dn) / (2 * h)

    def pe(self, delta, attack_by_bus):
        out = self.pe0 + (delta - self.delta0) @ self.k.T
        for j, amount in attack_by_bus.items():
            if amount != 0.0:
                out = out + self.sens[j] * amount
        return out


def _lockstep(models, pf: PowerFlowSolution, schedules, config: SimConfig):
    """The RK4 integrator: step lanes in lockstep, each with its own schedule.

    Lane b runs models[b] under schedules[b]. The models share the network
    and initial state of models[0] and may differ in governor and damping
    (netmodel.with_dynamic_params). One lane carries (m,) state arrays and
    an (m, m) reduced admittance, because that form is faster; B lanes carry
    (B, m) arrays and a (B, m, m) stack whose rows change only for lanes
    with an event. Every expression reduces each lane on its own in a fixed
    order, so a lane's numbers do not depend on the other lanes. Reductions
    are built once per distinct load vector. Linear coupling and the slope
    trigger need a single lane.

    Buffers, all allocated once per run: the state y is one (3, *lanes)
    array, lanes being (m,) or (B, m), with rows delta, d_omega and p_m.
    The four slopes k1..k4, the stage input and the accumulator share that
    layout, so each stage input and the final combination take one call
    over all three rows, and rhs multiplies d_omega once by the stacked
    (omega_s, D, droop_gain) and divides rows 1 and 2 once by the stacked
    (2H, T_g). Every product and sum keeps the operands and the order of
    the per-variable RK4 formulas, so the numbers are those of that form;
    without reserves rhs forms p_m - p_e without adding a zero reserve
    term first. The reserve lag factors are computed once per run.

    At each boundary k = 0 .. n_steps: apply the events due (each snaps to
    the first boundary at or after its time; those past the horizon never
    apply), let the slope trigger release one, advance the reserve lags
    with the boundary frequency, apply the speed guard (_mark_trips), and
    yield (k, t, f_coi, d_omega, p_attack, (p_reserve_up, p_reserve_down),
    applied, trip); then integrate to the next boundary with reserves
    held. d_omega has the lanes' shape and f_coi one value per lane;
    p_attack, the reserve totals and trip (each lane's first boundary past
    the guard, or -1) are (B,) arrays, updated in place like d_omega (a
    view of y): copy what must outlive the step. applied holds a list of
    (time, label) per lane. A tripped lane's later numbers mean nothing;
    the run ends after the boundary where the last live lane trips.
    """
    model = models[0]
    n_lanes = len(models)
    if len(schedules) != n_lanes:
        raise ValueError("need one schedule per lane")
    if n_lanes > 1 and config.coupling == "linear":
        raise ValueError("linear coupling needs a single lane")
    if n_lanes > 1 and any(s.policy is not None for s in schedules):
        raise ValueError("the slope trigger needs a single lane")
    products = tuple(p for p in config.reserves if p.enabled)

    f_nom = model.f_nominal
    omega_s = 2.0 * np.pi * f_nom
    mva, h_sys, d_sys, droop_gain, t_g, p_max = machine_params(model)
    if n_lanes > 1:
        _, _, d_sys, droop_gain, t_g, _ = map(
            np.array, zip(*map(machine_params, models)))
    lane_shape = t_g.shape  # (m,) for one lane, (B, m) for B lanes
    h_total = h_sys.sum()
    mva_share = mva / mva.sum()
    mw_to_pu = scheduled_generation(model) / model.national_total_mw

    def stacked(*rows):
        return np.stack([np.broadcast_to(r, lane_shape) for r in rows])

    delta0, e_int, p_ref, y_red = init_state(model, pf)
    loads_p = np.tile(base_loads(model), (n_lanes, 1))
    reduced = {loads_p[0].tobytes(): y_red}
    if n_lanes > 1:
        y_red = np.tile(y_red, (n_lanes, 1, 1))
    y = stacked(delta0, 0.0, p_ref)
    _, d_omega, p_m = y_rows = tuple(y)
    k1, k2, k3, k4, stage, acc = (np.empty_like(y) for _ in range(6))
    stage_rows = tuple(stage)
    # Each slope buffer with its rows 1, 2 and 1: for rhs.
    s1, s2, s3, s4 = ((k, k[1], k[2], k[1:]) for k in (k1, k2, k3, k4))
    rates = stacked(omega_s, d_sys, droop_gain)
    lags = stacked(2.0 * h_sys, t_g)
    spare = np.empty(lane_shape)
    lin = None
    attack_by_bus: dict[int, float] = {}
    idx = model.bus_index()
    if config.coupling == "linear":
        lin = _Linearization(model, pf, y_red, e_int, delta0)
        attack_by_bus = {idx[ld.bus]: 0.0 for ld in model.loads}

    dt = config.dt
    n_steps = config.n_steps
    alpha = _reserves.lag_factors(products, dt)
    # Pre-bin (lane, bus, delta_p) by destination step so the hot loop
    # stays cheap; each lane's events keep their time order.
    by_step: dict[int, list] = {}
    for lane, schedule in enumerate(schedules):
        for ev in sorted(schedule.events, key=lambda e: e.time):
            if model.load_at(ev.bus) is None:
                raise ValueError(
                    f"event targets bus {ev.bus} which has no load")
            if ev.time > config.duration:
                continue  # never applies, and t / dt may be too large to snap
            by_step.setdefault(step_index(ev.time, dt), []).append(
                (lane, ev.bus, ev.delta_p))

    trigger = None
    if schedules[0].policy is not None:
        trigger = _attacks.SlopeTrigger(schedules[0].policy, f_nom, dt)
    outputs = np.zeros((n_lanes, len(products)))  # MW per product, signed
    p_reserve = (np.zeros(n_lanes), np.zeros(n_lanes))  # up, down; pu
    if products:
        res_rows = np.zeros((n_lanes, len(mva)))
        p_res = res_rows.reshape(lane_shape)  # a view of res_rows
    p_attack = np.zeros(n_lanes)
    applied: list[list[tuple[float, str]]] = [[] for _ in schedules]
    trip = np.full(n_lanes, -1)
    live = n_lanes
    labels = [s.label or "event" for s in schedules]

    def apply(lane: int, bus: int, delta_p: float, t_now: float):
        nonlocal y_red
        j = idx[bus]
        loads_p[lane, j] += delta_p
        p_attack[lane] += delta_p
        if lin is None:
            key = loads_p[lane].tobytes()
            if key not in reduced:
                reduced[key] = build_reduced(model, pf, loads_p[lane].copy())
            if n_lanes == 1:
                y_red = reduced[key]
            else:
                y_red[lane] = reduced[key]
        else:
            attack_by_bus[j] += delta_p
        applied[lane].append(
            (t_now, f"{labels[lane]} {delta_p:+.4f} pu @ bus {bus}"))

    def rhs(src, slopes):
        """Write the slopes at the state rows src into slopes[0]."""
        dl, dw, pm = src
        k, k_dw, k_pm, k_tail = slopes
        if lin is None:
            pe = electrical_power(y_red, e_int, dl)
        else:
            pe = lin.pe(dl, attack_by_bus)
        np.multiply(rates, dw, out=k)  # omega_s dw, D dw, droop_gain dw
        if products:
            np.add(pm, p_res, out=spare)
            np.subtract(spare, pe, out=spare)
        else:
            np.subtract(pm, pe, out=spare)
        np.subtract(spare, k_dw, out=k_dw)
        np.subtract(p_ref, k_pm, out=k_pm)
        np.subtract(k_pm, pm, out=k_pm)
        np.divide(k_tail, lags, out=k_tail)

    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    for k in range(n_steps + 1):
        t_now = k * dt
        for lane, bus, delta_p in by_step.get(k, ()):
            apply(lane, bus, delta_p, t_now)
        f_coi = f_nom * (1.0 + np.vecdot(d_omega, h_sys) / h_total)
        if trigger is not None and not trigger.exhausted:
            fired = trigger.observe(t_now, float(f_coi))
            if fired is not None:
                apply(0, *fired, t_now)
        if products:
            f_lanes = [float(f_coi)] if n_lanes == 1 else f_coi.tolist()
            outputs = _reserves.respond(
                outputs, [[_reserves.command(p, f_hz) for p in products]
                          for f_hz in f_lanes], alpha)
            # Python's left-to-right sums per lane: np.sum's pairwise order
            # could round differently.
            for lane, mw in enumerate(outputs.tolist()):
                np.multiply(mva_share, sum(mw) * mw_to_pu, out=res_rows[lane])
                p_reserve[0][lane] = sum(v for v in mw if v > 0) * mw_to_pu
                p_reserve[1][lane] = sum(v for v in mw if v < 0) * mw_to_pu

        live -= _mark_trips(d_omega, trip, k)
        yield k, t_now, f_coi, d_omega, p_attack, p_reserve, applied, trip
        if k == n_steps or not live:
            return

        # RK4 over [t, t+dt] with constant reserves and admittances
        rhs(y_rows, s1)
        np.multiply(k1, half_dt, out=stage)
        np.add(y, stage, out=stage)
        rhs(stage_rows, s2)
        np.multiply(k2, half_dt, out=stage)
        np.add(y, stage, out=stage)
        rhs(stage_rows, s3)
        np.multiply(k3, dt, out=stage)
        np.add(y, stage, out=stage)
        rhs(stage_rows, s4)
        np.multiply(k2, 2, out=acc)
        np.add(k1, acc, out=acc)
        np.multiply(k3, 2, out=k3)
        np.add(acc, k3, out=acc)
        np.add(acc, k4, out=acc)
        np.multiply(acc, sixth_dt, out=acc)
        np.add(y, acc, out=y)
        np.maximum(p_m, 0.0, out=p_m)
        np.minimum(p_m, p_max, out=p_m)


def simulate(model: NetworkModel,
             schedule: _attacks.EventSchedule | None = None,
             config: SimConfig | None = None,
             pf: PowerFlowSolution | None = None) -> SimulationTrace:
    """Integrate the system response to an attack schedule.

    One lane of _lockstep: events snap to the first step boundary at or
    after their timestamp, and each sample is recorded after the events,
    slope releases and reserve updates of its boundary, so the first
    sample is exactly nominal. A speed guard trip ends the run and raises
    InstabilityError carrying the trace up to that sample. Each boundary
    records the raw speed deviations, f_coi and p_attack, and the reserve
    totals only when a product is enabled; t and the machine frequencies
    in Hz are formed once over the recorded samples.
    """
    if config is None:
        config = SimConfig()
    if schedule is None:
        schedule = _attacks.EventSchedule(events=())
    if pf is None:
        pf = solve_pf(model)

    n_samp = config.n_steps + 1
    f_coi_arr = np.empty(n_samp)
    d_omega_arr = np.empty((n_samp, len(model.generators)))
    p_atk_arr = np.empty(n_samp)
    reserves_on = any(p.enabled for p in config.reserves)
    p_up_arr, p_dn_arr = np.zeros(n_samp), np.zeros(n_samp)

    def trace(n: int, applied) -> SimulationTrace:
        """The first n samples, speeds turned into Hz in place."""
        f_gen = d_omega_arr[:n]  # f_nom * (1.0 + d_omega)
        np.add(1.0, f_gen, out=f_gen)
        np.multiply(model.f_nominal, f_gen, out=f_gen)
        return SimulationTrace(
            t=np.arange(n) * config.dt, f_coi=f_coi_arr[:n], f_gen=f_gen,
            p_attack=p_atk_arr[:n], p_reserve_up=p_up_arr[:n],
            p_reserve_down=p_dn_arr[:n], events=tuple(applied),
            dt=config.dt)

    for k, t_now, f_coi, d_omega, p_attack, (p_up, p_dn), applied, trip in \
            _lockstep([model], pf, [schedule], config):
        f_coi_arr[k] = f_coi
        d_omega_arr[k] = d_omega
        p_atk_arr[k] = p_attack[0]
        if reserves_on:
            p_up_arr[k] = p_up[0]
            p_dn_arr[k] = p_dn[0]
    if trip[0] >= 0:
        raise InstabilityError(t_now, trace(k + 1, applied[0]))
    return trace(n_samp, applied[0])

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
events, slope releases and reserve updates land on step boundaries, and it
carries either one system (``simulate``) or a batch of lanes, each with its
own event schedule and machines (sweeps and the calibration grid), through
the same expressions; every lane is bit-identical to its one-lane run. The
boundary work that no step needs (every boundary's COI frequency, the speed
guard and the record) is done once per span of up to SPAN_STEPS steps,
which ends where an event is due. Both
electrical couplings build a lane's coupling from its load vector at each
demand event and hand it to a power kernel:

* "network" (default): the Kron-reduced admittance matrix of the loads.
  Voltage dependence of the load response is kept.
* "linear": p_e linearized at the operating point plus fixed sensitivities
  times the load change. Strictly odd-symmetric around nominal, so mirrored
  attacks produce mirrored traces to machine precision. Useful to separate
  voltage-coupling effects from the swing response.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import attacks as _attacks
from . import reserves as _reserves
from .netmodel import NetworkModel, national_mw_scale
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
    f_nominal: float  # Hz, the model's

    def __len__(self) -> int:
        return len(self.t)


def machine_params(model: NetworkModel):
    """System-base machine constants as arrays ordered like model.generators."""
    mva = np.array([g.mva_base for g in model.generators])
    h_sys, d_sys, droop_gain = np.array([
        g.on_system_base(model.mva_base) for g in model.generators
    ]).reshape(-1, 3).T.copy()
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


def _power_kernel(e_int: np.ndarray, n_lanes: int):
    """The power kernel of n_lanes lanes: a function of (y_red, delta) giving
    the powers Re(ev conj(y_red ev)), ev = e_int exp(j delta), at the flat
    (B m,) angles, in buffers made once and bound here: a call returns a 1-D
    view that the next rewrites. y_red is one (m, m) reduction all lanes
    share or a (B, m, m) stack. np.cos and np.sin write the phasor's real
    and imaginary parts in place with the bits of np.exp(1j * delta), save
    the sign of a zero sine, which the product with the complex e_int
    drops; per lane they cost less than np.exp's complex loop, the more so
    as B grows. np.matvec on (B, m) views gives each lane the bits of one
    lane's np.dot. The ufuncs are called through local names with
    positional outputs, which numpy parses faster than out= keywords."""
    m = len(e_int)
    e_int = np.tile(e_int, n_lanes).astype(complex)
    ev, current, product = np.zeros((3, n_lanes * m), dtype=complex)
    ev_re, ev_im, p_e = ev.real, ev.imag, product.real
    matvec, lanes = (np.dot, (m,)) if n_lanes == 1 else (np.matvec,
                                                         (n_lanes, m))
    ev_lanes, current_lanes = ev.reshape(lanes), current.reshape(lanes)
    cos, sin, multiply, conjugate = (np.cos, np.sin, np.multiply,
                                     np.conjugate)

    def power(y_red: np.ndarray, delta: np.ndarray) -> np.ndarray:
        cos(delta, ev_re)
        sin(delta, ev_im)
        multiply(e_int, ev, ev)
        matvec(y_red, ev_lanes, current_lanes)
        conjugate(current, current)
        multiply(ev, current, product)
        return p_e

    return power


def electrical_power(y_red: np.ndarray, e_int: np.ndarray,
                     delta: np.ndarray) -> np.ndarray:
    """_power_kernel's powers at one lane's angles, in buffers of their own."""
    return _power_kernel(e_int, 1)(y_red, delta)


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


def empty_samples(*shape) -> np.ndarray:
    """np.empty(shape), raising MemoryError before numpy reserves more
    float64 samples than the machine has physical memory for."""
    if 8 * math.prod(shape) > os.sysconf("SC_PHYS_PAGES") * os.sysconf(
            "SC_PAGE_SIZE"):
        raise MemoryError(f"cannot allocate {shape} samples")
    return np.empty(shape)


def _mark_trips(speeds: np.ndarray, trip: np.ndarray, k0: int) -> int:
    """The speed guard over a span: speeds holds the (rows, B, m) speeds of
    boundaries k0, k0 + 1, ...; mark in trip, for each unmarked lane, the
    first of them where a machine is past SPEED_GUARD_PU, and return how
    many lanes it marked. A NaN speed trips nothing, as it compares false,
    but a machine past the guard beside it does. Most spans end at the
    one test over all their speeds: numpy reduces the short machine axis
    slowly (an fmax over it took 0.9 ms on 64 rows of 405 lanes)."""
    over = np.abs(speeds) > SPEED_GUARD_PU
    if not over.any():
        return 0
    over = over.any(axis=-1)
    new = (trip < 0) & over.any(axis=0)
    trip[new] = k0 + over.argmax(axis=0)[new]
    return int(np.count_nonzero(new))


def _linear_coupling(model, pf, y_red0, e_int, delta0, pe0):
    """The (build, power) pair of the small-signal electrical model frozen
    at the base-load operating point that y_red0 encodes: build(loads_p) is
    a load vector's (m,) power offset, and power(offset, delta) is pe0 +
    K (delta - delta0) + offset, in that order, at the flat (B m,) angles of
    any number of lanes, offset one (m,) row or a (B, m) stack."""
    g, b = y_red0.real, y_red0.imag
    th = delta0[:, None] - delta0[None, :]
    ee = e_int[:, None] * e_int[None, :]
    # dPe_i/ddelta_j, j != i: E_i E_j (G sin - B cos); the diagonal
    # balances rows so a uniform angle shift leaves power unchanged.
    k = ee * (g * np.sin(th) - b * np.cos(th))
    np.fill_diagonal(k, 0.0)
    np.fill_diagonal(k, -k.sum(axis=1))

    def pe(loads_p):
        return electrical_power(build_reduced(model, pf, loads_p), e_int,
                                delta0)

    # Sensitivity (m, n) of machine powers to a demand change at each
    # bus, central difference through the reduction at the frozen angles.
    base = base_loads(model)
    h = 1e-6
    sens = np.column_stack([(pe(base + step) - pe(base - step)) / (2 * h)
                            for step in np.eye(len(base)) * h])

    def build(loads_p: np.ndarray) -> np.ndarray:
        return sens @ (loads_p - base)

    def power(offset: np.ndarray, delta: np.ndarray) -> np.ndarray:
        return ((pe0 + np.matvec(k, delta.reshape(-1, len(k)) - delta0))
                + offset).reshape(-1)

    return build, power


# Boundaries in one span at most; the span buffers hold this many rows.
# Against 64, 32 rows read 1.01-1.03x and 256 rows 0.96-1.01x on sweep
# passes, one-lane runs and a 162-lane grid, all within the noise of a
# 2-core VM; 64 rows of a 405-lane grid's speeds take 0.6 MB, 256 rows
# four times that.
SPAN_STEPS = 64


def _lockstep(models, pf: PowerFlowSolution, schedules, config: SimConfig):
    """The RK4 integrator: step lanes in lockstep, each with its own schedule.

    Lane b runs models[b] under schedules[b]: every machine constant and the MW
    scale are its model's; the network, loads, dispatch and f_nominal (so the
    initial state, from pf) are models[0]'s; the reserve set and horizon are
    config's. A lane's attack is a row of demand offsets from the base loads:
    base + row is its load vector, the row's sum its p_attack and the row's
    bytes its coupling's key (its (m, m) reduction, or its (m,) power offset
    under linear coupling), built once per key. The kernel takes the lanes' one
    coupling while they share a row, else a stack. Every lane-shaped operand is
    a flat (B m,) row, lane b at [b m, (b + 1) m), which numpy runs on its fast
    loop; one lane is the B = 1 case. (B, m) views serve the per-lane
    reductions: matvec, the COI vecdot, the speed guard and the reserve rows.
    Each lane is reduced on its own in a fixed order, so its numbers do not
    depend on the others. The slope trigger needs one lane.

    Buffers, all allocated once per run: the state y is one (3, B m) array
    with rows delta, d_omega and p_m. The four slopes k1..k4, the stage
    input and the accumulator share that layout, so each stage input and
    the final combination take one call over all three rows, and rhs
    multiplies d_omega once by the stacked (omega_s, D, droop_gain) and
    divides rows 1 and 2 once by the stacked (2H, T_g). Stages 2 and 3 run
    rhs with 2 omega_s and (H, T_g / 2) instead, so k2 and k3 hold exactly
    2 k2 and 2 k3 (a power-of-two scaling rounds like the doubling it
    replaces); their stage inputs take dt / 4 and dt / 2, and the step adds
    ((k1 + k2) + k3) + k4. Every product and sum thus keeps the operands
    and the order of the per-variable RK4 formulas
    y + dt/6 (k1 + 2 k2 + 2 k3 + k4), so the numbers are those of that
    form; without reserves rhs forms p_m - p_e without adding a zero
    reserve term first. That surplus is row 0 of a (2, B m) buffer whose
    row 1 holds p_ref, so one subtract from it forms both slope tails,
    surplus - D dw and p_ref - droop_gain dw, over rows 1 and 2 of the
    slope buffer. The network kernel keeps every stage free of allocations
    (the linear one allocates), and the step's constants (the dt multiples,
    p_ref and the clip bounds) have the shape of the arrays they meet, which
    numpy handles faster than 0-d or broadcast operands. The stage ufuncs are
    called through local names with positional outputs, which numpy parses
    faster than out= keywords; np.maximum and np.minimum keep out=, as
    numpy 2.4 deprecates their positional output.

    The run goes a span of boundaries k0 .. k1 - 1 at a time, and only what
    changes the next step stays at its boundary. A span opens by applying
    the events due at k0 (an event snaps to the first boundary at or after
    its time; those past the horizon never apply) and picking the coupling
    once, so every event lands on a span's first row and p_attack holds
    within a span. It ends before the next boundary with events due, after
    SPAN_STEPS rows or at the horizon, and early at a boundary where the
    slope trigger releases an event, which opens the next span. At each of
    its boundaries the reserve lags advance at f_coi, the slope trigger
    observes f_coi while it holds events (both from an inline f_coi, the
    formula of the span's, so the same bits) and the speeds fill a row of
    the span buffer; then the lanes are integrated to the next boundary with
    reserves held. Once per span, one vecdot over its rows gives every
    boundary's f_coi and one test of all its speeds the speed guard
    (_mark_trips), and the generator yields (k0, f_coi, d_omega, p_attack,
    outputs, applied, trip): f_coi is a (rows, B) array of its own; d_omega
    (rows, B, m) and outputs (rows, B, products), each lane's signed MW per
    reserve product, are views of buffers made once for SPAN_STEPS rows,
    SPAN_STEPS B (m + products) float64 in all; p_attack and trip (each
    lane's first boundary past the guard, or -1) are (B,) arrays updated in
    place, and applied holds each lane's raw (time, bus, delta_p) events.
    Copy the views that must outlive the span. A tripped lane's later
    numbers mean nothing, and it integrates at most to the end of the span
    it trips in; the run ends with the span in which the last live lane
    trips, cut after that boundary.
    """
    model = models[0]
    n_lanes = len(models)
    if len(schedules) != n_lanes:
        raise ValueError("need one schedule per lane")
    if n_lanes > 1 and any(s.refractory_s is not None for s in schedules):
        raise ValueError("the slope trigger needs a single lane")
    products = tuple(p for p in config.reserves if p.enabled)

    f_nom = model.f_nominal
    omega_s = 2.0 * np.pi * f_nom
    mva, h_sys, d_sys, droop_gain, t_g, p_max = map(
        np.concatenate, zip(*map(machine_params, models)))
    row = p_max.shape  # (B m,)
    h_lanes = h_sys.reshape(n_lanes, -1)
    h_total = h_lanes.sum(axis=-1)
    h_totals = h_total.tolist()
    mva_share = [lane / lane.sum() for lane in mva.reshape(n_lanes, -1)]
    mw_to_pu = list(map(national_mw_scale, models))

    def stacked(*rows):
        return np.stack([np.resize(r, row) for r in rows])

    delta0, e_int, p_ref, y_red = init_state(model, pf)
    base = base_loads(model)
    if config.coupling == "network":
        build, power = partial(build_reduced, model, pf), _power_kernel(
            e_int, n_lanes)
    else:
        build, power = _linear_coupling(model, pf, y_red, e_int, delta0,
                                        p_ref)
        y_red = build(base)
    offsets = np.zeros((n_lanes, len(base)))  # a reversion restores 0.0
    keys = [offsets[0].tobytes()] * n_lanes
    reduced = {keys[0]: y_red}
    y = stacked(delta0, 0.0, p_ref)
    _, d_omega, p_m = y_rows = tuple(y)
    dw_lanes = d_omega.reshape(n_lanes, -1)
    k1, k2, k3, k4, stage, acc = (np.empty_like(y) for _ in range(6))
    stage_rows = tuple(stage)
    # Each slope buffer with its row 2 and rows 1: and its rhs constants;
    # stages 2 and 3 take the doubled ones, so k2 and k3 hold 2 k.
    plain = (stacked(omega_s, d_sys, droop_gain), stacked(2.0 * h_sys, t_g))
    doubled = (stacked(2.0 * omega_s, d_sys, droop_gain),
               stacked(h_sys, 0.5 * t_g))
    s1, s2, s3, s4 = ((k, k[2], k[1:], *c) for k, c in (
        (k1, plain), (k2, doubled), (k3, doubled), (k4, plain)))
    # rows p_m (+ p_res) - p_e, written per stage, and p_ref, the minuends
    # of the slope tails that one subtract forms
    surplus = stacked(0.0, p_ref)
    spare = surplus[0]
    idx = model.bus_index()

    dt = config.dt
    n_steps = config.n_steps
    alpha = _reserves.lag_factors(products, dt)
    # Pre-bin (lane, bus, delta_p) by destination step, where the slope
    # trigger adds its releases; each lane's events keep their time order.
    # Under the slope trigger only the first event is timed.
    by_step: dict[int, list] = {}
    for lane, schedule in enumerate(schedules):
        for ev in schedule.events:
            if model.load_at(ev.bus) is None:
                raise ValueError(
                    f"event targets bus {ev.bus} which has no load")
        timed = schedule.events if schedule.refractory_s is None \
            else schedule.events[:1]
        for ev in sorted(timed, key=lambda e: e.time):
            if ev.time > config.duration:
                continue  # never applies, and t / dt may be too large to snap
            by_step.setdefault(step_index(ev.time, dt), []).append(
                (lane, ev.bus, ev.delta_p))
    stops = sorted(by_step) + [n_steps + 1]  # boundaries no span runs past

    trigger = None
    if schedules[0].refractory_s is not None:
        trigger = _attacks.SlopeTrigger(schedules[0].events[1:],
                                        schedules[0].refractory_s, f_nom, dt)
    outputs = np.zeros((n_lanes, len(products)))  # MW per product, signed
    if products:
        p_res = np.zeros(row)
        res_rows = p_res.reshape(n_lanes, -1)  # a view of p_res
    p_attack = np.zeros(n_lanes)
    applied: list[list[tuple[float, int, float]]] = [[] for _ in schedules]
    trip = np.full(n_lanes, -1)
    live = n_lanes
    # the span buffers and their rows
    span = min(SPAN_STEPS, n_steps + 1)
    speeds = np.empty((span, *dw_lanes.shape))
    mw_rows = np.empty((span, *outputs.shape))
    speed_rows = list(speeds)

    multiply, add, subtract, divide, copyto = (
        np.multiply, np.add, np.subtract, np.divide, np.copyto)

    def coi(dw):
        """f_coi in Hz of the (..., B, m) speeds dw, one per lane."""
        return f_nom * (1.0 + np.vecdot(dw, h_lanes) / h_total)

    def coi_now() -> list[float]:
        """coi of the current speeds as Python floats, whose operations
        round like numpy's and cost less on the one row of a boundary."""
        return [f_nom * (1.0 + v / h) for v, h in zip(
            np.vecdot(dw_lanes, h_lanes).tolist(), h_totals)]

    def released(k: int) -> bool:
        """Let the slope trigger observe boundary k while it holds events;
        true when it releases one, which is then due at k."""
        if trigger is None or not trigger.pending:
            return False
        if (fired := trigger.observe(k * dt, coi_now()[0])) is None:
            return False
        by_step.setdefault(k, []).append((0, fired.bus, fired.delta_p))
        return True

    def rhs(src, slopes):
        """Write the slopes at the state rows src into slopes[0]."""
        dl, dw, pm = src
        k, k_pm, k_tail, rates, lags = slopes
        pe = power(y_red, dl)
        multiply(rates, dw, k)  # omega_s dw, D dw, droop_gain dw
        if products:
            add(pm, p_res, spare)
            subtract(spare, pe, spare)
        else:
            subtract(pm, pe, spare)
        subtract(surplus, k_tail, k_tail)  # spare - D dw, p_ref - droop dw
        subtract(k_pm, pm, k_pm)
        divide(k_tail, lags, k_tail)

    half_dt, quarter_dt, sixth_dt = (np.full(y.shape, c) for c in (
        0.5 * dt, 0.25 * dt, dt / 6.0))
    zero = np.zeros(row)

    def step():
        """RK4 over one dt with constant reserves and admittances; k2 and k3
        hold 2 k2 and 2 k3, so they take dt / 4 and dt / 2."""
        rhs(y_rows, s1)
        multiply(k1, half_dt, stage)
        add(y, stage, stage)
        rhs(stage_rows, s2)
        multiply(k2, quarter_dt, stage)
        add(y, stage, stage)
        rhs(stage_rows, s3)
        multiply(k3, half_dt, stage)
        add(y, stage, stage)
        rhs(stage_rows, s4)
        add(k1, k2, acc)
        add(acc, k3, acc)
        add(acc, k4, acc)
        multiply(acc, sixth_dt, acc)
        add(y, acc, y)
        # numpy 2.4 deprecates a positional output for these two
        np.maximum(p_m, zero, out=p_m)
        np.minimum(p_m, p_max, out=p_m)

    released(0)
    k = 0
    while True:
        k0 = k
        if due := by_step.get(k0):
            for lane, bus, delta_p in due:
                offset = offsets[lane]
                offset[idx[bus]] += delta_p
                p_attack[lane] = offset.sum()
                key = keys[lane] = offset.tobytes()
                if key not in reduced:
                    reduced[key] = build(base + offset)
                applied[lane].append((k0 * dt, bus, delta_p))
            # the lanes' one coupling while they share a row
            y_red = reduced[keys[0]] if keys.count(keys[0]) == n_lanes \
                else np.stack([reduced[key] for key in keys])
        stop = min(k0 + span, stops[bisect_right(stops, k0)])
        while True:
            copyto(speed_rows[k - k0], dw_lanes)
            if products:
                outputs = _reserves.respond(outputs, [
                    [_reserves.command(p, f_hz, f_nom) for p in products]
                    for f_hz in coi_now()], alpha)
                # Python's left-to-right sum per lane: np.sum's pairwise
                # order could round differently.
                for lane, mw in enumerate(outputs.tolist()):
                    multiply(mva_share[lane], sum(mw) * mw_to_pu[lane],
                             res_rows[lane])
                mw_rows[k - k0] = outputs
            k += 1
            if k > n_steps:
                break
            step()
            if released(k) or k == stop:
                break

        n = k - k0
        live -= _mark_trips(speeds[:n], trip, k0)
        if not live:
            n = int(trip.max()) - k0 + 1
        yield (k0, coi(speeds[:n]), speeds[:n], p_attack,
               mw_rows[:n], applied, trip)
        if k > n_steps or not live:
            return


def simulate(model: NetworkModel,
             schedule: _attacks.EventSchedule | None = None,
             config: SimConfig | None = None,
             pf: PowerFlowSolution | None = None) -> SimulationTrace:
    """Integrate the system response to an attack schedule.

    One lane of _lockstep: events snap to the first step boundary at or
    after their timestamp, and each sample is recorded after the events,
    slope releases and reserve updates of its boundary, so the first
    sample is exactly nominal. A speed guard trip ends the run and raises
    InstabilityError carrying the trace up to that sample. Each span
    records its raw speeds, f_coi and p_attack by slice, and the signed
    reserve sums per boundary; t, the machine frequencies in Hz and the
    event text are formed once from the record. Samples past memory raise
    MemoryError.
    """
    if config is None:
        config = SimConfig()
    if schedule is None:
        schedule = _attacks.EventSchedule(events=())
    if pf is None:
        pf = solve_pf(model)

    n_samp = config.n_steps + 1
    samples = empty_samples(n_samp, 4 + len(model.generators))
    f_coi_arr, p_atk_arr, p_up_arr, p_dn_arr = samples[:, :4].T
    d_omega_arr = samples[:, 4:]
    samples[:, 2:4] = 0.0  # the reserve totals stay zero without products
    scale = national_mw_scale(model)

    def trace(n: int, applied) -> SimulationTrace:
        """The first n samples, speeds turned into Hz in place."""
        f_gen = d_omega_arr[:n]  # f_nom * (1.0 + d_omega)
        np.add(1.0, f_gen, out=f_gen)
        np.multiply(model.f_nominal, f_gen, out=f_gen)
        return SimulationTrace(
            t=np.arange(n) * config.dt, f_coi=f_coi_arr[:n], f_gen=f_gen,
            p_attack=p_atk_arr[:n], p_reserve_up=p_up_arr[:n],
            p_reserve_down=p_dn_arr[:n], events=tuple(
                (t, f"{schedule.label or 'event'} {dp:+.4f} pu @ bus {bus}")
                for t, bus, dp in applied),
            dt=config.dt, f_nominal=model.f_nominal)

    for k0, f_coi, d_omega, p_attack, outputs, applied, trip in _lockstep(
            [model], pf, [schedule], config):
        k1 = k0 + len(f_coi)
        f_coi_arr[k0:k1] = f_coi[:, 0]
        d_omega_arr[k0:k1] = d_omega[:, 0]
        p_atk_arr[k0:k1] = p_attack[0]
        if outputs.size:  # no products, no sums
            for k, mw in enumerate(outputs[:, 0].tolist(), k0):
                p_up_arr[k] = sum(v for v in mw if v > 0) * scale
                p_dn_arr[k] = sum(v for v in mw if v < 0) * scale
    if trip[0] >= 0:
        raise InstabilityError(int(trip[0]) * config.dt,
                               trace(k1, applied[0]))
    return trace(n_samp, applied[0])

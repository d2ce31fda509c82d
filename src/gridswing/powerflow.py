"""AC power flow by Newton-Raphson in polar coordinates.

Solves the steady-state operating point that seeds the dynamic model:
bus voltages and angles, net injections, and the slack dispatch that
absorbs network losses. PV buses switch to PQ when a generator hits a
reactive limit, which keeps the solver honest on stressed variants of
the built-in case even though the stock case stays well inside limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import NetworkModel

# Newton converges below a TOL pu mismatch, or fails after MAX_ITER steps.
TOL = 1e-8
MAX_ITER = 50


class DivergenceError(RuntimeError):
    """Raised when Newton iteration fails to reach tolerance.

    Carries the last mismatch norm and iteration count so callers can
    report how badly the case failed, not just that it failed.
    """

    def __init__(self, mismatch_norm: float, iterations: int):
        super().__init__(
            f"power flow did not converge: |mismatch| = {mismatch_norm:.3e} "
            f"after {iterations} iterations")
        self.mismatch_norm = mismatch_norm
        self.iterations = iterations


@dataclass(frozen=True)
class PowerFlowSolution:
    v: np.ndarray  # |V| per bus, pu
    theta: np.ndarray  # angle per bus, rad
    p_inj: np.ndarray  # net active injection per bus, pu
    q_inj: np.ndarray  # net reactive injection per bus, pu
    mismatch_norm: float
    iterations: int

    def theta_deg(self) -> np.ndarray:
        return np.degrees(self.theta)


def build_ybus(model: NetworkModel) -> np.ndarray:
    n = len(model.buses)
    idx = model.bus_index()
    y = np.zeros((n, n), dtype=complex)
    for ln in model.lines:
        i, j = idx[ln.from_bus], idx[ln.to_bus]
        ys = 1.0 / complex(ln.r, ln.x)
        ysh = 0.5j * ln.b
        y[i, i] += ys + ysh
        y[j, j] += ys + ysh
        y[i, j] -= ys
        y[j, i] -= ys
    return y


def bus_loads(model: NetworkModel) -> tuple[np.ndarray, np.ndarray]:
    """Load P and Q per bus, system pu: what each bus draws, for the power
    flow and the integrator alike. validate lets a bus carry one load."""
    idx = model.bus_index()
    p, q = np.zeros((2, len(model.buses)))
    for ld in model.loads:
        p[idx[ld.bus]] += ld.p
        q[idx[ld.bus]] += ld.q
    return p, q


def scheduled_injections(model: NetworkModel) -> tuple[np.ndarray, np.ndarray]:
    """Net scheduled P and Q per bus (generation minus load).

    Q entries are load-only: generator reactive output is a solver result,
    not a schedule.
    """
    idx = model.bus_index()
    p_load, q_load = bus_loads(model)
    p = np.zeros(len(model.buses))
    for g in model.generators:
        p[idx[g.bus]] += g.p_set
    return p - p_load, 0.0 - q_load  # +0.0, not -0.0, at a bus with no load


def _injections(ybus, v, theta):
    vc = v * np.exp(1j * theta)
    s = vc * np.conj(ybus @ vc)
    return s.real, s.imag


def mismatch(model: NetworkModel, v: np.ndarray, theta: np.ndarray):
    """Scheduled-minus-calculated (P, Q) per bus at a trial voltage."""
    p_sched, q_sched = scheduled_injections(model)
    p_calc, q_calc = _injections(build_ybus(model), v, theta)
    return p_sched - p_calc, q_sched - q_calc


def _jacobian(ybus, v, theta, p_calc, q_calc, ang, pq):
    """Standard polar Jacobian over [theta(ang), V(pq)] unknowns, given the
    injections (p_calc, q_calc) at (v, theta)."""
    g, b = ybus.real, ybus.imag
    th = theta[:, None] - theta[None, :]
    ct, st = np.cos(th), np.sin(th)
    vv = v[:, None] * v[None, :]

    dp_dth = vv * (g * st - b * ct)
    np.fill_diagonal(dp_dth, -q_calc - b.diagonal() * v**2)
    dq_dth = -vv * (g * ct + b * st)
    np.fill_diagonal(dq_dth, p_calc - g.diagonal() * v**2)
    dp_dv = v[:, None] * (g * ct + b * st)
    np.fill_diagonal(dp_dv, p_calc / v + g.diagonal() * v)
    dq_dv = v[:, None] * (g * st - b * ct)
    np.fill_diagonal(dq_dv, q_calc / v - b.diagonal() * v)

    top = np.hstack([dp_dth[np.ix_(ang, ang)], dp_dv[np.ix_(ang, pq)]])
    bot = np.hstack([dq_dth[np.ix_(pq, ang)], dq_dv[np.ix_(pq, pq)]])
    return np.vstack([top, bot])


def solve(model: NetworkModel) -> PowerFlowSolution:
    """Newton-Raphson from a flat start with PV-to-PQ limit switching."""
    n = len(model.buses)
    idx = model.bus_index()
    ybus = build_ybus(model)
    p_sched, q_sched = scheduled_injections(model)

    slack = next(i for i, bb in enumerate(model.buses) if bb.kind == "slack")
    # validate puts one machine on every slack and pv bus
    gen_at = {idx[g.bus]: g for g in model.generators}
    pv = sorted(i for i, bb in enumerate(model.buses)
                if bb.kind == "pv" and i != slack)
    pq = sorted(i for i in range(n) if i != slack and i not in pv)

    v = np.ones(n)
    theta = np.zeros(n)
    v[slack] = model.buses[slack].v_set
    for i in pv:
        v[i] = model.buses[i].v_set

    # bus index -> net Q target once the generator there is clamped at a limit
    q_clamped: dict[int, float] = {}
    norm = np.inf
    total_iter = 0
    while total_iter < MAX_ITER:
        total_iter += 1
        p_calc, q_calc = _injections(ybus, v, theta)
        dp = p_sched - p_calc
        dq = q_sched - q_calc
        for i, q_net in q_clamped.items():
            dq[i] = q_net - q_calc[i]
        ang = pv + pq
        rhs = np.concatenate([dp[ang], dq[pq]])
        norm = float(np.max(np.abs(rhs))) if rhs.size else 0.0
        if not np.isfinite(norm) or norm > 1e8:
            raise DivergenceError(norm, total_iter)

        if norm < TOL:
            # Converged for the current bus typing; enforce Q limits before
            # accepting. Generator Q is net injection minus the load share.
            switched = False
            for i in list(pv):
                gen = gen_at[i]
                q_gen = q_calc[i] - q_sched[i]
                if q_gen > gen.q_max or q_gen < gen.q_min:
                    lim = gen.q_max if q_gen > gen.q_max else gen.q_min
                    q_clamped[i] = q_sched[i] + lim
                    pv.remove(i)
                    pq = sorted(pq + [i])
                    switched = True
            if not switched:
                return PowerFlowSolution(
                    v=v.copy(), theta=theta.copy(),
                    p_inj=p_calc, q_inj=q_calc,
                    mismatch_norm=norm, iterations=total_iter)
            continue

        jac = _jacobian(ybus, v, theta, p_calc, q_calc,
                        np.array(pv + pq, int), np.array(pq, int))
        try:
            dx = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError as exc:
            raise DivergenceError(norm, total_iter) from exc
        na = len(ang)
        theta[ang] += dx[:na]
        v[pq] += dx[na:]
        if np.any(v <= 0):
            raise DivergenceError(norm, total_iter)

    raise DivergenceError(norm, MAX_ITER)

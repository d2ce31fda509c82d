"""Trace metrics, attack sweeps, parameter calibration and feasibility.

Everything here is deterministic: sweeps run a fixed point list, the least
squares fit is ordinary closed-form OLS, and calibration is a coarse grid
search followed by coordinate halving with no randomness, so repeated runs
produce identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import attacks, dynamics, powerflow
from .netmodel import NetworkModel, with_dynamic_params

# Frequency thresholds that trip operational consequences, in Hz: the normal
# band edges, reserve full-activation levels, load shedding, and the
# generator over/under-frequency protection limits.
THRESHOLDS_HZ = (49.9, 50.1, 49.7, 49.5, 48.8, 47.5, 52.0)

SETTLE_BAND_HZ = 0.02
SETTLE_DWELL_S = 5.0


@dataclass(frozen=True)
class Metrics:
    nadir_hz: float
    nadir_time_s: float
    zenith_hz: float
    zenith_time_s: float
    settled_f_hz: float
    settle_time_s: float | None  # None when the trace never settles
    violations: tuple[tuple[float, float], ...]  # (threshold, first crossing)
    oscillation_hz: float  # peak-to-peak over the trailing half


def metrics(trace: dynamics.SimulationTrace) -> Metrics:
    """Stability summary of a simulation trace.

    Settling means staying within +-0.02 Hz of the final value for 5 s;
    the reported time is the start of the earliest such dwell. Violations
    list each monitored threshold actually crossed, with the time of the
    first sample beyond it.
    """
    return _coi_metrics(trace.t, trace.f_coi, trace.dt)


def _coi_metrics(t: np.ndarray, f: np.ndarray, dt: float) -> Metrics:
    """metrics() of the COI frequency f sampled at times t, dt apart."""
    if len(f) == 0:
        raise ValueError("empty trace")
    i_nad = int(np.argmin(f))
    i_zen = int(np.argmax(f))
    settled = float(f[-1])

    inside = np.abs(f - settled) <= SETTLE_BAND_HZ
    dwell_n = int(round(SETTLE_DWELL_S / dt))
    settle_time = None
    if len(f) > dwell_n:
        # earliest index opening a full in-band dwell window
        run = 0
        for i, ok in enumerate(inside):
            run = run + 1 if ok else 0
            if run == dwell_n + 1:
                settle_time = float(t[i - dwell_n])
                break

    nominal = 50.0
    crossings = []
    for th in THRESHOLDS_HZ:
        beyond = (f < th) if th < nominal else (f > th)
        if beyond.any():
            crossings.append((th, float(t[int(np.argmax(beyond))])))

    half = f[len(f) // 2:]
    return Metrics(
        nadir_hz=float(f[i_nad]), nadir_time_s=float(t[i_nad]),
        zenith_hz=float(f[i_zen]), zenith_time_s=float(t[i_zen]),
        settled_f_hz=settled, settle_time_s=settle_time,
        violations=tuple(crossings),
        oscillation_hz=float(half.max() - half.min()),
    )


@dataclass(frozen=True)
class SweepFit:
    slope: float  # Hz per percent
    intercept: float  # Hz
    r_squared: float
    points: tuple[tuple[float, float], ...]  # (percent, Hz)
    skipped: tuple[tuple[float, str], ...] = ()


class FitError(RuntimeError):
    """Fewer than two usable sweep points; no line to fit."""


def _ols(points):
    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    if len(set(x.tolist())) < 2:
        raise FitError("need at least two distinct magnitudes")
    a = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(a, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(res[0]) if len(res) else float(np.sum((a @ coef - y) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def _sweep_lanes(model: NetworkModel, schedules,
                 config: dynamics.SimConfig):
    """Run each schedule as one lane of a single lockstep batch.

    Returns the COI frequency as a (samples, lanes) array and, per lane,
    the time _lockstep marked its speed guard trip at (what simulate would
    raise InstabilityError with), or None. A tripped lane's later samples
    mean nothing; when every lane trips, the batch ends there and the
    array holds the samples up to the last trip.
    """
    n_samp = config.n_steps + 1
    if not schedules:
        return np.empty((n_samp, 0)), []
    f = np.empty((n_samp, len(schedules)))
    for k, _, f_coi, *_, trip in dynamics._lockstep(
            [model] * len(schedules), powerflow.solve(model), schedules,
            config):
        f[k] = f_coi
    return f[:k + 1], [step * config.dt if step >= 0 else None
                       for step in trip.tolist()]


def magnitude_sweep(model: NetworkModel, attack_type: attacks.AttackType,
                    magnitudes, config: dynamics.SimConfig | None = None,
                    target_bus=None) -> SweepFit:
    """Static attacks over a magnitude list, fitted to a line.

    The extracted response is the nadir for demand-increase-like types and
    the zenith for demand-reduction-like ones. Every magnitude is one lane
    of a single lockstep batch over one power flow, so only network
    coupling is supported (linear coupling raises ValueError for more than
    one magnitude) and a base case whose power flow diverges raises
    DivergenceError, as simulate does. Runs that leave the speed guard are
    skipped and recorded; fewer than two surviving points raises FitError.
    The fit is order-independent: points are sorted by magnitude before
    fitting.
    """
    if config is None:
        config = dynamics.SimConfig(duration=60.0)
    lowers = attack_type.demand_sign > 0
    mags = [float(mag) for mag in magnitudes]
    f, trips = _sweep_lanes(model, [
        attacks.compile_scenario(model, attacks.AttackScenario(
            family="static", attack_type=attack_type, magnitude_percent=mag,
            target_bus=target_bus))
        for mag in mags], config)
    points = []
    skipped = []
    for mag, f_lane, trip in zip(mags, f.T, trips):
        if trip is None:
            points.append((mag, float(f_lane.min() if lowers
                                      else f_lane.max())))
        else:
            skipped.append((mag, str(dynamics.InstabilityError(trip))))
    if len(points) < 2:
        raise FitError(
            f"only {len(points)} sweep points survived; cannot fit")
    points.sort(key=lambda p: p[0])
    slope, intercept, r2 = _ols(points)
    return SweepFit(slope=slope, intercept=intercept, r_squared=r2,
                    points=tuple(points), skipped=tuple(skipped))


def timing_sweep(model: NetworkModel, base: attacks.AttackScenario,
                 t1_values, config: dynamics.SimConfig | None = None):
    """Sweep the reversion time of a switching attack.

    Returns (optimal_t1, {t1: Metrics}) where optimal maximizes the largest
    absolute deviation from nominal after the reversion; ties break toward
    the earliest t1. t1 values are absolute times and must lie beyond the
    scenario's t_start and within the horizon. Every t1 is one lane of a
    single lockstep batch over one power flow, so only network coupling is
    supported (linear coupling raises ValueError for more than one t1); a
    run that leaves the speed guard raises InstabilityError.
    """
    if config is None:
        config = dynamics.SimConfig(duration=40.0)
    t1_values = [float(v) for v in t1_values]
    if not t1_values:
        raise ValueError("no t1 values to sweep")
    for v in t1_values:
        if v <= base.t_start:
            raise ValueError(f"t1 = {v} does not follow t_start = {base.t_start}")
        if not v <= config.duration:  # NaN fails this too
            raise ValueError(f"t1 = {v} lies beyond the {config.duration:g} s "
                             "horizon")
    t1_values = sorted(set(t1_values))
    f, trips = _sweep_lanes(model, [
        attacks.compile_scenario(model, replace(base, family="switching", t1=v))
        for v in t1_values], config)
    for trip in trips:
        if trip is not None:
            raise dynamics.InstabilityError(trip)
    t = np.arange(len(f)) * config.dt
    results: dict[float, Metrics] = {}
    post_dev: dict[float, float] = {}
    for v, f_lane in zip(t1_values, f.T):
        results[v] = _coi_metrics(t, f_lane, config.dt)
        i0 = dynamics.step_index(v, config.dt)
        post_dev[v] = float(np.max(np.abs(f_lane[i0:] - model.f_nominal)))
    optimal = max(sorted(post_dev), key=lambda v: (post_dev[v], -v))
    return optimal, results


@dataclass(frozen=True)
class CalibratedParams:
    r_droop: float
    t_g: float
    d: float
    objective_residual: float  # Hz^2, summed over anchors at the optimum
    quality_warning: bool

    def apply(self, model: NetworkModel) -> NetworkModel:
        return with_dynamic_params(model, self.r_droop, self.t_g, self.d)


# Search box for the undisclosed governor/damping settings. Droop beyond
# 8 % or servo constants beyond 5 s are outside normal machine practice,
# so the search does not consider them even when anchors would prefer it;
# the residual and warning report the resulting misfit instead.
CALIBRATION_BOUNDS = {
    "r_droop": (0.02, 0.08),
    "t_g": (0.2, 5.0),
    "d": (0.0, 2.0),
}
RESIDUAL_WARN_PER_ANCHOR = 0.01  # Hz^2

DEFAULT_ANCHORS = ((12.0, 49.17, 49.8),)
# Alternative preset: observed contingency responses rather than simulated
# curves (1400 MW trip read as an 8 % step reaching 49.36 Hz).
INCIDENT_ANCHORS = ((8.0, 49.36, 49.8),)


def _anchor_schedule(model, percent) -> attacks.EventSchedule:
    return attacks.compile_scenario(model, attacks.AttackScenario(
        family="static", attack_type=attacks.AttackType.DEMAND_INCREASE,
        magnitude_percent=float(percent)))


def _grid_anchor_errors(model, anchors, r_vals, tg_vals, d_vals,
                        dt: float, duration: float) -> np.ndarray:
    """Anchor objective for every candidate parameter triple at once.

    Candidates, ordered r-major then t_g then d, run as lanes of the
    lockstep integrator behind dynamics.simulate, so the coarse calibration
    grid costs one batched run per anchor instead of hundreds of scalar
    runs. A lane that the integrator marks as tripped scores inf, as its
    scalar run would.
    """
    lanes = [with_dynamic_params(model, r, tg, d)
             for r in r_vals for tg in tg_vals for d in d_vals]
    pf = powerflow.solve(model)
    config = dynamics.SimConfig(dt=dt, duration=duration)
    errors = np.zeros(len(lanes))
    for percent, nadir_target, settled_target in anchors:
        f_min = np.full(len(lanes), np.inf)
        schedule = _anchor_schedule(model, percent)
        for _, _, f_coi, *_, trip in dynamics._lockstep(
                lanes, pf, [schedule] * len(lanes), config):
            np.minimum(f_min, f_coi, out=f_min)
        if nadir_target is not None:
            errors += (f_min - nadir_target) ** 2
        if settled_target is not None:
            errors += (f_coi - settled_target) ** 2
        errors[trip >= 0] = np.inf
    return errors


def _anchor_error(model, anchors, config) -> float:
    err = 0.0
    for percent, nadir_target, settled_target in anchors:
        try:
            tr = dynamics.simulate(model, _anchor_schedule(model, percent),
                                   config)
        except dynamics.InstabilityError:
            return float("inf")
        mx = metrics(tr)
        if nadir_target is not None:
            err += (mx.nadir_hz - nadir_target) ** 2
        if settled_target is not None:
            err += (mx.settled_f_hz - settled_target) ** 2
    return err


def calibrate(model: NetworkModel, anchors=DEFAULT_ANCHORS) -> CalibratedParams:
    """Fit governor droop, servo constant and damping to response anchors.

    Anchors are (attack percent, target nadir Hz, target settled Hz)
    triples; either target may be None to skip that term. Stage one scans a
    9 x 9 x 5 grid over the search box as 405 lanes of one lockstep
    integrator run per anchor; stage two runs three rounds of coordinate
    halving around the incumbent through dynamics.simulate, the same
    integrator with one lane, which also provides the reported residual.
    Deterministic throughout: no randomness, fixed evaluation order.
    """
    anchors = tuple(anchors)
    if not anchors:
        raise ValueError("need at least one calibration anchor")
    for a in anchors:
        if len(a) != 3:
            raise ValueError(f"anchor {a!r} is not a (percent, nadir, settled) triple")
        if a[1] is None and a[2] is None:
            raise ValueError(f"anchor {a!r} has no targets")

    final_cfg = dynamics.SimConfig(dt=0.01, duration=40.0)

    def objective(r, tg, d):
        return _anchor_error(with_dynamic_params(model, r, tg, d),
                             anchors, final_cfg)

    (r_lo, r_hi) = CALIBRATION_BOUNDS["r_droop"]
    (t_lo, t_hi) = CALIBRATION_BOUNDS["t_g"]
    (d_lo, d_hi) = CALIBRATION_BOUNDS["d"]
    r_grid = np.linspace(r_lo, r_hi, 9)
    t_grid = np.linspace(t_lo, t_hi, 9)
    d_grid = np.linspace(d_lo, d_hi, 5)

    errors = _grid_anchor_errors(model, anchors, r_grid, t_grid, d_grid,
                                 dt=final_cfg.dt, duration=final_cfg.duration)
    flat = int(np.argmin(errors))
    i_r, rem = divmod(flat, len(t_grid) * len(d_grid))
    i_t, i_d = divmod(rem, len(d_grid))
    current = [float(r_grid[i_r]), float(t_grid[i_t]), float(d_grid[i_d])]
    best_err = objective(*current)

    steps = [float(r_grid[1] - r_grid[0]), float(t_grid[1] - t_grid[0]),
             float(d_grid[1] - d_grid[0])]
    lows = (r_lo, t_lo, d_lo)
    highs = (r_hi, t_hi, d_hi)
    for _ in range(3):
        for axis in range(3):
            steps[axis] *= 0.5
            for sign in (-1.0, 1.0):
                cand = list(current)
                cand[axis] = min(max(cand[axis] + sign * steps[axis],
                                     lows[axis]), highs[axis])
                if cand == current:
                    continue
                err = objective(*cand)
                if err < best_err - 1e-15:
                    current, best_err = cand, err

    residual = best_err
    return CalibratedParams(
        r_droop=current[0], t_g=current[1], d=current[2],
        objective_residual=residual,
        quality_warning=residual > RESIDUAL_WARN_PER_ANCHOR * len(anchors),
    )


@dataclass(frozen=True)
class FlexibilityForecast:
    """Remotely controllable load per horizon year, national MW."""

    totals_mw: dict[int, float]
    classes_mw: dict[int, dict[str, float]]
    demand_mw: dict[int, float]

    def years(self):
        return sorted(self.totals_mw)


def default_forecast() -> FlexibilityForecast:
    """Published flexibility estimates; class data is partial for 2025."""
    return FlexibilityForecast(
        totals_mw={2025: 1747.0, 2030: 8000.0},
        classes_mw={
            2025: {"battery": 1000.0, "electrolysis": 120.0},
            2030: {"battery": 1200.0, "heat_pump": 1300.0,
                   "ev_charging": 500.0, "electrolysis": 4400.0},
        },
        demand_mw={2025: 17800.0, 2030: 25800.0},
    )


@dataclass(frozen=True)
class FeasibilityReport:
    attack_mw: float
    year: int
    total_flexibility_mw: float
    feasible: bool
    margin_mw: float  # flexibility minus attack; negative when infeasible
    sufficient_classes: tuple[str, ...]
    demand_share_percent: float


def feasibility(attack_mw: float, year: int,
                forecast: FlexibilityForecast | None = None) -> FeasibilityReport:
    """Whether an attack of the given size is resourceable in a horizon year.

    Feasible when the attack does not exceed the total controllable
    flexibility; sufficient_classes lists each single asset class that
    could carry the attack alone.
    """
    if forecast is None:
        forecast = default_forecast()
    if not 0 <= attack_mw < np.inf:
        raise ValueError("attack_mw must be finite and non-negative")
    if year not in forecast.totals_mw:
        raise ValueError(
            f"no forecast for {year}; have {sorted(forecast.totals_mw)}")
    total = forecast.totals_mw[year]
    classes = forecast.classes_mw.get(year, {})
    sufficient = tuple(sorted(name for name, mw in classes.items()
                              if mw >= attack_mw))
    return FeasibilityReport(
        attack_mw=float(attack_mw), year=year,
        total_flexibility_mw=total,
        feasible=attack_mw <= total,
        margin_mw=total - attack_mw,
        sufficient_classes=sufficient,
        demand_share_percent=100.0 * attack_mw / forecast.demand_mw[year],
    )

"""Trace metrics, attack sweeps, parameter calibration and feasibility.

Everything here is deterministic: sweeps run a fixed point list, the least
squares fit is ordinary closed-form OLS, and calibration is a coarse grid
search followed by coordinate halving with no randomness, so repeated runs
produce identical reports.
"""

from __future__ import annotations

import itertools
import mmap
import os
import signal
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import attacks, dynamics, powerflow
from .netmodel import NetworkModel, with_dynamic_params

# Frequency thresholds that trip operational consequences, as offsets in Hz
# from the model's nominal frequency: the normal band edges, reserve
# full-activation levels, load shedding, and the generator
# over/under-frequency protection limits.
THRESHOLDS_HZ = (-0.1, 0.1, -0.3, -0.5, -1.2, -2.5, 2.0)

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
    list each monitored threshold actually crossed, as the level
    f_nominal + offset in Hz, with the time of the first sample beyond it.
    """
    return _coi_metrics(trace.t, trace.f_coi, trace.dt, trace.f_nominal)


def _coi_metrics(t: np.ndarray, f: np.ndarray, dt: float,
                 f_nominal: float) -> Metrics:
    """metrics() of the COI frequency f sampled at times t, dt apart."""
    if len(f) == 0:
        raise ValueError("empty trace")
    i_nad = int(np.argmin(f))
    i_zen = int(np.argmax(f))
    settled = float(f[-1])

    # An in-band run (NaN is out of band) starts and ends where the flags,
    # padded out of band at both ends, change. The dwell opens the first
    # run of more than dwell_n samples. Indices are kept per run, not per
    # sample, so a long trace that never settles costs a byte a sample.
    inside = np.abs(f - settled) <= SETTLE_BAND_HZ
    dwell_n = int(round(SETTLE_DWELL_S / dt))
    starts, ends = np.flatnonzero(
        np.diff(inside, prepend=False, append=False)).reshape(-1, 2).T
    dwells = np.flatnonzero(ends - starts > dwell_n)
    settle_time = float(t[starts[dwells[0]]]) if len(dwells) else None

    crossings = []
    for offset in THRESHOLDS_HZ:
        th = f_nominal + offset
        beyond = (f < th) if offset < 0 else (f > th)
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
    """Fewer than two usable sweep points, or flat responses: no line."""


def _ols(points):
    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    if len(set(x.tolist())) < 2:
        raise FitError("need at least two distinct magnitudes")
    if len(set(y.tolist())) < 2:
        raise FitError(f"the responses do not vary: all read {y[0]:g} Hz")
    a = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(a, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(res[0]) if len(res) else float(np.sum((a @ coef - y) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def _sweep_lanes(model: NetworkModel, schedules,
                 config: dynamics.SimConfig,
                 pf: powerflow.PowerFlowSolution | None = None):
    """Run each schedule as one lane of a single lockstep batch over pf,
    the model's power flow, solved here when not given.

    Returns the COI frequency as a (samples, lanes) array and, per lane,
    the time _lockstep marked its speed guard trip at (what simulate would
    raise InstabilityError with), or None. A tripped lane's later samples
    mean nothing; when every lane trips, the batch ends there and the
    array holds the samples up to the last trip.
    """
    f = dynamics.empty_samples(config.n_steps + 1, len(schedules))
    if not schedules:
        return f, []
    if pf is None:
        pf = powerflow.solve(model)
    for k0, f_coi, *_, trip in dynamics._lockstep(
            [model] * len(schedules), pf, schedules, config):
        k1 = k0 + len(f_coi)
        f[k0:k1] = f_coi
    return f[:k1], [step * config.dt if step >= 0 else None
                    for step in trip.tolist()]


def magnitude_sweep(model: NetworkModel, base: attacks.AttackScenario,
                    magnitudes, config: dynamics.SimConfig | None = None,
                    pf: powerflow.PowerFlowSolution | None = None
                    ) -> SweepFit:
    """Static attacks over a magnitude list, fitted to a line.

    Each point is base as a time-triggered static attack of that percent,
    so it keeps the scenario's type, target and t_start. The extracted
    response is the nadir for demand-increase-like types and the zenith for
    demand-reduction-like ones. Every magnitude is one lane of a single
    lockstep batch over one power flow (pf, solved when not given), so a
    base case whose power flow diverges raises DivergenceError, as
    simulate does. Runs that leave the speed guard are skipped and
    recorded; fewer than two surviving points raises FitError, whose
    message lists each skipped magnitude with its reason, and so do flat
    responses (an attack too late to act). The fit is order-independent:
    points are sorted by magnitude before fitting.
    """
    if config is None:
        config = dynamics.SimConfig(duration=60.0)
    lowers = base.attack_type.demand_sign > 0
    mags = [float(mag) for mag in magnitudes]
    f, trips = _sweep_lanes(model, [
        attacks.compile_scenario(model, replace(
            base, family="static", magnitude_percent=mag, magnitude_mw=None,
            trigger="time"))
        for mag in mags], config, pf)
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
            f"only {len(points)} sweep points survived; cannot fit"
            + "".join(f"; {mag:g} %: {reason}" for mag, reason in skipped))
    points.sort(key=lambda p: p[0])
    slope, intercept, r2 = _ols(points)
    return SweepFit(slope=slope, intercept=intercept, r_squared=r2,
                    points=tuple(points), skipped=tuple(skipped))


def timing_sweep(model: NetworkModel, base: attacks.AttackScenario,
                 t1_values, config: dynamics.SimConfig | None = None,
                 pf: powerflow.PowerFlowSolution | None = None):
    """Sweep the reversion time of base as a time-triggered switching attack.

    Returns (optimal_t1, {t1: Metrics}) where optimal maximizes the largest
    absolute deviation from nominal after the reversion; ties break toward
    the earliest t1. t1 values are absolute times and must lie beyond the
    scenario's t_start and within the horizon. Every t1 is one lane of a
    single lockstep batch over one power flow (pf, solved when not given);
    a run that leaves the speed guard raises InstabilityError.
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
        attacks.compile_scenario(model, replace(
            base, family="switching", t1=v, trigger="time"))
        for v in t1_values], config, pf)
    for trip in trips:
        if trip is not None:
            raise dynamics.InstabilityError(trip)
    t = np.arange(len(f)) * config.dt
    results: dict[float, Metrics] = {}
    post_dev: dict[float, float] = {}
    for v, f_lane in zip(t1_values, f.T):
        results[v] = _coi_metrics(t, f_lane, config.dt, model.f_nominal)
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


@dataclass(frozen=True)
class Anchor:
    """A calibration target: the COI nadir and settled frequency (Hz) of a
    static DI attack of percent % of scheduled generation; None skips one."""

    percent: float
    nadir_hz: float | None = None
    settled_hz: float | None = None


def anchor_problems(anchor: Anchor, f_nominal: float) -> list[tuple]:
    """Every problem with an anchor as (field, message) pairs, the field
    None for the anchor as a whole: one rule a row, with whether it fails."""
    targets = [key for key in ("nadir_hz", "settled_hz")
               if getattr(anchor, key) is not None]
    return [(key, msg) for key, msg, fails in (
        ("percent", "must be positive", not anchor.percent > 0),
        # an attack beyond the system's generation reads no response
        ("percent", "must not exceed 100, the scheduled generation",
         anchor.percent > 100),
        (None, "has no targets: give nadir_hz or settled_hz", not targets),
        *((key, f"must lie between 0 and {2 * f_nominal:g} Hz",
           not 0 < getattr(anchor, key) < 2 * f_nominal) for key in targets),
    ) if fails]


DEFAULT_ANCHORS = (Anchor(12.0, 49.17, 49.8),)
# Alternative preset: observed contingency responses rather than simulated
# curves (1400 MW trip read as an 8 % step reaching 49.36 Hz).
INCIDENT_ANCHORS = (Anchor(8.0, 49.36, 49.8),)


def _anchor_schedule(model, percent) -> attacks.EventSchedule:
    return attacks.compile_scenario(model, attacks.AttackScenario(
        family="static", attack_type=attacks.AttackType.DEMAND_INCREASE,
        magnitude_percent=float(percent)))


def _grid_anchor_errors(model, anchors, candidates,
                        dt: float, duration: float,
                        pf: powerflow.PowerFlowSolution | None = None
                        ) -> np.ndarray:
    """The calibration objective of each (r_droop, t_g, d) candidate.

    A candidate's error sums, anchor by anchor, the squared misses of the
    nadir and of the final (settled) COI frequency against the targets
    that are given. The candidates run as lanes of the lockstep integrator
    behind dynamics.simulate, one batched run per anchor, and each lane's
    error equals, bit for bit, the sum formed from the candidate's own
    simulate run and metrics. A lane that the integrator marks as tripped
    scores inf, as its simulate run would raise InstabilityError.

    The lanes are scored by _scored_in_forks over pf, the model's power
    flow, solved here when not given: a lane's bits do not depend on its
    batch, so the errors of its slices, joined in candidate order, are
    those of one batch.
    """
    lanes = [with_dynamic_params(model, r, tg, d) for r, tg, d in candidates]
    if not lanes:  # no lanes to step, as in _sweep_lanes
        return np.zeros(0)
    if pf is None:
        pf = powerflow.solve(model)
    return _scored_in_forks(partial(
        _lane_errors, model=model, anchors=anchors, pf=pf,
        config=dynamics.SimConfig(dt=dt, duration=duration)), lanes)


def _slice_count(n: int) -> int:
    """How many processes score n lanes: one per usable CPU, at most one
    per lane, and only this one unless it may fork. A fork copies just the
    calling thread, so a process with more OS threads than one (numpy's
    BLAS pool, unless OPENBLAS_NUM_THREADS=1), or whose threads cannot be
    counted, never forks."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return 1
    return min(n, len(os.sched_getaffinity(0))) if threads == 1 else 1


def _scored_in_forks(score, lanes) -> np.ndarray:
    """score(lanes), the float64 errors of independent lanes, scored in
    contiguous slices, one per _slice_count process. A child forked for
    each slice past the first writes its errors in place, into one
    anonymous shared mapping, and exits 0, or 1 if anything raised. This
    process scores the first slice, reaps the children in slice order and
    scores each slice whose child could not start or did not exit 0 (with
    no shared mapping, the whole list), so the errors and any error raised
    are those of the one-process run. No child outlives the call."""
    n, k = len(lanes), _slice_count(len(lanes))
    edges = [-(-i * n // k) for i in range(k + 1)]  # ceil(i n / k)
    parts = [slice(a, b) for a, b in zip(edges, edges[1:])]
    try:
        out = np.frombuffer(mmap.mmap(-1, 8 * n))
    except OSError:  # nowhere for a child to write its slice
        return score(lanes)
    pids = []  # per slice past the first: its child, None once reaped
    try:
        for part in parts[1:]:
            try:
                pid = os.fork()
            except OSError:
                pid = None
            if pid == 0:  # the child never returns into its parent's stack
                code = 1
                try:
                    out[part] = score(lanes[part])
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        out[parts[0]] = score(lanes[parts[0]])
        for i, part in enumerate(parts[1:]):
            done = pids[i] is not None and os.waitpid(pids[i], 0)[1] == 0
            pids[i] = None
            if not done:
                out[part] = score(lanes[part])
        return out
    finally:
        for pid in filter(None, pids):
            os.kill(pid, signal.SIGKILL)  # a child still scoring after an error
            os.waitpid(pid, 0)


def _lane_errors(lanes, model, anchors, pf, config) -> np.ndarray:
    """_grid_anchor_errors of the candidate models lanes of model."""
    errors = np.zeros(len(lanes))
    for anchor in anchors:
        f_min = np.full(len(lanes), np.inf)
        schedule = _anchor_schedule(model, anchor.percent)
        for _, f_coi, *_, trip in dynamics._lockstep(
                lanes, pf, [schedule] * len(lanes), config):
            np.minimum(f_min, np.minimum.reduce(f_coi), out=f_min)
        if anchor.nadir_hz is not None:
            errors += (f_min - anchor.nadir_hz) ** 2
        if anchor.settled_hz is not None:
            errors += (f_coi[-1] - anchor.settled_hz) ** 2
        errors[trip >= 0] = np.inf
    return errors


def _next_candidate(point, axis, sign, step):
    """The refinement's candidate from point: point moved by sign * step
    along axis, clamped to the search box."""
    lo, hi = tuple(CALIBRATION_BOUNDS.values())[axis]
    cand = list(point)
    cand[axis] = min(max(cand[axis] + sign * step, lo), hi)
    return tuple(cand)


def _moves(steps):
    """A refinement round's tries, in order: each axis a step down, then
    up, by its step of steps."""
    return [(axis, sign, step) for axis, step in enumerate(steps)
            for sign in (-1.0, 1.0)]


def _reach(point, steps):
    """Every point a round of these steps from point could try, whichever
    of its tries are taken, and point itself."""
    reach = {point}
    for move in _moves(steps):
        reach |= {_next_candidate(p, *move) for p in reach}
    return reach


def calibrate(model: NetworkModel, anchors=DEFAULT_ANCHORS) -> CalibratedParams:
    """Fit governor droop, servo constant and damping to response anchors.

    Anchors are Anchor records; any with a problem (anchor_problems)
    raises ValueError, naming each, before a run. Stage one scores a list
    of 9 x 9 x 5 (r_droop, t_g, d) candidates over the search box as 405
    lanes of one lockstep integrator run per anchor, and its best point is
    the incumbent. Stage two runs three rounds of coordinate halving
    around it: each axis in turn tries a half step down, then up, and
    moves where the error drops by more than 1e-15. Before a round that
    could try a point not yet scored, every point this round and each
    later one could try from the incumbent (_reach), whichever of its
    tries are taken, is scored by _grid_anchor_errors as one batch of
    lanes, on the guess that the incumbent stays (a lane's bits do not
    depend on its batch), and each round replays the rule on those
    errors. So the refinement is one batch unless a round moves the
    incumbent, and at most three. Deterministic throughout: no
    randomness, fixed evaluation order.
    """
    anchors = tuple(anchors)
    if not anchors:
        raise ValueError("need at least one calibration anchor")
    problems = [f"anchor {i}: " + (f"{key} " if key else "") + msg
                for i, anchor in enumerate(anchors, start=1)
                for key, msg in anchor_problems(anchor, model.f_nominal)]
    if problems:
        raise ValueError("; ".join(problems))

    config = dynamics.SimConfig()
    # every batch shares one power flow, which no governor or damping
    # setting enters
    pf = powerflow.solve(model)
    score = partial(_grid_anchor_errors, model, anchors, dt=config.dt,
                    duration=config.duration, pf=pf)

    axes = [np.linspace(lo, hi, n).tolist()
            for (lo, hi), n in zip(CALIBRATION_BOUNDS.values(), (9, 9, 5))]
    grid = list(itertools.product(*axes))
    errors = score(grid)
    flat = int(np.argmin(errors))
    current = grid[flat]
    scored = {current: float(errors[flat])}

    # each round halves the last one's steps, the first the grid's spacing
    # (a power of two scales a float exactly)
    rounds = [[(values[1] - values[0]) * 0.5 ** k for values in axes]
              for k in (1, 2, 3)]
    for r, steps in enumerate(rounds):
        if _reach(current, steps) - scored.keys():
            # speculate that current stays for this round and every later
            new = sorted(set().union(*(_reach(current, later)
                                       for later in rounds[r:]))
                         - scored.keys())
            scored.update(zip(new, score(new).tolist()))
        # a candidate the clamp leaves at current is never taken, as its
        # error cannot beat its own
        for move in _moves(steps):
            cand = _next_candidate(current, *move)
            if scored[cand] < scored[current] - 1e-15:
                current = cand

    best_err = scored[current]
    return CalibratedParams(
        r_droop=current[0], t_g=current[1], d=current[2],
        objective_residual=best_err,
        quality_warning=best_err > RESIDUAL_WARN_PER_ANCHOR * len(anchors),
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
    sufficient_classes: tuple[str, ...] = field(
        metadata={"key": "sufficient_single_classes"})
    demand_share_percent: float = field(
        metadata={"key": "share_of_national_demand_percent"})


def feasibility(attack_mw: float, year: int) -> FeasibilityReport:
    """Whether an attack of the given size is resourceable in a horizon year.

    Feasible when the attack does not exceed the total controllable
    flexibility; sufficient_classes lists each single asset class that
    could carry the attack alone.
    """
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

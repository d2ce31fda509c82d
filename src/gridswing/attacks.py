"""Aggregated load-attack scenarios compiled to timed demand events.

An attacker controlling a population of smart loads can add demand (DI),
shed demand (DR), or reconnect/disconnect in bulk (SR/SI). Scenarios wrap
one of four shapes over those primitives:

* static      - one step change, never reverted
* switching   - step at t_start, reverted at t1
* periodic    - square wave of `count` on/off cycles spaced by `interval`
* combination - alternates between a raising and a lowering type every
                `interval`, swinging the demand by twice the magnitude

Compilation produces an EventSchedule of (time, bus, delta_p) events in
system pu, in time order. Every scenario except static sums to zero:
reversions restore the original demand exactly. With trigger="slope" only
the first event is timed; a SlopeTrigger watching the frequency trace for
the recovery inflection releases the rest in order, which is how an
attacker without a grid model times repeated strikes for maximum effect.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass

from .netmodel import NetworkModel, attack_fraction_to_pu

# The compiled-in case attacks bus 8 by default: one of the three load
# centers, chosen to match the published scenario set.
DEFAULT_TARGET_BUS = 8

# Span of frequency samples a SlopeTrigger looks back over, s.
SLOPE_WINDOW_S = 0.5


class AttackType(enum.Enum):
    """Sign conventions: demand increases lower frequency."""

    DEMAND_INCREASE = "DI"
    DEMAND_REDUCTION = "DR"
    SUPPLY_INCREASE = "SI"
    SUPPLY_REDUCTION = "SR"

    @property
    def demand_sign(self) -> float:
        # SI mimics generation: extra supply behind the meter reads as less
        # demand; SR sheds that supply and reads as more demand.
        return {"DI": 1.0, "DR": -1.0, "SI": -1.0, "SR": 1.0}[self.value]


FAMILIES = ("static", "switching", "periodic", "combination")


@dataclass(frozen=True)
class AttackScenario:
    family: str
    attack_type: AttackType
    magnitude_percent: float | None = None  # percent of scheduled generation
    magnitude_mw: float | None = None
    target_bus: int | str | None = None  # bus id, "largest", or None = default
    t_start: float = 1.0
    t1: float | None = None  # switching reversion time
    interval: float | None = None
    count: int | None = None
    trigger: str = "time"  # "time" | "slope"


@dataclass(frozen=True)
class Event:
    time: float
    bus: int
    delta_p: float  # pu demand change, positive = more load


@dataclass(frozen=True)
class EventSchedule:
    """An attack's transitions in time order. refractory_s is None under the
    time trigger; under the slope trigger only events[0] is timed, the rest
    are released by a SlopeTrigger with that refractory period."""

    events: tuple[Event, ...]
    refractory_s: float | None = None
    label: str = ""

    def net_delta(self) -> float:
        return sum(e.delta_p for e in self.events)


def resolve_target(model: NetworkModel, target: int | str | None) -> int:
    if target is None:
        target = DEFAULT_TARGET_BUS
    if target == "largest":
        loads = sorted(model.loads, key=lambda ld: (-ld.p, ld.bus))
        if not loads:
            raise ValueError("target_bus 'largest': the model has no loads")
        return loads[0].bus
    if isinstance(target, bool) or not isinstance(target, int):
        raise ValueError(f"target_bus {target!r}: not a bus id or 'largest'")
    if model.load_at(target) is None:
        raise ValueError(f"target_bus {target} carries no load")
    return target


def validate_scenario(model: NetworkModel,
                      sc: AttackScenario) -> list[tuple[str, str]]:
    """Collect every problem with a scenario as (field, message) pairs,
    naming the AttackScenario field at fault; an empty list means usable."""
    errs = []
    if sc.family not in FAMILIES:
        errs.append(("family", f"unknown family {sc.family!r}"))
    if not isinstance(sc.attack_type, AttackType):
        errs.append(("attack_type", "attack_type must be an AttackType, "
                                    f"got {sc.attack_type!r}"))
    given = [m for m in (sc.magnitude_percent, sc.magnitude_mw) if m is not None]
    magnitude = "magnitude_percent" if sc.magnitude_mw is None else "magnitude_mw"
    if len(given) != 1:
        errs.append(("magnitude_percent", "exactly one of "
                     "magnitude_percent / magnitude_mw is required"))
    elif not math.isfinite(given[0]):
        errs.append((magnitude, f"{magnitude} must be finite"))
    elif given[0] <= 0:
        errs.append((magnitude, "magnitude must be positive"))
    try:
        resolve_target(model, sc.target_bus)
    except ValueError as exc:
        errs.append(("target_bus", str(exc)))
    if not math.isfinite(sc.t_start):
        errs.append(("t_start", "t_start must be finite"))
    elif sc.t_start < 0:
        errs.append(("t_start", "t_start must be non-negative"))
    if sc.family == "switching":
        if sc.t1 is None:
            errs.append(("t1", "switching needs t1"))
        elif not math.isfinite(sc.t1):
            errs.append(("t1", "t1 must be finite"))
        elif sc.t1 <= sc.t_start:
            errs.append(("t1", "t1 must come after t_start"))
    if sc.family in ("periodic", "combination"):
        if sc.interval is None or sc.interval <= 0:
            errs.append(("interval", f"{sc.family} needs a positive interval"))
        elif not math.isfinite(sc.interval):
            errs.append(("interval", "interval must be finite"))
        if sc.count is None or sc.count < 1:
            errs.append(("count", f"{sc.family} needs count >= 1"))
    if sc.trigger not in ("time", "slope"):
        errs.append(("trigger", f"unknown trigger {sc.trigger!r}"))
    if sc.trigger == "slope" and sc.family in ("static", "switching"):
        errs.append(("trigger",
                     "slope trigger only applies to repeated attacks"))
    return errs


def compile_scenario(model: NetworkModel, sc: AttackScenario) -> EventSchedule:
    errs = validate_scenario(model, sc)
    if errs:
        raise ValueError("; ".join(msg for _, msg in errs))
    bus = resolve_target(model, sc.target_bus)
    step = attack_fraction_to_pu(
        model, percent=sc.magnitude_percent, mw=sc.magnitude_mw)
    delta = step * sc.attack_type.demand_sign
    label = f"{sc.family}-{sc.attack_type.value}"

    if sc.family == "static":
        transitions = [(sc.t_start, delta)]
    elif sc.family == "switching":
        transitions = [(sc.t_start, delta), (sc.t1, -delta)]
    elif sc.family == "periodic":
        transitions = []
        for k in range(sc.count):
            t_on = sc.t_start + 2 * k * sc.interval
            transitions.append((t_on, delta))
            transitions.append((t_on + sc.interval, -delta))
    else:  # combination
        # Demand level alternates +delta, -delta, ... every interval; each
        # interior transition therefore moves by 2*delta. A closing event
        # returns the level to zero, so peak-to-trough is twice the step.
        transitions = [(sc.t_start, delta)]
        level = delta
        for k in range(1, sc.count):
            nxt = delta if k % 2 == 0 else -delta
            transitions.append((sc.t_start + k * sc.interval, nxt - level))
            level = nxt
        transitions.append((sc.t_start + sc.count * sc.interval, -level))

    return EventSchedule(
        events=tuple(Event(t, bus, d) for t, d in transitions),
        refractory_s=sc.interval if sc.trigger == "slope" else None,
        label=label,
    )


class SlopeTrigger:
    """Fires on the recovery inflection of the frequency trace.

    Watches the slopes of a sliding window of the trace and releases the
    next pending event just after the rate of change toward nominal has
    peaked: the discrete slope magnitude rose within the window and then
    fell, while the trace is still heading back to nominal. A refractory
    period follows every release. pending holds the events still to
    release, in order; their times are not read.
    """

    def __init__(self, pending, refractory_s: float, f_nominal: float,
                 dt: float):
        self.pending = deque(pending)
        self.refractory_s = refractory_s
        self.f_nominal = f_nominal
        self.dt = dt
        self.window_n = max(3, int(round(SLOPE_WINDOW_S / dt)))
        self._slopes: deque[float] = deque(maxlen=self.window_n)
        self._last: float | None = None
        self._blocked_until = -1.0

    def observe(self, t: float, f_hz: float) -> Event | None:
        """Record one sample; return the event to apply, if firing."""
        if self._last is not None:
            self._slopes.append((f_hz - self._last) / self.dt)
        self._last = f_hz
        if not self.pending or t < self._blocked_until:
            return None
        slopes = self._slopes
        if len(slopes) < self.window_n:
            return None
        toward = slopes[-1] * (self.f_nominal - f_hz) > 0
        if not toward:
            return None
        peak = max(range(len(slopes)), key=lambda i: abs(slopes[i]))
        # Fire exactly when the extreme slope sits one sample back: the
        # second difference just changed sign while still recovering.
        if peak != len(slopes) - 2:
            return None
        if abs(slopes[peak]) <= abs(slopes[-1]):
            return None
        self._blocked_until = t + self.refractory_s
        slopes.clear()
        self._last = None
        return self.pending.popleft()

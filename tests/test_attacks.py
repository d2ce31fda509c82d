"""Scenario validation, event compilation, and the slope trigger."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridswing import attacks, netmodel
from gridswing.attacks import AttackType
from criteria import attack


def test_resolve_target_default(model):
    assert attacks.resolve_target(model, None) == 8


def test_resolve_target_largest(model):
    # bus 5 carries 1.25 pu, the biggest load
    assert attacks.resolve_target(model, "largest") == 5


def test_resolve_target_rejects_loadless_bus(model):
    with pytest.raises(ValueError):
        attacks.resolve_target(model, 4)
    with pytest.raises(ValueError):
        attacks.resolve_target(model, 2)  # generator bus


def test_resolve_largest_on_a_model_without_loads(model):
    with pytest.raises(ValueError) as exc:
        attacks.resolve_target(dataclasses.replace(model, loads=()), "largest")
    assert str(exc.value) == "target_bus 'largest': the model has no loads"


def test_type_signs():
    assert AttackType.DEMAND_INCREASE.demand_sign == 1.0
    assert AttackType.DEMAND_REDUCTION.demand_sign == -1.0
    assert AttackType.SUPPLY_INCREASE.demand_sign == -1.0
    assert AttackType.SUPPLY_REDUCTION.demand_sign == 1.0


def test_compile_static(model):
    sch = attack(model)
    assert len(sch.events) == 1
    ev = sch.events[0]
    assert (ev.time, ev.bus) == (1.0, 8)
    assert ev.delta_p == pytest.approx(0.252)
    assert sch.refractory_s is None


def test_compile_static_reduction_sign(model):
    sch = attack(model, attack_type=AttackType.DEMAND_REDUCTION)
    assert sch.events[0].delta_p == pytest.approx(-0.252)
    # supply increase acts like extra generation, so demand drops too
    sch2 = attack(model, attack_type=AttackType.SUPPLY_INCREASE)
    assert sch2.events[0].delta_p == pytest.approx(-0.252)


def test_compile_switching(model):
    sch = attack(model, family="switching", t1=8.0)
    assert [e.time for e in sch.events] == [1.0, 8.0]
    assert sch.events[1].delta_p == -sch.events[0].delta_p
    assert sch.net_delta() == 0.0  # exact in floats


def test_compile_periodic(model):
    sch = attack(model, family="periodic", interval=5.0, count=3)
    assert [e.time for e in sch.events] == [1.0, 6.0, 11.0, 16.0, 21.0, 26.0]
    deltas = [e.delta_p for e in sch.events]
    assert deltas[0::2] == pytest.approx([0.252] * 3)
    assert deltas[1::2] == pytest.approx([-0.252] * 3)
    assert sch.net_delta() == 0.0


def test_compile_combination(model):
    sch = attack(model, family="combination", interval=5.0, count=3)
    assert [e.time for e in sch.events] == [1.0, 6.0, 11.0, 16.0]
    d = sch.events[0].delta_p
    assert d == pytest.approx(0.252)
    # interior swings cover the full peak-to-trough span, closer rebalances
    assert [e.delta_p for e in sch.events[1:-1]] == pytest.approx([-2 * d, 2 * d])
    assert sch.net_delta() == 0.0
    # running level alternates +d, -d between interior events
    levels = np.cumsum([e.delta_p for e in sch.events])
    assert levels[:-1] == pytest.approx([d, -d, d])
    assert levels[-1] == pytest.approx(0.0, abs=1e-15)


def test_compile_slope_trigger_defers_transitions(model):
    sch = attack(model, family="periodic", interval=8.0, count=2,
                 trigger="slope")
    # every transition is listed; the trigger releases all but the first
    assert [e.time for e in sch.events] == [1.0, 9.0, 17.0, 25.0]
    assert sch.refractory_s == 8.0
    assert sch.net_delta() == 0.0


@pytest.mark.parametrize("family", ["periodic", "combination"])
def test_slope_and_time_schedules_differ_only_in_refractory(model, family):
    timed = attack(model, family=family, interval=4.0, count=3)
    released = attack(model, family=family, interval=4.0, count=3,
                      trigger="slope")
    assert timed.refractory_s is None and released.refractory_s == 4.0
    assert dataclasses.replace(released, refractory_s=None) == timed


def test_validate_collects_all_problems(model):
    bad = attacks.AttackScenario(
        family="periodic", attack_type=AttackType.DEMAND_INCREASE,
        interval=-4.0, count=0)
    errs = attacks.validate_scenario(model, bad)
    assert ("magnitude_percent", "exactly one of magnitude_percent / "
            "magnitude_mw is required") in errs
    assert ("interval", "periodic needs a positive interval") in errs
    assert ("count", "periodic needs count >= 1") in errs


def test_validate_family_and_trigger(model):
    errs = attacks.validate_scenario(model, attack(family="resonant"))
    assert errs == [("family", "unknown family 'resonant'")]
    errs = attacks.validate_scenario(model, attack(trigger="slope"))
    assert errs == [("trigger",
                     "slope trigger only applies to repeated attacks")]


def test_validate_attack_type_must_be_the_enum(model):
    """A library caller that passes the file's string, not the member, is
    named at the field; the scenario reader converts it."""
    errs = attacks.validate_scenario(model, attack(attack_type="DI"))
    assert errs == [("attack_type",
                     "attack_type must be an AttackType, got 'DI'")]


def test_validate_switching_ordering(model):
    errs = attacks.validate_scenario(model, attack(family="switching", t1=0.5))
    assert errs == [("t1", "t1 must come after t_start")]


def test_validate_both_magnitudes(model):
    errs = attacks.validate_scenario(
        model, attack(magnitude_percent=8.0, magnitude_mw=1400.0))
    assert errs == [("magnitude_percent", "exactly one of magnitude_percent / "
                     "magnitude_mw is required")]
    errs = attacks.validate_scenario(
        model, attack(magnitude_percent=None, magnitude_mw=-5.0))
    assert errs == [("magnitude_mw", "magnitude must be positive")]


@pytest.mark.parametrize("value", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
@pytest.mark.parametrize("field, kw", [
    ("magnitude_percent", {}),
    ("magnitude_mw", {"magnitude_percent": None}),
    ("t_start", {}),
    ("t1", {"family": "switching", "t1": 5.0}),
    ("interval", {"family": "periodic", "interval": 4.0, "count": 2}),
])
def test_validate_rejects_non_finite_fields(model, field, kw, value):
    """A NaN or infinite magnitude, start, reversion time or interval is
    named once, at its field, and nothing compiles."""
    scenario = attack(**{**kw, field: value})
    assert attacks.validate_scenario(model, scenario) == [
        (field, f"{field} must be finite")]
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        attacks.compile_scenario(model, scenario)


def test_compile_raises_on_invalid(model):
    with pytest.raises(ValueError, match="interval"):
        attack(model, family="periodic", interval=None, count=2)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["switching", "periodic", "combination"]),
       st.sampled_from(list(AttackType)),
       st.floats(min_value=0.5, max_value=20.0),
       st.floats(min_value=0.5, max_value=12.0),
       st.integers(min_value=1, max_value=8))
def test_compile_zero_sum_and_deterministic(family, atype, mag, interval, count):
    m = netmodel.builtin_wscc9()
    scn = attacks.AttackScenario(
        family=family, attack_type=atype, magnitude_percent=mag,
        t1=1.0 + interval if family == "switching" else None,
        interval=interval if family != "switching" else None,
        count=count if family != "switching" else None)
    one = attacks.compile_scenario(m, scn)
    two = attacks.compile_scenario(m, scn)
    assert one == two
    assert one.net_delta() == pytest.approx(0.0, abs=1e-12)
    times = [e.time for e in one.events]
    assert times == sorted(times)


def synthetic_wave(t):
    """Damped recovery toward nominal; slope peaks at t = 2.061 s."""
    return 50.0 - 0.5 * math.exp(-0.15 * t) * math.cos(0.45 * t)


def slope_trigger(pending, refractory_s, dt=0.01):
    return attacks.SlopeTrigger(
        [attacks.Event(0.0, bus, d) for bus, d in pending], refractory_s,
        f_nominal=50.0, dt=dt)


def test_slope_trigger_fires_near_steepest_recovery():
    dt = 0.01
    trig = slope_trigger(((8, -0.25), (8, 0.25)), refractory_s=5.0, dt=dt)
    fires = []
    for k in range(3000):
        t = k * dt
        hit = trig.observe(t, synthetic_wave(t))
        if hit is not None:
            fires.append((t, hit))
    assert len(fires) == 2
    t_first, first = fires[0]
    assert (first.bus, first.delta_p) == (8, -0.25)
    # instantaneous slope peaks at 2.061 s; the trailing window adds
    # about half its width of delay
    assert 2.0 <= t_first <= 2.7
    t_second, second = fires[1]
    assert second.delta_p == 0.25
    assert t_second - t_first >= trig.refractory_s
    # next toward-nominal slope peak of the damped cosine is near 9.0 s
    assert 8.7 <= t_second <= 9.8
    assert not trig.pending


def test_slope_trigger_ignores_drift_away_from_nominal():
    dt = 0.01
    trig = slope_trigger(((8, -0.25),), refractory_s=2.0, dt=dt)
    for k in range(1000):
        t = k * dt
        # monotone fall away from 50: slope peaks exist but point outward
        assert trig.observe(t, 50.0 - 0.3 * (1 - math.exp(-t))) is None
    assert len(trig.pending) == 1


@pytest.mark.parametrize("last, fires", [(49.5, False), (49.4, True)],
                         ids=["tie", "fall"])
def test_slope_trigger_needs_a_steeper_slope_one_sample_back(last, fires):
    """The window's steepest slope sits one sample back, 2 Hz/s toward
    nominal: a last slope that ties it in magnitude holds the release, a
    shallower one releases it."""
    dt = 0.125  # a window of 4 slopes
    trig = slope_trigger(((8, -0.25),), refractory_s=1.0, dt=dt)
    hits = [trig.observe(k * dt, f_hz)
            for k, f_hz in enumerate((49.0, 49.0, 49.0, 49.25, last))]
    assert hits[:-1] == [None] * 4
    assert (hits[-1] is not None) is fires
    assert len(trig.pending) == (0 if fires else 1)


def sample_list_firings(samples, n_pending, refractory_s, dt, f_nominal=50.0):
    """The sample indices at which the slope rule fires, by the sample-list
    form SlopeTrigger replaced: keep the window's samples and difference
    them again at every call. The reference for the slope deque."""
    window_n = max(3, int(round(attacks.SLOPE_WINDOW_S / dt)))
    history, fired, blocked_until = [], [], -1.0
    for k, f_hz in enumerate(samples):
        t = k * dt
        history.append(f_hz)
        if len(history) > window_n + 1:
            history.pop(0)
        if len(fired) == n_pending or t < blocked_until:
            continue
        if len(history) < window_n + 1:
            continue
        h = history
        slopes = [(h[i + 1] - h[i]) / dt for i in range(len(h) - 1)]
        if not slopes[-1] * (f_nominal - f_hz) > 0:
            continue
        peak = max(range(len(slopes)), key=lambda i: abs(slopes[i]))
        if peak != len(slopes) - 2 or abs(slopes[peak]) <= abs(slopes[-1]):
            continue
        blocked_until = t + refractory_s
        history.clear()
        fired.append(k)
    return fired


def noisy_wave(t):
    rng = np.random.default_rng(20)
    return np.array([synthetic_wave(x) for x in t]) \
        + rng.normal(scale=2e-4, size=len(t))


def nan_wave(t):
    """The damped wave with two NaN samples at 10 ms: the one at sample 207
    hides the first recovery peak, the one at 1602 delays a release."""
    f = np.array([synthetic_wave(x) for x in t])
    f[[207, 1602]] = math.nan
    return f


@pytest.mark.parametrize("refractory_s", [5.0, 0.1])
@pytest.mark.parametrize("wave", [
    lambda t: [synthetic_wave(x) for x in t], noisy_wave, nan_wave],
    ids=["damped", "noisy", "nan"])
def test_slope_deque_fires_where_the_sample_list_fired(wave, refractory_s):
    """The trigger's slope deque fires at the same samples as the sample
    list it replaced, with noise and with NaN samples in the trace, and
    with a refractory time shorter than the window, which a release's
    fresh window then decides."""
    dt, pending = 0.01, ((8, -0.25), (8, 0.25)) * 10
    samples = [float(f) for f in wave(np.arange(3000) * dt)]
    trig = slope_trigger(pending, refractory_s, dt=dt)
    fired = [k for k, f_hz in enumerate(samples)
             if trig.observe(k * dt, f_hz) is not None]
    assert fired == sample_list_firings(samples, len(pending), refractory_s,
                                        dt)
    assert fired  # the rule fires on every one of these traces

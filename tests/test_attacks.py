"""Scenario validation, event compilation, and the slope trigger."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridswing import attacks, netmodel
from gridswing.attacks import AttackType


def sc(**kw):
    kw.setdefault("family", "static")
    kw.setdefault("attack_type", AttackType.DEMAND_INCREASE)
    kw.setdefault("magnitude_percent", 8.0)
    return attacks.AttackScenario(**kw)


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


def test_type_signs():
    assert AttackType.DEMAND_INCREASE.demand_sign == 1.0
    assert AttackType.DEMAND_REDUCTION.demand_sign == -1.0
    assert AttackType.SUPPLY_INCREASE.demand_sign == -1.0
    assert AttackType.SUPPLY_REDUCTION.demand_sign == 1.0


def test_compile_static(model):
    sch = attacks.compile_scenario(model, sc())
    assert len(sch.events) == 1
    ev = sch.events[0]
    assert (ev.time, ev.bus) == (1.0, 8)
    assert ev.delta_p == pytest.approx(0.252)
    assert sch.policy is None


def test_compile_static_reduction_sign(model):
    sch = attacks.compile_scenario(
        model, sc(attack_type=AttackType.DEMAND_REDUCTION))
    assert sch.events[0].delta_p == pytest.approx(-0.252)
    # supply increase acts like extra generation, so demand drops too
    sch2 = attacks.compile_scenario(
        model, sc(attack_type=AttackType.SUPPLY_INCREASE))
    assert sch2.events[0].delta_p == pytest.approx(-0.252)


def test_compile_switching(model):
    sch = attacks.compile_scenario(model, sc(family="switching", t1=8.0))
    assert [e.time for e in sch.events] == [1.0, 8.0]
    assert sch.events[1].delta_p == -sch.events[0].delta_p
    assert sch.net_delta() == 0.0  # exact in floats


def test_compile_periodic(model):
    sch = attacks.compile_scenario(
        model, sc(family="periodic", interval=5.0, count=3))
    assert [e.time for e in sch.events] == [1.0, 6.0, 11.0, 16.0, 21.0, 26.0]
    deltas = [e.delta_p for e in sch.events]
    assert deltas[0::2] == pytest.approx([0.252] * 3)
    assert deltas[1::2] == pytest.approx([-0.252] * 3)
    assert sch.net_delta() == 0.0


def test_compile_combination(model):
    sch = attacks.compile_scenario(
        model, sc(family="combination", interval=5.0, count=3))
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
    sch = attacks.compile_scenario(
        model, sc(family="periodic", interval=8.0, count=2, trigger="slope"))
    assert len(sch.events) == 1  # only the opening step is pre-timed
    assert sch.events[0].time == 1.0
    assert sch.policy is not None
    assert len(sch.policy.pending) == 3
    assert sch.policy.refractory_s == 8.0
    assert sch.net_delta() == pytest.approx(0.0, abs=1e-15)


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
    errs = attacks.validate_scenario(model, sc(family="resonant"))
    assert errs == [("family", "unknown family 'resonant'")]
    errs = attacks.validate_scenario(model, sc(trigger="slope"))
    assert errs == [("trigger",
                     "slope trigger only applies to repeated attacks")]


def test_validate_switching_ordering(model):
    errs = attacks.validate_scenario(model, sc(family="switching", t1=0.5))
    assert errs == [("t1", "t1 must come after t_start")]


def test_validate_both_magnitudes(model):
    errs = attacks.validate_scenario(
        model, sc(magnitude_percent=8.0, magnitude_mw=1400.0))
    assert errs == [("magnitude_percent", "exactly one of magnitude_percent / "
                     "magnitude_mw is required")]
    errs = attacks.validate_scenario(
        model, sc(magnitude_percent=None, magnitude_mw=-5.0))
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
    scenario = sc(**{**kw, field: value})
    assert attacks.validate_scenario(model, scenario) == [
        (field, f"{field} must be finite")]
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        attacks.compile_scenario(model, scenario)


def test_compile_raises_on_invalid(model):
    with pytest.raises(ValueError, match="interval"):
        attacks.compile_scenario(
            model, sc(family="periodic", interval=None, count=2))


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


def test_slope_trigger_fires_near_steepest_recovery():
    dt = 0.01
    policy = attacks.SlopePolicy(pending=((8, -0.25), (8, 0.25)),
                                 refractory_s=5.0)
    trig = attacks.SlopeTrigger(policy, f_nominal=50.0, dt=dt)
    fires = []
    for k in range(3000):
        t = k * dt
        hit = trig.observe(t, synthetic_wave(t))
        if hit is not None:
            fires.append((t, hit))
    assert len(fires) == 2
    t_first, (bus, delta) = fires[0]
    assert (bus, delta) == (8, -0.25)
    # instantaneous slope peaks at 2.061 s; the trailing window adds
    # about half its width of delay
    assert 2.0 <= t_first <= 2.7
    t_second, (_, delta2) = fires[1]
    assert delta2 == 0.25
    assert t_second - t_first >= policy.refractory_s
    # next toward-nominal slope peak of the damped cosine is near 9.0 s
    assert 8.7 <= t_second <= 9.8
    assert trig.exhausted


def test_slope_trigger_ignores_drift_away_from_nominal():
    dt = 0.01
    policy = attacks.SlopePolicy(pending=((8, -0.25),), refractory_s=2.0)
    trig = attacks.SlopeTrigger(policy, f_nominal=50.0, dt=dt)
    for k in range(1000):
        t = k * dt
        # monotone fall away from 50: slope peaks exist but point outward
        assert trig.observe(t, 50.0 - 0.3 * (1 - math.exp(-t))) is None
    assert not trig.exhausted

"""Newton power flow against the published case solution and a scipy oracle."""
import dataclasses
import math

import numpy as np
import pytest

import criteria
from gridswing import powerflow

# Published solution of the 9-bus case, bus order 1..9.
PUB_V = [1.04, 1.025, 1.025, 1.0258, 0.9956, 1.0127, 1.0258, 1.0159, 1.0324]
PUB_THETA_DEG = [0.0, 9.28, 4.6648, -2.2168, -3.9888, -3.6874,
                 3.7197, 0.7275, 1.9667]


def test_matches_published_solution(model, pf):
    assert pf.v == pytest.approx(PUB_V, abs=5e-4)
    assert pf.theta_deg() == pytest.approx(PUB_THETA_DEG, abs=0.01)


def test_slack_and_reactive_dispatch(model, pf):
    idx = model.bus_index()
    assert pf.p_inj[idx[1]] == pytest.approx(0.7164, abs=5e-4)
    q_gen = [pf.q_inj[idx[g.bus]] for g in model.generators]
    assert q_gen == pytest.approx([0.2705, 0.0665, -0.1086], abs=5e-4)
    p_gen = sum(pf.p_inj[idx[g.bus]] for g in model.generators)
    assert p_gen == pytest.approx(3.1964, abs=1e-3)


def test_converges_quickly(pf):
    assert pf.iterations <= 10
    assert pf.mismatch_norm < 1e-8


def test_build_ybus_matches_hand_rolled(model):
    assert np.allclose(powerflow.build_ybus(model),
                       criteria.ybus_by_hand(model), atol=1e-12)


def test_fsolve_oracle_agrees(model, pf):
    """Independent root find of the mismatch equations, scipy as the solver."""
    v, theta, converged, msg = criteria.fsolve_operating_point(model)
    assert converged, msg
    assert pf.v == pytest.approx(v, abs=1e-6)
    assert pf.theta == pytest.approx(theta, abs=1e-6)


def test_mismatch_zero_at_solution(model, pf):
    """The solved equations balance; slack P and PV Q pick up the rest."""
    dp, dq = powerflow.mismatch(model, pf.v, pf.theta)
    kinds = [b.kind for b in model.buses]
    for i, kind in enumerate(kinds):
        if kind != "slack":
            assert abs(dp[i]) < 1e-8
        if kind == "pq":
            assert abs(dq[i]) < 1e-8
    # slack row absorbs the network losses
    assert abs(dp[kinds.index("slack")]) == pytest.approx(0.0464, abs=1e-3)


def test_scheduled_injections_balance(model):
    p_sched, q_sched = powerflow.scheduled_injections(model)
    assert p_sched.sum() == pytest.approx(0.0, abs=1e-12)  # lossless schedule
    assert q_sched.sum() == pytest.approx(-1.15)  # load Q only


def test_q_limit_switching(model):
    # squeeze gen 2's reactive headroom well below its natural 0.0665 pu
    gens = list(model.generators)
    gens[1] = dataclasses.replace(gens[1], q_max=0.05)
    tight = dataclasses.replace(model, generators=tuple(gens))
    sol = powerflow.solve(tight)
    idx = tight.bus_index()
    assert sol.q_inj[idx[2]] == pytest.approx(0.05, abs=1e-6)
    assert sol.v[idx[2]] < 1.025  # PV setpoint no longer held


def test_divergence_reported(model):
    heavy = dataclasses.replace(
        model,
        loads=tuple(dataclasses.replace(ld, p=ld.p * 10, q=ld.q * 10)
                    for ld in model.loads))
    with pytest.raises(powerflow.DivergenceError) as exc:
        powerflow.solve(heavy)
    assert exc.value.iterations >= 1
    # the recorded norm is either huge or NaN, never small
    assert not exc.value.mismatch_norm < 1e-2

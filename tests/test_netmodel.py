"""Built-in case data, validation, unit conversion, and file round-trips."""
import dataclasses
import json

import pytest
from hypothesis import given, strategies as st

from gridswing import netmodel


def test_builtin_shape(model):
    assert len(model.buses) == 9
    assert len(model.lines) == 9
    assert len(model.generators) == 3
    assert len(model.loads) == 3
    assert model.f_nominal == 50.0
    assert model.mva_base == 100.0
    assert model.national_total_mw == 17500.0


def test_builtin_schedule(model):
    assert sum(ld.p for ld in model.loads) == pytest.approx(3.15)
    # dispatch is lossless by construction, so it matches total load exactly
    assert netmodel.scheduled_generation(model) == pytest.approx(3.15)
    assert [g.p_set for g in model.generators] == pytest.approx([0.67, 1.63, 0.85])


def test_builtin_inertia_on_system_base(model):
    h_sys = [g.h * g.mva_base / model.mva_base for g in model.generators]
    assert h_sys == pytest.approx([23.63625, 6.3936, 3.008])
    assert sum(h_sys) == pytest.approx(33.03785)


def test_builtin_dynamic_defaults(model):
    # frozen output of the anchor calibration; see analysis.calibrate
    for g in model.generators:
        assert g.governor.r_droop == 0.08
        assert g.governor.t_g == 5.0
        assert g.d == 0.0


def test_builtin_validates_clean(model):
    assert netmodel.validate(model) == []


def test_validate_catches_structural_problems(model):
    broken = dataclasses.replace(
        model,
        buses=model.buses + (netmodel.Bus(id=1, kind="pq"),),  # duplicate id
        lines=model.lines + (netmodel.Line(from_bus=1, to_bus=99,
                                           r=0.0, x=0.1, b=0.0),),
    )
    # each row placed at a record's key or at the key of its list
    assert netmodel.validate(broken) == [
        ((), "buses", "duplicate bus ids"),
        (("lines", 10), "to_bus", "unknown bus")]


def test_validate_rejects_deficit_schedule(model):
    gens = tuple(dataclasses.replace(g, p_set=g.p_set / 10)
                 for g in model.generators)
    assert netmodel.validate(dataclasses.replace(model, generators=gens)) == [
        ((), "generators",
         "scheduled generation 0.3150 pu below total load 3.1500 pu")]


def test_validate_rejects_bad_governor(model):
    g0 = model.generators[0]
    bad = dataclasses.replace(
        g0, governor=dataclasses.replace(g0.governor, r_droop=-0.05))
    assert netmodel.validate(dataclasses.replace(
        model, generators=(bad,) + model.generators[1:])) == [
        (("generators", 1, "governor"), "r_droop",
         "governor constants must be positive")]


def test_validate_states_the_bus_map(model):
    """One load and one machine per bus at most, a machine on every slack
    and pv bus: each rule at its record's key, after every other rule."""
    g1, g2, g3 = model.generators
    half = dataclasses.replace(g2, p_set=g2.p_set / 2)
    split = dataclasses.replace(model.loads[0], p=0.625, q=0.25)
    cases = {
        "two machines": (dataclasses.replace(
            model, generators=(g1, half, half, g3)),
            [(("generators", 3), "bus", "bus 2 already carries a machine")]),
        "two loads": (dataclasses.replace(
            model, loads=(split, *model.loads[1:], split)),
            [(("loads", 4), "bus", "bus 5 already carries a load")]),
        "slack without machine": (dataclasses.replace(
            model, generators=(dataclasses.replace(g1, bus=4), g2, g3)),
            [(("buses", 1), "kind", "slack bus 1 carries no machine")]),
        "after an unknown bus": (dataclasses.replace(
            model, generators=(dataclasses.replace(g1, bus=10), g2, g3)),
            [(("generators", 1), "bus", "unknown bus 10"),
             (("buses", 1), "kind", "slack bus 1 carries no machine")]),
    }
    for name, (case, rows) in cases.items():
        assert netmodel.validate(case) == rows, name


def test_attack_fraction_percent(model):
    assert netmodel.attack_fraction_to_pu(model, percent=8.0) == pytest.approx(0.252)
    assert netmodel.attack_fraction_to_pu(model, percent=0.0) == 0.0


def test_attack_fraction_mw_matches_percent(model):
    # 1400 MW of 17500 MW national is the same 8 % share
    assert netmodel.attack_fraction_to_pu(model, mw=1400.0) == pytest.approx(
        netmodel.attack_fraction_to_pu(model, percent=8.0))
    # MW attacks take the one factor that reserve MW take too
    scale = netmodel.national_mw_scale(model)
    assert scale == netmodel.scheduled_generation(model) / 17500.0
    assert netmodel.attack_fraction_to_pu(model, mw=547.0) == 547.0 * scale


def test_attack_fraction_argument_errors(model):
    with pytest.raises(ValueError, match="exactly one"):
        netmodel.attack_fraction_to_pu(model)
    with pytest.raises(ValueError, match="exactly one"):
        netmodel.attack_fraction_to_pu(model, percent=5.0, mw=100.0)
    with pytest.raises(ValueError, match="non-negative"):
        netmodel.attack_fraction_to_pu(model, percent=-2.0)
    with pytest.raises(ValueError, match="non-negative"):
        netmodel.attack_fraction_to_pu(model, mw=-50.0)


@given(st.floats(min_value=0.0, max_value=100.0),
       st.floats(min_value=0.1, max_value=10.0))
def test_attack_fraction_is_linear(pct, scale):
    m = netmodel.builtin_wscc9()
    one = netmodel.attack_fraction_to_pu(m, percent=pct)
    scaled = netmodel.attack_fraction_to_pu(m, percent=pct * scale)
    assert scaled == pytest.approx(one * scale, abs=1e-12)


def test_with_dynamic_params(model):
    out = netmodel.with_dynamic_params(model, r_droop=0.05, t_g=2.0, d=1.0)
    for g in out.generators:
        assert g.governor.r_droop == 0.05
        assert g.governor.t_g == 2.0
        assert g.d == 1.0
    # untouched fields survive
    assert [g.p_set for g in out.generators] == [g.p_set for g in model.generators]
    assert model.generators[0].governor.r_droop == 0.08  # original unchanged


def test_file_round_trip(model, tmp_path):
    path = str(tmp_path / "case.json")
    netmodel.to_file(model, path)
    back = netmodel.from_file(path)
    assert back == model


def test_from_file_without_national_total_takes_the_default(model, tmp_path):
    path = tmp_path / "case.json"
    raw = json.loads(json.dumps(dataclasses.asdict(model)))
    del raw["national_total_mw"]
    path.write_text(json.dumps(raw))
    back = netmodel.from_file(str(path))
    assert back.national_total_mw == 17500.0
    assert back == model


def test_from_file_rejects_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x"}')
    with pytest.raises(netmodel.ScenarioError) as exc:
        netmodel.from_file(str(path))
    assert str(exc.value) == f"{path}:1 (key 'mva_base'): missing required key"


def test_from_file_names_a_missing_field(model, tmp_path):
    path = tmp_path / "short.json"
    raw = dataclasses.asdict(model)
    del raw["f_nominal"]
    path.write_text(json.dumps(raw))
    with pytest.raises(netmodel.ScenarioError) as exc:
        netmodel.from_file(str(path))
    assert str(exc.value) == (
        f"{path}:1 (key 'f_nominal'): missing required key")


def test_from_file_names_the_file_for_a_value_beyond_float(model, tmp_path):
    path = tmp_path / "huge.json"
    raw = json.loads(json.dumps(dataclasses.asdict(model)))
    raw["generators"][1]["h"] = 10 ** 400
    path.write_text(json.dumps(raw))
    with pytest.raises(netmodel.ScenarioError) as exc:
        netmodel.from_file(str(path))
    assert str(exc.value) == (
        f"{path}:1 (key 'h'): expected a finite number, got 1" + "0" * 400)


@pytest.mark.parametrize("first, repeat", [
    ('"mva_base": 100.0', '"mva_base": 50.0'),
    ('"t_g": 5.0', '"t_g": 1.0'),  # within the first generator's governor
], ids=["top-level", "nested"])
def test_from_file_rejects_a_repeated_key(model, tmp_path, first, repeat):
    """json.load keeps the last copy of a repeated key; the case file reader
    names the key instead of loading either copy."""
    path = tmp_path / "case.json"
    text = json.dumps(dataclasses.asdict(model))
    assert first in text
    path.write_text(text.replace(first, f"{first}, {repeat}", 1))
    key = repeat.split(":")[0].strip('"')
    with pytest.raises(netmodel.ScenarioError) as exc:
        netmodel.from_file(str(path))
    assert str(exc.value) == f"{path}:1 (key '{key}'): duplicate key"


def test_from_file_rejects_invalid(model, tmp_path):
    path = tmp_path / "invalid.json"
    raw = json.loads(json.dumps(dataclasses.asdict(model)))
    raw["generators"][0]["h"] = -1.0
    path.write_text(json.dumps(raw))
    with pytest.raises(netmodel.ScenarioError) as exc:
        netmodel.from_file(str(path))
    assert str(exc.value) == (
        f"{path}:1 (key 'h'): h, mva_base, xd_t must be positive")


def test_load_at(model):
    assert model.load_at(5).p == pytest.approx(1.25)
    assert model.load_at(1) is None

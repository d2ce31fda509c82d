"""End-to-end command line behaviour: artifacts, diagnostics, exit codes."""
import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gridswing import cli, dynamics, netmodel

HEADER = ("t_s,f_coi_hz,f_gen1_hz,f_gen2_hz,f_gen3_hz,"
          "p_attack_pu,p_reserve_up_pu,p_reserve_down_pu")


def write_scenario(tmp_path, name="case.scn", system=None, attack=None,
                   output=None, raw=None):
    doc = raw if raw is not None else {
        "system": {"duration_s": 5.0, **(system or {})},
        "attack": {"family": "static", "type": "DI",
                   "magnitude_percent": 8.0, **(attack or {})},
        **({"output": output} if output is not None else {}),
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return str(path)


def test_simulate_writes_both_artifacts(tmp_path, capsys):
    scn = write_scenario(tmp_path)
    rc = cli.main(["simulate", scn, "--out-dir", str(tmp_path)])
    assert rc == 0
    trace = tmp_path / "case_trace.csv"
    report = tmp_path / "case_report.json"
    assert trace.exists() and report.exists()
    lines = trace.read_text().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 1 + 501  # 5 s at 10 ms plus the t = 0 sample
    for cell in lines[250].split(","):
        assert len(cell.split(".")[1]) == 6  # fixed 6-decimal cells

    doc = json.loads(report.read_text())
    assert doc["samples"] == 501
    assert doc["config"]["attack"]["family"] == "static"
    # nadir in the report is exactly the smallest f_coi cell in the CSV
    coi_cells = [ln.split(",")[1] for ln in lines[1:]]
    assert min(coi_cells) == f"{doc['metrics']['nadir_hz']:.6f}"
    out = capsys.readouterr().out
    assert "nadir" in out


def test_simulate_reruns_byte_identical(tmp_path):
    scn = write_scenario(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main(["simulate", scn, "--out-dir", str(a)]) == 0
    assert cli.main(["simulate", scn, "--out-dir", str(b)]) == 0
    assert (a / "case_trace.csv").read_bytes() == (b / "case_trace.csv").read_bytes()
    ra = json.loads((a / "case_report.json").read_text())
    rb = json.loads((b / "case_report.json").read_text())
    # reports embed their own artifact paths; everything else must agree
    ra["config"].pop("output")
    rb["config"].pop("output")
    assert ra == rb


def test_simulate_equilibrium_trace(tmp_path):
    scn = write_scenario(tmp_path, system={"duration_s": 0.03, "dt_s": 0.01},
                         attack={"t_start": 10.0})  # never fires
    assert cli.main(["simulate", scn, "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "case_trace.csv").read_text().splitlines()
    assert len(lines) == 5  # header + samples at 0.00 .. 0.03
    for ln in lines[1:]:
        cells = ln.split(",")
        assert cells[1] == "50.000000"
        assert cells[5] == "0.000000"


@pytest.mark.parametrize("key, literal", [("dt_s", "NaN"),
                                          ("duration_s", "Infinity"),
                                          ("duration_s", "1e999")])
def test_non_finite_number_names_key_and_line(tmp_path, capsys, key, literal):
    scn = tmp_path / "case.scn"
    scn.write_text('{"system": {\n'
                   f'  "{key}": {literal}\n'
                   '}, "attack": {"family": "static", "type": "DI",\n'
                   '  "magnitude_percent": 8.0}}\n')
    assert cli.main(["simulate", str(scn), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{scn}:2 (key {key!r})" in err
    assert "finite" in err


def line_of(path, key):
    with open(path) as fh:
        return next(i for i, ln in enumerate(fh, start=1) if f'"{key}"' in ln)


@pytest.mark.parametrize("section, key", [("system", "dt_s"),
                                          ("attack", "t_start"),
                                          ("attack", "magnitude_percent"),
                                          ("system", "national_total_mw")])
def test_integer_beyond_float_range_names_key_and_line(tmp_path, capsys,
                                                        section, key):
    scn = write_scenario(tmp_path, **{section: {key: 10 ** 400}})
    assert cli.main(["simulate", scn, "--out-dir", str(tmp_path)]) == 2
    assert (f"{scn}:{line_of(scn, key)} (key {key!r}): expected a finite "
            "number" in capsys.readouterr().err)


def test_bad_target_bus_names_its_key_and_line(tmp_path, capsys):
    scn = write_scenario(tmp_path, attack={"target_bus": 99})
    assert cli.main(["simulate", scn]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {scn}:{line_of(scn, 'target_bus')} (key 'target_bus'):")


@pytest.mark.parametrize("flag, value", [("--dt", "0"), ("--dt", "nan"),
                                         ("--duration", "0.015"),
                                         ("--target-bus", "abc"),
                                         ("--target-bus", "99")])
@pytest.mark.parametrize("args", [["simulate"],
                                  ["sweep", "--magnitudes", "4,8"]],
                         ids=["simulate", "magnitudes"])
def test_bad_flag_is_named_with_its_value(tmp_path, capsys, args, flag,
                                          value):
    scn = write_scenario(tmp_path)
    out = tmp_path / "out"
    rc = cli.main([args[0], scn, *args[1:], flag, value, "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} {value}:")
    assert not out.exists()


def test_flag_replaces_the_file_value_before_it_is_checked(tmp_path):
    scn = write_scenario(tmp_path, system={"dt_s": -1.0, "reserves": "lots"},
                         attack={"target_bus": 99})
    _, scenario, cfg, sim = cli.parse_scenario(
        scn, {"--dt": 0.05, "--reserves": "default", "--target-bus": 5})
    assert (sim.dt, cfg.reserves, scenario.target_bus) == (0.05, "default", 5)


def test_bad_sweep_list_names_its_flag(tmp_path, capsys):
    scn = write_scenario(tmp_path)
    for flag, spec in (("--magnitudes", "4,x"), ("--magnitudes", ""),
                       ("--magnitudes", "0,4"), ("--timings", ","),
                       ("--timings", "0.5,3"), ("--timings", "3,50")):
        assert cli.main(["sweep", scn, flag, spec]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} {spec}:")


def test_sweep_run_error_keeps_its_message(tmp_path, capsys, monkeypatch):
    """A LinAlgError is a ValueError, but one from a run names no flag."""
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli.analysis, "magnitude_sweep", singular)
    assert cli.main(["sweep", write_scenario(tmp_path),
                     "--magnitudes", "4,8"]) == 2
    assert capsys.readouterr().err == "error: Singular matrix\n"


# Every kind of JSON value, with zero, negatives, NaN and Infinity literals
# and integers beyond float range among the numbers.
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 100),
    st.integers(2 ** 1024, 2 ** 1400), st.floats(),
    st.text(max_size=6), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.sampled_from([0, 0.0, -1.0, 0.015, 10 ** 400, -10 ** 400, "static",
                     "switching", "periodic", "combination", "SR", "largest",
                     "slope", "default"]))
SECTIONS = {"system": cli._SYSTEM_KEYS, "attack": cli._ATTACK_KEYS,
            "output": cli._OUTPUT_KEYS}
# A usable value per key, so that the later checks are reached too.
USABLE = {"model": "wscc9", "national_total_mw": 17500.0, "dt_s": 0.01,
          "duration_s": 5.0, "reserves": "off", "family": "periodic",
          "type": "DI", "magnitude_percent": 8.0, "target_bus": 8,
          "t_start": 1.0, "t1": 3.0, "interval": 2.0, "count": 2,
          "trigger": "time", "trace_csv": "t.csv", "report_json": "r.json"}


@st.composite
def scenario_docs(draw):
    """A usable scenario with some optional keys left out, then up to six
    keys or sections, known or not, removed or set to any JSON value; one
    draw in sixteen is any JSON value instead."""
    if draw(st.integers(0, 15)) == 8:
        return draw(JSON_VALUES)
    required = {"family", "type", "magnitude_percent"}
    doc = {name: {key: USABLE[key] for key in keys if key in USABLE
                  and (key in required or draw(st.booleans()))}
           for name, keys in SECTIONS.items()}
    for _ in range(draw(st.integers(0, 6))):
        name = draw(st.sampled_from([None, *SECTIONS]))
        where = doc if name is None else doc.get(name)
        if not isinstance(where, dict):
            continue
        key = draw(st.sampled_from([*(SECTIONS if name is None
                                      else SECTIONS[name]), "colour"]))
        if draw(st.booleans()):
            where.pop(key, None)
        else:
            where[key] = draw(JSON_VALUES)
    return doc


# What argparse can hand over for each flag, with a usable value among it.
FLAG_VALUES = st.fixed_dictionaries({}, optional={
    "--dt": st.one_of(st.just(0.005), st.floats()),
    "--duration": st.one_of(st.just(4.0), st.floats()),
    "--reserves": st.sampled_from(cli._RESERVE_PRESETS),
    "--target-bus": st.one_of(st.sampled_from([5, "largest"]), st.integers(),
                              st.text(max_size=4))})


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=scenario_docs(), flags=FLAG_VALUES)
def test_parse_scenario_fuzz(tmp_path, doc, flags):
    path = tmp_path / "fuzz.scn"
    path.write_text(json.dumps(doc))
    try:
        cli.parse_scenario(str(path), flags)
    except cli.ScenarioError as exc:
        assert str(exc).startswith((str(path), *(f"{f} " for f in flags)))


def test_key_line_is_found_in_its_section(tmp_path, capsys):
    # "family" is also an attack key, and the attack section comes first
    scn = tmp_path / "case.scn"
    scn.write_text('{\n'
                   ' "attack": {"family": "static", "type": "DI",'
                   ' "magnitude_percent": 8.0},\n'
                   ' "system": {"family": "x"}\n'
                   '}\n')
    assert cli.main(["simulate", str(scn)]) == 2
    assert f"{scn}:3 (key 'family')" in capsys.readouterr().err


def test_key_line_skips_strings_and_other_sections():
    text = ('{"attack": {"type": "{\\"dt_s\\": [", "family": "static"},\n'
            ' "system": {"model": "dt_s",\n'
            '  "dt_s": 0.01}}\n')
    assert cli._key_line(text, "dt_s", "system") == 3
    assert cli._key_line(text, "family", "attack") == 1
    assert cli._key_line(text, "family", "system") is None
    assert cli._key_line(text, "system") == 2
    assert cli._key_line(text, "dt_s") is None


@pytest.mark.parametrize("args, system, where", [
    (["simulate", "--duration", "1e15"], {}, "--duration 1e+15:"),
    (["sweep", "--magnitudes", "4,8", "--duration", "1e15"], {},
     "--duration 1e+15:"),
    (["sweep", "--timings", "3,4", "--duration", "1e15"], {},
     "--duration 1e+15:"),
    (["simulate"], {"duration_s": 1e15}, ":3 (key 'duration_s'):"),
], ids=["simulate", "magnitudes", "timings", "file"])
def test_horizon_too_long_for_memory(tmp_path, capsys, args, system, where):
    # numpy refuses 1e17 samples at once, without allocating any of them
    scn = write_scenario(tmp_path, system=system)
    rc = cli.main([args[0], scn, *args[1:], "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert where in err and "do not fit in memory" in err


def old_trace_csv(trace):
    """The per-cell formatter write_trace_csv replaced: the reference."""
    rows = [HEADER]
    for k in range(len(trace.t)):
        cells = [trace.t[k], trace.f_coi[k], *trace.f_gen[k],
                 trace.p_attack[k], trace.p_reserve_up[k],
                 trace.p_reserve_down[k]]
        rows.append(",".join(f"{c:.6f}" for c in cells))
    return "\n".join(rows) + "\n"


def test_trace_csv_matches_per_cell_format(tmp_path):
    rng = np.random.default_rng(6)
    n = 2 * cli._CSV_CHUNK_ROWS + 7
    cols = rng.normal(scale=rng.choice([1e-7, 1.0, 50.0, 1e15], (n, 8)))
    special = [-4e-7, -0.0, 0.0, 5e-7, -5e-7, 1.0000005, 0.1234565,
               -2.0000015, 49.9999995, 1e300, -1e17, 2.0 ** 60, 1e-320]
    cols[:len(special), :] = np.array(special)[:, None]
    trace = dynamics.SimulationTrace(
        t=cols[:, 0], f_coi=cols[:, 1], f_gen=cols[:, 2:5],
        p_attack=cols[:, 5], p_reserve_up=cols[:, 6],
        p_reserve_down=cols[:, 7], events=(), dt=0.01)
    path = tmp_path / "trace.csv"
    cli.write_trace_csv(trace, str(path))
    text = path.read_text()
    assert text.count("\n") == 1 + n
    assert "-0.000000," in text
    assert text == old_trace_csv(trace)


def test_horizon_not_whole_steps_is_config_error(tmp_path, capsys):
    scn = write_scenario(tmp_path, system={"dt_s": 0.3, "duration_s": 1.0})
    assert cli.main(["simulate", scn, "--out-dir", str(tmp_path)]) == 2
    assert "(key 'duration_s')" in capsys.readouterr().err


def test_failed_report_write_leaves_no_trace(tmp_path, capsys):
    # the report's directory does not exist, so only its write fails
    scn = write_scenario(tmp_path, output={"report_json": "gone/r.json"})
    out = tmp_path / "out"
    assert cli.main(["simulate", scn, "--out-dir", str(out)]) == 2
    assert "cannot write" in capsys.readouterr().err
    assert list(out.iterdir()) == []  # no trace CSV, no temp file


def test_missing_family_is_config_error(tmp_path, capsys):
    scn = write_scenario(tmp_path, raw={"attack": {"type": "DI",
                                                   "magnitude_percent": 8.0}})
    assert cli.main(["simulate", scn]) == 2
    assert "family" in capsys.readouterr().err


def test_bad_interval_names_key_and_line(tmp_path, capsys):
    scn = write_scenario(tmp_path, attack={"family": "periodic",
                                           "interval": -4.0, "count": 3})
    assert cli.main(["simulate", scn]) == 2
    err = capsys.readouterr().err
    assert "interval" in err
    with open(scn) as fh:
        line_no = next(i for i, ln in enumerate(fh, start=1)
                       if '"interval"' in ln)
    assert f":{line_no}" in err


def test_unknown_key_rejected(tmp_path, capsys):
    scn = write_scenario(tmp_path, attack={"colour": "red"})
    assert cli.main(["simulate", scn]) == 2
    assert "colour" in capsys.readouterr().err


def test_unknown_section_rejected(tmp_path, capsys):
    scn = write_scenario(tmp_path, raw={"attack": {"family": "static",
                                                   "type": "DI",
                                                   "magnitude_percent": 8.0},
                                        "plotting": {}})
    assert cli.main(["simulate", scn]) == 2
    assert "plotting" in capsys.readouterr().err


def test_invalid_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.scn"
    path.write_text('{"attack": {,}}')
    assert cli.main(["simulate", str(path)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_overlong_integer_literal_names_the_file(tmp_path, capsys):
    """An integer literal past Python's 4300-digit conversion limit is
    reported as invalid JSON at the file, for scenarios and anchor files."""
    digits = "1" * 5001
    scn = tmp_path / "long.scn"
    scn.write_text('{"system": {"dt_s": ' + digits + '},\n "attack": '
                   '{"family": "static", "type": "DI"}}\n')
    anchors = tmp_path / "anchors.json"
    anchors.write_text('[{"percent": ' + digits + '}]\n')
    out = tmp_path / "out"
    for argv, path in ((["simulate", str(scn)], scn),
                       (["calibrate", "--anchors", str(anchors)], anchors)):
        assert cli.main([*argv, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: invalid JSON: Exceeds the limit")
    assert not out.exists()


def test_case_file_beyond_float_range_names_the_model_key(tmp_path, capsys):
    """A case file whose mva_base overflows a float exits 2 at the
    scenario's model key, and powerflow on the case exits 2 naming it."""
    raw = json.loads(json.dumps(dataclasses.asdict(netmodel.builtin_wscc9())))
    raw["mva_base"] = 10 ** 400
    case = tmp_path / "huge.json"
    case.write_text(json.dumps(raw))
    scn = write_scenario(tmp_path, system={"model": "huge.json"})
    out = tmp_path / "out"
    assert cli.main(["simulate", scn, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {scn}:4 (key 'model'): malformed case file {case}:")
    assert not out.exists()
    assert cli.main(["powerflow", str(case)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: malformed case file {case}:")


def test_unknown_reserve_preset(tmp_path, capsys):
    scn = write_scenario(tmp_path, system={"reserves": "lots"})
    assert cli.main(["simulate", scn]) == 2
    assert "reserves" in capsys.readouterr().err


def test_instability_exit_code_and_no_partial_artifacts(tmp_path, capsys):
    scn = write_scenario(tmp_path,
                         attack={"type": "DR", "magnitude_percent": 200.0},
                         system={"duration_s": 20.0})
    out = tmp_path / "out"
    rc = cli.main(["simulate", scn, "--out-dir", str(out)])
    assert rc == 4
    leftovers = list(out.iterdir()) if out.exists() else []
    assert leftovers == []  # nothing half-written, no temp files


def test_powerflow_subcommand(capsys):
    assert cli.main(["powerflow"]) == 0
    out = capsys.readouterr().out
    assert "converged" in out
    assert out.count("\n") >= 10  # one row per bus plus headers


def write_diverging_case(tmp_path):
    """A case ten times the built-in load, whose power flow diverges."""
    m = netmodel.builtin_wscc9()
    heavy = dataclasses.replace(
        m,
        generators=tuple(
            dataclasses.replace(
                g, p_set=g.p_set * 10,
                governor=dataclasses.replace(g.governor, p_max=g.p_set * 12))
            for g in m.generators),
        loads=tuple(dataclasses.replace(ld, p=ld.p * 10, q=ld.q * 10)
                    for ld in m.loads))
    case = tmp_path / "heavy.json"
    netmodel.to_file(heavy, str(case))
    return str(case)


def test_powerflow_divergence_exit_code(tmp_path, capsys):
    assert cli.main(["powerflow", write_diverging_case(tmp_path)]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["simulate"],
    ["sweep", "--magnitudes", "4,8"],
    ["sweep", "--timings", "3,4"],
], ids=["simulate", "magnitudes", "timings"])
def test_diverging_base_case_exit_code(tmp_path, capsys, args):
    write_diverging_case(tmp_path)
    scn = write_scenario(tmp_path, system={"model": "heavy.json"})
    rc = cli.main([args[0], scn, *args[1:], "--out-dir", str(tmp_path)])
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_target_bus_override(tmp_path):
    scn = write_scenario(tmp_path)
    assert cli.main(["simulate", scn, "--out-dir", str(tmp_path),
                     "--target-bus", "largest"]) == 0
    doc = json.loads((tmp_path / "case_report.json").read_text())
    assert doc["config"]["attack"]["target_bus"] == 5


def test_sweep_magnitudes(tmp_path, capsys):
    scn = write_scenario(tmp_path, system={"duration_s": 20.0})
    rc = cli.main(["sweep", scn, "--magnitudes", "4,8",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "case_sweep.json").read_text())
    assert doc["sweep"] == "magnitude"
    assert doc["fit"]["slope_hz_per_percent"] < 0
    assert len(doc["points"]) == 2
    assert "slope" in capsys.readouterr().out


def test_sweep_timings(tmp_path, capsys):
    scn = write_scenario(tmp_path, system={"duration_s": 15.0})
    rc = cli.main(["sweep", scn, "--timings", "3,5",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "case_sweep.json").read_text())
    assert doc["sweep"] == "timing"
    assert doc["optimal_t1_s"] in (3.0, 5.0)
    assert "optimal" in capsys.readouterr().out


@pytest.mark.parametrize("flag, values, message", [
    ("--timings", "inf", "finite"),
    ("--timings", "nan", "finite"),
    ("--magnitudes", "4,inf", "finite"),
    ("--timings", "3,50", "horizon"),
])
def test_sweep_rejects_unusable_values(tmp_path, capfd, flag, values, message):
    scn = write_scenario(tmp_path)
    assert cli.main(["sweep", scn, flag, values,
                     "--out-dir", str(tmp_path)]) == 2
    err = capfd.readouterr().err  # fd-level, so LAPACK's own noise shows
    assert message in err
    assert "Traceback" not in err and "DLASCL" not in err


def test_event_too_late_to_snap_is_dropped(tmp_path):
    scn = write_scenario(tmp_path, system={"duration_s": 0.05},
                         attack={"t_start": 1e308})
    assert cli.main(["simulate", scn, "--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "case_report.json").read_text())
    assert doc["events"] == []


def test_sweep_requires_exactly_one_mode(tmp_path):
    scn = write_scenario(tmp_path)
    assert cli.main(["sweep", scn]) == 2
    assert cli.main(["sweep", scn, "--magnitudes", "4", "--timings", "3"]) == 2


def test_calibrate_with_anchor_file(tmp_path, capsys):
    anchors = tmp_path / "anchors.json"
    anchors.write_text(json.dumps([{"percent": 12.0, "settled_hz": 49.8}]))
    rc = cli.main(["calibrate", "--anchors", str(anchors),
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "calibrated_params.json").read_text())
    assert doc["quality_warning"] is False
    assert 0.02 <= doc["params"]["r_droop"] <= 0.08
    assert capsys.readouterr().err == ""  # no warning on a clean fit


def test_calibrate_rejects_bad_anchor_file(tmp_path):
    anchors = tmp_path / "anchors.json"
    anchors.write_text("[]")
    assert cli.main(["calibrate", "--anchors", str(anchors)]) == 2


@pytest.mark.parametrize("anchor, key, message", [
    ('{"percent": 12.0, "nadir_hz": NaN}', "nadir_hz", "finite"),
    ('{"percent": 12.0, "nadir_hz": true}', "nadir_hz", "got True"),
    ('{"percent": 0, "settled_hz": 49.8}', "percent", "positive"),
    ('{"settled_hz": 49.8}', "percent", "missing"),
    ('{"percent": 12.0, "nadir": 49.2}', "nadir", "unknown key"),
], ids=["nan", "bool", "zero-percent", "no-percent", "unknown-key"])
def test_calibrate_rejects_bad_anchor_values(tmp_path, capsys, anchor, key,
                                             message):
    path = tmp_path / "anchors.json"
    path.write_text(f'[{{"percent": 8.0, "settled_hz": 49.9}},\n {anchor}]\n')
    out = tmp_path / "out"
    assert cli.main(["calibrate", "--anchors", str(path),
                     "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} anchor 2 (key {key!r}):")
    assert message in err
    assert not out.exists()  # no report, and no simulation before the check


def test_feasibility_emits_json(capsys):
    assert cli.main(["feasibility", "1400", "2025"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is True
    assert doc["margin_mw"] == pytest.approx(347.0)


def test_feasibility_unknown_year(capsys):
    assert cli.main(["feasibility", "1400", "2040"]) == 2
    assert "no forecast" in capsys.readouterr().err


def test_missing_scenario_file(tmp_path, capsys):
    assert cli.main(["simulate", str(tmp_path / "nope.scn")]) == 2


def test_shipped_scenarios_parse():
    import glob
    here = os.path.dirname(os.path.abspath(__file__))
    shipped = sorted(glob.glob(os.path.join(here, "..", "scenarios", "*.scn")))
    assert len(shipped) >= 6
    for path in shipped:
        model, scenario, cfg, sim = cli.parse_scenario(path)
        assert scenario.family in ("static", "switching", "periodic",
                                   "combination")
        assert sim.duration > 0


def test_shipped_switching_scenario_runs(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    scn = os.path.join(here, "..", "scenarios", "switching_di_8.scn")
    assert cli.main(["simulate", scn, "--out-dir", str(tmp_path),
                     "--duration", "20"]) == 0
    assert (tmp_path / "switching_di_8_trace.csv").exists()


# The golden hashes below assume numpy 2.4.6 on x86-64 with a fused complex
# multiply: its complex128 multiply dispatched to X86_V3 (AVX2 with FMA3) on
# an AVX-512 host, so (a*b).real is fma(a.re, b.re, -(a.im*b.im)). Another
# numpy, CPU or dispatch target may round a product or a reduction
# differently and change a printed digit; the failure message names the
# numpy and the targets it dispatched here.
def numpy_build() -> str:
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    try:
        from numpy.lib.introspect import opt_func_info
        multiply = opt_func_info(func_name="^multiply$",
                                 signature="complex128")["multiply"]
        multiply = next(iter(multiply.values()))["current"]
    except (ImportError, KeyError, StopIteration):
        multiply = "unknown"
    return (f"numpy {np.__version__}, baseline {simd.get('baseline')}, "
            f"dispatch targets found {simd.get('found')}, complex128 "
            f"multiply dispatched to {multiply}; the hashes assume numpy "
            "2.4.6 with X86_V3 (FMA3) complex multiply")


# sha256 of <stem>_trace.csv and of the report without config.output,
# dumped with sort_keys; captured with numpy 2.4.6.
GOLDEN = {
    "combination_di_8": (
        "0708d3c843b7592ec56906076d8e16c3fa6bbc10d402c139351469429a4f249a",
        "8b559eba39f66a1a2a94f429ec07885565d6c83116fba7b3fb2eba609b7f29a8"),
    "national_1400mw": (
        "1f72fc6a74e401e510260f9736282e0fa5de70f0b6e056f2a5fcb58edbb8c640",
        "4c1e2bf962310d405c2b0a02fdbeccd9d01eb30a198937f4f17a4abbcd613664"),
    "periodic_di_8": (
        "eed0902df108d623a751c3acfab639dffeed7b54acd617784b7379bf490bc84a",
        "5a2d89e02357542071df04a7d87e5f2288cf8063f2c9b7ba59c1e7e40d9a5ac7"),
    "periodic_slope_trigger": (
        "936e17afde7a211d608035fac14b62d40a638c2189454db0f3d176991681764a",
        "bfd35fa4783dfee7dce3f8f67c8a2ea5df2e23f63cda0500065740c01b414bda"),
    "static_di_12": (
        "515b78e7db43a752e328e7af9b86f885be5c33991f8d066c1e2270e285132840",
        "34fc9bb2db8021da631a35b615cf5b04b6bf481d12a14144dd44830f73e56101"),
    "static_dr_12_reserves": (
        "afaa0c57b3bbfd3c3c9f245d103f358d8d3a0c999ecf066b91b628cedb5fa6bd",
        "9469053acf33a318cf215a1bc63450af78239c2e1333f6d09f901a8115c487ac"),
    "switching_di_8": (
        "b4505f30c42d340228844f36310ce33806107439d0955fb50c1d5dc2731b7c64",
        "33e384c18b7688fafb77d58f46d4f86fd2c6e103ac63ec3ae113902c90b2599b"),
}


@pytest.mark.parametrize("stem", sorted(GOLDEN))
def test_shipped_scenario_golden_hashes(tmp_path, stem):
    here = os.path.dirname(os.path.abspath(__file__))
    scn = os.path.join(here, "..", "scenarios", f"{stem}.scn")
    assert cli.main(["simulate", scn, "--out-dir", str(tmp_path)]) == 0
    trace = (tmp_path / f"{stem}_trace.csv").read_bytes()
    report = json.loads((tmp_path / f"{stem}_report.json").read_text())
    del report["config"]["output"]
    dumped = json.dumps(report, sort_keys=True).encode()
    assert (hashlib.sha256(trace).hexdigest(),
            hashlib.sha256(dumped).hexdigest()) == GOLDEN[stem], numpy_build()


# sha256 of <stem>_sweep.json without config.output, dumped with sort_keys;
# captured from the one-run-per-point sweeps with numpy 2.4.6.
GOLDEN_SWEEPS = {
    "timing": (
        "switching_di_8", ["--timings", "3,4,5,6,7,8,9,10,11,12,13,14,15,16"],
        "5e396a71e12d8a95804c7530ab7a49b6120821f3b18173136dba3492fe09850c"),
    "magnitude": (
        "static_di_12", ["--magnitudes", "4,6,8,9.4,12,14", "--duration", "60"],
        "6dde256f5295975b060c3d3049668d0f046d92e38e9aaf52ae3a637bf1fd5825"),
    "reserves": (
        "static_dr_12_reserves", ["--magnitudes", "4,8,12"],
        "eec7df5ca60b8622660ea4f54cf4a1dc3f06781446a074e08dc2742050a582ae"),
    # On write_capped_case's model the 12 % lane holds machine 3 at its
    # governor ceiling from 3.85 s and the 1000 % lane drives machines 2
    # and 3 to zero mechanical power from 6.09 s; no lane leaves the speed
    # guard. Pins the ceiling clip at both ends; captured with the
    # per-variable RK4 arithmetic and np.clip.
    "saturation": (
        None, ["--magnitudes", "4,12,1000"],
        "cdbfb4d297c2d5153f988aff62d8bb425aaedf21000c41a93ff5d4282e858164"),
}


def write_capped_case(tmp_path):
    """A 20 s static DI scenario on the built-in case with machine 3's
    governor ceiling at 0.9 pu, just above its 0.85 pu dispatch."""
    m = netmodel.builtin_wscc9()
    *rest, g3 = m.generators
    capped = dataclasses.replace(m, generators=(*rest, dataclasses.replace(
        g3, governor=dataclasses.replace(g3.governor, p_max=0.9))))
    netmodel.to_file(capped, str(tmp_path / "capped.json"))
    return write_scenario(tmp_path, "capped.scn",
                          system={"model": "capped.json", "duration_s": 20.0})


@pytest.mark.parametrize("case", sorted(GOLDEN_SWEEPS))
def test_sweep_golden_hashes(tmp_path, case):
    stem, flags, digest = GOLDEN_SWEEPS[case]
    if stem is None:
        scn = write_capped_case(tmp_path)
        stem = "capped"
    else:
        here = os.path.dirname(os.path.abspath(__file__))
        scn = os.path.join(here, "..", "scenarios", f"{stem}.scn")
    assert cli.main(["sweep", scn, *flags, "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / f"{stem}_sweep.json").read_text())
    del report["config"]["output"]
    dumped = json.dumps(report, sort_keys=True).encode()
    assert hashlib.sha256(dumped).hexdigest() == digest, numpy_build()

"""End-to-end command line behaviour: artifacts, diagnostics, exit codes."""
import dataclasses
import hashlib
import json
import os
import re
import tracemalloc
import typing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gridswing import (analysis, attacks, cli, dynamics, netmodel, powerflow,
                       reserves)

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


@pytest.mark.parametrize("attack, key, msg", [
    ({"magnitude_percent": -3.0}, "magnitude_percent",
     "magnitude must be positive"),
    ({"family": "switching", "magnitude_percent": -3.0, "t1": 0.5},
     "magnitude_percent", "magnitude must be positive"),
    ({"family": "periodic", "magnitude_percent": -4.0, "interval": -1.0,
      "count": 2}, "magnitude_percent", "magnitude must be positive"),
    ({"family": "switching", "t1": 0.5}, "t1", "t1 must come after t_start"),
    ({"type": "XX"}, "type",
     "unknown attack type 'XX'; expected one of ['DI', 'DR', 'SI', 'SR']"),
    ({"t_start": -1}, "t_start", "t_start must be non-negative"),
    ({"trigger": "x"}, "trigger", "unknown trigger 'x'"),
    ({"family": None}, "family", "expected str, got None"),
    ({"family": "switching", "t1": None}, "t1", "switching needs t1"),
], ids=["magnitude", "magnitude-and-t1", "magnitude-and-interval", "t1",
        "type", "t_start", "trigger", "null-family", "null-t1"])
def test_attack_problem_names_its_key_and_line(tmp_path, capsys, attack, key,
                                               msg):
    scn = write_scenario(tmp_path, attack=attack)
    assert cli.main(["simulate", scn]) == 2
    assert capsys.readouterr().err == \
        f"error: {scn}:{line_of(scn, key)} (key {key!r}): {msg}\n"


@pytest.mark.parametrize("check, field, key, system", [
    ("attacks.validate_scenario", "attack_type", "type", {}),
    ("cli.system_problems", "reserve_preset", "reserves",
     {"reserves": "off"}),
], ids=["attack_type", "reserve_preset"])
def test_section_problem_lands_at_its_file_key(tmp_path, capsys, monkeypatch,
                                               check, field, key, system):
    """A problem that a section's check names by a field whose file key
    differs lands at that key's line, not at the section's brace."""
    module, name = check.split(".")
    monkeypatch.setattr({"attacks": attacks, "cli": cli}[module], name,
                        lambda *args: [(field, f"{field} is wrong")])
    scn = write_scenario(tmp_path, system=system)
    assert cli.main(["simulate", scn]) == 2
    assert capsys.readouterr().err == \
        f"error: {scn}:{line_of(scn, key)} (key {key!r}): {field} is wrong\n"


@pytest.mark.parametrize("section, key", [
    pytest.param(section, key, id=key) for section, keys in (
        ("attack", ["magnitude_mw", "target_bus", "t1", "interval", "count"]),
        ("system", ["national_total_mw", "dt_s", "duration_s"]),
        ("output", ["trace_csv", "report_json"])) for key in keys])
def test_null_attack_key_reads_as_left_out(tmp_path, section, key):
    """A null for a field of any section that defaults to None gives the
    trace and report of the scenario without the key."""
    runs = []
    for stem in ("null", "absent"):
        doc = {"system": {"duration_s": 2.0}, "output": {},
               "attack": {"family": "static", "type": "DI",
                          "magnitude_percent": 8.0}}
        if stem == "null":
            doc[section][key] = None
        else:
            doc[section].pop(key, None)
        scn = write_scenario(tmp_path, f"{stem}.scn", raw=doc)
        assert cli.main(["simulate", scn, "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / f"{stem}_report.json").read_text())
        del report["config"]["output"]
        runs.append((report, (tmp_path / f"{stem}_trace.csv").read_bytes()))
    assert runs[0] == runs[1]


def test_integer_magnitude_is_echoed_as_a_float(tmp_path):
    scn = write_scenario(tmp_path, attack={"magnitude_percent": 8},
                         system={"duration_s": 1.0})
    assert cli.main(["simulate", scn, "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "case_report.json").read_text())
    echoed = report["config"]["attack"]["magnitude_percent"]
    assert (type(echoed), echoed) == (float, 8.0)


@pytest.mark.parametrize("flag, value", [("--dt", "0"), ("--dt", "nan"),
                                         ("--duration", "0.015"),
                                         ("--target-bus", "abc"),
                                         ("--target-bus", "99"),
                                         ("--reserves", "lots")])
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
    _, scenario, sim, _, config, _ = cli.parse_scenario(
        scn, {"--dt": 0.05, "--reserves": "default", "--target-bus": 5})
    assert (sim.dt, config["system"]["reserves"], scenario.target_bus) == \
        (0.05, "default", 5)


def test_flag_sets_a_key_of_a_section_the_file_leaves_out(tmp_path,
                                                          capsys):
    """A file without a system section takes --dt, --duration and
    --reserves as if it had one, and a bad flag value is named at the
    flag."""
    scn = write_scenario(tmp_path, raw={"attack": {
        "family": "static", "type": "DI", "magnitude_percent": 8.0}})
    _, _, sim, _, config, _ = cli.parse_scenario(
        scn, {"--dt": 0.02, "--duration": 4.0, "--reserves": "default"})
    assert (sim.dt, sim.duration, config["system"]["reserves"]) == \
        (0.02, 4.0, "default")
    assert sim.reserves == reserves.default_products()
    assert cli.main(["simulate", scn, "--dt", "-1"]) == 2
    assert capsys.readouterr().err == "error: --dt -1: must be positive\n"


@pytest.mark.parametrize("family", ["periodic", "combination"])
def test_count_beyond_the_horizon_is_rejected_before_compiling(tmp_path,
                                                               family):
    """A 5 s horizon at 10 ms has 501 step boundaries: count may reach 501
    and no further. Only parsing runs, which never compiles the events."""
    attack = {"family": family, "interval": 0.5}
    scn = write_scenario(tmp_path, attack={**attack, "count": 501})
    assert cli.parse_scenario(scn)[1].count == 501
    with open(scn) as fh:
        line_no = next(i for i, ln in enumerate(fh, start=1)
                       if '"count"' in ln)
    for count in (502, 10 ** 300):
        scn = write_scenario(tmp_path, attack={**attack, "count": count})
        with pytest.raises(netmodel.ScenarioError) as exc:
            cli.parse_scenario(scn)
        assert str(exc.value).startswith(f"{scn}:{line_no} (key 'count'): ")
        assert "501 step boundaries" in str(exc.value)


def test_bad_sweep_list_names_its_flag(tmp_path, capsys):
    scn = write_scenario(tmp_path)
    for flag, spec in (("--magnitudes", "4,x"), ("--magnitudes", ""),
                       ("--magnitudes", "0,4"), ("--timings", ","),
                       ("--timings", "0.5,3"), ("--timings", "3,50"),
                       ("--magnitudes", "6,4,4"), ("--magnitudes", "4,4.0"),
                       ("--timings", "6,5,5")):
        # also when the horizon is past numpy's array size
        for horizon in ([], ["--dt", "1e-300"]):
            assert cli.main(["sweep", scn, flag, spec, *horizon]) == 2
            assert capsys.readouterr().err.startswith(
                f"error: {flag} {spec}:")
    # both lanes trip, at 5.20 and 4.36 s, so no line can be fitted
    dr = write_scenario(tmp_path, "dr.scn", system={"duration_s": 6.0},
                        attack={"type": "DR"})
    assert cli.main(["sweep", dr, "--magnitudes", "200,400"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --magnitudes 200,400: only 0 sweep points "
                          "survived; cannot fit; 200 %: simulation unstable "
                          "at t = 5.20 s")
    assert "; 400 %: simulation unstable at t = 4.36 s" in err


def test_sweep_run_error_keeps_its_message(tmp_path, capsys, monkeypatch):
    """A LinAlgError is a ValueError, but one from a run names no flag."""
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli.analysis, "magnitude_sweep", singular)
    assert cli.main(["sweep", write_scenario(tmp_path),
                     "--magnitudes", "4,8"]) == 2
    assert capsys.readouterr().err == "error: Singular matrix\n"


@pytest.mark.parametrize("exc, code, err", [
    (netmodel.ScenarioError("a.scn", "dt_s", 3, "must be positive"), 2,
     "error: a.scn:3 (key 'dt_s'): must be positive\n"),
    (analysis.FitError("only 1 sweep points survived; cannot fit"), 2,
     "error: only 1 sweep points survived; cannot fit\n"),
    (RuntimeError("cannot write r.json: [Errno 2] No such file"), 2,
     "error: cannot write r.json: [Errno 2] No such file\n"),
    (TypeError("unsupported operand"), 5,
     "internal error: TypeError('unsupported operand') at test_cli.py:"),
    (KeyError("x\ny"), 5, "internal error: KeyError('x\\ny') at test_cli.py:"),
], ids=["scenario", "fit", "write", "type", "key"])
def test_exit_code_of_each_error_kind(capsys, monkeypatch, exc, code, err):
    """Input problems exit 2; anything else that escapes a command is a
    fault of the program: exit 5, one line naming the exception type and
    the file and line that raised it."""
    def failing(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "feasibility", failing)
    assert cli.main(["feasibility", "1400", "2025"]) == code
    got = capsys.readouterr().err
    assert got.startswith(err) and got.count("\n") == 1


def test_interrupt_is_not_an_internal_error(monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._COMMANDS, "feasibility", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["feasibility", "1400", "2025"])


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
# Each section's file keys, as the reader takes them from its record.
SCENARIO_HINTS = typing.get_type_hints(cli.Scenario)
SECTIONS = {name: list(netmodel._file_keys(SCENARIO_HINTS[f.name]))
            for name, f in netmodel._file_keys(cli.Scenario).items()}
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
    "--reserves": st.sampled_from([p.value for p in cli.ReservePreset]),
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
    except netmodel.ScenarioError as exc:
        assert str(exc).startswith((str(path), *(f"{f} " for f in flags)))


ANCHOR_KEYS = list(netmodel._file_keys(analysis.Anchor))


@st.composite
def anchor_docs(draw):
    """Up to three usable anchors, some target left out, then up to four
    keys of them, known or not, removed or set to any JSON value; one draw
    in eight is any JSON value instead."""
    if draw(st.integers(0, 7)) == 0:
        return draw(JSON_VALUES)
    usable = {"percent": 12.0, "nadir_hz": 49.2, "settled_hz": 49.8}
    doc = [{key: value for key, value in usable.items()
            if key == "percent" or draw(st.booleans())}
           for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 4))):
        anchor = draw(st.sampled_from(doc))
        key = draw(st.sampled_from([*ANCHOR_KEYS, "colour"]))
        if draw(st.booleans()):
            anchor.pop(key, None)
        else:
            anchor[key] = draw(st.one_of(st.floats(-1.0, 120.0),
                                         JSON_VALUES))
    return doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=anchor_docs())
def test_load_anchors_fuzz(tmp_path, doc):
    """Any anchor document ends in usable Anchor records or in a
    ScenarioError at the file; no calibration runs."""
    path = tmp_path / "anchors.json"
    path.write_text(json.dumps(doc))
    try:
        anchors = cli._load_anchors(str(path), 50.0)
    except netmodel.ScenarioError as exc:
        assert str(exc).startswith(str(path))
    else:
        assert type(anchors) is tuple and anchors
        for anchor in anchors:
            assert type(anchor) is analysis.Anchor
            assert analysis.anchor_problems(anchor, 50.0) == []


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
    lines, duplicate = netmodel.key_lines(text)
    assert duplicate is None
    assert lines[("system",), "dt_s"] == 3
    assert lines[("attack",), "family"] == 1
    assert (("system",), "family") not in lines
    assert lines[(), "system"] == 2
    assert ((), "dt_s") not in lines
    # strings holding brackets, commas, colons and escaped quotes; nested
    # lists; scalar items counted; one key in two sibling objects
    text = ('[1, {"percent": -1,\n'
            '  "k{,:\\"": ["}", {"x": [[2, {"y": ",:{"}]]}]},\n'
            ' {"percent": 2}]\n')
    deep = (2, 'k{,:"', 2, "x", 1, 2)
    assert netmodel.key_lines(text) == ({
        ((2,), None): 1, ((2,), "percent"): 1, ((2,), 'k{,:"'): 2,
        (deep[:3], None): 2, (deep[:3], "x"): 2, (deep, None): 2,
        (deep, "y"): 2, ((3,), None): 3, ((3,), "percent"): 3}, None)
    # a repeat within one object, here a nested one, stops the walk
    assert netmodel.key_lines('{"a": [{"p": 1, "q": 2,\n "p": 3}],\n'
                              ' "a": 4}')[1] == ("p", 2)


def no_run(*args):
    """A stand-in for dynamics._lockstep in tests where no lane may run."""
    raise AssertionError("a run started")


ONE_GIB_SAMPLES = (
    "--duration 1e+06: 1e+08 samples at dt = 0.01 s do not fit in memory")


@pytest.mark.parametrize("args, system, where", [
    (["simulate", "--duration", "1e15"], {}, "--duration 1e+15:"),
    (["sweep", "--magnitudes", "4,8", "--duration", "1e15"], {},
     "--duration 1e+15:"),
    (["sweep", "--timings", "3,4", "--duration", "1e15"], {},
     "--duration 1e+15:"),
    (["simulate"], {"duration_s": 1e15}, ":3 (key 'duration_s'):"),
    (["simulate", "--dt", "1e-300"], {}, "--dt 1e-300: 5e+300 samples"),
    (["sweep", "--magnitudes", "4,8", "--dt", "1e-300"], {},
     "--dt 1e-300: 5e+300 samples"),
    (["sweep", "--timings", "3,4", "--dt", "1e-300"], {},
     "--dt 1e-300: 5e+300 samples"),
    (["simulate", "--duration", "1e6"], {}, ONE_GIB_SAMPLES),
    (["sweep", "--magnitudes", "4,8", "--duration", "1e6"], {},
     ONE_GIB_SAMPLES),
], ids=["simulate", "magnitudes", "timings", "file", "simulate-dt",
        "magnitudes-dt", "timings-dt", "simulate-1GiB", "magnitudes-1GiB"])
def test_horizon_too_long_for_memory(tmp_path, capsys, monkeypatch, args,
                                     system, where):
    """The diagnostic names the flag that set the sample count, else the
    file's duration_s line, and gives the count to 3 digits; no lane is
    integrated and the output directory is not made. The samples are
    checked against physical memory before numpy reserves any: 1e8 samples
    fit the address space, but not a machine reporting 1 GiB."""
    page = os.sysconf("SC_PAGE_SIZE")
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: 2 ** 30 // page
                        if name == "SC_PHYS_PAGES" else sysconf(name))
    monkeypatch.setattr(dynamics, "_lockstep", no_run)
    scn = write_scenario(tmp_path, system=system)
    out = tmp_path / "out"
    rc = cli.main([args[0], scn, *args[1:], "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert where in err and "do not fit in memory" in err
    assert err.count("\n") == 1 and len(err) < len(scn) + 100
    assert not out.exists()


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
        p_reserve_down=cols[:, 7], events=(), dt=0.01, f_nominal=50.0)
    path = tmp_path / "trace.csv"
    cli.write_trace_csv(trace, str(path))
    text = path.read_text()
    assert text.count("\n") == 1 + n
    assert "-0.000000," in text
    assert text == old_trace_csv(trace)


def test_trace_csv_holds_one_chunk(tmp_path):
    """The writer stacks and formats one chunk of rows at a time: its peak
    allocation stays below half the bytes of the whole 8-column table."""
    n = 20 * cli._CSV_CHUNK_ROWS + 7
    cols = np.random.default_rng(7).normal(size=(8, n))
    trace = dynamics.SimulationTrace(
        t=cols[0], f_coi=cols[1], f_gen=cols[2:5].T, p_attack=cols[5],
        p_reserve_up=cols[6], p_reserve_down=cols[7], events=(), dt=0.01,
        f_nominal=50.0)
    tracemalloc.start()
    try:
        cli.write_trace_csv(trace, str(tmp_path / "trace.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cols.nbytes / 2


def test_horizon_not_whole_steps_is_config_error(tmp_path, capsys):
    scn = write_scenario(tmp_path, system={"dt_s": 0.3, "duration_s": 1.0})
    assert cli.main(["simulate", scn, "--out-dir", str(tmp_path)]) == 2
    assert "(key 'duration_s')" in capsys.readouterr().err


@pytest.mark.parametrize("output, key", [
    ({"trace_csv": "same.out", "report_json": "same.out"}, "report_json"),
    ({"trace_csv": "same.out", "report_json": "./same.out"}, "report_json"),
    ({"report_json": "case_trace.csv"}, "report_json"),
    ({"trace_csv": "case_report.json"}, "trace_csv"),
], ids=["both", "dot", "report-default-trace", "trace-default-report"])
def test_trace_and_report_on_one_path_are_rejected(tmp_path, capsys, output,
                                                   key):
    """One path for both artifacts would keep only the report: simulate
    exits 2 at the key given for it and writes nothing."""
    scn = write_scenario(tmp_path, output=output)
    out = tmp_path / "out"
    assert cli.main(["simulate", scn, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {scn}:{line_of(scn, key)} (key {key!r}): ")
    assert not out.exists()


def test_failed_report_write_leaves_no_trace(tmp_path, capsys):
    # the report's directory does not exist, so only its write fails
    scn = write_scenario(tmp_path, output={"report_json": "gone/r.json"})
    out = tmp_path / "out"
    assert cli.main(["simulate", scn, "--out-dir", str(out)]) == 2
    assert "cannot write" in capsys.readouterr().err
    assert list(out.iterdir()) == []  # no trace CSV, no temp file


@pytest.mark.parametrize("argv", [["simulate"], ["sweep", "--magnitudes", "4,8"],
                                  ["calibrate"]],
                         ids=["simulate", "sweep", "calibrate"])
@pytest.mark.parametrize("out_dir", ["afile", "afile/x"])
def test_out_dir_that_is_not_a_directory_is_rejected_first(
        tmp_path, capsys, monkeypatch, argv, out_dir):
    """An --out-dir that is a file, or lies under one, exits 2 at the flag
    before the scenario is read or any lane is integrated."""
    monkeypatch.setattr(dynamics, "_lockstep", no_run)
    (tmp_path / "afile").write_text("")
    out = str(tmp_path / out_dir)
    if argv[0] != "calibrate":
        argv = [argv[0], write_scenario(tmp_path), *argv[1:]]
    assert cli.main([*argv, "--out-dir", out]) == 2
    assert capsys.readouterr() == (
        "", f"error: --out-dir {out}: not a directory\n")


@pytest.mark.parametrize("attack, key, msg", [
    ('{"family": "static", "type": "DI"}', "magnitude_percent",
     "exactly one of magnitude_percent / magnitude_mw is required"),
    ('{"family": "periodic", "type": "DI",\n  "magnitude_percent": 8.0, '
     '"count": 2}', "interval", "periodic needs a positive interval"),
    ('{"type": "DI", "magnitude_percent": 8.0}', "family",
     "missing required key"),
    ('{"family": "switching", "type": "DI",\n  "magnitude_percent": 8.0}',
     "t1", "switching needs t1"),
], ids=["magnitude", "interval", "family", "t1"])
def test_missing_attack_key_is_placed_at_the_section_brace(tmp_path, capsys,
                                                            attack, key, msg):
    """A key the attack section lacks is named at the line of the
    section's opening brace."""
    path = tmp_path / "m.scn"
    path.write_text('{"system": {"duration_s": 5.0},\n'
                    f' "attack":\n {attack}\n}}\n')
    assert cli.main(["simulate", str(path)]) == 2
    assert capsys.readouterr().err == \
        f"error: {path}:3 (key {key!r}): {msg}\n"


def test_missing_family_is_config_error(tmp_path, capsys):
    scn = write_scenario(tmp_path, raw={"attack": {"type": "DI",
                                                   "magnitude_percent": 8.0}})
    assert cli.main(["simulate", scn]) == 2
    assert capsys.readouterr().err == (
        f"error: {scn}:2 (key 'family'): missing required key\n")


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
    assert capsys.readouterr().err == (
        f"error: {scn}:9 (key 'colour'): unknown key\n")


def test_unknown_section_rejected(tmp_path, capsys):
    scn = write_scenario(tmp_path, raw={"attack": {"family": "static",
                                                   "type": "DI",
                                                   "magnitude_percent": 8.0},
                                        "plotting": {}})
    assert cli.main(["simulate", scn]) == 2
    assert capsys.readouterr().err == (
        f"error: {scn}:7 (key 'plotting'): unknown key\n")


def test_invalid_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.scn"
    path.write_text('{"attack":\n {,}}')
    assert cli.main(["simulate", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}:2: invalid JSON: Expecting property name enclosed "
        "in double quotes\n")


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


@pytest.mark.parametrize("text, line, key", [
    ('{"attack": {"family": "static", "type": "DI",\n'
     '            "magnitude_percent": 8.0,\n'
     '            "magnitude_percent": -1.0}}\n', 3, "magnitude_percent"),
    ('{"system": {"duration_s": 2.0},\n'
     ' "attack": {"family": "static", "type": "DI"},\n'
     ' "system": {"duration_s": 3.0}}\n', 3, "system"),
], ids=["attack-key", "section"])
def test_duplicate_scenario_key_is_rejected_at_its_second_copy(
        tmp_path, capsys, text, line, key):
    """json.loads keeps the last copy of a repeated key; the scenario
    check names the line of the second copy instead."""
    path = tmp_path / "dup.scn"
    path.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["simulate", str(path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}:{line} (key {key!r}): duplicate key\n")
    assert not out.exists()


def test_duplicate_anchor_key_is_rejected(tmp_path, capsys):
    """A key repeated within one anchor is rejected at its second copy;
    the same key in two anchors is not a duplicate."""
    path = tmp_path / "anchors.json"
    path.write_text('[{"percent": 8.0, "settled_hz": 49.9},\n'
                    ' {"percent": 12.0, "settled_hz": 49.8,\n'
                    '  "percent": 4.0}]\n')
    out = tmp_path / "out"
    assert cli.main(["calibrate", "--anchors", str(path),
                     "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}:3 (key 'percent'): duplicate key\n")
    assert not out.exists()


# One edit of to_file's text of the built-in case, a regular expression
# replaced once, and the diagnostic after the case file's path. The lines
# are those of that text: line 1 is the top-level brace.
CASE_FILE_FAULTS = {
    "missing-field": (r'\n  "mva_base": 100\.0,', "",
                      ":1 (key 'mva_base'): missing required key"),
    "not-json": (r'"wscc9",', '"wscc9",,',
                 ":2: invalid JSON: Expecting property name enclosed in "
                 "double quotes"),
    "long-int": (r"100\.0", "1" * 5001,
                 ": invalid JSON: Exceeds the limit (4300 digits) for integer "
                 "string conversion: value has 5001 digits; use "
                 "sys.set_int_max_str_digits() to increase the limit"),
    "not-utf8": (r"wscc9", "\udcff",  # written as the byte 0xff
                 ": cannot read: 'utf-8' codec can't decode byte 0xff in "
                 "position 13: invalid start byte"),
    "beyond-float": (r"100\.0", "1" + "0" * 400,
                     ":3 (key 'mva_base'): expected a finite number, got 1"
                     + "0" * 400),
    "nan-f-nominal": (r"50\.0", "NaN",
                      ":4 (key 'f_nominal'): expected a finite number, "
                      "got nan"),
    "nan-national-total": (r"17500\.0", "NaN",
                           ":181 (key 'national_total_mw'): expected a "
                           "finite number, got nan"),
    "repeated-key": (r'"mva_base": 100\.0', '"mva_base": 100.0, '
                     '"mva_base": 50.0', ":3 (key 'mva_base'): duplicate key"),
    "repeated-nested-key": (r'"t_g": 5\.0', '"t_g": 5.0, "t_g": 1.0',
                            ":126 (key 't_g'): duplicate key"),
    "generator-v-set": (r'"h": 9\.55', '"h": 9.55, "v_set": 1.0',
                        ":122 (key 'v_set'): unknown key"),
    "unknown-bus-key": (r'"slack"', '"slack", "colour": "red"',
                        ":8 (key 'colour'): unknown key"),
    "string-h": (r'"h": 9\.55', '"h": "9.55"',
                 ":122 (key 'h'): expected int/float, got '9.55'"),
    "bool-x": (r'"x": 0\.0576', '"x": true',
               ":57 (key 'x'): expected int/float, got True"),
    "null-r": (r'"r": 0\.0', '"r": null',
               ":56 (key 'r'): expected int/float, got None"),
    "float-id": (r'"id": 4,', '"id": 4.0,',
                 ":22 (key 'id'): expected int, got 4.0"),
    "list-governor": (r'"governor": \{.*?\}', '"governor": []',
                      ":124 (key 'governor'): expected dict, got []"),
    "object-buses": (r'"buses": \[.*?\n  \]', '"buses": {}',
                     ":5 (key 'buses'): expected list, got {}"),
    "number-bus": (r'\{\s*"id": 3,.*?\}', "3",
                   ":5 (key 'buses'): item 3: expected an object"),
    "missing-t-g": (r'\s*"t_g": 5\.0,', "",
                    ":124 (key 't_g'): missing required key"),
    # 1e300 MVA times 1e300 s: each finite, their system-base H is not
    "inertia-beyond-float": (r'"mva_base": 247\.5,\s*"h": 9\.55',
                             '"mva_base": 1e300, "h": 1e300',
                             ":121 (key 'mva_base'): h, d and droop gain on "
                             "the system base must be finite"),
    # each problem netmodel.validate finds, its first at its record's key
    # or at the key of the list it is about
    "repeated-bus-id": (r'"id": 4,', '"id": 3,',
                        ":5 (key 'buses'): duplicate bus ids"),
    "no-slack": (r'"kind": "slack"', '"kind": "pq"',
                 ":5 (key 'buses'): expected exactly one slack bus, found 0"),
    "unknown-kind": (r'"kind": "pv"', '"kind": "PV"',
                     ":13 (key 'kind'): unknown kind 'PV'"),
    "pv-without-v-set": (r'"v_set": 1\.025', '"v_set": null',
                         ":14 (key 'v_set'): pv bus needs v_set"),
    "v-set-out-of-range": (r'"v_set": 1\.04', '"v_set": 1.5',
                           ":9 (key 'v_set'): v_set 1.5 outside 0.8..1.2"),
    "line-unknown-bus": (r'"to_bus": 6', '"to_bus": 99',
                         ":69 (key 'to_bus'): unknown bus"),
    "zero-impedance": (r'"x": 0\.0576', '"x": 0.0',
                       ":57 (key 'x'): zero impedance"),
    "generator-unknown-bus": (r'"bus": 1,', '"bus": 10,',
                              ":119 (key 'bus'): unknown bus 10"),
    "non-positive-h": (r'"h": 9\.55', '"h": 0.0',
                       ":122 (key 'h'): h, mva_base, xd_t must be positive"),
    "negative-p-set": (r'"p_set": 0\.67', '"p_set": -0.67',
                       ":120 (key 'p_set'): negative p_set"),
    "p-max-below-p-set": (r'"p_max": 2\.5', '"p_max": 0.5',
                          ":127 (key 'p_max'): p_max below p_set"),
    "non-positive-t-g": (r'"t_g": 5\.0', '"t_g": 0.0',
                         ":126 (key 't_g'): governor constants must be "
                         "positive"),
    "negative-damping": (r'"d": 0\.0', '"d": -1.0',
                         ":129 (key 'd'): negative damping"),
    "q-min-above-q-max": (r'"q_min": -3\.0', '"q_min": 4.0',
                          ":130 (key 'q_min'): q_min above q_max"),
    "load-unknown-bus": (r'"bus": 5,', '"bus": 10,',
                         ":166 (key 'bus'): unknown bus 10"),
    "negative-demand": (r'"p": 1\.25', '"p": -1.25',
                        ":167 (key 'p'): negative demand"),
    "load-on-generator-bus": (r'"bus": 5,', '"bus": 1,',
                              ":166 (key 'bus'): load and generator share a "
                              "bus"),
    "stranded-bus": (r'"from_bus": 3,', '"from_bus": 2,',
                     ":52 (key 'lines'): buses not connected to the "
                     "network: [3]"),
    "schedule-deficit": (r'"p_set": 1\.63', '"p_set": 0.63',
                         ":117 (key 'generators'): scheduled generation "
                         "2.1500 pu below total load 3.1500 pu"),
    "non-positive-national-total": (r'17500\.0', "0.0",
                                    ":181 (key 'national_total_mw'): "
                                    "national_total_mw must be finite and "
                                    "positive"),
    # the bus map the power flow and the integrator share
    "second-load-on-a-bus": (r'"bus": 8,', '"bus": 5,',
                             ":176 (key 'bus'): bus 5 already carries a "
                             "load"),
    "second-machine-on-a-bus": (r'"bus": 3,', '"bus": 2,',
                                ":149 (key 'bus'): bus 2 already carries a "
                                "machine"),
    "pv-bus-without-machine": (r'"bus": 3,', '"bus": 4,',
                               ":18 (key 'kind'): pv bus 3 carries no "
                               "machine"),
}


@pytest.mark.parametrize("fault", sorted(CASE_FILE_FAULTS))
def test_case_file_fault_is_placed_at_its_key(tmp_path, capsys, fault):
    """Each case file fault exits 2 at the case file's line and key: from
    from_file and powerflow as it is, and from simulate after the
    scenario's model key. Nothing is written."""
    pattern, repl, where = CASE_FILE_FAULTS[fault]
    case = tmp_path / "bad.json"
    netmodel.to_file(netmodel.builtin_wscc9(), str(case))
    text, edits = re.subn(pattern, lambda _: repl, case.read_text(),
                          count=1, flags=re.S)
    assert edits == 1
    case.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(netmodel.ScenarioError) as exc:
        netmodel.from_file(str(case))
    assert str(exc.value) == f"{case}{where}"
    assert cli.main(["powerflow", str(case)]) == 2
    assert capsys.readouterr().err == f"error: {case}{where}\n"
    scn = write_scenario(tmp_path, system={"model": "bad.json"})
    out = tmp_path / "out"
    assert cli.main(["simulate", scn, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {scn}:4 (key 'model'): {case}{where}\n")
    assert sorted(os.listdir(tmp_path)) == ["bad.json", "case.scn"]


@st.composite
def bus_maps(draw):
    """The built-in case with its slack bus, its pv buses and the bus of
    each machine and load drawn from its bus ids: either on distinct buses,
    the slack and pv buses first in line for a machine, so that usable
    cases occur, or each on any bus, so that a bus carries two machines or
    loads and a slack or pv bus none."""
    model = netmodel.builtin_wscc9()
    ids = [b.id for b in model.buses]
    slack = draw(st.sampled_from(ids))
    pv = draw(st.sets(st.sampled_from(ids))) - {slack}
    n = len(model.generators) + len(model.loads)
    if draw(st.booleans()):
        free = [i for i in ids if i != slack and i not in pv]
        at = [slack, *sorted(pv), *draw(st.permutations(free))][:n]
    else:
        at = draw(st.lists(st.sampled_from(ids), min_size=n, max_size=n))
    m = len(model.generators)
    return dataclasses.replace(
        model,
        buses=tuple(netmodel.Bus(i, "slack", 1.04) if i == slack
                    else netmodel.Bus(i, "pv", 1.025) if i in pv
                    else netmodel.Bus(i, "pq") for i in ids),
        generators=tuple(dataclasses.replace(g, bus=bus)
                         for g, bus in zip(model.generators, at)),
        loads=tuple(dataclasses.replace(ld, bus=bus)
                    for ld, bus in zip(model.loads, at[m:])))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model=bus_maps())
def test_bus_map_fuzz(tmp_path, model):
    """Any bus map ends in exit 0, 2 or 3 from gridswing powerflow, never
    in an internal error; where validate accepts it and the power flow
    converges, init_state starts each machine at its power-flow dispatch."""
    case = tmp_path / "map.json"
    netmodel.to_file(model, str(case))
    assert cli.main(["powerflow", str(case)]) in (
        cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_POWERFLOW)
    if netmodel.validate(model):
        return
    try:
        pf = powerflow.solve(model)
    except powerflow.DivergenceError:
        return
    idx = model.bus_index()
    dispatch = pf.p_inj[[idx[g.bus] for g in model.generators]]
    p_m = dynamics.init_state(model, pf)[2]
    assert np.abs(p_m - dispatch).max() <= powerflow.TOL


def test_case_file_takes_an_int_for_a_float(tmp_path):
    """A case file giving mva_base as the int 100 reads back as the
    built-in model, its mva_base the float 100.0."""
    case = tmp_path / "int.json"
    netmodel.to_file(netmodel.builtin_wscc9(), str(case))
    case.write_text(case.read_text().replace('"mva_base": 100.0',
                                             '"mva_base": 100', 1))
    assert '"mva_base": 100,' in case.read_text()
    model = netmodel.from_file(str(case))
    assert model == netmodel.builtin_wscc9()
    assert type(model.mva_base) is float


def test_case_file_beyond_float_range_names_the_model_key(tmp_path, capsys):
    """A case file whose line reactance overflows a float exits 2 at the
    scenario's model key, and powerflow on the case exits 2 naming it."""
    raw = json.loads(json.dumps(dataclasses.asdict(netmodel.builtin_wscc9())))
    raw["lines"][2]["x"] = 10 ** 400
    case = tmp_path / "huge.json"
    case.write_text(json.dumps(raw))
    where = f"{case}:1 (key 'x'): expected a finite number, got 1" + "0" * 400
    scn = write_scenario(tmp_path, system={"model": "huge.json"})
    out = tmp_path / "out"
    assert cli.main(["simulate", scn, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {scn}:4 (key 'model'): {where}\n")
    assert not out.exists()
    assert cli.main(["powerflow", str(case)]) == 2
    assert capsys.readouterr().err == f"error: {where}\n"


def test_case_file_with_a_repeated_key_names_the_model_key(tmp_path, capsys):
    """A case file repeating a load's q exits 2 at the scenario's model key,
    naming the repeated key, and writes nothing."""
    text = json.dumps(dataclasses.asdict(netmodel.builtin_wscc9()))
    case = tmp_path / "twice.json"
    case.write_text(text.replace('"q": 0.5', '"q": 0.5, "q": 0.1', 1))
    scn = write_scenario(tmp_path, system={"model": "twice.json"})
    out = tmp_path / "out"
    assert cli.main(["simulate", scn, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {scn}:4 (key 'model'): {case}:1 (key 'q'): duplicate key\n")
    assert not out.exists()


def test_case_file_missing_a_field_names_the_key(tmp_path, capsys):
    """A case file whose load has no p exits 2 naming the missing key, at
    the scenario's model key and through powerflow, and writes nothing."""
    raw = dataclasses.asdict(netmodel.builtin_wscc9())
    del raw["loads"][1]["p"]
    case = tmp_path / "short.json"
    case.write_text(json.dumps(raw))
    where = f"{case}:1 (key 'p'): missing required key"
    scn = write_scenario(tmp_path, system={"model": "short.json"})
    out = tmp_path / "out"
    assert cli.main(["simulate", scn, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {scn}:4 (key 'model'): {where}\n")
    assert not out.exists()
    assert cli.main(["powerflow", str(case)]) == 2
    assert capsys.readouterr().err == f"error: {where}\n"


@pytest.mark.parametrize("field, value", [
    ("f_nominal", -50.0), ("f_nominal", 0.0), ("mva_base", -100.0)])
def test_case_file_bad_base_quantity_names_the_field(tmp_path, capsys,
                                                      field, value):
    """A nominal frequency, MVA base or national total that is not finite
    and positive exits 2 at the scenario's model key, naming the field,
    and writes nothing."""
    raw = dataclasses.asdict(netmodel.builtin_wscc9())
    raw[field] = value
    case = tmp_path / "bad.json"
    case.write_text(json.dumps(raw))
    scn = write_scenario(tmp_path, system={"model": "bad.json"})
    out = tmp_path / "out"
    assert cli.main(["simulate", scn, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {scn}:4 (key 'model'): {case}:1 (key '{field}'): "
        f"{field} must be finite and positive\n")
    assert not out.exists()


def test_unknown_reserve_preset(tmp_path, capsys):
    scn = write_scenario(tmp_path, system={"reserves": "lots"})
    assert cli.main(["simulate", scn]) == 2
    assert capsys.readouterr().err == (
        f"error: {scn}:4 (key 'reserves'): unknown reserve preset 'lots'; "
        "expected one of ['off', 'default']\n")


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


def scaled(m, k):
    """The model m with every load, p_set and p_max times k."""
    return dataclasses.replace(
        m,
        generators=tuple(
            dataclasses.replace(
                g, p_set=g.p_set * k,
                governor=dataclasses.replace(g.governor,
                                             p_max=g.governor.p_max * k))
            for g in m.generators),
        loads=tuple(dataclasses.replace(ld, p=ld.p * k, q=ld.q * k)
                    for ld in m.loads))


def write_diverging_case(tmp_path):
    """A case ten times the built-in load, whose power flow diverges."""
    case = tmp_path / "heavy.json"
    netmodel.to_file(scaled(netmodel.builtin_wscc9(), 10), str(case))
    return str(case)


def test_powerflow_divergence_exit_code(tmp_path, capsys):
    assert cli.main(["powerflow", write_diverging_case(tmp_path)]) == 3
    assert "error" in capsys.readouterr().err


def near_short_line(m):
    """Line 1-4 with x = 1e-300: the first mismatch exceeds 1e8."""
    return dataclasses.replace(m, lines=(
        dataclasses.replace(m.lines[0], x=1e-300, r=0.0), *m.lines[1:]))


def resistive(m):
    """Every line a pure resistance without charging (0.06 pu where r was
    0): at the flat start no P row of the Jacobian has an angle term, so
    its 8 P rows fall on the 6 PQ voltage columns and it is singular."""
    return dataclasses.replace(m, lines=tuple(
        dataclasses.replace(ln, r=ln.r or 0.06, x=0.0, b=0.0)
        for ln in m.lines))


@pytest.mark.parametrize("case, mismatch, iterations", [
    (near_short_line, "4.000e+298", 1),
    # a Newton step drives a voltage to zero or below
    (lambda m: scaled(m, 3), "2.940e+00", 4),
    (resistive, "1.250e+00", 1),
], ids=["mismatch-above-1e8", "non-positive-voltage", "singular-jacobian"])
def test_powerflow_divergence_names_its_mismatch(tmp_path, capsys, case,
                                                 mismatch, iterations):
    """Valid cases that end in three of the power flow's raises."""
    model = case(netmodel.builtin_wscc9())
    assert netmodel.validate(model) == []
    netmodel.to_file(model, str(tmp_path / "case.json"))
    assert cli.main(["powerflow", str(tmp_path / "case.json")]) == 3
    assert capsys.readouterr().err == (
        f"error: power flow did not converge: |mismatch| = {mismatch} "
        f"after {iterations} iterations\n")


def test_powerflow_iteration_limit(capsys, monkeypatch):
    """The built-in case, which converges in 5 iterations, allowed one:
    its first step is taken and the loop ends in the raise after it, with
    the flat start's mismatch, and the powerflow command exits 3."""
    monkeypatch.setattr(powerflow, "MAX_ITER", 1)
    with pytest.raises(powerflow.DivergenceError,
                       match="after 1 iterations"):
        powerflow.solve(netmodel.builtin_wscc9())
    assert cli.main(["powerflow"]) == 3
    assert capsys.readouterr().err == (
        "error: power flow did not converge: |mismatch| = 1.630e+00 "
        "after 1 iterations\n")


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


def count_power_flows(monkeypatch):
    """A list that gains an entry at each power-flow solve."""
    solves = []
    solve = powerflow.solve
    monkeypatch.setattr(powerflow, "solve",
                        lambda model: solves.append(model) or solve(model))
    return solves


def test_sweep_magnitudes(tmp_path, capsys, monkeypatch):
    solves = count_power_flows(monkeypatch)
    scn = write_scenario(tmp_path, system={"duration_s": 20.0})
    rc = cli.main(["sweep", scn, "--magnitudes", "4,8",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    assert len(solves) == 1  # the parse's solution serves the sweep
    doc = json.loads((tmp_path / "case_sweep.json").read_text())
    assert doc["sweep"] == "magnitude"
    assert doc["fit"]["slope_hz_per_percent"] < 0
    assert len(doc["points"]) == 2
    assert "slope" in capsys.readouterr().out


def test_sweep_timings(tmp_path, capsys, monkeypatch):
    solves = count_power_flows(monkeypatch)
    scn = write_scenario(tmp_path, system={"duration_s": 15.0})
    rc = cli.main(["sweep", scn, "--timings", "3,5",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    assert len(solves) == 1
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


@pytest.mark.parametrize("t_start", [25.0, 19.995])
def test_magnitude_sweep_starting_past_the_horizon(tmp_path, capsys,
                                                   t_start):
    """A static 12 % DI starting at 25 s over 20 s, or on the last boundary,
    has no response to fit: exit 2 at t_start, or at --duration when that
    flag set the horizon."""
    scn = write_scenario(tmp_path, system={"duration_s": 20.0},
                         attack={"magnitude_percent": 12.0,
                                 "t_start": t_start})
    with open(scn) as fh:
        line = 1 + fh.read().splitlines().index(f'  "t_start": {t_start}')
    for flags, where in (([], f"{scn}:{line} (key 't_start')"),
                         (["--duration", "20"], "--duration 20")):
        assert cli.main(["sweep", scn, "--magnitudes", "4,8",
                         "--out-dir", str(tmp_path), *flags]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {where}: the attack starts at {t_start:g} s, too late "
            "to act within the 20 s horizon")
    assert not (tmp_path / "case_sweep.json").exists()


def test_timing_sweep_of_a_slope_triggered_scenario(tmp_path):
    """Each timing lane is a time-triggered switching attack, so a slope
    trigger in the scenario does not reject the sweep."""
    here = os.path.dirname(os.path.abspath(__file__))
    shipped = os.path.join(here, "..", "scenarios",
                           "periodic_slope_trigger.scn")
    with open(shipped) as fh:
        doc = json.load(fh)
    doc["attack"]["trigger"] = "time"
    timed = write_scenario(tmp_path, "timed.scn", raw=doc)
    optimal = []
    for scn in (shipped, timed):
        assert cli.main(["sweep", scn, "--timings", "5,8",
                         "--out-dir", str(tmp_path)]) == 0
        stem = os.path.splitext(os.path.basename(scn))[0]
        report = json.loads((tmp_path / f"{stem}_sweep.json").read_text())
        optimal.append(report["optimal_t1_s"])
    assert optimal[0] == optimal[1]


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


def test_calibrate_with_anchor_file(tmp_path, capsys, monkeypatch):
    """An anchor file reaches calibrate as Anchor records, an int percent
    as a float, and the report echoes them; a stub runs no grid (the fit
    of this anchor is test_calibrate_settled_only_anchor's)."""
    seen = []

    def fit(model, given):
        seen.append(given)
        return analysis.CalibratedParams(0.065, 5.0, 0.0625, 2.9e-07, False)

    monkeypatch.setattr(analysis, "calibrate", fit)
    anchors = tmp_path / "anchors.json"
    anchors.write_text(json.dumps([{"percent": 12, "settled_hz": 49.8}]))
    rc = cli.main(["calibrate", "--anchors", str(anchors),
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    assert seen == [(analysis.Anchor(12.0, None, 49.8),)]
    assert type(seen[0][0].percent) is float
    doc = json.loads((tmp_path / "calibrated_params.json").read_text())
    assert doc["anchors"] == [
        {"percent": 12.0, "nadir_hz": None, "settled_hz": 49.8}]
    assert doc["quality_warning"] is False
    assert capsys.readouterr().err == ""  # no warning on a clean fit


@pytest.mark.parametrize("spec, anchors, warned", [
    ("simulated", analysis.DEFAULT_ANCHORS, False),
    ("incident", analysis.INCIDENT_ANCHORS, True),
])
def test_calibrate_presets_and_quality_warning(tmp_path, capsys, monkeypatch,
                                               spec, anchors, warned):
    """Each --anchors preset reaches calibrate as its anchors, and a fit
    past the residual threshold warns on stderr, naming the residual and
    the threshold, from a stub that runs no grid."""
    seen = []

    def fit(model, given):
        seen.append(given)
        return analysis.CalibratedParams(0.05, 2.0, 0.5, 0.25, warned)

    monkeypatch.setattr(analysis, "calibrate", fit)
    assert cli.main(["calibrate", "--anchors", spec,
                     "--out-dir", str(tmp_path)]) == 0
    assert seen == [anchors]
    path = tmp_path / "calibrated_params.json"
    doc = json.loads(path.read_text())
    assert [analysis.Anchor(**a) for a in doc["anchors"]] == list(anchors)
    assert doc["quality_warning"] is warned
    out, err = capsys.readouterr()
    assert out == ("r_droop 0.05, t_g 2 s, d 0.5; residual 0.2500 Hz^2\n"
                   f"report: {path}\n")
    assert err == ("warning: calibration residual 0.2500 Hz^2 exceeds the "
                   "quality threshold 0.0100 Hz^2 (0.01 per anchor x 1); no "
                   "parameter on a search bound\n" if warned else "")


def test_calibrate_warning_names_each_parameter_on_a_bound(
        tmp_path, capsys, monkeypatch):
    """The warning of a fit held on the edges of the search box, as the
    default anchors' is, names each such parameter and its edge, and the
    threshold scales with the number of anchors."""
    monkeypatch.setattr(analysis, "calibrate", lambda model, given: (
        analysis.CalibratedParams(0.08, 5.0, 0.0, 0.04431508330697249, True)))
    anchors = tmp_path / "anchors.json"
    anchors.write_text(json.dumps([{"percent": 12, "nadir_hz": 49.17},
                                   {"percent": 8, "nadir_hz": 49.36}]))
    assert cli.main(["calibrate", "--anchors", str(anchors),
                     "--out-dir", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("r_droop 0.08, t_g 5 s, d 0; residual 0.0443 Hz^2\n")
    assert err == ("warning: calibration residual 0.0443 Hz^2 exceeds the "
                   "quality threshold 0.0200 Hz^2 (0.01 per anchor x 2); on "
                   "a search bound: r_droop 0.08 (upper), t_g 5 s (upper), "
                   "d 0 (lower)\n")


def test_calibrate_rejects_bad_anchor_file(tmp_path, capsys):
    anchors = tmp_path / "anchors.json"
    anchors.write_text("[]")
    assert cli.main(["calibrate", "--anchors", str(anchors)]) == 2
    assert capsys.readouterr().err == (
        f"error: {anchors}: expected a non-empty list of anchors\n")


@pytest.mark.parametrize("anchor, key, message", [
    ('{"percent": 12.0, "nadir_hz": NaN}', "nadir_hz", "finite"),
    ('{"percent": 12.0, "nadir_hz": true}', "nadir_hz", "got True"),
    ('{"percent": 0, "settled_hz": 49.8}', "percent", "positive"),
    ('{"settled_hz": 49.8}', "percent", "missing"),
    ('{"percent": 12.0, "nadir": 49.2}', "nadir", "unknown key"),
    ('{"percent": 8, "nadir_hz": 1e308}', "nadir_hz", "between 0 and 100 Hz"),
    ('{"percent": 8, "nadir_hz": 100}', "nadir_hz", "between 0 and 100 Hz"),
    ('{"percent": 8, "settled_hz": 0}', "settled_hz", "between 0 and 100 Hz"),
    ('{"percent": 8, "settled_hz": -49.8}', "settled_hz",
     "between 0 and 100 Hz"),
    # an attack beyond the system's generation: 10 000 % reads no response
    ('{"percent": 101, "nadir_hz": 49.0}', "percent", "must not exceed 100"),
    ('{"percent": 400, "nadir_hz": 49.0}', "percent", "must not exceed 100"),
    ('{"percent": 1e300, "nadir_hz": 49.0}', "percent",
     "must not exceed 100, the scheduled generation"),
], ids=["nan", "bool", "zero-percent", "no-percent", "unknown-key",
        "huge-nadir", "nadir-at-twice-nominal", "zero-settled",
        "negative-settled", "percent-101", "percent-400", "percent-1e300"])
def test_calibrate_rejects_bad_anchor_values(tmp_path, capsys, anchor, key,
                                             message):
    path = tmp_path / "anchors.json"
    path.write_text(f'[{{"percent": 8.0, "settled_hz": 49.9}},\n {anchor}]\n')
    out = tmp_path / "out"
    assert cli.main(["calibrate", "--anchors", str(path),
                     "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2 (key {key!r}): anchor 2: ")
    assert message in err
    assert not out.exists()  # no report, and no simulation before the check


def test_calibrate_rejects_anchor_without_targets(tmp_path, capsys):
    path = tmp_path / "anchors.json"
    path.write_text('[{"percent": 12}]\n')
    out = tmp_path / "out"
    assert cli.main(["calibrate", "--anchors", str(path),
                     "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}:1: anchor 1: has no targets: give nadir_hz or "
        "settled_hz\n")
    assert not out.exists()  # no report, and no simulation before the check


@pytest.mark.parametrize("anchor, line, key, message", [
    ('{"settled_hz": 49.8,\n  "percent": -1}', 5, "percent", "positive"),
    ('{"percent": 12.0,\n  "nadir_hz": "low"}', 5, "nadir_hz", "expected"),
    ('{\n  "settled_hz": 49.8}', 4, "percent", "missing required"),
    ('{\n  "percent": 12.0}', 4, None, "has no targets"),
], ids=["value", "type", "missing-key", "no-targets"])
def test_anchor_diagnostic_starts_at_its_line(tmp_path, capsys, anchor, line,
                                              key, message):
    """Each anchor diagnostic starts with path:line, the key's line or, for
    a key or targets the anchor lacks, its opening brace's, and names the
    anchor's number."""
    path = tmp_path / "anchors.json"
    path.write_text('[{"percent": 8.0, "settled_hz": 49.9},\n'
                    ' {"percent": 4.0,\n  "settled_hz": 49.95},\n'
                    f' {anchor}]\n')
    assert cli.main(["calibrate", "--anchors", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    where = f"{path}:{line}" + ("" if key is None else f" (key {key!r})")
    assert err.startswith(f"error: {where}: anchor 3: ")
    assert message in err


def test_feasibility_emits_json(capsys):
    assert cli.main(["feasibility", "1400", "2025"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is True
    assert doc["margin_mw"] == pytest.approx(347.0)


def test_feasibility_unknown_year(capsys):
    assert cli.main(["feasibility", "1400", "2040"]) == 2
    assert "no forecast" in capsys.readouterr().err


def test_missing_scenario_file(tmp_path, capsys):
    path = tmp_path / "nope.scn"
    assert cli.main(["simulate", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: cannot read: [Errno 2] No such file or directory: "
        f"'{path}'\n")


def test_shipped_scenarios_parse():
    import glob
    here = os.path.dirname(os.path.abspath(__file__))
    shipped = sorted(glob.glob(os.path.join(here, "..", "scenarios", "*.scn")))
    assert len(shipped) >= 6
    for path in shipped:
        model, scenario, sim, _, config, _ = cli.parse_scenario(path)
        assert scenario.family in ("static", "switching", "periodic",
                                   "combination")
        assert sim.duration > 0


# The README's words for the JSON value types of netmodel._json_types.
README_TYPES = {"string": (str,), "number": (int, float), "integer": (int,),
                "null": (type(None),)}


# The record behind each key table of the README's scenario section.
README_RECORDS = {"system": cli.SystemSection,
                  "attack": attacks.AttackScenario,
                  "output": cli.OutputSection, "anchor": analysis.Anchor}


def test_readme_scenario_section_matches_the_reader(tmp_path):
    """The README's scenario example parses, and each of its key tables
    (headed "| <name> key | JSON type | meaning |") holds exactly its
    record's file keys, each with the reader's JSON types and required
    flag."""
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Scenario files")[1].split("\n## ")[0]
    scn = tmp_path / "readme.scn"
    scn.write_text(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    cli.parse_scenario(str(scn))
    tables = re.split(r"^\| (\w+) key \| JSON type \| meaning \|$", section,
                      flags=re.M)[1:]
    assert sorted(tables[::2]) == sorted(README_RECORDS)
    for name, text in zip(tables[::2], tables[1::2]):
        documented = {}
        for key, types in re.findall(r"^\| `(\w+)` \| ([^|]+) \|",
                                     text.split("\n\n")[0], re.M):
            words = re.findall(r"\w+", types)
            documented[key] = (
                {t for w in words for t in README_TYPES.get(w, ())},
                "required" in words)
        record = README_RECORDS[name]
        hints = typing.get_type_hints(record)
        assert documented == {
            key: (set(netmodel._json_types(hints[f.name])),
                  f.default is dataclasses.MISSING)
            for key, f in netmodel._file_keys(record).items()}, name


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


def write_capped_case(tmp_path, machine=2, p_max=0.9):
    """A 20 s static DI scenario on the built-in case with one machine's
    governor ceiling lowered: by default machine 3's to 0.9 pu, just above
    its 0.85 pu dispatch."""
    m = netmodel.builtin_wscc9()
    gens = list(m.generators)
    gov = dataclasses.replace(gens[machine].governor, p_max=p_max)
    gens[machine] = dataclasses.replace(gens[machine], governor=gov)
    capped = dataclasses.replace(m, generators=tuple(gens))
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


@pytest.mark.parametrize("args", [
    ["simulate"], ["sweep", "--magnitudes", "4,8"],
], ids=["simulate", "sweep"])
def test_ceiling_below_the_dispatch_is_rejected(tmp_path, capsys, args):
    """A slack ceiling of 0.69 pu passes the case check against its 0.67 pu
    p_set, but not its power-flow dispatch, which covers the losses."""
    scn = write_capped_case(tmp_path, machine=0, p_max=0.69)
    assert cli.main([args[0], scn, *args[1:], "--out-dir", str(tmp_path)]) == 2
    with open(scn) as fh:
        line_no = next(i for i, ln in enumerate(fh, start=1)
                       if '"model"' in ln)
    assert capsys.readouterr().err == (
        f"error: {scn}:{line_no} (key 'model'): generator bus 1: power-flow "
        f"dispatch 0.7164 pu lies outside [0, p_max 0.69] pu\n")
    assert sorted(os.listdir(tmp_path)) == ["capped.json", "capped.scn"]

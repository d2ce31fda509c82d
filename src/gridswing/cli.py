"""Command-line front end: scenario files in, trace/report artifacts out.

Scenario files are flat JSON documents with three sections::

    {
      "system": {"model": "wscc9", "dt_s": 0.01, "duration_s": 40.0,
                 "national_total_mw": 17500, "reserves": "off"},
      "attack": {"family": "static", "type": "DI", "magnitude_percent": 8.0,
                 "target_bus": 8, "t_start": 1.0},
      "output": {"trace_csv": "run_trace.csv", "report_json": "run_report.json"}
    }

Only "attack" is mandatory. The flags --dt, --duration, --reserves and
--target-bus replace system.dt_s, system.duration_s, system.reserves and
attack.target_bus before any check runs. Validation is strict: unknown keys
anywhere are rejected, and every diagnostic names the flag and its value,
or the file, the key, and the line where the key appears. Commands write
their trace CSVs and report JSONs atomically (temp file + rename),
byte-stable for identical runs; ``simulate`` renames its two artifacts into
place only once both are written.

Exit codes: 0 success, 2 configuration error, 3 power-flow non-convergence,
4 dynamic instability.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from . import analysis, attacks, dynamics, netmodel, powerflow, reserves

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_POWERFLOW = 3
EXIT_UNSTABLE = 4

_RESERVE_PRESETS = ("off", "default")
_CSV_CHUNK_ROWS = 4096


class ScenarioError(ValueError):
    """Configuration problem located at the flag that set the value, or at
    the file, line and key."""

    def __init__(self, path: str, key: str | None, line: int | None, msg: str):
        where = path
        if line is not None:
            where += f":{line}"
        if key is not None:
            where += f" (key {key!r})"
        super().__init__(f"{where}: {msg}")


@dataclass
class RunConfig:
    reserves: str  # the preset name; the SimConfig holds its products
    trace_csv: str | None
    report_json: str | None
    model_ref: str


# A JSON string, followed by its colon when it is a key, or a bracket.
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"(\s*:)?|[][{}]')


def _key_line(text: str, key: str, section: str | None = None) -> int | None:
    """Line of key in the valid JSON document text: among the top-level
    keys, or among the keys of the top-level object section."""
    want = [None] if section is None else [None, section]
    path = []  # the key that opened each enclosing container, or None
    last_key = None
    for tok in _JSON_TOKEN.finditer(text):
        if tok.group() in ("{", "["):
            path.append(last_key)
            last_key = None
        elif tok.group() in ("}", "]"):
            path.pop()
            last_key = None
        elif tok.group(1) is not None:
            last_key = json.loads(tok.group()[:-len(tok.group(1))])
            if last_key == key and path == want:
                return text.count("\n", 0, tok.start()) + 1
    return None


_SYSTEM_KEYS = {
    "model": str,
    "national_total_mw": (int, float),
    "dt_s": (int, float),
    "duration_s": (int, float),
    "reserves": str,
}
_ATTACK_KEYS = {
    "family": str,
    "type": str,
    "magnitude_percent": (int, float),
    "magnitude_mw": (int, float),
    "target_bus": (int, str),
    "t_start": (int, float),
    "t1": (int, float),
    "interval": (int, float),
    "count": int,
    "trigger": str,
}
_OUTPUT_KEYS = {
    "trace_csv": str,
    "report_json": str,
}
_ANCHOR_KEYS = {
    "percent": (int, float),
    "nadir_hz": (int, float, type(None)),
    "settled_hz": (int, float, type(None)),
}

# The flags that replace a scenario file value: (section, key) -> flag.
_FLAG_KEYS = {
    ("system", "dt_s"): "--dt",
    ("system", "duration_s"): "--duration",
    ("system", "reserves"): "--reserves",
    ("attack", "target_bus"): "--target-bus",
}


def _flag_error(flag: str, value, msg: str) -> ScenarioError:
    shown = f"{value:g}" if isinstance(value, float) else value
    return ScenarioError(f"{flag} {shown}", None, None, msg)


class _Source:
    """A run's inputs as given: a JSON file's text and the flags (flag ->
    value, see _FLAG_KEYS) that replace some of its values."""

    def __init__(self, path: str, text: str, flags: dict | None = None):
        self.path = path
        self.text = text
        self.flags = flags or {}

    def error(self, section: str | None, key: str, msg: str) -> ScenarioError:
        """msg placed at the flag that set key of section, else at the
        key's line in the file (a top-level key when section is None)."""
        flag = _FLAG_KEYS.get((section, key))
        if flag in self.flags:
            return _flag_error(flag, self.flags[flag], msg)
        return ScenarioError(self.path, key, _key_line(self.text, key, section),
                             msg)

    def checked(self, name: str, section, allowed: dict,
                required: tuple = ()) -> dict:
        """The object section with its flags applied, once it has its
        required keys, only allowed keys, values of their keys' types
        (booleans are not numbers) and only numbers that are finite floats."""
        if not isinstance(section, dict):
            raise self.error(None, name, f"section {name!r} must be an object")
        section = {**section, **{key: self.flags[flag]
                                 for (sec, key), flag in _FLAG_KEYS.items()
                                 if sec == name and flag in self.flags}}
        for key in required:
            if key not in section:
                raise self.error(name, key,
                                 f"missing required {name} key {key!r}")
        for key, value in section.items():
            if key not in allowed:
                raise self.error(name, key, f"unknown key in {name!r} section")
            expected = allowed[key]
            if isinstance(value, bool) or not isinstance(value, expected):
                want = expected.__name__ if isinstance(expected, type) else \
                    "/".join(t.__name__ for t in expected)
                raise self.error(name, key, f"expected {want}, got {value!r}")
            # json accepts NaN, Infinity, 1e999 and integers of any size;
            # the comparison is exact for ints and false for NaN
            if isinstance(value, (int, float)) \
                    and not abs(value) <= sys.float_info.max:
                raise self.error(name, key,
                                 f"expected a finite number, got {value!r}")
        return section


def _read_json(path: str):
    """The text of a JSON file and the document it holds."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeError) as exc:
        raise ScenarioError(path, None, None, f"cannot read: {exc}") from exc
    try:
        return text, json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(path, None, exc.lineno,
                            f"invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal too long to convert
        raise ScenarioError(path, None, None, f"invalid JSON: {exc}") from exc


def parse_scenario(path: str, flags: dict | None = None):
    """Load a scenario file, replace its values by flags (flag -> value,
    the flags of _FLAG_KEYS) and validate the result once.

    Returns (NetworkModel, AttackScenario, RunConfig, SimConfig), the
    SimConfig with the reserve preset's products; raises ScenarioError at
    the flag that set a bad value, or at the file's line and key.
    """
    text, doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ScenarioError(path, None, 1, "top level must be an object")
    src = _Source(path, text, flags)
    for key in doc:
        if key not in ("system", "attack", "output"):
            raise src.error(None, key, "unknown top-level section")
    if "attack" not in doc:
        raise src.error(None, "attack", "missing 'attack' section")
    system = src.checked("system", doc.get("system", {}), _SYSTEM_KEYS)
    atk = src.checked("attack", doc["attack"], _ATTACK_KEYS,
                      required=("family", "type"))
    output = src.checked("output", doc.get("output", {}), _OUTPUT_KEYS)

    preset = system.get("reserves", "off")
    if preset not in _RESERVE_PRESETS:
        raise src.error("system", "reserves",
                        f"expected one of {_RESERVE_PRESETS}")
    for key in ("national_total_mw", "dt_s", "duration_s"):
        if key in system and system[key] <= 0:
            raise src.error("system", key, "must be positive")
    try:
        sim = dynamics.SimConfig(reserves=(
            reserves.default_products() if preset == "default" else ()), **{
            arg: float(system[key])
            for key, arg in (("dt_s", "dt"), ("duration_s", "duration"))
            if key in system})
    except ValueError as exc:  # the horizon is not a whole number of steps
        raise src.error("system", "duration_s", str(exc)) from None

    model_ref = system.get("model", "wscc9")
    if model_ref == "wscc9":
        model = netmodel.builtin_wscc9()
    else:
        # relative to the scenario file; join keeps an absolute model_ref
        model_path = os.path.join(os.path.dirname(path), model_ref)
        try:
            model = netmodel.from_file(model_path)
        except (OSError, ValueError) as exc:
            raise src.error("system", "model", str(exc)) from exc
    if "national_total_mw" in system:
        model = replace(model,
                        national_total_mw=float(system["national_total_mw"]))

    try:
        atype = attacks.AttackType(atk["type"])
    except ValueError:
        raise src.error(
            "attack", "type",
            f"unknown attack type {atk['type']!r}; "
            f"expected one of {[t.value for t in attacks.AttackType]}") from None
    scenario = attacks.AttackScenario(attack_type=atype, **{
        key: float(value) if key in ("t_start", "t1", "interval") else value
        for key, value in atk.items() if key != "type"})
    problems = attacks.validate_scenario(model, scenario)
    if problems:
        # Place the diagnostic at the first attack key the problems name,
        # falling back to the section itself.
        key = next((k for k in _ATTACK_KEYS
                    if any(k in p for p in problems)), "attack")
        raise src.error(None if key == "attack" else "attack", key,
                        "; ".join(problems))
    cfg = RunConfig(reserves=preset,
                    trace_csv=output.get("trace_csv"),
                    report_json=output.get("report_json"),
                    model_ref=model_ref)
    return model, scenario, cfg, sim


def _write_together(*writes) -> None:
    """Run each (writer, payload, path) on a fresh temp file beside its
    path, then rename them all into place: a failed write leaves none."""
    staged = []
    try:
        for write, payload, path in writes:
            fd, tmp = tempfile.mkstemp(
                prefix=f".{os.path.basename(path)}.", suffix=".tmp",
                dir=os.path.dirname(path) or ".")
            staged.append(tmp)
            os.fchmod(fd, 0o644)  # mkstemp's 0600 would hide the artifact
            os.close(fd)
            write(payload, tmp)
        for tmp, (_, _, path) in zip(staged, writes):
            os.replace(tmp, path)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc
    finally:
        for tmp in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)


def write_trace_csv(trace: dynamics.SimulationTrace, path: str) -> None:
    """Serialize a trace with a fixed 6-decimal format; byte-stable.

    Rows are formatted from Python floats a chunk at a time, so the text
    and the float lists of the whole trace are never held at once.
    """
    n_gen = trace.f_gen.shape[1]
    header = ("t_s,f_coi_hz,"
              + ",".join(f"f_gen{i + 1}_hz" for i in range(n_gen))
              + ",p_attack_pu,p_reserve_up_pu,p_reserve_down_pu")
    table = np.column_stack([trace.t, trace.f_coi, trace.f_gen,
                             trace.p_attack, trace.p_reserve_up,
                             trace.p_reserve_down])
    row = ",".join(["%.6f"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), _CSV_CHUNK_ROWS):
            fh.write("".join(row % tuple(cells) for cells in
                             table[start:start + _CSV_CHUNK_ROWS].tolist()))


def write_report_json(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _resolved_config(model, scenario, cfg: RunConfig, sim) -> dict:
    return {
        "system": {
            "model": cfg.model_ref,
            "national_total_mw": model.national_total_mw,
            "dt_s": sim.dt,
            "duration_s": sim.duration,
            "reserves": cfg.reserves,
        },
        # the attack keys other than type name AttackScenario fields
        "attack": {
            **{key: getattr(scenario, key) for key in _ATTACK_KEYS
               if key != "type"},
            "type": scenario.attack_type.value,
            "target_bus": attacks.resolve_target(model, scenario.target_bus),
        },
        "output": {key: getattr(cfg, key) for key in _OUTPUT_KEYS},
    }


def _metrics_dict(mx: analysis.Metrics) -> dict:
    return {
        "nadir_hz": mx.nadir_hz,
        "nadir_time_s": mx.nadir_time_s,
        "zenith_hz": mx.zenith_hz,
        "zenith_time_s": mx.zenith_time_s,
        "settled_f_hz": mx.settled_f_hz,
        "settle_time_s": mx.settle_time_s,
        "violations": [{"threshold_hz": th, "first_crossing_s": tt}
                       for th, tt in mx.violations],
        "oscillation_hz": mx.oscillation_hz,
    }


def _out_path(args, cfg_path: str | None, default_name: str) -> str:
    out_dir = getattr(args, "out_dir", None) or "."
    os.makedirs(out_dir, exist_ok=True)
    # join keeps an absolute path from the scenario file as it is
    return os.path.join(out_dir, cfg_path or default_name)


def _flags(args) -> dict:
    """The flags of _FLAG_KEYS given on the command line, with values."""
    return {flag: value for flag in _FLAG_KEYS.values()
            if (value := getattr(args, flag[2:].replace("-", "_"))) is not None}


def _horizon_error(args, config: dynamics.SimConfig) -> ScenarioError:
    """Diagnostic for a run whose sample arrays numpy could not allocate,
    pointing at the --duration flag or at the file's duration_s."""
    msg = (f"{config.n_steps + 1} samples at dt = {config.dt:g} s "
           "do not fit in memory")
    text, _ = _read_json(args.scenario)
    return _Source(args.scenario, text, _flags(args)).error(
        "system", "duration_s", msg)


def _cmd_powerflow(args) -> int:
    if args.case:
        model = netmodel.from_file(args.case)
    else:
        model = netmodel.builtin_wscc9()
    sol = powerflow.solve(model)
    print(f"converged in {sol.iterations} iterations, "
          f"max mismatch {sol.mismatch_norm:.3e} pu")
    print("bus    kind   V_pu    theta_deg   P_pu      Q_pu")
    for i, bus in enumerate(model.buses):
        print(f"{bus.id:>3}  {bus.kind:>6}  {sol.v[i]:.4f}  "
              f"{sol.theta_deg()[i]:>9.4f}  {sol.p_inj[i]:>8.4f}  "
              f"{sol.q_inj[i]:>8.4f}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    model, scenario, cfg, sim = parse_scenario(args.scenario, _flags(args))
    stem = os.path.splitext(os.path.basename(args.scenario))[0]
    trace_path = _out_path(args, cfg.trace_csv, f"{stem}_trace.csv")
    report_path = _out_path(args, cfg.report_json, f"{stem}_report.json")
    cfg.trace_csv = trace_path
    cfg.report_json = report_path

    schedule = attacks.compile_scenario(model, scenario)
    pf = powerflow.solve(model)
    try:
        trace = dynamics.simulate(model, schedule, sim, pf)
    except MemoryError:
        raise _horizon_error(args, sim) from None
    mx = analysis.metrics(trace)
    report = {
        "config": _resolved_config(model, scenario, cfg, sim),
        "powerflow": {"iterations": pf.iterations,
                      "mismatch_norm": pf.mismatch_norm},
        "metrics": _metrics_dict(mx),
        "events": [{"time_s": t, "what": w} for t, w in trace.events],
        "samples": len(trace),
    }
    _write_together((write_trace_csv, trace, trace_path),
                    (write_report_json, report, report_path))
    print(f"nadir {mx.nadir_hz:.3f} Hz, zenith {mx.zenith_hz:.3f} Hz, "
          f"settled {mx.settled_f_hz:.3f} Hz")
    print(f"trace: {trace_path}")
    print(f"report: {report_path}")
    return EXIT_OK


def _parse_float_list(flag: str, spec: str) -> list[float]:
    try:
        vals = [float(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError:
        raise _flag_error(flag, spec,
                          "expected comma-separated numbers") from None
    if not vals:
        raise _flag_error(flag, spec, "empty list")
    if not all(map(math.isfinite, vals)):
        raise _flag_error(flag, spec, "values must be finite numbers")
    return vals


def _cmd_sweep(args) -> int:
    model, scenario, cfg, sim = parse_scenario(args.scenario, _flags(args))
    stem = os.path.splitext(os.path.basename(args.scenario))[0]
    by_magnitude = args.magnitudes is not None
    flag, spec = (("--magnitudes", args.magnitudes) if by_magnitude
                  else ("--timings", args.timings))
    values = _parse_float_list(flag, spec)
    try:
        if by_magnitude:
            fit = analysis.magnitude_sweep(
                model, scenario.attack_type, values, sim,
                target_bus=scenario.target_bus)
        else:
            optimal, per_t1 = analysis.timing_sweep(model, scenario, values,
                                                    sim)
    except MemoryError:
        raise _horizon_error(args, sim) from None
    except np.linalg.LinAlgError:
        raise  # a singular network reduction during the run
    except ValueError as exc:  # a list value the sweep rejects up front
        raise _flag_error(flag, spec, str(exc)) from None
    config = _resolved_config(model, scenario, cfg, sim)
    if by_magnitude:
        report = {
            "sweep": "magnitude",
            "config": config,
            "magnitudes_percent": values,
            "fit": {"slope_hz_per_percent": fit.slope,
                    "intercept_hz": fit.intercept,
                    "r_squared": fit.r_squared},
            "points": [{"percent": x, "response_hz": y}
                       for x, y in fit.points],
            "skipped": [{"percent": x, "reason": r} for x, r in fit.skipped],
        }
        print(f"slope {fit.slope:.4f} Hz/%, intercept {fit.intercept:.4f} Hz, "
              f"R^2 {fit.r_squared:.5f}")
    else:
        report = {
            "sweep": "timing",
            "config": config,
            "t1_values_s": sorted(values),
            "optimal_t1_s": optimal,
            "per_t1": {f"{v:g}": _metrics_dict(mx)
                       for v, mx in sorted(per_t1.items())},
        }
        print(f"optimal reversion time: {optimal:g} s")
    report_path = _out_path(args, cfg.report_json, f"{stem}_sweep.json")
    _write_together((write_report_json, report, report_path))
    print(f"report: {report_path}")
    return EXIT_OK


def _load_anchors(spec: str):
    if spec == "simulated":
        return analysis.DEFAULT_ANCHORS
    if spec == "incident":
        return analysis.INCIDENT_ANCHORS
    text, raw = _read_json(spec)
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(spec, None, None,
                            "expected a non-empty list of anchors")
    anchors = []
    for i, anchor in enumerate(raw, start=1):
        src = _Source(f"{spec} anchor {i}", text)
        anchor = src.checked("anchor", anchor, _ANCHOR_KEYS,
                             required=("percent",))
        if anchor["percent"] <= 0:
            raise src.error("anchor", "percent", "must be positive")
        anchors.append((float(anchor["percent"]), *(
            None if anchor.get(key) is None else float(anchor[key])
            for key in ("nadir_hz", "settled_hz"))))
    return tuple(anchors)


def _cmd_calibrate(args) -> int:
    model = netmodel.builtin_wscc9()
    anchors = _load_anchors(args.anchors)
    params = analysis.calibrate(model, anchors)
    report = {
        "anchors": [{"percent": p, "nadir_hz": n, "settled_hz": s}
                    for p, n, s in anchors],
        "params": {"r_droop": params.r_droop, "t_g_s": params.t_g,
                   "d": params.d},
        "objective_residual_hz2": params.objective_residual,
        "quality_warning": params.quality_warning,
    }
    path = _out_path(args, None, "calibrated_params.json")
    _write_together((write_report_json, report, path))
    print(f"r_droop {params.r_droop:g}, t_g {params.t_g:g} s, d {params.d:g}; "
          f"residual {params.objective_residual:.4f} Hz^2")
    if params.quality_warning:
        print("warning: calibration residual exceeds the quality threshold; "
              "anchors are not reproducible inside the search bounds",
              file=sys.stderr)
    print(f"report: {path}")
    return EXIT_OK


def _cmd_feasibility(args) -> int:
    report = analysis.feasibility(args.mw, args.year)
    doc = {
        "attack_mw": report.attack_mw,
        "year": report.year,
        "total_flexibility_mw": report.total_flexibility_mw,
        "feasible": report.feasible,
        "margin_mw": report.margin_mw,
        "sufficient_single_classes": list(report.sufficient_classes),
        "share_of_national_demand_percent": report.demand_share_percent,
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridswing",
        description="Transient frequency simulation of aggregated load attacks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pf = sub.add_parser("powerflow", help="solve and print the operating point")
    p_pf.add_argument("case", nargs="?", default=None,
                      help="case JSON file (default: built-in 9-bus)")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dt", type=float, default=None,
                        help="integration step override, s")
    common.add_argument("--duration", type=float, default=None,
                        help="simulation length override, s")
    common.add_argument("--reserves", choices=_RESERVE_PRESETS, default=None,
                        help="reserve preset override")
    # a bus id when the value is digits; else the scenario check takes it
    common.add_argument("--target-bus", default=None,
                        type=lambda s: int(s) if s.isdecimal() else s,
                        help="attack target override: bus id or 'largest'")
    common.add_argument("--out-dir", default=None,
                        help="directory for output artifacts")

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run one scenario; write trace + report")
    p_sim.add_argument("scenario", help="scenario .scn/.json file")

    p_sw = sub.add_parser("sweep", parents=[common],
                          help="magnitude or timing sweep around a scenario")
    p_sw.add_argument("scenario")
    group = p_sw.add_mutually_exclusive_group(required=True)
    group.add_argument("--magnitudes", help="comma-separated percents")
    group.add_argument("--timings", help="comma-separated reversion times, s")

    p_cal = sub.add_parser("calibrate", help="fit governor/damping to anchors")
    p_cal.add_argument("--anchors", default="simulated",
                       help="'simulated', 'incident', or anchor JSON file")
    p_cal.add_argument("--out-dir", default=None)

    p_fe = sub.add_parser("feasibility",
                          help="check attack size against flexibility forecast")
    p_fe.add_argument("mw", type=float)
    p_fe.add_argument("year", type=int)
    return parser


_COMMANDS = {
    "powerflow": _cmd_powerflow,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "calibrate": _cmd_calibrate,
    "feasibility": _cmd_feasibility,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching the config-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except powerflow.DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_POWERFLOW
    except dynamics.InstabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: scenario files in, trace/report artifacts out.

Scenario files are flat JSON documents with three sections::

    {
      "system": {"model": "wscc9", "dt_s": 0.01, "duration_s": 40.0,
                 "national_total_mw": 17500, "reserves": "off"},
      "attack": {"family": "static", "type": "DI", "magnitude_percent": 8.0,
                 "target_bus": 8, "t_start": 1.0},
      "output": {"trace_csv": "run_trace.csv", "report_json": "run_report.json"}
    }

Only "attack" is mandatory. Validation is strict: unknown keys anywhere are
rejected, and every diagnostic names the file, the key, and the line where
the key appears. Commands write their trace CSVs and report JSONs
atomically (temp file + rename), byte-stable for identical runs;
``simulate`` renames its two artifacts into place only once both are
written.

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
    """Configuration problem with file/key/line context attached."""

    def __init__(self, path: str, key: str | None, line: int | None, msg: str):
        where = path
        if line is not None:
            where += f":{line}"
        if key is not None:
            where += f" (key {key!r})"
        super().__init__(f"{where}: {msg}")
        self.path = path
        self.key = key
        self.line = line


@dataclass
class RunConfig:
    dt_s: float = 0.01
    duration_s: float = 40.0
    reserves: str = "off"
    trace_csv: str | None = None
    report_json: str | None = None
    model_ref: str = "wscc9"


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


def _check_section(path, text, name, section, allowed):
    if not isinstance(section, dict):
        raise ScenarioError(path, name, _key_line(text, name),
                            f"section {name!r} must be an object")
    for key, value in section.items():
        if key not in allowed:
            raise ScenarioError(path, key, _key_line(text, key, name),
                                f"unknown key in {name!r} section")
        expected = allowed[key]
        if isinstance(value, bool) or not isinstance(value, expected):
            want = expected.__name__ if isinstance(expected, type) else \
                "/".join(t.__name__ for t in expected)
            raise ScenarioError(path, key, _key_line(text, key, name),
                                f"expected {want}, got {value!r}")
        # json accepts NaN, Infinity and out-of-range literals like 1e999
        if isinstance(value, float) and not math.isfinite(value):
            raise ScenarioError(path, key, _key_line(text, key, name),
                                f"expected a finite number, got {value!r}")


def parse_scenario(path: str):
    """Load and fully validate a scenario file.

    Returns (NetworkModel, AttackScenario, RunConfig); raises ScenarioError
    with file/key/line context on any problem.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(path, None, None, f"cannot read: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(path, None, exc.lineno,
                            f"invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(path, None, 1, "top level must be an object")
    for key in doc:
        if key not in ("system", "attack", "output"):
            raise ScenarioError(path, key, _key_line(text, key),
                                "unknown top-level section")
    if "attack" not in doc:
        raise ScenarioError(path, "attack", None, "missing 'attack' section")

    system = doc.get("system", {})
    atk = doc["attack"]
    output = doc.get("output", {})
    _check_section(path, text, "system", system, _SYSTEM_KEYS)
    _check_section(path, text, "attack", atk, _ATTACK_KEYS)
    _check_section(path, text, "output", output, _OUTPUT_KEYS)

    cfg = RunConfig()
    cfg.model_ref = system.get("model", "wscc9")
    cfg.dt_s = float(system.get("dt_s", cfg.dt_s))
    cfg.duration_s = float(system.get("duration_s", cfg.duration_s))
    cfg.reserves = system.get("reserves", cfg.reserves)
    if cfg.reserves not in _RESERVE_PRESETS:
        raise ScenarioError(path, "reserves",
                            _key_line(text, "reserves", "system"),
                            f"expected one of {_RESERVE_PRESETS}")
    national_total_mw = system.get("national_total_mw")
    if national_total_mw is not None and national_total_mw <= 0:
        raise ScenarioError(path, "national_total_mw",
                            _key_line(text, "national_total_mw", "system"),
                            "must be positive")
    if cfg.dt_s <= 0:
        raise ScenarioError(path, "dt_s",
                            _key_line(text, "dt_s", "system"),
                            "must be positive")
    if cfg.duration_s <= 0:
        raise ScenarioError(path, "duration_s",
                            _key_line(text, "duration_s", "system"),
                            "must be positive")
    try:
        dynamics.SimConfig(dt=cfg.dt_s, duration=cfg.duration_s)
    except ValueError as exc:  # the horizon is not a whole number of steps
        raise ScenarioError(path, "duration_s",
                            _key_line(text, "duration_s", "system"),
                            str(exc)) from None
    cfg.trace_csv = output.get("trace_csv")
    cfg.report_json = output.get("report_json")

    if cfg.model_ref == "wscc9":
        model = netmodel.builtin_wscc9()
    else:
        model_path = cfg.model_ref
        if not os.path.isabs(model_path):
            model_path = os.path.join(os.path.dirname(path) or ".", model_path)
        try:
            model = netmodel.from_file(model_path)
        except (OSError, ValueError) as exc:
            raise ScenarioError(path, "model",
                                _key_line(text, "model", "system"),
                                str(exc)) from exc
    if national_total_mw is not None:
        model = replace(model, national_total_mw=float(national_total_mw))

    for key in ("family", "type"):
        if key not in atk:
            raise ScenarioError(path, key, None,
                                f"missing required attack key {key!r}")
    try:
        atype = attacks.AttackType(atk["type"])
    except ValueError:
        raise ScenarioError(
            path, "type", _key_line(text, "type", "attack"),
            f"unknown attack type {atk['type']!r}; "
            f"expected one of {[t.value for t in attacks.AttackType]}") from None
    scenario = attacks.AttackScenario(
        family=atk["family"],
        attack_type=atype,
        magnitude_percent=atk.get("magnitude_percent"),
        magnitude_mw=atk.get("magnitude_mw"),
        target_bus=atk.get("target_bus"),
        t_start=float(atk.get("t_start", 1.0)),
        t1=float(atk["t1"]) if "t1" in atk else None,
        interval=float(atk["interval"]) if "interval" in atk else None,
        count=atk.get("count"),
        trigger=atk.get("trigger", "time"),
    )
    problems = attacks.validate_scenario(model, scenario)
    if problems:
        # Anchor the diagnostic to the first attack key the message mentions,
        # falling back to the section itself.
        key = next((k for k in _ATTACK_KEYS
                    if any(k in p for p in problems)), "attack")
        raise ScenarioError(
            path, key,
            _key_line(text, key, None if key == "attack" else "attack"),
            "; ".join(problems))
    return model, scenario, cfg


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


def _resolved_config(model, scenario, cfg: RunConfig) -> dict:
    return {
        "system": {
            "model": cfg.model_ref,
            "national_total_mw": model.national_total_mw,
            "dt_s": cfg.dt_s,
            "duration_s": cfg.duration_s,
            "reserves": cfg.reserves,
        },
        "attack": {
            "family": scenario.family,
            "type": scenario.attack_type.value,
            "magnitude_percent": scenario.magnitude_percent,
            "magnitude_mw": scenario.magnitude_mw,
            "target_bus": attacks.resolve_target(model, scenario.target_bus),
            "t_start": scenario.t_start,
            "t1": scenario.t1,
            "interval": scenario.interval,
            "count": scenario.count,
            "trigger": scenario.trigger,
        },
        "output": {
            "trace_csv": cfg.trace_csv,
            "report_json": cfg.report_json,
        },
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


def _apply_overrides(scenario, cfg: RunConfig, args) -> tuple:
    if getattr(args, "dt", None) is not None:
        cfg.dt_s = args.dt
    if getattr(args, "duration", None) is not None:
        cfg.duration_s = args.duration
    if getattr(args, "reserves", None) is not None:
        cfg.reserves = args.reserves
    if getattr(args, "target_bus", None) is not None:
        tb = args.target_bus
        scenario = replace(scenario,
                           target_bus=tb if tb == "largest" else int(tb))
    return scenario, cfg


def _out_path(args, cfg_path: str | None, default_name: str) -> str:
    out_dir = getattr(args, "out_dir", None) or "."
    os.makedirs(out_dir, exist_ok=True)
    if cfg_path:
        return cfg_path if os.path.isabs(cfg_path) \
            else os.path.join(out_dir, cfg_path)
    return os.path.join(out_dir, default_name)


def _horizon_error(args, config: dynamics.SimConfig) -> ScenarioError:
    """Diagnostic for a run whose sample arrays numpy could not allocate,
    pointing at the --duration flag or at the file's duration_s."""
    msg = (f"{config.n_steps + 1} samples at dt = {config.dt:g} s "
           "do not fit in memory")
    if args.duration is not None:
        return ScenarioError(f"--duration {args.duration:g}", None, None, msg)
    with open(args.scenario, encoding="utf-8") as fh:
        line = _key_line(fh.read(), "duration_s", "system")
    return ScenarioError(args.scenario, "duration_s", line, msg)


def _reserve_set(name: str):
    return reserves.default_products() if name == "default" else ()


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
    model, scenario, cfg = parse_scenario(args.scenario)
    scenario, cfg = _apply_overrides(scenario, cfg, args)
    problems = attacks.validate_scenario(model, scenario)
    if problems:
        raise ScenarioError(args.scenario, "attack", None, "; ".join(problems))
    stem = os.path.splitext(os.path.basename(args.scenario))[0]
    trace_path = _out_path(args, cfg.trace_csv, f"{stem}_trace.csv")
    report_path = _out_path(args, cfg.report_json, f"{stem}_report.json")
    cfg.trace_csv = trace_path
    cfg.report_json = report_path

    schedule = attacks.compile_scenario(model, scenario)
    sim_cfg = dynamics.SimConfig(dt=cfg.dt_s, duration=cfg.duration_s,
                                 reserves=_reserve_set(cfg.reserves))
    pf = powerflow.solve(model)
    try:
        trace = dynamics.simulate(model, schedule, sim_cfg, pf)
    except MemoryError:
        raise _horizon_error(args, sim_cfg) from None
    mx = analysis.metrics(trace)
    report = {
        "config": _resolved_config(model, scenario, cfg),
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


def _parse_float_list(spec: str, what: str) -> list[float]:
    try:
        vals = [float(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError:
        raise ScenarioError(spec, None, None,
                            f"bad {what} list; expected comma-separated numbers") \
            from None
    if not vals:
        raise ScenarioError(spec, None, None, f"empty {what} list")
    if not all(map(math.isfinite, vals)):
        raise ScenarioError(spec, None, None,
                            f"{what} values must be finite numbers")
    return vals


def _cmd_sweep(args) -> int:
    model, scenario, cfg = parse_scenario(args.scenario)
    scenario, cfg = _apply_overrides(scenario, cfg, args)
    stem = os.path.splitext(os.path.basename(args.scenario))[0]
    sim_cfg = dynamics.SimConfig(dt=cfg.dt_s, duration=cfg.duration_s,
                                 reserves=_reserve_set(cfg.reserves))
    if args.magnitudes:
        mags = _parse_float_list(args.magnitudes, "magnitude")
        try:
            fit = analysis.magnitude_sweep(
                model, scenario.attack_type, mags, sim_cfg,
                target_bus=scenario.target_bus)
        except MemoryError:
            raise _horizon_error(args, sim_cfg) from None
        report = {
            "sweep": "magnitude",
            "config": _resolved_config(model, scenario, cfg),
            "magnitudes_percent": mags,
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
        t1s = _parse_float_list(args.timings, "timing")
        try:
            optimal, per_t1 = analysis.timing_sweep(model, scenario, t1s,
                                                    sim_cfg)
        except MemoryError:
            raise _horizon_error(args, sim_cfg) from None
        report = {
            "sweep": "timing",
            "config": _resolved_config(model, scenario, cfg),
            "t1_values_s": sorted(t1s),
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
    try:
        with open(spec, encoding="utf-8") as fh:
            raw = json.load(fh)
        anchors = tuple(
            (float(a["percent"]),
             None if a.get("nadir_hz") is None else float(a["nadir_hz"]),
             None if a.get("settled_hz") is None else float(a["settled_hz"]))
            for a in raw)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise ScenarioError(spec, None, None,
                            f"cannot load anchors: {exc}") from exc
    if not anchors:
        raise ScenarioError(spec, None, None, "anchor file is empty")
    return anchors


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
    common.add_argument("--target-bus", default=None,
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

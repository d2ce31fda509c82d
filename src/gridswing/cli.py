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
attack.target_bus before any check runs, and are checked exactly like them.
Scenario, anchor and case files all go through netmodel's one JSON reader.
Validation is strict: unknown or repeated keys are rejected, and each
diagnostic names the flag and its value, or the file, the key, and the line
where the key appears (an anchor's also names the anchor's number; a case
file's follows the scenario's system.model key). Commands
write their trace CSVs and report JSONs atomically (temp file + rename),
byte-stable for identical runs; ``simulate`` renames its two artifacts into
place only once both are written, and never writes both to one path.

Exit codes: 0 success, 2 configuration error, 3 power-flow non-convergence,
4 dynamic instability, 5 internal error (a fault of the program, not of
its input; the one-line diagnostic names the exception type).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import traceback
from dataclasses import asdict, replace

import numpy as np

from . import analysis, attacks, dynamics, netmodel, powerflow, reserves

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_POWERFLOW = 3
EXIT_UNSTABLE = 4
EXIT_INTERNAL = 5

_RESERVE_PRESETS = ("off", "default")
_CSV_CHUNK_ROWS = 4096


_SYSTEM_KEYS = {
    "model": str,
    "national_total_mw": (int, float),
    "dt_s": (int, float),
    "duration_s": (int, float),
    "reserves": str,
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

# The flags that replace a scenario file value: flag -> (where, key), where
# a key path of netmodel.key_lines.
_FLAG_KEYS = {
    "--dt": (("system",), "dt_s"),
    "--duration": (("system",), "duration_s"),
    "--reserves": (("system",), "reserves"),
    "--target-bus": (("attack",), "target_bus"),
}


def parse_scenario(path: str, flags: dict | None = None):
    """Load a scenario file, replace its values by flags (flag -> value,
    the flags of _FLAG_KEYS) and validate the result once; the attack
    section is read as an attacks.AttackScenario by netmodel._record.

    Returns (NetworkModel, AttackScenario, SimConfig, PowerFlowSolution,
    config, source): the SimConfig holds the reserve preset's products, the
    solution is the model's operating point, config is the report's
    "config" section, every key resolved to the value the run uses, and
    source the netmodel.Source that places later diagnostics. Raises
    netmodel.ScenarioError at the flag that set a bad value, or at the
    file's line and key; an attack problem is placed at the key that
    validate_scenario names for it, and a case-file problem or a machine
    dispatched outside [0, p_max] at system.model.
    """
    src, doc = netmodel.read_json(path, {
        _FLAG_KEYS[f]: (f, value) for f, value in (flags or {}).items()})
    doc = src.checked((), doc, dict.fromkeys(("system", "attack", "output"),
                                             dict), required=("attack",))
    system = src.checked(("system",), doc.get("system", {}), _SYSTEM_KEYS)
    scenario = netmodel._record(src, attacks.AttackScenario, ("attack",),
                                doc["attack"])
    output = src.checked(("output",), doc.get("output", {}), _OUTPUT_KEYS)

    preset = system.get("reserves", "off")
    if preset not in _RESERVE_PRESETS:
        raise src.error(("system",), "reserves",
                        f"expected one of {_RESERVE_PRESETS}")
    for key in ("national_total_mw", "dt_s", "duration_s"):
        if key in system and system[key] <= 0:
            raise src.error(("system",), key, "must be positive")
    try:
        sim = dynamics.SimConfig(reserves=(
            reserves.default_products() if preset == "default" else ()), **{
            arg: float(system[key])
            for key, arg in (("dt_s", "dt"), ("duration_s", "duration"))
            if key in system})
    except ValueError as exc:  # the horizon is not a whole number of steps
        raise src.error(("system",), "duration_s", str(exc)) from None

    model_ref = system.get("model", "wscc9")
    if model_ref == "wscc9":
        model = netmodel.builtin_wscc9()
    else:
        # relative to the scenario file; join keeps an absolute model_ref
        model_path = os.path.join(os.path.dirname(path), model_ref)
        try:
            model = netmodel.from_file(model_path)
        except ValueError as exc:
            raise src.error(("system",), "model", str(exc)) from exc
    if "national_total_mw" in system:
        model = replace(model,
                        national_total_mw=float(system["national_total_mw"]))

    problems = attacks.validate_scenario(model, scenario)
    if problems:
        raise src.error(("attack",), problems[0][0],
                        "; ".join(msg for _, msg in problems))
    # More cycles than step boundaries cannot each land on a boundary of
    # their own, and compile_scenario makes two transitions per cycle
    # before any horizon check: a huge count would exhaust memory there.
    if scenario.family in ("periodic", "combination") \
            and scenario.count > sim.n_steps + 1:
        raise src.error(("attack",), "count",
                        f"count {scenario.count} exceeds the "
                        f"{sim.n_steps + 1} step boundaries of the horizon")
    attack = asdict(scenario)
    attack["type"] = attack.pop("attack_type").value
    attack["target_bus"] = attacks.resolve_target(model, scenario.target_bus)
    config = {
        "system": {"model": model_ref,
                   "national_total_mw": model.national_total_mw,
                   "dt_s": sim.dt, "duration_s": sim.duration,
                   "reserves": preset},
        "attack": attack,
        "output": {key: output.get(key) for key in _OUTPUT_KEYS},
    }
    # Last, so every other diagnostic comes first. The slack's dispatch
    # also covers the losses, so only the solution can show it above its
    # ceiling; TOL keeps a machine whose p_max equals its p_set.
    pf = powerflow.solve(model)
    idx = model.bus_index()
    for g in model.generators:
        dispatch = float(pf.p_inj[idx[g.bus]])
        if not -powerflow.TOL <= dispatch <= g.governor.p_max + powerflow.TOL:
            raise src.error(("system",), "model", (
                f"generator bus {g.bus}: power-flow dispatch {dispatch:.4f} "
                f"pu lies outside [0, p_max {g.governor.p_max:g}] pu"))
    return model, scenario, sim, pf, config, src


def _write_together(out_dir: str | None, *writes) -> None:
    """Run each (writer, payload, path) on a fresh temp file beside its
    path, then rename them all into place: a failed write leaves none.
    out_dir, the --out-dir the paths were joined to, is made only here,
    so a run that fails before writing leaves no directory either."""
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
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

    Rows are stacked from the trace's columns and formatted from Python
    floats a chunk at a time, one % operation per chunk, so neither a
    table, the text nor the float lists of the whole trace are ever held.
    """
    n_gen = trace.f_gen.shape[1]
    header = ("t_s,f_coi_hz,"
              + ",".join(f"f_gen{i + 1}_hz" for i in range(n_gen))
              + ",p_attack_pu,p_reserve_up_pu,p_reserve_down_pu")
    columns = (trace.t, trace.f_coi, trace.f_gen, trace.p_attack,
               trace.p_reserve_up, trace.p_reserve_down)
    row = ",".join(["%.6f"] * (5 + n_gen)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, len(trace), _CSV_CHUNK_ROWS):
            chunk = np.column_stack(
                [c[start:start + _CSV_CHUNK_ROWS] for c in columns])
            fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def write_report_json(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _metrics_dict(mx: analysis.Metrics) -> dict:
    return {**asdict(mx),
            "violations": [{"threshold_hz": th, "first_crossing_s": tt}
                           for th, tt in mx.violations]}


def _check_out_dir(out_dir: str | None) -> None:
    """Reject an --out-dir whose first existing component is no directory."""
    path = out_dir
    while path and not os.path.exists(path):
        path = os.path.dirname(path)
    if path and not os.path.isdir(path):
        raise netmodel.flag_error("--out-dir", out_dir, "not a directory")


def _out_path(args, cfg_path: str | None, default_name: str) -> str:
    # join keeps an absolute path from the scenario file as it is
    return os.path.join(args.out_dir or ".", cfg_path or default_name)


def _flags(args) -> dict:
    """The flags of _FLAG_KEYS given on the command line, with values."""
    return {flag: value for flag in _FLAG_KEYS
            if (value := getattr(args, flag[2:].replace("-", "_"))) is not None}


def _horizon_error(src, config: dynamics.SimConfig):
    """Diagnostic for samples numpy could not allocate: at --dt when that
    flag alone changed the sample count, else at the horizon."""
    given = dict(src.flags.values())  # flag -> value
    key = "dt_s" if "--dt" in given and "--duration" not in given \
        else "duration_s"
    return src.error(("system",), key, f"{config.n_steps + 1:.3g} samples "
                     f"at dt = {config.dt:g} s do not fit in memory")


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
    model, scenario, sim, pf, config, src = parse_scenario(args.scenario,
                                                           _flags(args))
    stem = os.path.splitext(os.path.basename(args.scenario))[0]
    out = config["output"]
    given = "report_json" if out["report_json"] else "trace_csv"
    trace_path = out["trace_csv"] = _out_path(args, out["trace_csv"],
                                              f"{stem}_trace.csv")
    report_path = out["report_json"] = _out_path(args, out["report_json"],
                                                  f"{stem}_report.json")
    if os.path.realpath(trace_path) == os.path.realpath(report_path):
        raise src.error(("output",), given,
                        f"trace and report would both be {report_path}")

    schedule = attacks.compile_scenario(model, scenario)
    try:
        trace = dynamics.simulate(model, schedule, sim, pf)
    except MemoryError:
        raise _horizon_error(src, sim) from None
    mx = analysis.metrics(trace)
    report = {
        "config": config,
        "powerflow": {"iterations": pf.iterations,
                      "mismatch_norm": pf.mismatch_norm},
        "metrics": _metrics_dict(mx),
        "events": [{"time_s": t, "what": w} for t, w in trace.events],
        "samples": len(trace),
    }
    _write_together(args.out_dir,
                    (write_trace_csv, trace, trace_path),
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
        raise netmodel.flag_error(
            flag, spec, "expected comma-separated numbers") from None
    if not vals:
        raise netmodel.flag_error(flag, spec, "empty list")
    if not all(map(math.isfinite, vals)):
        raise netmodel.flag_error(flag, spec, "values must be finite numbers")
    if len(set(vals)) < len(vals):
        raise netmodel.flag_error(flag, spec, "values must not repeat")
    return vals


def _cmd_sweep(args) -> int:
    model, scenario, sim, pf, config, src = parse_scenario(args.scenario,
                                                           _flags(args))
    stem = os.path.splitext(os.path.basename(args.scenario))[0]
    by_magnitude = args.magnitudes is not None
    flag, spec = (("--magnitudes", args.magnitudes) if by_magnitude
                  else ("--timings", args.timings))
    values = _parse_float_list(flag, spec)
    # min() keeps t / dt finite; a start on the last boundary acts on nothing
    if by_magnitude and dynamics.step_index(
            min(scenario.t_start, sim.duration), sim.dt) >= sim.n_steps:
        where = ((("system",), "duration_s") if args.duration is not None
                 else (("attack",), "t_start"))
        raise src.error(*where, (
            f"the attack starts at {scenario.t_start:g} s, too late to act "
            f"within the {sim.duration:g} s horizon"))
    try:
        if by_magnitude:
            fit = analysis.magnitude_sweep(model, scenario, values, sim, pf)
        else:
            optimal, per_t1 = analysis.timing_sweep(model, scenario, values,
                                                    sim, pf)
    except MemoryError:
        raise _horizon_error(src, sim) from None
    except np.linalg.LinAlgError:
        raise  # a singular network reduction during the run
    # a list value the sweep rejects up front, or too few points to fit
    except (ValueError, analysis.FitError) as exc:
        raise netmodel.flag_error(flag, spec, str(exc)) from None
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
        summary = (f"slope {fit.slope:.4f} Hz/%, intercept "
                   f"{fit.intercept:.4f} Hz, R^2 {fit.r_squared:.5f}")
    else:
        report = {
            "sweep": "timing",
            "config": config,
            "t1_values_s": sorted(values),
            "optimal_t1_s": optimal,
            "per_t1": {f"{v:g}": _metrics_dict(mx)
                       for v, mx in sorted(per_t1.items())},
        }
        summary = f"optimal reversion time: {optimal:g} s"
    report_path = _out_path(args, config["output"]["report_json"],
                            f"{stem}_sweep.json")
    _write_together(args.out_dir,
                    (write_report_json, report, report_path))
    print(summary)
    print(f"report: {report_path}")
    return EXIT_OK


def _load_anchors(spec: str, f_nominal: float):
    if spec == "simulated":
        return analysis.DEFAULT_ANCHORS
    if spec == "incident":
        return analysis.INCIDENT_ANCHORS
    src, raw = netmodel.read_json(spec)
    if not isinstance(raw, list) or not raw:
        raise src.error((), None, "expected a non-empty list of anchors")
    anchors = []
    for i, anchor in enumerate(raw, start=1):
        anchor = src.checked((i,), anchor, _ANCHOR_KEYS,
                             required=("percent",))
        if anchor["percent"] <= 0:
            raise src.error((i,), "percent", "must be positive")
        if anchor["percent"] > 100:
            raise src.error((i,), "percent", "must not exceed 100, the "
                            "scheduled generation")
        targets = {key: float(value) for key in ("nadir_hz", "settled_hz")
                   if (value := anchor.get(key)) is not None}
        if not targets:
            raise src.error((i,), None,
                            "has no targets: give nadir_hz or settled_hz")
        for key, hz in targets.items():
            if not 0 < hz < 2 * f_nominal:
                raise src.error((i,), key, f"must lie between 0 and "
                                f"{2 * f_nominal:g} Hz")
        anchors.append((float(anchor["percent"]),
                        *map(targets.get, ("nadir_hz", "settled_hz"))))
    return tuple(anchors)


def _cmd_calibrate(args) -> int:
    model = netmodel.builtin_wscc9()
    anchors = _load_anchors(args.anchors, model.f_nominal)
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
    _write_together(args.out_dir, (write_report_json, report, path))
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
    common.add_argument("--reserves", default=None,
                        help="reserve preset override: "
                        + " or ".join(_RESERVE_PRESETS))
    # a bus id when the value is digits; else the scenario check takes it
    common.add_argument("--target-bus", default=None,
                        type=lambda s: int(s) if s.isdecimal() else s,
                        help="attack target override: bus id or 'largest'")
    common.add_argument("--out-dir", help="directory for output artifacts")

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
    p_cal.add_argument("--out-dir", help="directory for output artifacts")

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
        _check_out_dir(getattr(args, "out_dir", None))  # before any run
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
    except Exception as exc:  # a bug: name it and where it was raised
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"internal error: {exc!r} at "
              f"{os.path.basename(where.filename)}:{where.lineno}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

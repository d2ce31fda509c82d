"""Network data model and the built-in 9-bus test case.

All network quantities are per-unit on the system MVA base (100 MVA for the
built-in case). Machine constants (``h``, ``d``, ``r_droop``) are expressed on
the individual machine base and converted where the dynamics need them on the
system base. ``f_nominal`` (50 Hz for the built-in case) is the one place the
nominal frequency is set: reserve activation levels and metric thresholds are
offsets from it. The case is used as a reduced-scale proxy for a national grid,
so attack magnitudes given in national MW are mapped through
``national_total_mw``.

Case, scenario and anchor files have one reader here: ``read_json`` and
``Source.checked`` raise ``ScenarioError`` at ``file:line (key ...)``, and
the field types of a case file and of a scenario's attack section are the
dataclass annotations (``_record``).
"""

from __future__ import annotations

import enum
import json
import math
import re
import sys
from dataclasses import (MISSING, asdict, dataclass, fields, is_dataclass,
                         replace)
from functools import cache
from types import UnionType
from typing import get_args, get_origin, get_type_hints


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str  # "slack" | "pv" | "pq"
    v_set: float | None = None  # pu, slack and pv only


@dataclass(frozen=True)
class Line:
    """Branch with series impedance r + jx and total line charging b (pu)."""

    from_bus: int
    to_bus: int
    r: float
    x: float
    b: float = 0.0


@dataclass(frozen=True)
class Governor:
    """First-order droop governor.

    r_droop is pu speed deviation per pu power on the machine base, t_g the
    servo time constant in seconds, p_max the mechanical ceiling in system pu.
    """

    r_droop: float
    t_g: float
    p_max: float


@dataclass(frozen=True)
class Generator:
    bus: int
    p_set: float  # scheduled active power, system pu
    mva_base: float  # machine rating, MVA
    h: float  # inertia constant, seconds on machine base
    xd_t: float  # transient reactance, pu on system base
    governor: Governor
    d: float = 0.0  # damping torque coefficient, pu on machine base
    q_min: float = -3.0  # reactive limits, system pu; wide enough to not bind
    q_max: float = 3.0

    def on_system_base(self, s_base: float) -> tuple[float, float, float]:
        """H, D and the droop gain 1 / R converted to the s_base MVA base."""
        return (self.h * self.mva_base / s_base,
                self.d * self.mva_base / s_base,
                (self.mva_base / s_base) / self.governor.r_droop)


@dataclass(frozen=True)
class Load:
    bus: int
    p: float  # system pu
    q: float


@dataclass(frozen=True)
class NetworkModel:
    name: str
    mva_base: float  # system base, MVA
    f_nominal: float  # Hz
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...]
    loads: tuple[Load, ...]
    national_total_mw: float = 17500.0

    def bus_index(self) -> dict[int, int]:
        """Map bus id to positional index."""
        return {b.id: i for i, b in enumerate(self.buses)}

    def load_at(self, bus: int) -> Load | None:
        for ld in self.loads:
            if ld.bus == bus:
                return ld
        return None


def builtin_wscc9() -> NetworkModel:
    """The standard 9-bus, 3-machine, 3-load case.

    Bus, line and machine data follow the published western-system test case:
    loads at buses 5, 6 and 8 totalling 3.15 pu, generator voltage setpoints
    1.04 / 1.025 / 1.025, inertia 23.64 / 6.40 / 3.01 s on the 100 MVA system
    base. The slack schedule (0.67 pu) balances the total load exactly; line
    losses are picked up by the slack at solve time. Governor and damping
    defaults are the deterministic output of the anchor calibration in
    ``analysis.calibrate`` so that out-of-the-box runs reproduce the reference
    transients.
    """
    buses = (
        Bus(1, "slack", 1.04),
        Bus(2, "pv", 1.025),
        Bus(3, "pv", 1.025),
        Bus(4, "pq"),
        Bus(5, "pq"),
        Bus(6, "pq"),
        Bus(7, "pq"),
        Bus(8, "pq"),
        Bus(9, "pq"),
    )
    lines = (
        Line(1, 4, 0.0, 0.0576, 0.0),
        Line(4, 5, 0.010, 0.085, 0.176),
        Line(4, 6, 0.017, 0.092, 0.158),
        Line(5, 7, 0.032, 0.161, 0.306),
        Line(6, 9, 0.039, 0.170, 0.358),
        Line(7, 8, 0.0085, 0.072, 0.149),
        Line(8, 9, 0.0119, 0.1008, 0.209),
        Line(2, 7, 0.0, 0.0625, 0.0),
        Line(3, 9, 0.0, 0.0586, 0.0),
    )
    # Machine-base inertia values; on the 100 MVA system base these are the
    # familiar 23.64 / 6.39 / 3.01 s.
    gens = (
        Generator(1, 0.67, 247.5, 9.55, 0.0608,
                  Governor(r_droop=0.08, t_g=5.0, p_max=2.5)),
        Generator(2, 1.63, 192.0, 3.33, 0.1198,
                  Governor(r_droop=0.08, t_g=5.0, p_max=3.0)),
        Generator(3, 0.85, 128.0, 2.35, 0.1813,
                  Governor(r_droop=0.08, t_g=5.0, p_max=2.7)),
    )
    loads = (
        Load(5, 1.25, 0.50),
        Load(6, 0.90, 0.30),
        Load(8, 1.00, 0.35),
    )
    return NetworkModel(
        name="wscc9",
        mva_base=100.0,
        f_nominal=50.0,
        buses=buses,
        lines=lines,
        generators=gens,
        loads=loads,
    )


def validate(model: NetworkModel) -> list[str]:
    """Structural checks; returns a list of problems, empty when clean."""
    problems: list[str] = []
    ids = [b.id for b in model.buses]
    if len(set(ids)) != len(ids):
        problems.append("duplicate bus ids")
    known = set(ids)

    slack = [b for b in model.buses if b.kind == "slack"]
    if len(slack) != 1:
        problems.append(f"expected exactly one slack bus, found {len(slack)}")
    for b in model.buses:
        if b.kind not in ("slack", "pv", "pq"):
            problems.append(f"bus {b.id}: unknown kind {b.kind!r}")
        if b.kind in ("slack", "pv"):
            if b.v_set is None:
                problems.append(f"bus {b.id}: {b.kind} bus needs v_set")
            elif not 0.8 <= b.v_set <= 1.2:
                problems.append(f"bus {b.id}: v_set {b.v_set} outside 0.8..1.2")

    for ln in model.lines:
        if ln.from_bus not in known or ln.to_bus not in known:
            problems.append(f"line {ln.from_bus}-{ln.to_bus}: unknown bus")
        if ln.x == 0.0 and ln.r == 0.0:
            problems.append(f"line {ln.from_bus}-{ln.to_bus}: zero impedance")

    machine_buses = set()
    for g in model.generators:
        if g.bus not in known:
            problems.append(f"generator at unknown bus {g.bus}")
        machine_buses.add(g.bus)
        if g.h <= 0 or g.mva_base <= 0 or g.xd_t <= 0:
            problems.append(f"generator bus {g.bus}: h, mva_base, xd_t must be positive")
        if g.p_set < 0:
            problems.append(f"generator bus {g.bus}: negative p_set")
        if g.governor.p_max < g.p_set:
            problems.append(f"generator bus {g.bus}: p_max below p_set")
        if g.governor.r_droop <= 0 or g.governor.t_g <= 0:
            problems.append(f"generator bus {g.bus}: governor constants must be positive")
        if g.d < 0:
            problems.append(f"generator bus {g.bus}: negative damping")
        if g.q_min > g.q_max:
            problems.append(f"generator bus {g.bus}: q_min above q_max")
        if (g.governor.r_droop > 0 and 0 < model.mva_base < math.inf
                and not all(map(math.isfinite,
                                g.on_system_base(model.mva_base)))):
            problems.append(f"generator bus {g.bus}: h, d and droop gain on "
                            "the system base must be finite")

    for ld in model.loads:
        if ld.bus not in known:
            problems.append(f"load at unknown bus {ld.bus}")
        if ld.p < 0:
            problems.append(f"load bus {ld.bus}: negative demand")
        if ld.bus in machine_buses:
            problems.append(f"load bus {ld.bus}: load and generator share a bus")

    # Every bus must be reachable over the line graph.
    if model.buses and not problems:
        adj: dict[int, list[int]] = {i: [] for i in known}
        for ln in model.lines:
            adj[ln.from_bus].append(ln.to_bus)
            adj[ln.to_bus].append(ln.from_bus)
        seen = {ids[0]}
        stack = [ids[0]]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        stranded = sorted(known - seen)
        if stranded:
            problems.append(f"buses not connected to the network: {stranded}")

    total_load = sum(ld.p for ld in model.loads)
    total_sched = sum(g.p_set for g in model.generators)
    if total_sched + 1e-9 < total_load:
        problems.append(
            f"scheduled generation {total_sched:.4f} pu below total load {total_load:.4f} pu")

    for name in ("f_nominal", "mva_base", "national_total_mw"):
        if not 0 < getattr(model, name) < math.inf:  # NaN fails too
            problems.append(f"{name} must be finite and positive")
    return problems


def scheduled_generation(model: NetworkModel) -> float:
    """Total scheduled dispatch in pu.

    The built-in schedule is lossless (it sums to the served load, 3.15 pu),
    which makes it the reference quantity for mapping attack percentages; the
    solved dispatch additionally carries the network losses on the slack.
    """
    return sum(g.p_set for g in model.generators)


def national_mw_scale(model: NetworkModel) -> float:
    """Model pu per national MW, the one factor of attack and reserve MW."""
    return scheduled_generation(model) / model.national_total_mw


def attack_fraction_to_pu(model: NetworkModel, percent: float | None = None,
                          mw: float | None = None) -> float:
    """Convert an attack magnitude to a model demand change in pu.

    Exactly one of ``percent`` (share of total generation) or ``mw`` (national
    megawatts, times ``national_mw_scale``) must be given. 8 % of the
    built-in case maps to 0.08 * 3.15 = 0.252 pu; 1400 MW on the 17 500 MW
    national reference maps to the same value.
    """
    if (percent is None) == (mw is None):
        raise ValueError("give exactly one of percent or mw")
    if (percent if mw is None else mw) < 0:
        raise ValueError("attack magnitude must be non-negative")
    return (percent / 100.0 * scheduled_generation(model) if mw is None
            else mw * national_mw_scale(model))


def with_dynamic_params(model: NetworkModel, r_droop: float, t_g: float,
                        d: float) -> NetworkModel:
    """Copy of the model with governor droop/servo and damping replaced.

    The three values apply uniformly to every machine (on the machine base,
    like the fields they replace); ceilings and all static data are kept.
    """
    gens = tuple(
        replace(g, d=d, governor=replace(g.governor, r_droop=r_droop, t_g=t_g))
        for g in model.generators)
    return replace(model, generators=gens)


def to_file(model: NetworkModel, path: str) -> None:
    """Write a model as a JSON case file mirroring the dataclass fields."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(model), fh, indent=2)
        fh.write("\n")


# A JSON string, followed by its colon when it is a key, or a bracket or comma.
_JSON_TOKEN = re.compile(r'("(?:[^"\\]|\\.)*")(\s*:)?|[][{},]')


def key_lines(text: str):
    """The line of each key of the valid JSON document text, and the first
    key repeated within one object: ({(where, key): line}, (key, line) or
    None). where is the tuple of keys and 1-based list-item numbers above
    the key's object; (where, None) maps to that object's opening brace.
    The walk stops at the repeat, of which json.loads keeps the last copy."""
    lines, path, line, pos = {}, [], 1, 0
    for tok in _JSON_TOKEN.finditer(text):
        line += text.count("\n", pos, tok.start())
        pos, char = tok.start(), tok.group()
        if tok.group(2) is not None:
            # path holds each open object's last key, each list's item number
            where, path[-1] = tuple(path[:-1]), json.loads(tok.group(1))
            if (where, path[-1]) in lines:
                return lines, (path[-1], line)
            lines[where, path[-1]] = line
        elif char == "{":
            lines[tuple(path), None] = line
            path.append(None)
        elif char == "[":
            path.append(1)
        elif char == "," and isinstance(path[-1], int):
            path[-1] += 1
        elif char in ("}", "]"):
            path.pop()
    return lines, None


class ScenarioError(ValueError):
    """Input problem located at the flag that set the value, or at the
    file, line and key."""

    def __init__(self, path: str, key: str | None, line: int | None, msg: str):
        where = path
        if line is not None:
            where += f":{line}"
        if key is not None:
            where += f" (key {key!r})"
        super().__init__(f"{where}: {msg}")


def flag_error(flag: str, value, msg: str) -> ScenarioError:
    """msg placed at a command-line flag and its value."""
    shown = f"{value:g}" if isinstance(value, float) else value
    return ScenarioError(f"{flag} {shown}", None, None, msg)


class Source:
    """An input as given: a JSON file's key lines (key_lines) and the flags
    that replace some of its values, {(where, key): (flag, value)}. where
    is a key path of key_lines: the keys and 1-based list-item numbers
    down to an object."""

    def __init__(self, path: str, lines: dict, flags: dict | None = None):
        self.path = path
        self.lines = lines
        self.flags = flags or {}

    def error(self, where: tuple, key: str | None, msg: str) -> ScenarioError:
        """msg placed at the flag that set key of the object at where, else
        at the key's line in the file, or at the object's opening brace
        when it lacks the key. An item of a top-level list, which only an
        anchor file has, is named by its number."""
        if (where, key) in self.flags:
            return flag_error(*self.flags[where, key], msg)
        line = self.lines.get((where, key)) or self.lines.get((where, None))
        if len(where) == 1 and isinstance(where[0], int):
            msg = f"anchor {where[0]}: {msg}"
        return ScenarioError(self.path, key, line, msg)

    def checked(self, where: tuple, obj, allowed: dict,
                required: tuple = ()) -> dict:
        """The object obj at where with its flags applied, once it has its
        required keys, only allowed keys (key -> type or tuple of types),
        values of their keys' types (booleans are not numbers) and only
        numbers that are finite floats."""
        if not isinstance(obj, dict):
            if len(where) > 1:  # an item of the list at key where[-2]
                raise self.error(where[:-2], where[-2],
                                 f"item {where[-1]}: expected an object")
            raise self.error(where, None, "expected an object")
        obj = {**obj, **{key: value for (at, key), (_, value)
                         in self.flags.items() if at == where}}
        for key in required:
            if key not in obj:
                raise self.error(where, key, "missing required key")
        for key, value in obj.items():
            if key not in allowed:
                raise self.error(where, key, "unknown key")
            expected = allowed[key]
            if isinstance(value, bool) or not isinstance(value, expected):
                want = expected.__name__ if isinstance(expected, type) else \
                    "/".join(t.__name__ for t in expected)
                raise self.error(where, key, f"expected {want}, got {value!r}")
            # json accepts NaN, Infinity, 1e999 and integers of any size;
            # the comparison is exact for ints and false for NaN
            if isinstance(value, (int, float)) \
                    and not abs(value) <= sys.float_info.max:
                raise self.error(where, key,
                                 f"expected a finite number, got {value!r}")
        return obj


def read_json(path: str, flags: dict | None = None):
    """A JSON file read once: its Source (with flags) and its document."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeError) as exc:
        raise ScenarioError(path, None, None, f"cannot read: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(path, None, exc.lineno,
                            f"invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal too long to convert
        raise ScenarioError(path, None, None, f"invalid JSON: {exc}") from exc
    lines, duplicate = key_lines(text)
    if duplicate:
        raise ScenarioError(path, *duplicate, "duplicate key")
    return Source(path, lines, flags), doc


def _json_types(hint) -> tuple:
    """The JSON value types a field annotated hint takes: an int for a
    float, null for an optional field, a string for an enum, a list for a
    tuple of records and an object for a record."""
    if isinstance(hint, UnionType):
        return sum(map(_json_types, get_args(hint)), ())
    if get_origin(hint) is tuple:
        return (list,)
    if is_dataclass(hint):
        return (dict,)
    if isinstance(hint, enum.EnumMeta):
        return (str,)
    return (int, float) if hint is float else (hint,)


# A record type's resolved annotations, evaluated once per type instead of
# once per record read; every caller shares the dict and only reads it.
_type_hints = cache(get_type_hints)


def _record(src: Source, cls, where: tuple, obj):
    """The dataclass cls read from obj, the object at where. A field's file
    key is its metadata "key", else its name, and a field without a default
    is required. Each value is checked against its field's annotation
    (_json_types) and converted: an int to a float, a string to its enum
    member, an object or a list to records. Every field that may be None
    defaults to None, so a null reads as the key left out."""
    hints = _type_hints(cls)
    by_key = {f.metadata.get("key", f.name): f for f in fields(cls)}
    allowed = {key: _json_types(hints[f.name]) for key, f in by_key.items()}
    obj = src.checked(where, obj, allowed, required=tuple(
        key for key, f in by_key.items() if f.default is MISSING))
    values = {}
    for key, value in obj.items():
        name = by_key[key].name
        hint = hints[name]
        if get_origin(hint) is tuple:
            value = tuple(
                _record(src, get_args(hint)[0], (*where, key, i), item)
                for i, item in enumerate(value, start=1))
        elif is_dataclass(hint):
            value = _record(src, hint, (*where, key), value)
        elif isinstance(hint, enum.EnumMeta):
            try:
                value = hint(value)
            except ValueError:
                raise src.error(where, key, (
                    f"unknown {name.replace('_', ' ')} {value!r}; expected "
                    f"one of {[m.value for m in hint]}")) from None
        elif float in allowed[key] and isinstance(value, int):
            value = float(value)
        values[name] = value
    return cls(**values)


def from_file(path: str) -> NetworkModel:
    """Read a JSON case file written by :func:`to_file`.

    Raises ScenarioError at the file, line and key for a file that cannot
    be read, is not JSON, repeats a key within one object, or lacks, adds
    or mistypes a field (an int is taken for a float), and at the file for
    the problems :func:`validate` finds.
    """
    src, doc = read_json(path)
    model = _record(src, NetworkModel, (), doc)
    problems = validate(model)
    if problems:
        raise ScenarioError(path, None, None, "; ".join(problems))
    return model

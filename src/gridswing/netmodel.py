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
``_record`` raise ``ScenarioError`` at ``file:line (key ...)``, and the
field types of every input object are its record's dataclass annotations
(``_record``; ``_file_value`` is the inverse). ``validate``'s structural
rules return ``(where, key, message)`` rows that ``Source.error`` places
at the same ``file:line (key ...)``.
"""

from __future__ import annotations

import enum
import json
import math
import re
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
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


def validate(model: NetworkModel) -> list[tuple]:
    """Structural checks: every problem as a (where, key, message) row for
    Source.error, empty when clean. where is the key path of the record at
    fault, () for the model, and key the field's file key; a rule about a
    whole list is placed at the list's key."""
    ids = [b.id for b in model.buses]
    known = set(ids)
    slack = sum(b.kind == "slack" for b in model.buses)
    rules = [((), "buses", "duplicate bus ids", len(known) != len(ids)),
             ((), "buses", f"expected exactly one slack bus, found {slack}",
              slack != 1)]
    for i, b in enumerate(model.buses, start=1):
        regulated = b.kind in ("slack", "pv")
        rules += [
            (("buses", i), "kind", f"unknown kind {b.kind!r}",
             b.kind not in ("slack", "pv", "pq")),
            (("buses", i), "v_set", f"{b.kind} bus needs v_set",
             regulated and b.v_set is None),
            (("buses", i), "v_set", f"v_set {b.v_set} outside 0.8..1.2",
             regulated and b.v_set is not None
             and not 0.8 <= b.v_set <= 1.2)]
    for i, ln in enumerate(model.lines, start=1):
        rules += [
            (("lines", i), "from_bus" if ln.from_bus not in known else "to_bus",
             "unknown bus", ln.from_bus not in known or ln.to_bus not in known),
            (("lines", i), "x", "zero impedance", ln.x == 0.0 and ln.r == 0.0)]
    for i, g in enumerate(model.generators, start=1):
        at, gv = ("generators", i), g.governor
        unsized = [k for k in ("h", "mva_base", "xd_t") if getattr(g, k) <= 0]
        rules += [
            (at, "bus", f"unknown bus {g.bus}", g.bus not in known),
            (at, unsized[0] if unsized else None,
             "h, mva_base, xd_t must be positive", unsized),
            (at, "p_set", "negative p_set", g.p_set < 0),
            ((*at, "governor"), "p_max", "p_max below p_set",
             gv.p_max < g.p_set),
            ((*at, "governor"), "r_droop" if gv.r_droop <= 0 else "t_g",
             "governor constants must be positive",
             gv.r_droop <= 0 or gv.t_g <= 0),
            (at, "d", "negative damping", g.d < 0),
            (at, "q_min", "q_min above q_max", g.q_min > g.q_max),
            (at, "mva_base",
             "h, d and droop gain on the system base must be finite",
             gv.r_droop > 0 and 0 < model.mva_base < math.inf
             and not all(map(math.isfinite, g.on_system_base(model.mva_base))))]
    machine_buses = {g.bus for g in model.generators}
    for i, ld in enumerate(model.loads, start=1):
        rules += [
            (("loads", i), "bus", f"unknown bus {ld.bus}", ld.bus not in known),
            (("loads", i), "p", "negative demand", ld.p < 0),
            (("loads", i), "bus", "load and generator share a bus",
             ld.bus in machine_buses)]
    problems = [(where, key, msg) for where, key, msg, fails in rules if fails]

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
            problems.append(((), "lines", "buses not connected to the "
                             f"network: {stranded}"))

    total_load = sum(ld.p for ld in model.loads)
    total_sched = scheduled_generation(model)
    if total_sched + 1e-9 < total_load:
        problems.append(((), "generators", f"scheduled generation "
                         f"{total_sched:.4f} pu below total load "
                         f"{total_load:.4f} pu"))
    problems += [
        ((), name, f"{name} must be finite and positive")
        for name in ("f_nominal", "mva_base", "national_total_mw")
        if not 0 < getattr(model, name) < math.inf]  # NaN fails too

    # The one bus map that the power flow and the integrator both read:
    # one load and one machine per bus at most, a machine on each slack
    # and pv bus. Last, so every fault the rules above find comes first.
    for name, noun in (("loads", "load"), ("generators", "machine")):
        carried = set()
        for i, r in enumerate(getattr(model, name), start=1):
            if r.bus in carried:
                problems.append(((name, i), "bus",
                                 f"bus {r.bus} already carries a {noun}"))
            carried.add(r.bus)
    return problems + [
        (("buses", i), "kind", f"{b.kind} bus {b.id} carries no machine")
        for i, b in enumerate(model.buses, start=1)
        if b.kind in ("slack", "pv") and b.id not in machine_buses]


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
        json.dump(_file_value(model), fh, indent=2)
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


@dataclass(frozen=True)
class Source:
    """An input as given: a JSON file's key lines (key_lines) and the flags
    that replace some of its values, {(where, key): (flag, value)}. where
    is a key path of key_lines: the keys and 1-based list-item numbers
    down to an object."""

    path: str
    lines: dict
    flags: dict

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
    return Source(path, lines, flags or {}), doc


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


def _file_keys(cls) -> dict:
    """A record type's fields by file key: metadata "key", else name."""
    return {f.metadata.get("key", f.name): f for f in fields(cls)}


def _record(src: Source, cls, where: tuple, obj):
    """The dataclass cls read from obj, the object at where, with its flags
    applied. A field without a default is required. A value must be of its
    field's JSON types (_json_types; a bool is no number), a number finite,
    and is converted: an int to a float, a string to its enum member, an
    object or a list to records. Every field that may be None defaults to
    None, so a null reads as the key left out."""
    if not isinstance(obj, dict):
        if len(where) > 1:  # an item of the list at key where[-2]
            raise src.error(where[:-2], where[-2],
                            f"item {where[-1]}: expected an object")
        raise src.error(where, None, "expected an object")
    obj = {**obj, **{key: value for (at, key), (_, value)
                     in src.flags.items() if at == where}}
    hints = _type_hints(cls)
    by_key = _file_keys(cls)
    for key, f in by_key.items():
        if f.default is MISSING and key not in obj:
            raise src.error(where, key, "missing required key")
    for at, _ in src.flags:  # a flag sets a key of an object left out
        if len(at) > len(where) and at[:len(where)] == where:
            obj.setdefault(at[len(where)], {})
    values = {}
    for key, value in obj.items():
        if key not in by_key:
            raise src.error(where, key, "unknown key")
        hint = hints[name := by_key[key].name]
        expected = _json_types(hint)
        if isinstance(value, bool) or not isinstance(value, expected):
            raise src.error(where, key, "expected {}, got {!r}".format(
                "/".join(t.__name__ for t in expected), value))
        # json accepts NaN, Infinity, 1e999 and integers of any size;
        # the comparison is exact for ints and false for NaN
        if isinstance(value, (int, float)) \
                and not abs(value) <= sys.float_info.max:
            raise src.error(where, key,
                            f"expected a finite number, got {value!r}")
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
        elif isinstance(value, int) and float in expected:
            value = float(value)
        values[name] = value
    return cls(**values)


def _file_value(value):
    """The inverse of _record: value as a file gives it, a record as its
    object under its file keys, a tuple as a list, an enum as its value."""
    if is_dataclass(value):
        return {key: _file_value(getattr(value, f.name))
                for key, f in _file_keys(type(value)).items()}
    if isinstance(value, tuple):
        return [_file_value(item) for item in value]
    return value.value if isinstance(value, enum.Enum) else value


def from_file(path: str) -> NetworkModel:
    """Read a JSON case file written by :func:`to_file`.

    Raises ScenarioError at the file, line and key for a file that cannot
    be read, is not JSON, repeats a key within one object, or lacks, adds
    or mistypes a field (an int is taken for a float), and for the first
    problem :func:`validate` finds.
    """
    src, doc = read_json(path)
    model = _record(src, NetworkModel, (), doc)
    problems = validate(model)
    if problems:
        raise src.error(*problems[0])
    return model

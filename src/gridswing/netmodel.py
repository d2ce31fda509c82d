"""Network data model and the built-in 9-bus test case.

All network quantities are per-unit on the system MVA base (100 MVA for the
built-in case). Machine constants (``h``, ``d``, ``r_droop``) are expressed on
the individual machine base and converted where the dynamics need them on the
system base. Frequency is 50 Hz nominal; the case is used as a reduced-scale
proxy for a national grid, so attack magnitudes given in national MW are mapped
through ``national_total_mw``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, replace


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
    v_set: float  # terminal voltage setpoint, pu
    mva_base: float  # machine rating, MVA
    h: float  # inertia constant, seconds on machine base
    xd_t: float  # transient reactance, pu on system base
    governor: Governor
    d: float = 0.0  # damping torque coefficient, pu on machine base
    q_min: float = -3.0  # reactive limits, system pu; wide enough to not bind
    q_max: float = 3.0


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
        Generator(1, 0.67, 1.04, 247.5, 9.55, 0.0608,
                  Governor(r_droop=0.08, t_g=5.0, p_max=2.5)),
        Generator(2, 1.63, 1.025, 192.0, 3.33, 0.1198,
                  Governor(r_droop=0.08, t_g=5.0, p_max=3.0)),
        Generator(3, 0.85, 1.025, 128.0, 2.35, 0.1813,
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

    if model.national_total_mw <= 0:
        problems.append("national_total_mw must be positive")
    return problems


def scheduled_generation(model: NetworkModel) -> float:
    """Total scheduled dispatch in pu.

    The built-in schedule is lossless (it sums to the served load, 3.15 pu),
    which makes it the reference quantity for mapping attack percentages; the
    solved dispatch additionally carries the network losses on the slack.
    """
    return sum(g.p_set for g in model.generators)


def attack_fraction_to_pu(model: NetworkModel, percent: float | None = None,
                          mw: float | None = None) -> float:
    """Convert an attack magnitude to a model demand change in pu.

    Exactly one of ``percent`` (share of total generation) or ``mw`` (national
    megawatts, scaled through ``national_total_mw``) must be given. 8 % of the
    built-in case maps to 0.08 * 3.15 = 0.252 pu; 1400 MW on the 17 500 MW
    national reference maps to the same value.
    """
    if (percent is None) == (mw is None):
        raise ValueError("give exactly one of percent or mw")
    if percent is not None:
        if percent < 0:
            raise ValueError("attack magnitude must be non-negative")
        fraction = percent / 100.0
    else:
        if mw < 0:
            raise ValueError("attack magnitude must be non-negative")
        fraction = mw / model.national_total_mw
    return fraction * scheduled_generation(model)


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


def from_file(path: str) -> NetworkModel:
    """Read a JSON case file written by :func:`to_file`.

    Raises OSError if the file cannot be opened and ValueError naming the
    file for anything else: not UTF-8, not JSON, a number out of range or
    a missing or mistyped field.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        model = NetworkModel(
            name=raw["name"],
            mva_base=float(raw["mva_base"]),
            f_nominal=float(raw["f_nominal"]),
            buses=tuple(Bus(**b) for b in raw["buses"]),
            lines=tuple(Line(**ln) for ln in raw["lines"]),
            generators=tuple(
                Generator(**{**g, "governor": Governor(**g["governor"])})
                for g in raw["generators"]),
            loads=tuple(Load(**ld) for ld in raw["loads"]),
            national_total_mw=float(raw.get("national_total_mw", 17500.0)),
        )
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed case file {path}: {exc}") from exc
    problems = validate(model)
    if problems:
        raise ValueError(f"invalid case file {path}: " + "; ".join(problems))
    return model

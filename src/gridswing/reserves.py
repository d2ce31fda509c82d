"""Frequency reserve products and their activation behavior.

The default product set mirrors the published Nordic reserve market volumes
for late 2024: FFR, FCR-D in both directions, FCR-N, aFRR and (disabled by
default) mFRR. Capacities are national megawatts; they reach the simulation
through ``netmodel.national_mw_scale``, like attack magnitudes in MW.

Activation levels are offsets in Hz from the model's ``f_nominal``, so one
product set serves a 50 Hz and a 60 Hz case alike. Activation is piecewise
linear in frequency between ``activation_start`` and ``full_activation``;
the delivered output follows the command as a first-order lag with the
product's ``response_time``. Outputs are tracked in MW and signed: positive
values inject power (up-regulation), negative values absorb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ReserveProduct:
    name: str
    direction: str  # "up" | "down" | "both"
    activation_start: float  # Hz from nominal; for "both": band centre offset
    full_activation: float  # Hz from nominal; for "both": band half-width
    response_time: float  # s, first-order lag constant
    capacity_mw: float
    enabled: bool = True

    def __post_init__(self):
        if self.direction not in ("up", "down", "both"):
            raise ValueError(f"{self.name}: bad direction {self.direction!r}")
        if not all(map(math.isfinite, (self.activation_start,
                                       self.full_activation,
                                       self.response_time, self.capacity_mw))):
            raise ValueError(f"{self.name}: activation levels, response time "
                             "and capacity must be finite")
        if self.capacity_mw < 0 or self.response_time <= 0:
            raise ValueError(f"{self.name}: capacity and response time must be positive")
        # Equality marks a step product (FFR): full output the moment the
        # threshold is crossed.
        if self.direction == "up" and self.activation_start < self.full_activation:
            raise ValueError(f"{self.name}: up product needs activation_start >= full_activation")
        if self.direction == "down" and self.activation_start > self.full_activation:
            raise ValueError(f"{self.name}: down product needs activation_start <= full_activation")
        if self.direction == "both" and self.full_activation <= 0:
            raise ValueError(f"{self.name}: band half-width must be positive")


def default_products() -> tuple[ReserveProduct, ...]:
    """Published reserve volumes; mFRR is manually activated, so disabled."""
    return (
        ReserveProduct("FFR", "up", -0.4, -0.4, 1.0, 100.0),
        ReserveProduct("FCR-D up", "up", -0.1, -0.5, 2.0, 567.0),
        ReserveProduct("FCR-D down", "down", 0.1, 0.5, 2.0, 547.0),
        ReserveProduct("FCR-N", "both", 0.0, 0.1, 2.0, 235.0),
        ReserveProduct("aFRR", "both", 0.0, 0.1, 300.0, 111.0),
        ReserveProduct("mFRR", "both", 0.0, 0.1, 900.0, 300.0, enabled=False),
    )


def command(product: ReserveProduct, f_hz: float, f_nominal: float) -> float:
    """Commanded output in MW for a measured frequency, signed. Levels are
    f_nominal + offset, compared in Hz: 50.0 + -0.1 is exactly 49.9."""
    if not product.enabled:
        return 0.0
    cap = product.capacity_mw
    start = f_nominal + product.activation_start
    if product.direction == "both":  # symmetric band around the centre
        dev = f_hz - start
        frac = min(abs(dev) / product.full_activation, 1.0)
        return -math.copysign(cap * frac, dev)
    full = f_nominal + product.full_activation
    if product.direction == "up":
        if start == full:  # step product
            return cap if f_hz <= start else 0.0
        if f_hz >= start:
            return 0.0
        if f_hz <= full:
            return cap
        return cap * (start - f_hz) / (start - full)
    # down: the mirror image of up
    if f_hz <= start:
        return 0.0
    if f_hz >= full:
        return -cap
    return -cap * (f_hz - start) / (full - start)


def lag_factors(products, dt: float) -> np.ndarray:
    """Per-product 1 - exp(-dt/tau): the share of the gap between command
    and output that one step of dt closes."""
    return np.array([1.0 - math.exp(-dt / p.response_time) for p in products])


def respond(outputs: np.ndarray, commands, alpha: np.ndarray) -> np.ndarray:
    """Advance each product output one step toward its command.

    outputs and commands are MW with products on the last axis, so a
    (lanes, products) batch advances element by element; alpha is
    lag_factors(products, dt). Exact first-order update,
    out += (cmd - out) * (1 - exp(-dt/tau)), so the trajectory is
    independent of how dt subdivides the horizon.
    """
    return outputs + (np.asarray(commands) - outputs) * alpha


# Products slower than this are restoration reserves (aFRR, mFRR); they
# replace containment energy rather than arrest the excursion, so the static
# residual bookkeeping leaves them out.
_CONTAINMENT_MAX_RESPONSE_S = 60.0


@dataclass(frozen=True)
class ResidualReport:
    attack_mw: float
    direction: str
    counteracting_mw: float
    residual_mw: float
    products: tuple[str, ...]


def analytic_residual(attack_mw: float, direction: str) -> ResidualReport:
    """Static reserve balance for an attack, ignoring dynamics.

    ``direction`` is "raises_f" (demand reduction) or "lowers_f" (demand
    increase). Counteracting capacity sums the enabled default containment
    products able to push the other way: a frequency-raising attack faces
    FCR-N plus downward FCR-D, 782 MW in total.
    """
    if direction not in ("raises_f", "lowers_f"):
        raise ValueError(f"bad direction {direction!r}")
    if attack_mw < 0:
        raise ValueError("attack_mw must be non-negative")
    needed = "down" if direction == "raises_f" else "up"
    chosen = [p for p in default_products()
              if p.enabled and p.response_time <= _CONTAINMENT_MAX_RESPONSE_S
              and p.direction in (needed, "both")]
    cap = sum(p.capacity_mw for p in chosen)
    return ResidualReport(
        attack_mw=attack_mw,
        direction=direction,
        counteracting_mw=cap,
        residual_mw=max(0.0, attack_mw - cap),
        products=tuple(p.name for p in chosen),
    )


"""Reserve product curves, activation lag, and the static residual arithmetic."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridswing import reserves


@pytest.fixture(scope="module")
def products():
    return reserves.default_products()


def by_name(products, name):
    return next(p for p in products if p.name == name)


def test_default_capacities(products):
    caps = {p.name: p.capacity_mw for p in products}
    assert caps == {"FFR": 100.0, "FCR-D up": 567.0, "FCR-D down": 547.0,
                    "FCR-N": 235.0, "aFRR": 111.0, "mFRR": 300.0}
    assert by_name(products, "mFRR").enabled is False


def test_ffr_is_a_step(products):
    ffr = by_name(products, "FFR")
    assert reserves.command(ffr, 49.61) == 0.0
    assert reserves.command(ffr, 49.6) == 100.0
    assert reserves.command(ffr, 49.3) == 100.0


def test_fcrd_up_ramp(products):
    p = by_name(products, "FCR-D up")
    assert reserves.command(p, 49.95) == 0.0
    assert reserves.command(p, 49.9) == 0.0
    assert reserves.command(p, 49.7) == pytest.approx(283.5)  # halfway
    assert reserves.command(p, 49.5) == 567.0
    assert reserves.command(p, 49.2) == 567.0


def test_fcrd_down_ramp(products):
    p = by_name(products, "FCR-D down")
    assert reserves.command(p, 50.05) == 0.0
    assert reserves.command(p, 50.3) == pytest.approx(-273.5)
    assert reserves.command(p, 50.5) == -547.0
    assert reserves.command(p, 50.8) == -547.0


def test_fcrn_symmetric_band(products):
    p = by_name(products, "FCR-N")
    assert reserves.command(p, 50.0) == 0.0
    assert reserves.command(p, 49.95) == pytest.approx(117.5)
    assert reserves.command(p, 50.05) == pytest.approx(-117.5)
    assert reserves.command(p, 49.5) == 235.0  # saturates at the band edge
    assert reserves.command(p, 50.5) == -235.0


def test_disabled_product_commands_zero(products):
    mfrr = by_name(products, "mFRR")
    assert reserves.command(mfrr, 48.0) == 0.0


def test_lag_one_second_step(products):
    ffr = by_name(products, "FFR")  # tau = 1 s
    out = reserves.respond(np.zeros(1), [100.0],
                           reserves.lag_factors([ffr], 1.0))
    assert out[0] == pytest.approx(100.0 * (1 - math.exp(-1)), abs=1e-9)


def test_lag_split_invariance(products):
    """Two half steps land exactly where one full step does."""
    cmds = [200.0 if p.name == "FCR-N" else 0.0 for p in products]
    zero = np.zeros(len(products))
    full = reserves.respond(zero, cmds, reserves.lag_factors(products, 0.5))
    alpha = reserves.lag_factors(products, 0.25)
    half = reserves.respond(reserves.respond(zero, cmds, alpha), cmds, alpha)
    assert half == pytest.approx(full, abs=1e-12)
    assert full[[p.name for p in products].index("FCR-N")] > 0.0


@given(st.floats(min_value=-600, max_value=600),
       st.floats(min_value=-600, max_value=600),
       st.floats(min_value=1e-3, max_value=10.0))
def test_lag_is_a_contraction(start, cmd, dt):
    prods = [p for p in reserves.default_products() if p.name == "FCR-N"]
    out = reserves.respond(np.array([start]), [cmd],
                           reserves.lag_factors(prods, dt))
    assert abs(out[0] - cmd) <= abs(start - cmd) + 1e-9


def test_residual_frequency_raising_attack(products):
    rep = reserves.analytic_residual(1000.0, "raises_f")
    assert set(rep.products) == {"FCR-D down", "FCR-N"}
    assert rep.counteracting_mw == 782.0
    assert rep.residual_mw == 218.0
    assert reserves.analytic_residual(1200.0, "raises_f").residual_mw == 418.0


def test_residual_frequency_lowering_attack(products):
    rep = reserves.analytic_residual(1000.0, "lowers_f")
    assert set(rep.products) == {"FFR", "FCR-D up", "FCR-N"}
    assert rep.counteracting_mw == 902.0
    assert rep.residual_mw == 98.0


def test_residual_below_capacity_is_zero():
    assert reserves.analytic_residual(500.0, "raises_f").residual_mw == 0.0


def test_residual_excludes_restoration_products(products):
    # aFRR (300 s) and mFRR are too slow for containment bookkeeping
    rep = reserves.analytic_residual(1000.0, "raises_f")
    assert "aFRR" not in rep.products
    assert "mFRR" not in rep.products


def test_residual_argument_errors():
    with pytest.raises(ValueError, match="direction"):
        reserves.analytic_residual(100.0, "sideways")
    with pytest.raises(ValueError, match="non-negative"):
        reserves.analytic_residual(-5.0, "raises_f")


def test_product_validation():
    with pytest.raises(ValueError):
        reserves.ReserveProduct("x", "up", 49.9, 49.5, -1.0, 100.0)
    with pytest.raises(ValueError):
        reserves.ReserveProduct("x", "diagonal", 49.9, 49.5, 2.0, 100.0)
    with pytest.raises(ValueError):
        reserves.ReserveProduct("x", "up", 49.9, 49.5, 2.0, -100.0)

"""The twelve go/no-go checks, one test each, at their stated tolerances.

Each criterion is computed in criteria.py; its test records the scoreboard
line before asserting, so the terminal summary shows every verdict even
when a criterion fails. Criteria 3 to 9 run on the calibrated model; 1, 2
and 10 to 12 are calibration-independent.
"""
import criteria
from conftest import record_criterion


def holds(verdict: criteria.Verdict) -> None:
    record_criterion(verdict.num, verdict.line())
    for name, ok, value in verdict.checks:
        assert ok, f"{name}: {value!r}"


def test_c01_equilibrium(model):
    holds(criteria.c01(model))


def test_c02_powerflow_oracle(model):
    holds(criteria.c02(model))


def test_c03_static_di12_depth(calibrated_model):
    holds(criteria.c03(calibrated_model))


def test_c04_linear_law(calibrated_model):
    holds(criteria.c04(calibrated_model))


def test_c05_reduction_asymmetry(calibrated_model):
    holds(criteria.c05(calibrated_model))


def test_c06_switching_swing(calibrated_model):
    holds(criteria.c06(calibrated_model))


def test_c07_optimal_reversion_window(calibrated_model):
    holds(criteria.c07(calibrated_model))


def test_c08_periodic_boundedness(calibrated_model):
    holds(criteria.c08(calibrated_model))


def test_c09_combination_strength(calibrated_model):
    holds(criteria.c09(calibrated_model))


def test_c10_reserve_arithmetic():
    holds(criteria.c10())


def test_c11_property_suite(model):
    holds(criteria.c11(model))


def test_c12_feasibility_reports():
    holds(criteria.c12())

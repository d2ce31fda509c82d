"""Transient frequency-stability simulation of aggregated load attacks.

A small test grid stands in for a national system: an AC power flow sets
the operating point, a reduced classical machine model integrates the
frequency response, and attack scenarios perturb aggregated demand while
frequency reserves push back. The analysis layer extracts stability
metrics, sweeps attack parameters, and checks attack sizes against
flexibility forecasts.
"""

from .netmodel import (
    Bus, Line, Governor, Generator, Load, NetworkModel,
    builtin_wscc9, validate, scheduled_generation, attack_fraction_to_pu,
    with_dynamic_params,
)
from .powerflow import PowerFlowSolution, DivergenceError, solve
from .dynamics import (
    SimConfig, SimulationTrace, InstabilityError, simulate,
)
from .reserves import ReserveProduct, default_products, analytic_residual
from .attacks import (
    AttackType, AttackScenario, EventSchedule, compile_scenario,
    validate_scenario,
)
from .analysis import (
    Metrics, SweepFit, CalibratedParams, FlexibilityForecast,
    FeasibilityReport, metrics, magnitude_sweep, timing_sweep, calibrate,
    feasibility, default_forecast,
)

__version__ = "0.1.0"

__all__ = [
    "Bus", "Line", "Governor", "Generator", "Load", "NetworkModel",
    "builtin_wscc9", "validate", "scheduled_generation",
    "attack_fraction_to_pu", "with_dynamic_params",
    "PowerFlowSolution", "DivergenceError", "solve",
    "SimConfig", "SimulationTrace", "InstabilityError", "simulate",
    "ReserveProduct", "default_products", "analytic_residual",
    "AttackType", "AttackScenario", "EventSchedule", "compile_scenario",
    "validate_scenario",
    "Metrics", "SweepFit", "CalibratedParams", "FlexibilityForecast",
    "FeasibilityReport", "metrics", "magnitude_sweep", "timing_sweep",
    "calibrate", "feasibility", "default_forecast",
    "__version__",
]

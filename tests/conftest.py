"""Shared fixtures and the acceptance scoreboard hook.

Session-scoped fixtures cache the expensive pieces (power flow, the anchor
calibration) so the whole suite pays for them once.
"""
import pytest

from gridswing import analysis, netmodel, powerflow

# criterion number -> one-line verdict, printed after the test summary
ACCEPTANCE_LINES: dict[int, str] = {}


def record_criterion(num: int, line: str) -> None:
    ACCEPTANCE_LINES[num] = line


@pytest.fixture(scope="session")
def model():
    return netmodel.builtin_wscc9()


@pytest.fixture(scope="session")
def pf(model):
    return powerflow.solve(model)


@pytest.fixture(scope="session")
def calibrated(model):
    return analysis.calibrate(model)


@pytest.fixture(scope="session")
def calibrated_model(model, calibrated):
    return calibrated.apply(model)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(ACCEPTANCE_LINES[num])

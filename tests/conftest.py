"""Shared fixtures for the test suite.

Simulation-backed fixtures are session-scoped and use deliberately small
configurations (few reference conditions, two historical nodes, the Table I
cells) so the whole suite stays fast while still exercising the real flows
end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    SimulationCounter,
    get_technology,
    learn_prior,
    make_cell,
)
from repro.core.prior_learning import (
    characterize_historical_library,
    shared_reference_conditions,
)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a long-running test; deselect with -m 'not slow'")


@pytest.fixture(scope="session")
def tech14():
    """The 14 nm FinFET target technology."""
    return get_technology("n14_finfet")


@pytest.fixture(scope="session")
def tech28():
    """The 28 nm bulk technology used for statistical experiments."""
    return get_technology("n28_bulk")


@pytest.fixture(scope="session")
def tech45():
    """The oldest (45 nm) historical technology."""
    return get_technology("n45_bulk")


@pytest.fixture(scope="session")
def inv_cell():
    """A unit-drive inverter."""
    return make_cell("INV_X1")


@pytest.fixture(scope="session")
def nand2_cell():
    """A unit-drive NAND2."""
    return make_cell("NAND2_X1")


@pytest.fixture(scope="session")
def nor2_cell():
    """A unit-drive NOR2."""
    return make_cell("NOR2_X1")


@pytest.fixture(scope="session")
def reference_conditions():
    """A small shared set of normalized reference conditions."""
    return shared_reference_conditions(8, rng=7)


@pytest.fixture(scope="session")
def historical_data(reference_conditions, inv_cell, nor2_cell):
    """Two characterized historical libraries (small but real simulations)."""
    from repro.cells.library import Transition

    counter = SimulationCounter()
    nodes = [get_technology("n28_bulk"), get_technology("n45_bulk")]
    return [
        characterize_historical_library(
            node, [inv_cell, nor2_cell],
            unit_conditions=reference_conditions,
            transitions=(Transition.FALL,),
            counter=counter,
        )
        for node in nodes
    ]


@pytest.fixture(scope="session")
def delay_prior(historical_data):
    """Delay prior learned from the small historical set."""
    return learn_prior(historical_data, response="delay", method="bp")


@pytest.fixture(scope="session")
def slew_prior(historical_data):
    """Slew prior learned from the small historical set."""
    return learn_prior(historical_data, response="slew", method="bp")


@pytest.fixture()
def rng():
    """A fresh deterministic random generator per test."""
    return np.random.default_rng(12345)

"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  The
expensive, shared ingredients -- historical-library characterization, the
learned priors, the experiment runners and their error-versus-samples curves
-- are computed once per session here; each benchmark then times a
representative step of its flow with ``pytest-benchmark`` and writes the
regenerated table/series to the results directory: the untracked
``benchmarks/out/`` by default, or the directory named by
``REPRO_BENCH_RESULTS_DIR`` (``REPRO_BENCH_RESULTS_DIR=benchmarks/benchmark_results``
refreshes the committed tables).

The speedup benchmarks time the production path against the straight-line
references in ``tests/oracles/``; ``tests/`` goes on ``sys.path`` here so
they import them as ``from oracles.<stage> import ...``.

Environment knobs (all optional) scale the experiments up toward paper-scale
settings:

``REPRO_BENCH_SEEDS``        Monte Carlo seeds for statistical runs (default 120)
``REPRO_BENCH_VALIDATION``   validation points for error evaluation (default 50)
``REPRO_BENCH_STAT_VALIDATION``  validation points for statistical runs (default 24)
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))

from bench_utils import (  # noqa: E402  (path setup must precede the import)
    NOMINAL_TRAINING_SIZES,
    RESULTS_DIR,
    STATISTICAL_TRAINING_SIZES,
    env_int,
)

from repro import SimulationCounter, get_technology, make_cell
from repro.core.prior_learning import (
    characterize_historical_library,
    learn_prior,
    shared_reference_conditions,
)
from repro.experiments import ExperimentRunner


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where regenerated tables and series are written."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def bench_counter() -> SimulationCounter:
    """Global simulation-run accounting across all benchmarks."""
    return SimulationCounter()


@pytest.fixture(scope="session")
def table_cells():
    """The Table I cell set."""
    return [make_cell(name) for name in ("INV_X1", "NAND2_X1", "NOR2_X1")]


@pytest.fixture(scope="session")
def historical_14(table_cells, bench_counter):
    """Historical libraries used to learn priors for the 14 nm target."""
    unit = shared_reference_conditions(20, rng=11)
    nodes = ["n16_finfet_soi", "n28_bulk", "n45_bulk"]
    return [characterize_historical_library(get_technology(name), table_cells,
                                            unit_conditions=unit,
                                            counter=bench_counter)
            for name in nodes]


@pytest.fixture(scope="session")
def historical_28(table_cells, bench_counter):
    """Historical libraries used to learn priors for the 28 nm target."""
    unit = shared_reference_conditions(20, rng=13)
    nodes = ["n14_finfet", "n32_soi", "n45_bulk"]
    return [characterize_historical_library(get_technology(name), table_cells,
                                            unit_conditions=unit,
                                            counter=bench_counter)
            for name in nodes]


@pytest.fixture(scope="session")
def priors_14(historical_14):
    """Delay and slew priors for the 14 nm target."""
    return {
        "delay": learn_prior(historical_14, response="delay"),
        "slew": learn_prior(historical_14, response="slew"),
    }


@pytest.fixture(scope="session")
def priors_28(historical_28):
    """Delay and slew priors for the 28 nm target."""
    return {
        "delay": learn_prior(historical_28, response="delay"),
        "slew": learn_prior(historical_28, response="slew"),
    }


@pytest.fixture(scope="session")
def runner_14(historical_14, bench_counter):
    """Experiment runner for the nominal 14 nm experiment (Fig. 6)."""
    return ExperimentRunner(
        technology=get_technology("n14_finfet"),
        cells=[make_cell("INV_X1"), make_cell("NOR2_X1")],
        historical=historical_14,
        n_validation=env_int("REPRO_BENCH_VALIDATION", 50),
        rng=5,
        counter=bench_counter,
    )


@pytest.fixture(scope="session")
def nominal_curves_14(runner_14):
    """Fig. 6 curves: delay error versus training samples at 14 nm."""
    return runner_14.nominal_curves(NOMINAL_TRAINING_SIZES,
                                    methods=("bayesian", "lse", "lut"))


@pytest.fixture(scope="session")
def runner_28(historical_28, bench_counter):
    """Experiment runner for the statistical 28 nm experiments (Figs. 7-8)."""
    return ExperimentRunner(
        technology=get_technology("n28_bulk"),
        cells=[make_cell("INV_X1"), make_cell("NOR2_X1")],
        transitions=("fall",),
        historical=historical_28,
        n_validation=env_int("REPRO_BENCH_STAT_VALIDATION", 24),
        rng=9,
        counter=bench_counter,
    )


@pytest.fixture(scope="session")
def statistical_curves_28(runner_28):
    """Figs. 7-8 curves: statistical errors versus training samples at 28 nm."""
    return runner_28.statistical_curves(
        STATISTICAL_TRAINING_SIZES,
        n_seeds=env_int("REPRO_BENCH_SEEDS", 120),
        methods=("bayesian", "lut"),
    )

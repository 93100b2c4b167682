"""The one simulation path: a sweep is a one-job :class:`SimulationPlan`.

:func:`~repro.spice.sweep.sweep_conditions` keys the cache, tiles and
integrates through the plan, so the plan's behaviour is the sweep's:

* tiles are sized from the stepper's own step count;
* a repeated operating point is one plan row, integrated once, while each
  measurement still owns its arrays;
* a sweep's ``ledger=`` receives the integration metrics only, never the
  plan's stage time or cache activity (the per-arc oracle wraps its sweeps
  in its own ``ledger.caches()`` window and must not count anything twice);
* ``cache=False`` makes no lookup and no put;
* :meth:`SimulationPlan.kept_conditions` turns a job's quarantined rows
  into the conditions it keeps and one ``QuarantinedRows`` report.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.runtime as runtime
from repro import get_technology, make_cell
from repro.cells.equivalent_inverter import default_arc
from repro.characterization.input_space import InputSpace
from repro.core import simulation_plan
from repro.core.simulation_plan import SimulationPlan
from repro.runtime.accounting import RunLedger
from repro.runtime.executor import get_executor
from repro.spice.batch import BatchTransientResult, transient_item_bytes
from repro.spice.stepper import IntegrationStats, StepperSpec
from repro.spice.sweep import sweep_conditions
from repro.spice.testbench import SimulationCounter, get_simulation_cache

INTEGRATION_METRICS = {"transient_steps", "transient_steps_rejected",
                       "transient_rhs_evals"}


@pytest.fixture(scope="module")
def tech28():
    return get_technology("n28_bulk")


@pytest.fixture
def cold_cache():
    cache = get_simulation_cache()
    cache.clear()
    yield cache
    cache.clear()


def _conditions(technology, n, seed=5):
    return [condition.as_tuple() for condition in InputSpace(
        technology).sample_lhs(n, np.random.default_rng(seed))]


def test_plan_tiles_are_sized_from_the_stepper(tech28, cold_cache):
    # 1600-step rows cost more than 400-step ones; a budget of two such
    # rows must split six rows into three tiles.
    cell = make_cell("INV_X1")
    stepper = StepperSpec("rk4", n_steps=1600)
    variation = tech28.variation.sample(8, rng=3)
    plan = SimulationPlan(tech28, variation=variation, stepper=stepper,
                          integrate_stage="test:integrate")
    plan.add_job(cell, default_arc(cell), _conditions(tech28, 6))
    ledger = RunLedger()
    plan.simulate(get_executor("serial"), ledger,
                  max_bytes=2 * transient_item_bytes(8, 1600))
    plan.finalize()
    assert ledger.stages()["test:integrate"]["calls"] == 3


@pytest.fixture
def tile_sizes(monkeypatch):
    """Rows per fixed-step engine call, with the integration stubbed out."""
    sizes = []

    def engine(inverters, sin, cload, vdd, n_steps, on_failure):
        sizes.append(len(sin))
        n_seeds = max(np.size(inverters[0].parasitic_cap), 1)
        zeros = np.zeros((len(sin), n_seeds))
        return BatchTransientResult(sin, cload, vdd, zeros, zeros.copy(),
                                    stats=IntegrationStats())

    monkeypatch.setattr(simulation_plan, "simulate_arc_transitions", engine)
    return sizes


def test_default_budget_library_pass_is_one_tile(tech28, tile_sizes):
    # The size of the benchmark's library pass: 160 rows at 200 seeds
    # (seven tiles under the recording engine's 2.57 MB per-row estimate).
    assert runtime.runtime_config().max_bytes is None
    variation = tech28.variation.sample(200, rng=1)
    plan = SimulationPlan(tech28, variation=variation, cache=False,
                          stepper=StepperSpec("rk4"))
    conditions = _conditions(tech28, 20)
    for name in ("INV_X1", "INV_X2", "NAND2_X1", "AOI21_X1"):
        cell = make_cell(name)
        for transition in ("fall", "rise"):
            plan.add_job(cell, cell.arc(cell.input_pins[0], transition),
                         conditions)
    ledger = RunLedger()
    plan.record_metrics(ledger)
    assert ledger.metrics()["fused_rows_simulated"] == 160
    plan.simulate(get_executor("serial"), ledger)
    assert tile_sizes == [160]


@pytest.mark.parametrize("n_conditions, n_seeds", [(25, 300), (60, 120)])
def test_default_budget_sweep_is_one_tile(tech28, tile_sizes, n_conditions,
                                          n_seeds):
    # The sweep sizes of the statistical example and fig9's baseline (two
    # tiles each under the recording engine's estimate).
    variation = tech28.variation.sample(n_seeds, rng=2)
    sweep_conditions(make_cell("NAND2_X1"), tech28,
                     _conditions(tech28, n_conditions), variation=variation,
                     engine="batched", cache=False)
    assert tile_sizes == [n_conditions]


@pytest.mark.parametrize("engine", ["batched", "adaptive"])
def test_repeated_operating_point_integrates_once(tech28, engine):
    cell = make_cell("NAND2_X1")
    variation = tech28.variation.sample(6, rng=4)
    condition = _conditions(tech28, 1)[0]
    alone, twice = RunLedger(), RunLedger()
    (single,) = sweep_conditions(cell, tech28, [condition],
                                 variation=variation, engine=engine,
                                 cache=False, ledger=alone)
    first, second = sweep_conditions(cell, tech28, [condition, condition],
                                     variation=variation, engine=engine,
                                     cache=False, ledger=twice)
    for name in ("transient_steps", "transient_rhs_evals"):
        assert twice.metrics()[name] == alone.metrics()[name]
    for measurement in (first, second):
        assert np.array_equal(measurement.delay, single.delay)
        assert np.array_equal(measurement.output_slew, single.output_slew)
    # Each measurement owns its arrays.
    kept_delay = second.delay.copy()
    kept_slew = second.output_slew.copy()
    first.delay[:] = -1.0
    first.output_slew[:] = -1.0
    assert np.array_equal(second.delay, kept_delay)
    assert np.array_equal(second.output_slew, kept_slew)


@pytest.mark.parametrize("cache", [True, False])
def test_sweep_ledger_receives_integration_metrics_only(tech28, cold_cache,
                                                        cache):
    cell = make_cell("INV_X1")
    variation = tech28.variation.sample(4, rng=6)
    conditions = _conditions(tech28, 3)
    ledger = RunLedger()
    sweep_conditions(cell, tech28, conditions, variation=variation,
                     cache=cache, ledger=ledger, max_bytes=1)
    assert set(ledger.metrics()) == INTEGRATION_METRICS
    assert ledger.metrics()["transient_steps"] > 0
    assert ledger.stages() == {}
    assert ledger.cache_activity() == {}
    assert ledger.simulations_by_label() == {}
    assert ledger.failures() == []


def test_sweep_without_cache_makes_no_lookup_and_no_put(tech28, cold_cache):
    cell = make_cell("NOR2_X1")
    conditions = _conditions(tech28, 2)
    before = runtime.cache_stats()["simulation"]
    counter = SimulationCounter()
    sweep_conditions(cell, tech28, conditions, cache=False, counter=counter)
    after = runtime.cache_stats()["simulation"]
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert len(cold_cache) == 0
    # Runs are charged per condition and seed all the same.
    assert counter.by_label() == {"sweep:NOR2_X1": 2}


def test_kept_conditions_reports_quarantined_rows(tech28):
    cell = make_cell("INV_X1")
    arc = default_arc(cell)
    plan = SimulationPlan(tech28, cache=False)
    plan.add_job(cell, arc, _conditions(tech28, 3))
    plan.add_job(cell, arc, _conditions(tech28, 2, seed=9))
    plan.add_job(cell, arc, _conditions(tech28, 2, seed=11))
    plan.quarantined_rows = {1: [0, 1], 2: [1]}

    assert plan.kept_conditions(0, "INV_X1:clean") == ([0, 1, 2], None)

    kept, report = plan.kept_conditions(2, "INV_X1:degraded")
    assert kept == [0]
    assert (report.unit, report.stage, report.error_type) == (
        "INV_X1:degraded", "simulate", "QuarantinedRows")
    assert "1 of 2 conditions quarantined (indices [1])" in report.error

    kept, report = plan.kept_conditions(1, "n28_bulk:INV_X1:dropped")
    assert kept is None
    assert report.unit == "n28_bulk:INV_X1:dropped"
    assert "no conditions survived" in report.error

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
from repro.core.simulation_plan import SimulationPlan
from repro.runtime.accounting import RunLedger
from repro.runtime.executor import get_executor
from repro.spice.batch import transient_item_bytes
from repro.spice.stepper import StepperSpec
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
    # 1600-step rows cost four times the 400-step estimate; a budget of two
    # such rows must split six rows into three tiles.
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

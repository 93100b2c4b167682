"""Property tests of the flat row table (engines) and the simulation plan.

Rows of one transient pass are independent whatever cells, output
polarities and tiles they share: every row of a multi-cell pass must equal,
bit for bit, the same row integrated alone through the single-inverter
call, on both engines.  One level up, a :class:`SimulationPlan` must
scatter and cache the same values whatever the job order and tiling.

Hypothesis runs derandomized with no example database, so Tier-1 stays
deterministic.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import get_technology, make_cell
from repro.cells import reduce_cell_cached
from repro.cells.library import Transition
from repro.characterization.input_space import InputSpace
from repro.core.simulation_plan import SimulationPlan
from repro.runtime.accounting import RunLedger
from repro.runtime.chunking import plan_chunks
from repro.runtime.executor import get_executor
from repro.spice import (
    StepperSpec,
    simulate_arc_transitions,
    simulate_arc_transitions_adaptive,
)
from repro.spice.batch import transient_item_bytes
from repro.spice.testbench import SimulationCache, get_simulation_cache

CELLS = ("INV_X1", "NAND2_X1", "NOR2_X1")
TRANSITIONS = (Transition.FALL, Transition.RISE)
N_CONDITIONS = 4
N_SEEDS = 4
ENGINES = ("rk4", "rk45")

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=8,
                    suppress_health_check=[HealthCheck.too_slow])


def _integrate(engine, inverter, sin, cload, vdd):
    if engine == "rk45":
        return simulate_arc_transitions_adaptive(
            inverter, sin, cload, vdd, stepper=StepperSpec(method="rk45"))
    return simulate_arc_transitions(inverter, sin, cload, vdd)


@pytest.fixture(scope="module", params=["n28_bulk", "n14_finfet"])
def arc_table(request):
    """Six (cell, arc) reductions, a condition pool, and each row alone.

    ``n28_bulk`` runs the fused alpha-power kernel, ``n14_finfet`` the
    generic virtual-source device path.
    """
    technology = get_technology(request.param)
    variation = technology.variation.sample(N_SEEDS, rng=5)
    inverters = []
    for name in CELLS:
        cell = make_cell(name)
        for transition in TRANSITIONS:
            arc = cell.arc(cell.input_pins[0], transition)
            inverters.append(reduce_cell_cached(cell, technology, arc=arc,
                                                variation=variation))
    conditions = np.array([
        condition.as_tuple() for condition in InputSpace(
            technology).sample_lhs(N_CONDITIONS, np.random.default_rng(9))])
    alone = {}
    for engine in ENGINES:
        for arc_index, inverter in enumerate(inverters):
            for cond, (sin, cload, vdd) in enumerate(conditions):
                result = _integrate(engine, inverter, [sin], [cload], [vdd])
                alone[engine, arc_index, cond] = (result.delay()[0],
                                                  result.output_slew()[0])
    return inverters, conditions, alone


rows_strategy = st.lists(
    st.tuples(st.integers(0, len(CELLS) * len(TRANSITIONS) - 1),
              st.integers(0, N_CONDITIONS - 1)),
    min_size=1, max_size=10)


@pytest.mark.parametrize("engine", ENGINES)
@PROPERTY
@given(rows=rows_strategy, n_tiles=st.integers(1, 4))
def test_every_row_matches_its_single_inverter_pass(arc_table, engine, rows,
                                                    n_tiles):
    inverters, conditions, alone = arc_table
    for tile in plan_chunks(len(rows), n_chunks=n_tiles):
        tile_rows = rows[tile]
        table = [inverters[arc_index] for arc_index, _ in tile_rows]
        triples = conditions[[cond for _, cond in tile_rows]]
        result = _integrate(engine, table, triples[:, 0], triples[:, 1],
                            triples[:, 2])
        delay, slew = result.delay(), result.output_slew()
        for offset, (arc_index, cond) in enumerate(tile_rows):
            expected_delay, expected_slew = alone[engine, arc_index, cond]
            assert np.array_equal(delay[offset], expected_delay)
            assert np.array_equal(slew[offset], expected_slew)


def test_row_table_length_must_match_conditions(arc_table):
    inverters, conditions, _alone = arc_table
    with pytest.raises(ValueError, match="one equivalent inverter per"):
        simulate_arc_transitions(inverters[:2], conditions[:3, 0],
                                 conditions[:3, 1], conditions[:3, 2])


# ---------------------------------------------------------------------------
# SimulationPlan: dedup, scatter and cache fill
# ---------------------------------------------------------------------------
def _plan_jobs():
    """Twelve jobs: two footprint twins of each Table I cell, both arcs.

    Twins share signatures, and jobs draw overlapping condition subsets from
    one pool, so plans dedup rows across jobs.
    """
    technology = get_technology("n28_bulk")
    pool = [condition.as_tuple() for condition in InputSpace(
        technology).sample_lhs(3, np.random.default_rng(21))]
    jobs = []
    for index, name in enumerate(CELLS):
        base = make_cell(name)
        for twin in range(2):
            cell = dataclasses.replace(base, name=f"{name}_T{twin}")
            for transition in TRANSITIONS:
                arc = cell.arc(cell.input_pins[0], transition)
                conds = pool[twin:] if (index + twin) % 2 else pool
                jobs.append((cell, arc, conds))
    return technology, jobs


def _run_plan(technology, variation, jobs, order, max_bytes):
    """One cold plan over ``jobs`` in ``order``; values keyed by job identity."""
    cache = get_simulation_cache()
    cache.clear()
    plan = SimulationPlan(technology, variation=variation)
    ledger = RunLedger()
    for index in order:
        cell, arc, conds = jobs[index]
        plan.add_job(cell, arc, conds)
    plan.record_metrics(ledger, prefix="fused")
    plan.simulate(get_executor("serial"), ledger, max_bytes=max_bytes)
    plan.finalize()
    values = {}
    for job, index in enumerate(order):
        cell, arc, conds = jobs[index]
        prefix = SimulationCache.arc_prefix(cell, technology, arc,
                                            variation.fingerprint())
        for cond, triple in enumerate(conds):
            cached = cache.get(SimulationCache.condition_key(
                prefix, *triple, plan.stepper))
            assert cached is not None
            assert np.array_equal(cached[0], plan.job_delays[job][cond])
            assert np.array_equal(cached[1], plan.job_slews[job][cond])
            values[index, cond] = (plan.job_delays[job][cond],
                                   plan.job_slews[job][cond])
    cache.clear()
    metrics = {key: value for key, value in ledger.metrics().items()
               if key.startswith("fused_")}
    return values, metrics, ledger.stages()["fused:integrate"]["calls"]


@pytest.fixture(scope="module")
def plan_reference():
    technology, jobs = _plan_jobs()
    variation = technology.variation.sample(N_SEEDS, rng=8)
    values, metrics, n_tiles = _run_plan(technology, variation, jobs,
                                         list(range(len(jobs))), None)
    assert n_tiles == 1
    return technology, variation, jobs, values, metrics


@PROPERTY
@given(order=st.permutations(list(range(12))),
       rows_per_tile=st.integers(1, 12))
def test_plan_invariant_under_job_order_and_tiling(plan_reference, order,
                                                   rows_per_tile):
    technology, variation, jobs, reference, reference_metrics = plan_reference
    budget = rows_per_tile * transient_item_bytes(N_SEEDS)
    values, metrics, n_tiles = _run_plan(technology, variation, jobs, order,
                                         budget)
    assert metrics == reference_metrics
    assert metrics["fused_rows_deduplicated"] > 0
    assert n_tiles == -(-metrics["fused_rows_simulated"] // rows_per_tile)
    assert values.keys() == reference.keys()
    for key, (delay, slew) in reference.items():
        assert np.array_equal(values[key][0], delay)
        assert np.array_equal(values[key][1], slew)

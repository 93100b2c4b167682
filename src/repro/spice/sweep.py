"""Batched condition sweeps (the ``.ALTER`` analogue).

The paper batches per-seed simulations with SPICE ``.ALTER`` statements so
each netlist is elaborated once and re-simulated for every process seed.  In
this reproduction the analogue goes one step further: the cell is reduced to
its equivalent inverter once per seed batch (memoized across sweeps) and
*every* requested ``(Sin, Cload, Vdd)`` condition is integrated in a single
pass of the batched transient engine (:mod:`repro.spice.batch`), with the
per-condition results memoized in the global
:class:`~repro.spice.testbench.SimulationCache` so repeated operating points
are never simulated twice.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.cells.equivalent_inverter import default_arc, reduce_cell_cached
from repro.cells.library import Cell, TimingArc
from repro.runtime import (
    TRANSIENT_ENGINES,
    resolve_max_bytes,
    resolve_transient_engine,
)
from repro.runtime.accounting import RunLedger
from repro.runtime.chunking import plan_chunks
from repro.spice.adaptive import simulate_arc_transitions_adaptive
from repro.spice.batch import simulate_arc_transitions, transient_item_bytes
from repro.spice.stepper import IntegrationStats, StepperSpec, resolve_stepper
from repro.spice.testbench import (
    SimulationCache,
    SimulationCounter,
    TimingMeasurement,
    get_simulation_cache,
)
from repro.spice.transient import DEFAULT_STEPS
from repro.technology.node import TechnologyNode
from repro.technology.variation import VariationSample

#: Engines selectable in :func:`sweep_conditions` (the runtime layer owns
#: the canonical tuple so ``runtime.configure(transient_engine=...)`` can
#: validate without importing the engines).
ENGINES = TRANSIENT_ENGINES


def record_integration_stats(ledger: Optional[RunLedger],
                             stats: Optional[IntegrationStats]) -> None:
    """Add one batch's integration cost to a ledger's metrics (if both exist).

    The three metrics sum across batches, chunks and merged worker ledgers,
    so a flow-level ledger reports the total integration effort of the run:
    ``transient_steps`` / ``transient_steps_rejected`` count per-condition
    step attempts and ``transient_rhs_evals`` counts scalar derivative
    evaluations (directly comparable across engines).
    """
    if ledger is None or stats is None:
        return
    ledger.add_metric("transient_steps", stats.steps_taken)
    ledger.add_metric("transient_steps_rejected", stats.steps_rejected)
    ledger.add_metric("transient_rhs_evals", stats.rhs_evals)


def sweep_conditions(
    cell: Cell,
    technology: TechnologyNode,
    conditions: Sequence[Sequence[float]],
    arc: Optional[TimingArc] = None,
    variation: Optional[VariationSample] = None,
    n_steps: int = DEFAULT_STEPS,
    counter: Optional[SimulationCounter] = None,
    counter_label: Optional[str] = None,
    engine: Optional[str] = None,
    cache: bool = True,
    max_bytes: Optional[int] = None,
    stepper: Optional[StepperSpec] = None,
    ledger: Optional[RunLedger] = None,
) -> List[TimingMeasurement]:
    """Simulate one arc across a list of operating points.

    Parameters
    ----------
    cell, technology, arc, variation, n_steps:
        As in :func:`repro.spice.testbench.characterize_arc`.
    conditions:
        Sequence of ``(sin, cload, vdd)`` triples.
    counter, counter_label:
        Optional simulation-run accounting; each condition charges one run
        per seed.  Runs are charged even when the simulation cache hits --
        counters measure what a flow *requires*, the cache only saves
        wall-clock time.
    engine:
        ``"batched"`` integrates every condition in one 2-D fixed-step RK4
        pass; ``"adaptive"`` integrates every condition in one batched
        error-controlled RK45 pass (:mod:`repro.spice.adaptive`).  ``None``
        (default) defers to ``runtime.configure(transient_engine=...)`` /
        ``REPRO_TRANSIENT_ENGINE``, falling back to ``"batched"``.
    cache:
        Whether to consult/fill the global simulation cache.  Keys embed
        the full stepper signature, so fixed-step and adaptive results
        never collide.  A sweep whose conditions all hit short-circuits
        straight to measurement assembly -- no equivalent-inverter
        reduction, no batched simulation plan.
    max_bytes:
        Memory budget for the batched engines' waveform matrices; uncached
        conditions are split into deterministic chunks integrated one after
        the other (conditions are independent, so the per-condition results
        are identical to the one-pass batch -- for the adaptive engine each
        row's step-size controller is fully row-local, so this holds
        bit-for-bit there too).  ``None`` defers to
        ``repro.runtime.configure(max_bytes=...)``.
    stepper:
        Explicit :class:`~repro.spice.stepper.StepperSpec` overriding the
        resolved engine's default scheme (e.g. adaptive at non-default
        tolerances).  Must be consistent with the engine: ``"rk45"`` for
        the adaptive engine, ``"rk4"`` otherwise.
    ledger:
        Optional :class:`~repro.runtime.accounting.RunLedger`; integration
        cost (steps taken/rejected, scalar RHS evaluations) of the
        conditions actually simulated is accumulated into its metrics.

    Returns
    -------
    list of TimingMeasurement
        One measurement per condition, in the input order.
    """
    engine = resolve_transient_engine(engine)
    if stepper is None:
        stepper = resolve_stepper(engine, n_steps=n_steps)
    expected_method = "rk45" if engine == "adaptive" else "rk4"
    if stepper.method != expected_method:
        raise ValueError(
            f"stepper method {stepper.method!r} is inconsistent with "
            f"engine {engine!r} (expected {expected_method!r})")
    conditions = [tuple(float(value) for value in condition)
                  for condition in conditions]
    for condition in conditions:
        if len(condition) != 3:
            raise ValueError(
                f"conditions must be (sin, cload, vdd) triples, got {condition}"
            )

    label = counter_label or f"sweep:{cell.name}"
    resolved_arc = arc if arc is not None else default_arc(cell)

    simulation_cache = get_simulation_cache() if cache else None
    variation_fp = (variation.fingerprint() if variation is not None
                    else "nominal")

    n_conditions = len(conditions)
    delays: List[Optional[np.ndarray]] = [None] * n_conditions
    slews: List[Optional[np.ndarray]] = [None] * n_conditions
    keys: List[Optional[tuple]] = [None] * n_conditions

    missing: List[int] = list(range(n_conditions))
    if simulation_cache is not None:
        # One arc-identity prefix for the whole sweep; only the operating
        # point varies per key.
        prefix = SimulationCache.arc_prefix(cell, technology, resolved_arc,
                                            variation_fp)
        missing = []
        for index, (sin, cload, vdd) in enumerate(conditions):
            key = SimulationCache.condition_key(prefix, sin, cload, vdd,
                                                stepper)
            keys[index] = key
            cached = simulation_cache.get(key)
            if cached is not None:
                delays[index], slews[index] = cached
            else:
                missing.append(index)

    if missing:
        # A full cache hit never reaches this point: the equivalent-inverter
        # reduction and the batched simulation plan are only built when at
        # least one condition actually needs integrating.
        inverter = reduce_cell_cached(cell, technology, arc=resolved_arc,
                                      variation=variation)
        triples = np.array([conditions[i] for i in missing], dtype=float)
        n_seeds = variation.n_seeds if variation is not None else 1
        item_bytes = transient_item_bytes(n_seeds, stepper.n_steps)
        # Chunks integrate one after the other and scatter their results
        # immediately, so each chunk's waveform matrices are freed before
        # the next one allocates (the point of the budget).
        for rows in plan_chunks(len(missing), item_bytes,
                                resolve_max_bytes(max_bytes)):
            if engine == "adaptive":
                result = simulate_arc_transitions_adaptive(
                    inverter, triples[rows, 0], triples[rows, 1],
                    triples[rows, 2], stepper=stepper)
            else:
                result = simulate_arc_transitions(
                    inverter, triples[rows, 0], triples[rows, 1],
                    triples[rows, 2], n_steps=stepper.n_steps)
            record_integration_stats(ledger, result.stats)
            batch_delay = result.delay()
            batch_slew = result.output_slew()
            for row, index in enumerate(missing[rows]):
                delays[index] = np.asarray(batch_delay[row], dtype=float)
                slews[index] = np.asarray(batch_slew[row], dtype=float)
        if simulation_cache is not None:
            for index in missing:
                simulation_cache.put(keys[index], delays[index], slews[index])

    measurements: List[TimingMeasurement] = []
    for index, (sin, cload, vdd) in enumerate(conditions):
        delay = delays[index].reshape(-1)
        slew = slews[index].reshape(-1)
        if counter is not None:
            counter.add(delay.size, label=label)
        measurements.append(
            TimingMeasurement(
                cell_name=cell.name,
                arc=resolved_arc,
                sin=sin,
                cload=cload,
                vdd=vdd,
                delay=delay,
                output_slew=slew,
            )
        )
    return measurements

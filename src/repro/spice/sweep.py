"""Batched condition sweeps (the ``.ALTER`` analogue).

The paper batches per-seed simulations with SPICE ``.ALTER`` statements so
each netlist is elaborated once and re-simulated for every process seed.  In
this reproduction a sweep is a one-job
:class:`~repro.core.simulation_plan.SimulationPlan` on the serial executor:
the cell is reduced to its equivalent inverter once per seed batch
(memoized across sweeps), every requested ``(Sin, Cload, Vdd)`` condition
is looked up in the global :class:`~repro.spice.testbench.SimulationCache`,
repeated operating points collapse into one row, and the remaining rows are
integrated by the batched transient engine (:mod:`repro.spice.batch`) in
tiles of the plan's memory budget.  The plan is the one simulation path of
the library, so a sweep keys, tiles and dispatches exactly as the fused
library, historical and service flows do.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.cells.equivalent_inverter import default_arc
from repro.cells.library import Cell, TimingArc
from repro.runtime import resolve_transient_engine
from repro.runtime.accounting import RunLedger
from repro.runtime.executor import SerialExecutor
from repro.spice.stepper import StepperSpec, resolve_stepper
from repro.spice.testbench import SimulationCounter, TimingMeasurement
from repro.spice.transient import DEFAULT_STEPS
from repro.technology.node import TechnologyNode
from repro.technology.variation import VariationSample


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
        Sequence of ``(sin, cload, vdd)`` triples.  A condition repeated in
        the list is integrated once; each of its measurements still owns
        its arrays.
    counter, counter_label:
        Optional simulation-run accounting; each condition charges one run
        per seed.  Runs are charged even when the simulation cache hits --
        counters measure what a flow *requires*, the cache only saves
        wall-clock time.
    engine:
        ``"batched"`` integrates with the 2-D fixed-step RK4 engine;
        ``"adaptive"`` with the batched error-controlled RK45 engine
        (:mod:`repro.spice.adaptive`).  ``None`` (default) defers to
        ``runtime.configure(transient_engine=...)`` /
        ``REPRO_TRANSIENT_ENGINE``, falling back to ``"batched"``.
    cache:
        Whether to consult/fill the global simulation cache (``False``: no
        lookups, no puts).  Keys embed the full stepper signature, so
        fixed-step and adaptive results never collide.  Each finished tile
        goes into the cache, and through it to the durable tier when one is
        attached.
    max_bytes:
        Memory budget of one integration tile; the uncached rows are split
        into deterministic tiles integrated one after the other (rows are
        independent, so the results are identical to one pass -- for the
        adaptive engine each row's step-size controller is fully row-local,
        so this holds bit-for-bit there too).  ``None`` defers to
        ``repro.runtime.configure(max_bytes=...)`` and, when none is
        configured, to the plan's 64 MiB default tile
        (:data:`~repro.core.simulation_plan.DEFAULT_PASS_BYTES`).
    stepper:
        Explicit :class:`~repro.spice.stepper.StepperSpec` overriding the
        resolved engine's default scheme (e.g. adaptive at non-default
        tolerances).  Must be consistent with the engine: ``"rk45"`` for
        the adaptive engine, ``"rk4"`` otherwise.
    ledger:
        Optional :class:`~repro.runtime.accounting.RunLedger`; integration
        cost (steps taken/rejected, scalar RHS evaluations) of the rows
        actually simulated is accumulated into its metrics.  It receives no
        stage time and no cache activity: a caller that wants those opens
        its own windows around the sweep.

    Returns
    -------
    list of TimingMeasurement
        One measurement per condition, in the input order.
    """
    # Deferred: repro.core imports repro.spice.
    from repro.core.simulation_plan import SimulationPlan

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

    plan = SimulationPlan(technology, variation=variation, cache=cache,
                          stepper=stepper)
    plan.add_job(cell, resolved_arc, conditions)
    if plan.needs_simulation:
        # The plan's ledger also times its tiles and counts its cache puts;
        # the caller's ledger takes only the integration metrics.
        plan_ledger = RunLedger()
        plan.simulate(SerialExecutor(), plan_ledger, max_bytes=max_bytes)
        plan.finalize()
        if ledger is not None:
            for name, value in plan_ledger.metrics().items():
                ledger.add_metric(name, value)

    measurements: List[TimingMeasurement] = []
    for index, (sin, cload, vdd) in enumerate(conditions):
        # Copies: repeated conditions share one plan row.
        delay = np.array(plan.job_delays[0][index], dtype=float).reshape(-1)
        slew = np.array(plan.job_slews[0][index], dtype=float).reshape(-1)
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

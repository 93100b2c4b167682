"""Per-arc historical characterization: one sweep and one fit per arc.

The reference for
:func:`repro.core.prior_learning.characterize_historical_library`, which
puts every arc of a node into one simulation plan and fits all arcs in one
stacked least-squares solve.  Here each arc's reference conditions are swept
on their own (on the configured transient engine) and fitted with
:func:`repro.core.timing_model.fit_least_squares`.  Fits must agree with the
fused ones to the stacked solver's convergence tolerance (``rtol 1e-4``),
and counter charges exactly.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cells.equivalent_inverter import reduce_cell_cached
from repro.cells.library import Transition
from repro.characterization.input_space import InputSpace
from repro.core.prior_learning import (
    ArcFit,
    HistoricalLibraryData,
    shared_reference_conditions,
)
from repro.core.timing_model import fit_least_squares
from repro.runtime.accounting import RunLedger
from repro.spice.sweep import sweep_conditions
from repro.spice.testbench import SimulationCounter


def characterize_historical_library_per_arc(
    technology,
    cells,
    unit_conditions: Optional[np.ndarray] = None,
    transitions: Sequence[Transition] = (Transition.FALL, Transition.RISE),
    counter: Optional[SimulationCounter] = None,
    ledger: Optional[RunLedger] = None,
) -> HistoricalLibraryData:
    """Characterize one historical node arc by arc (same arguments as
    :func:`~repro.core.prior_learning.characterize_historical_library`)."""
    if unit_conditions is None:
        unit_conditions = shared_reference_conditions()
    unit_conditions = np.atleast_2d(np.asarray(unit_conditions, dtype=float))
    space = InputSpace(technology)
    lows = np.array([r[0] for r in space.ranges])
    highs = np.array([r[1] for r in space.ranges])
    physical = lows + unit_conditions * (highs - lows)
    conditions = [tuple(row) for row in physical]
    sin, cload, vdd = physical[:, 0], physical[:, 1], physical[:, 2]

    local_counter = counter if counter is not None else SimulationCounter()
    run_ledger = ledger if ledger is not None else RunLedger()
    runs_before = local_counter.total
    arc_fits = []
    for cell in cells:
        for transition in transitions:
            arc = cell.arc(cell.input_pins[0], Transition(transition))
            with run_ledger.stage("priors:simulate"):
                measurements = sweep_conditions(
                    cell, technology, conditions, arc=arc,
                    counter=local_counter,
                    counter_label=f"historical:{technology.name}:{cell.name}")
            with run_ledger.stage("priors:fit"):
                inverter = reduce_cell_cached(cell, technology, arc=arc)
                ieff = np.asarray(inverter.effective_current(vdd),
                                  dtype=float).reshape(-1)
                delays = np.array([m.nominal_delay() for m in measurements])
                slews = np.array([m.nominal_slew() for m in measurements])
                arc_fits.append(ArcFit(
                    cell_name=cell.name, arc_name=arc.name,
                    delay_fit=fit_least_squares(sin, cload, vdd, ieff, delays),
                    slew_fit=fit_least_squares(sin, cload, vdd, ieff, slews)))
    runs = local_counter.total - runs_before
    run_ledger.add_simulations(runs, label=f"priors:{technology.name}")
    return HistoricalLibraryData(
        technology_name=technology.name,
        unit_conditions=unit_conditions,
        arc_fits=tuple(arc_fits),
        delay_residuals=np.mean([fit.delay_fit.residuals for fit in arc_fits],
                                axis=0),
        slew_residuals=np.mean([fit.slew_fit.residuals for fit in arc_fits],
                               axis=0),
        simulation_runs=runs,
    )

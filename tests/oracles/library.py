"""Per-arc library characterization: one StatisticalCharacterizer per arc.

The reference for :func:`repro.core.library_flow.characterize_library`.  It
draws the seed batch and every arc's fitting conditions exactly as the
library flow does, then characterizes each arc on its own -- one transient
sweep and two MAP solves per arc -- with a per-arc ledger merged in job
order.  Entries, counter charges and ledger run counts must equal the fused
pipeline's.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cells.equivalent_inverter import reduce_cell_cached
from repro.cells.library import StandardCellLibrary, Transition
from repro.characterization.input_space import InputSpace
from repro.core.library_flow import (
    LibraryArcCharacterization,
    LibraryCharacterization,
)
from repro.core.statistical_flow import StatisticalCharacterizer
from repro.runtime.accounting import RunLedger
from repro.spice.testbench import SimulationCounter
from repro.utils.rng import ensure_rng


def characterize_library_per_arc(
    technology,
    library,
    delay_prior,
    slew_prior,
    conditions=4,
    n_seeds: int = 200,
    transitions: Sequence[Transition] = (Transition.FALL, Transition.RISE),
    input_pins: str = "first",
    variation=None,
    rng=None,
    counter: Optional[SimulationCounter] = None,
    solver: str = "batched",
    ledger: Optional[RunLedger] = None,
    max_bytes: Optional[int] = None,
    transient_engine: Optional[str] = None,
) -> LibraryCharacterization:
    """Characterize every requested arc one at a time (same arguments as
    :func:`~repro.core.library_flow.characterize_library`)."""
    cells = list(library)
    library_name = (library.name if isinstance(library, StandardCellLibrary)
                    else f"{technology.name}_cells")
    generator = ensure_rng(rng)
    if variation is None:
        variation = technology.variation.sample(int(n_seeds), generator)
    jobs = []
    for cell in cells:
        pins = cell.input_pins if input_pins == "all" else cell.input_pins[:1]
        for pin in pins:
            for transition in transitions:
                jobs.append((cell, cell.arc(pin, Transition(transition))))
    space = InputSpace(technology)
    if isinstance(conditions, int):
        job_conditions = [space.sample_lhs(conditions, generator) for _ in jobs]
    else:
        job_conditions = [list(conditions) for _ in jobs]

    run_ledger = ledger if ledger is not None else RunLedger()
    entries = []
    total_runs = 0
    with run_ledger.stage("characterize_library"):
        for (cell, arc), arc_conditions in zip(jobs, job_conditions):
            arc_ledger = RunLedger()
            characterizer = StatisticalCharacterizer(
                technology, cell, delay_prior, slew_prior, arc=arc,
                n_seeds=variation.n_seeds, solver=solver, ledger=arc_ledger,
                max_bytes=max_bytes, transient_engine=transient_engine)
            characterizer.use_variation(variation)
            result = characterizer.characterize(list(arc_conditions))
            run_ledger.merge(arc_ledger)
            if counter is not None:
                counter.add(result.simulation_runs,
                            label=f"library:{cell.name}:{arc.name}")
            total_runs += result.simulation_runs
            nominal = reduce_cell_cached(cell, technology, arc=arc)
            entries.append(LibraryArcCharacterization(
                cell_name=cell.name,
                arc=arc,
                statistical=result,
                input_cap_f=float(np.mean(np.asarray(nominal.input_cap))),
                function=cell.function,
                area=cell.total_device_width_um(),
            ))
    return LibraryCharacterization(
        library_name=library_name,
        technology_name=technology.name,
        vdd_nominal=technology.vdd_nominal,
        slew_range=tuple(technology.slew_range),
        cload_range=tuple(technology.cload_range),
        n_seeds=variation.n_seeds,
        solver=solver,
        concurrency="serial",
        simulation_runs=total_runs,
        entries=tuple(entries),
        ledger=run_ledger,
    )

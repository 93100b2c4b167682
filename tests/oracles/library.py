"""Per-arc statistical characterization: one sweep and two MAP solves per arc.

The reference for the fused pipeline
(:func:`repro.core.library_flow.characterize_fused_jobs`), which runs both
:func:`~repro.core.library_flow.characterize_library` and the one-arc
:class:`~repro.core.statistical_flow.StatisticalCharacterizer`.

* :func:`sweep_arc` is the simulate stage of one arc:
  :func:`~repro.spice.sweep.sweep_conditions` over its ``k`` fitting
  conditions, turned into the (delay, slew) MAP observation blocks by
  :func:`~repro.core.statistical_flow.arc_observation_pair`.
* :func:`sweep_and_extract` adds the extract stage, one
  :func:`~repro.core.batch_map.map_estimate_batch` per response, with
  ``simulate`` / ``extract`` ledger stages.
* :func:`characterize_library_per_arc` draws the seed batch and every arc's
  fitting conditions exactly as the library flow does, then runs
  :func:`sweep_and_extract` arc by arc with a per-arc ledger merged in job
  order.

Entries, counter charges and ledger run counts must equal the fused
pipeline's.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cells.equivalent_inverter import reduce_cell_cached
from repro.cells.library import StandardCellLibrary, Transition
from repro.characterization.input_space import InputSpace
from repro.core.batch_map import map_estimate_batch
from repro.core.library_flow import (
    LibraryArcCharacterization,
    LibraryCharacterization,
)
from repro.core.statistical_flow import (
    StatisticalCharacterization,
    arc_observation_pair,
)
from repro.runtime.accounting import RunLedger
from repro.spice.sweep import sweep_conditions
from repro.spice.testbench import SimulationCounter
from repro.utils.rng import ensure_rng


def sweep_arc(technology, cell, arc, delay_prior, slew_prior, conditions,
              variation, counter: Optional[SimulationCounter] = None,
              ledger: Optional[RunLedger] = None,
              max_bytes: Optional[int] = None,
              transient_engine: Optional[str] = None):
    """Simulate one arc: ``(inverter, delay_obs, slew_obs, runs)``.

    The counter is charged ``k * n_seeds`` runs under
    ``proposed_statistical:<cell>``.
    """
    conditions = list(conditions)
    ledger = ledger if ledger is not None else RunLedger()
    inverter = reduce_cell_cached(cell, technology, arc=arc,
                                  variation=variation)
    runs_before = counter.total if counter is not None else 0
    with ledger.stage("simulate"), ledger.caches():
        measurements = sweep_conditions(
            cell, technology, [c.as_tuple() for c in conditions],
            arc=arc, variation=variation, counter=counter,
            counter_label=f"proposed_statistical:{cell.name}",
            engine=transient_engine, max_bytes=max_bytes, ledger=ledger)
    runs = ((counter.total - runs_before) if counter is not None
            else len(conditions) * variation.n_seeds)
    ledger.add_simulations(runs, label=f"proposed_statistical:{cell.name}")

    delay_matrix = np.stack([np.asarray(m.delay).reshape(-1)
                             for m in measurements], axis=0)
    slew_matrix = np.stack([np.asarray(m.output_slew).reshape(-1)
                            for m in measurements], axis=0)
    delay_obs, slew_obs = arc_observation_pair(
        technology, inverter, conditions, delay_prior, slew_prior,
        delay_matrix, slew_matrix)
    return inverter, delay_obs, slew_obs, runs


def sweep_and_extract(technology, cell, arc, delay_prior, slew_prior,
                      conditions, variation,
                      counter: Optional[SimulationCounter] = None,
                      ledger: Optional[RunLedger] = None,
                      max_bytes: Optional[int] = None,
                      transient_engine: Optional[str] = None
                      ) -> StatisticalCharacterization:
    """Characterize one arc: :func:`sweep_arc`, then one seed-vectorized
    MAP solve per response."""
    conditions = list(conditions)
    ledger = ledger if ledger is not None else RunLedger()
    inverter, delay_obs, slew_obs, runs = sweep_arc(
        technology, cell, arc, delay_prior, slew_prior, conditions,
        variation, counter=counter, ledger=ledger, max_bytes=max_bytes,
        transient_engine=transient_engine)
    with ledger.stage("extract"):
        delay_result = map_estimate_batch(delay_prior, delay_obs,
                                          max_bytes=max_bytes)
        slew_result = map_estimate_batch(slew_prior, slew_obs,
                                         max_bytes=max_bytes)
        ledger.add_metric("solver_iterations",
                          int(delay_result.n_iterations.sum()
                              + slew_result.n_iterations.sum()))
    return StatisticalCharacterization(
        cell_name=cell.name,
        arc_name=arc.name,
        delay_parameters=delay_result.parameters,
        slew_parameters=slew_result.parameters,
        inverter=inverter,
        fitting_conditions=tuple(conditions),
        simulation_runs=runs,
        delay_converged=delay_result.converged,
        slew_converged=slew_result.converged,
    )


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
            result = sweep_and_extract(
                technology, cell, arc, delay_prior, slew_prior,
                arc_conditions, variation, ledger=arc_ledger,
                max_bytes=max_bytes, transient_engine=transient_engine)
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
        concurrency="serial",
        simulation_runs=total_runs,
        entries=tuple(entries),
        ledger=run_ledger,
    )

"""Library-scale statistical characterization orchestrator.

A real library job characterizes *every cell and arc* of a standard-cell
library against one learned prior.  This module orchestrates that workload,
and its fused pipeline (:func:`characterize_fused_jobs`) is the one
production path of statistical characterization: the single-arc
:class:`~repro.core.statistical_flow.StatisticalCharacterizer` is a
one-job call of it.  What a library run adds:

* one shared Monte Carlo seed batch, so every arc's per-seed parameters are
  statistically comparable (and SSTA can correlate them seed-by-seed);
* fitting conditions drawn once, deterministically, in job order -- results
  are bit-identical no matter how the jobs are executed;
* the learned priors, the equivalent-inverter reduction cache and the global
  :class:`~repro.spice.testbench.SimulationCache` are shared across arcs;
* execution through the pluggable runtime executor
  (:mod:`repro.runtime.executor`): ``concurrency="serial"`` shares the
  in-process caches and ``"process"`` fans the simulation tiles out over a
  process pool;
* simulation-run accounting identical to characterizing each arc on its
  own: each arc charges ``k * n_seeds`` runs under a ``library:<cell>:<arc>``
  label, whichever execution mode ran it, and
  :class:`~repro.runtime.accounting.RunLedger` records merge into one
  library-level ledger in deterministic order.

The pipeline flattens every ``(cell, arc, condition)`` of the library into
one global simulation plan.  Rows first consult the simulation cache; rows
that are physically identical (same *equivalent-inverter simulation
signature*, see
:meth:`repro.cells.equivalent_inverter.EquivalentInverter.simulation_signature`,
and same operating point, e.g. footprint twins on a shared condition grid)
are integrated exactly once and scattered to every arc that needs them.
What remains is one flat row table integrated in one pass, whatever the
cells and polarities, tiled on the row axis only by the memory budget and
the executor's shard hint (better process-pool load balance than whole-arc
fan-out) -- and all extractions land in a single stacked, block-diagonal MAP
solve (:func:`repro.core.batch_map.map_estimate_stacked`).  Its results,
counter charges and ledger run counts are those of characterizing each arc
on its own with one sweep and two MAP solves, the per-arc reference kept in
``tests/oracles/library.py``.

A killed run resumes by running again.  With the durable cache tier
attached (``runtime.configure(disk_cache_dir=...)``), every finished
simulation tile is already on disk; the rerun reads those rows back as disk
hits, integrates the rest and repeats the stacked solve.  Cache keys cover
the cell, technology, arc, seed batch, operating point and stepper, so
changed inputs simply miss, and the solve is block-independent per arc, so
the rerun is bit-identical to an uninterrupted run.

The resulting :class:`LibraryCharacterization` feeds the downstream
consumers directly: :meth:`LibraryCharacterization.liberty_writer` emits a
Liberty library with NLDM mean tables plus LVF-style sigma tables, and
:meth:`LibraryCharacterization.timing_view` builds the per-seed
:class:`~repro.sta.timing_view.StatisticalTimingView` Monte Carlo SSTA
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cells.equivalent_inverter import reduce_cell_cached
from repro.cells.library import Cell, StandardCellLibrary, TimingArc, Transition
from repro.characterization.input_space import InputCondition, InputSpace
from repro.core.batch_map import (
    map_estimate_batch,
    map_estimate_stacked,
    repair_batch_result,
)
from repro.core.prior_learning import TimingPrior
from repro.core.simulation_plan import SimulationPlan
from repro.core.statistical_flow import (
    StatisticalCharacterization,
    arc_observation_pair,
)
from repro.liberty.tables import NldmTable
from repro.liberty.writer import CellTimingData, LibertyWriter, TimingTableSet
from repro.runtime.accounting import RunLedger
from repro.runtime.executor import EXECUTOR_MODES, get_executor
from repro.runtime.resilience import FailureReport, RetryPolicy, resolve_strict
from repro.spice.stepper import StepperSpec, resolve_stepper
from repro.spice.testbench import SimulationCounter
from repro.technology.node import TechnologyNode
from repro.technology.variation import VariationSample
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.units import NANO, PICO

#: Execution modes of :func:`characterize_library` (the runtime executor's).
CONCURRENCY_MODES = EXECUTOR_MODES


@dataclass(frozen=True)
class LibraryArcCharacterization:
    """One characterized (cell, arc) entry of a library run.

    Attributes
    ----------
    cell_name:
        Owning cell.
    arc:
        The characterized timing arc.
    statistical:
        Per-seed extraction result for the arc.
    input_cap_f:
        Nominal input-pin capacitance of the arc's switching pin, farads.
    function:
        Boolean function of the cell output (for Liberty emission).
    area:
        Cell area proxy (total device width, square micrometres).
    """

    cell_name: str
    arc: TimingArc
    statistical: StatisticalCharacterization
    input_cap_f: float
    function: str
    area: float


@dataclass(frozen=True)
class LibraryCharacterization:
    """Statistical characterization of a whole cell library.

    Attributes
    ----------
    library_name, technology_name:
        Identification of the characterized library and target node.
    vdd_nominal:
        Nominal supply of the target technology (default table supply).
    slew_range, cload_range:
        Input-space ranges of the target technology (default table axes).
    n_seeds:
        Monte Carlo seeds shared by every arc.
    concurrency:
        How the simulation tiles were fanned out.
    simulation_runs:
        Total simulator invocations across all arcs.
    entries:
        One :class:`LibraryArcCharacterization` per characterized arc, in
        deterministic (cell, arc) order.
    ledger:
        Unified :class:`~repro.runtime.accounting.RunLedger` of the run:
        per-arc ledgers merged in job order plus the orchestrator's own
        stage timings (identical accounting across execution modes).
    failures:
        Structured :class:`~repro.runtime.resilience.FailureReport` records
        of arcs that degraded (quarantined rows, repaired solves) or failed
        outright under ``strict=False``; empty on a clean or strict run.
        Arcs named here but absent from :attr:`entries` failed completely.
    """

    library_name: str
    technology_name: str
    vdd_nominal: float
    slew_range: Tuple[float, float]
    cload_range: Tuple[float, float]
    n_seeds: int
    concurrency: str
    simulation_runs: int
    entries: Tuple[LibraryArcCharacterization, ...]
    ledger: Optional[RunLedger] = field(default=None, compare=False)
    failures: Tuple[FailureReport, ...] = ()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def failed_units(self) -> List[str]:
        """``cell:arc`` labels that degraded or failed, in report order."""
        seen: List[str] = []
        for report in self.failures:
            if report.unit not in seen:
                seen.append(report.unit)
        return seen
    def cell_names(self) -> List[str]:
        """Characterized cell names in deterministic order."""
        names: List[str] = []
        for entry in self.entries:
            if entry.cell_name not in names:
                names.append(entry.cell_name)
        return names

    def arcs_of(self, cell_name: str) -> List[LibraryArcCharacterization]:
        """All characterized arcs of one cell."""
        found = [e for e in self.entries if e.cell_name == cell_name]
        if not found:
            raise KeyError(f"no characterized arcs for cell {cell_name!r}")
        return found

    def get(self, cell_name: str, arc_name: Optional[str] = None
            ) -> LibraryArcCharacterization:
        """One entry by cell (and optionally arc) name."""
        for entry in self.arcs_of(cell_name):
            if arc_name is None or entry.arc.name == arc_name:
                return entry
        raise KeyError(f"cell {cell_name!r} has no characterized arc {arc_name!r}")

    def input_capacitances(self) -> Dict[str, float]:
        """Nominal input capacitance per cell (first characterized arc)."""
        return {name: self.arcs_of(name)[0].input_cap_f
                for name in self.cell_names()}

    def unconverged_arcs(self) -> List[str]:
        """Arc names with at least one unconverged extraction seed."""
        return [entry.arc.name for entry in self.entries
                if entry.statistical.unconverged_seeds().size > 0]

    # ------------------------------------------------------------------
    # Downstream consumers
    # ------------------------------------------------------------------
    def timing_view(self, vdd: Optional[float] = None,
                    transition: Transition = Transition.FALL
                    ) -> "StatisticalTimingView":
        """Per-seed timing view for Monte Carlo SSTA.

        Picks, per cell, the characterized arc with the requested output
        transition (the first one in entry order).  All arcs share the seed
        batch, so the view's per-seed samples stay correlated across cells.
        """
        # Deferred: repro.sta pulls in the analysis/experiments packages,
        # which import repro.core back (cycle at package-init time only).
        from repro.sta.timing_view import timing_view_from_statistical

        vdd = float(vdd) if vdd is not None else self.vdd_nominal
        characterizations: Dict[str, StatisticalCharacterization] = {}
        input_caps: Dict[str, float] = {}
        for name in self.cell_names():
            matching = [e for e in self.arcs_of(name)
                        if e.arc.output_transition is Transition(transition)]
            if not matching:
                raise KeyError(
                    f"cell {name!r} has no characterized "
                    f"{Transition(transition).value} arc")
            characterizations[name] = matching[0].statistical
            input_caps[name] = matching[0].input_cap_f
        return timing_view_from_statistical(characterizations, input_caps, vdd=vdd)

    def liberty_writer(self, vdd: Optional[float] = None,
                       n_slew: int = 4, n_cap: int = 4,
                       library_name: Optional[str] = None) -> LibertyWriter:
        """Liberty export: NLDM mean tables plus LVF-style sigma tables.

        Every characterized arc becomes one ``timing`` group of its cell with
        ``cell_rise``/``cell_fall`` (mean delay), transition (mean slew) and
        ``ocv_sigma`` (delay standard deviation) tables evaluated on an
        ``n_slew x n_cap`` grid at the given supply.  Use
        ``.render()`` / ``.write(path)`` on the returned writer.
        """
        vdd = float(vdd) if vdd is not None else self.vdd_nominal
        slew_axis = np.linspace(self.slew_range[0], self.slew_range[1], n_slew)
        cap_axis = np.linspace(self.cload_range[0], self.cload_range[1], n_cap)
        writer = LibertyWriter(
            library_name or f"repro_{self.technology_name}", nominal_voltage=vdd)
        grid = [InputCondition(sin=float(s), cload=float(c), vdd=vdd)
                for s in slew_axis for c in cap_axis]
        shape = (slew_axis.size, cap_axis.size)

        for cell_name in self.cell_names():
            arcs: List[TimingTableSet] = []
            for entry in self.arcs_of(cell_name):
                stats = entry.statistical.predict_statistics(grid)

                def table(values: np.ndarray) -> NldmTable:
                    return NldmTable(
                        input_slews_ns=slew_axis / NANO,
                        load_caps_pf=cap_axis / PICO,
                        values_ns=values.reshape(shape) / NANO,
                    )

                arcs.append(TimingTableSet(
                    related_pin=entry.arc.input_pin,
                    output_transition=entry.arc.output_transition,
                    delay=table(stats["mu_delay"]),
                    transition=table(stats["mu_slew"]),
                    sigma_delay=table(stats["sigma_delay"]),
                ))
            first = self.arcs_of(cell_name)[0]
            # Per-pin capacitances from each pin's own characterized arcs
            # (pins can present different gate widths on asymmetric cells).
            pin_caps = {entry.arc.input_pin: entry.input_cap_f / PICO
                        for entry in self.arcs_of(cell_name)}
            writer.add_cell(CellTimingData(
                name=cell_name,
                function=first.function,
                input_pin_caps_pf=dict(sorted(pin_caps.items())),
                arcs=arcs,
                area=first.area,
            ))
        return writer


def _arc_jobs(cells: Sequence[Cell], transitions: Sequence[Transition],
              input_pins: str) -> List[Tuple[Cell, TimingArc]]:
    """Deterministic (cell, arc) job list."""
    jobs: List[Tuple[Cell, TimingArc]] = []
    for cell in cells:
        pins = cell.input_pins if input_pins == "all" else cell.input_pins[:1]
        for pin in pins:
            for transition in transitions:
                jobs.append((cell, cell.arc(pin, Transition(transition))))
    return jobs


def characterize_fused_jobs(
    technology: TechnologyNode,
    jobs: List[Tuple[Cell, TimingArc]],
    job_conditions: List[List[InputCondition]],
    delay_prior: TimingPrior,
    slew_prior: TimingPrior,
    variation: VariationSample,
    solver: str,
    executor,
    ledger: RunLedger,
    max_bytes: Optional[int],
    strict: bool = True,
    stepper: Optional[StepperSpec] = None,
) -> "Tuple[List[Optional[StatisticalCharacterization]], List[FailureReport]]":
    """The fused library pipeline: plan -> one tiled pass -> stacked solve.

    The one production path of statistical characterization: a library run,
    the characterization service and a single-arc
    :class:`~repro.core.statistical_flow.StatisticalCharacterizer` (a
    one-job call) all go through it.  The planning/integration half is the
    shared :class:`~repro.core.simulation_plan.SimulationPlan` (also driving
    historical characterization for prior learning); see the module
    docstring for the design.  The characterization service
    (:mod:`repro.runtime.service`) drives it with coalesced job lists that
    need not share a condition count -- full-condition jobs are stacked per
    distinct ``k`` (one block-diagonal solve per group; blocks are
    independent, so the grouping is bit-identical to solving any other
    way).

    ``solver`` must be ``"batched"``, the stacked seed-vectorized MAP
    solve; any other value raises :class:`ValueError`.

    With ``strict=False`` the pipeline degrades per row instead of aborting:
    broken simulation rows are quarantined by the transient engine, arcs
    with surviving conditions are extracted from the reduced set (their
    stacked-solve peers keep their full blocks, bit-identical to a clean
    run), arcs with no surviving conditions come back as ``None``, and every
    degradation is described by a :class:`FailureReport` in the second
    return value.

    ``stepper=None`` integrates with the configured transient engine
    (``runtime.configure(transient_engine=...)``), resolved by the plan.
    """
    if solver != "batched":
        raise ValueError(f"solver must be 'batched', got {solver!r}")
    n_seeds = variation.n_seeds
    failures: List[FailureReport] = []

    # ------------------------------------------------------------------
    # Plan: resolve reductions, consult the simulation cache per row, and
    # dedup the rows that still need integrating by inverter signature.
    # The plan consults the reduction cache and the simulation cache per
    # row; recording its cache deltas keeps the fused ledger as observable
    # as a per-arc characterizer's (which wraps its sweeps in ledger.caches()).
    # ------------------------------------------------------------------
    plan = SimulationPlan(technology, variation=variation,
                          integrate_stage="fused:integrate",
                          on_failure="raise" if strict else "quarantine",
                          stepper=stepper)
    with ledger.stage("fused:plan"), ledger.caches():
        for job, (cell, arc) in enumerate(jobs):
            plan.add_job(cell, arc, [condition.as_tuple()
                                     for condition in job_conditions[job]])
        plan.record_metrics(ledger, prefix="fused")
    inverters = plan.inverters
    job_delays = plan.job_delays
    job_slews = plan.job_slews

    # ------------------------------------------------------------------
    # Simulate: the whole row table is one pass, tiled on the flat row axis
    # by the memory budget and the executor's shard hint (rows are
    # independent, so any tiling reproduces the one-pass results).
    # ------------------------------------------------------------------
    if plan.needs_simulation:
        with ledger.stage("fused:simulate"):
            plan.simulate(executor, ledger, max_bytes=max_bytes)
        plan.finalize()

    # ------------------------------------------------------------------
    # Account: each arc requires k * n_seeds runs whether its rows were
    # simulated or replayed from the cache (identical to the per-arc flow).
    # ------------------------------------------------------------------
    for job, (cell, arc) in enumerate(jobs):
        ledger.add_simulations(len(job_conditions[job]) * n_seeds,
                               label=f"proposed_statistical:{cell.name}")

    # ------------------------------------------------------------------
    # Quarantine bookkeeping: each job keeps the conditions whose rows
    # simulated cleanly (all of them on a clean or strict run).  A degraded
    # arc fits on its surviving conditions; an arc with none is dropped.
    # ------------------------------------------------------------------
    job_kept: List[Optional[List[int]]] = []
    for job, (cell, arc) in enumerate(jobs):
        kept, report = plan.kept_conditions(job, f"{cell.name}:{arc.name}")
        if report is not None:
            failures.append(report)
        job_kept.append(kept)

    # ------------------------------------------------------------------
    # Extract: stack every arc's seed batch into one block-diagonal MAP
    # solve per response.
    # ------------------------------------------------------------------
    space = InputSpace(technology)
    delay_obs_of: Dict[int, object] = {}
    slew_obs_of: Dict[int, object] = {}
    stacked_jobs: List[int] = []
    degraded_jobs: List[int] = []
    with ledger.stage("fused:extract"):
        for job, (cell, arc) in enumerate(jobs):
            kept = job_kept[job]
            if kept is None:
                continue
            delay_obs, slew_obs = arc_observation_pair(
                technology, inverters[job],
                [job_conditions[job][cond] for cond in kept],
                delay_prior, slew_prior,
                np.stack([job_delays[job][cond] for cond in kept], axis=0),
                np.stack([job_slews[job][cond] for cond in kept], axis=0),
                space=space)
            delay_obs_of[job] = delay_obs
            slew_obs_of[job] = slew_obs
            if len(kept) == len(job_conditions[job]):
                stacked_jobs.append(job)
            else:
                degraded_jobs.append(job)
    delay_results: Dict[int, object] = {}
    slew_results: Dict[int, object] = {}
    with ledger.stage("fused:solve"):
        # The stacked solver needs a uniform condition count k across
        # its blocks; coalesced workloads (the serving front door) mix
        # requests with different k, so stack once per distinct k.
        # Blocks are independent, so the partition cannot change any
        # arc's numbers.
        by_k: Dict[int, List[int]] = {}
        for job in stacked_jobs:
            by_k.setdefault(len(job_conditions[job]), []).append(job)
        for k_jobs in by_k.values():
            delay_results.update(zip(k_jobs, map_estimate_stacked(
                delay_prior, [delay_obs_of[job] for job in k_jobs],
                max_bytes=max_bytes)))
            slew_results.update(zip(k_jobs, map_estimate_stacked(
                slew_prior, [slew_obs_of[job] for job in k_jobs],
                max_bytes=max_bytes)))
        # Degraded arcs carry fewer conditions than the stacked blocks
        # (which need a uniform k), so each gets its own solve; blocks
        # are independent rows either way, so their stacked peers stay
        # bit-identical to a clean run.
        for job in degraded_jobs:
            delay_results[job] = map_estimate_batch(
                delay_prior, delay_obs_of[job], max_bytes=max_bytes)
            slew_results[job] = map_estimate_batch(
                slew_prior, slew_obs_of[job], max_bytes=max_bytes)
        ledger.add_metric(
            "solver_iterations",
            int(sum(int(result.n_iterations.sum())
                    for result in delay_results.values())
                + sum(int(result.n_iterations.sum())
                      for result in slew_results.values())))
    if not strict:
        # Corrupted-solve fallback chain (solve -> re-solve of the broken
        # seed rows -> prior mean).  A clean result passes through as the
        # same object, so nothing here perturbs the fault-free path.
        for job in sorted(delay_results):
            cell, arc = jobs[job]
            for response, results_map, obs_of, prior in (
                    ("delay", delay_results, delay_obs_of, delay_prior),
                    ("slew", slew_results, slew_obs_of, slew_prior)):
                result = results_map[job]
                repaired = repair_batch_result(
                    result, obs_of[job], prior, ledger=ledger)
                if repaired is not result:
                    results_map[job] = repaired
                    broken = int(np.count_nonzero(
                        ~np.all(np.isfinite(result.parameters), axis=1)))
                    failures.append(FailureReport(
                        unit=f"{cell.name}:{arc.name}", stage="extract",
                        error=(f"{response} solve produced {broken} "
                               f"non-finite seed rows; repaired by "
                               f"re-solving them (prior mean where the "
                               f"re-solve failed too)"),
                        error_type="RepairedSolve"))
    characterizations: List[Optional[StatisticalCharacterization]] = []
    for job, (cell, arc) in enumerate(jobs):
        if job not in delay_results:
            characterizations.append(None)
            continue
        runs = len(job_conditions[job]) * n_seeds
        characterizations.append(StatisticalCharacterization(
            cell_name=cell.name,
            arc_name=arc.name,
            delay_parameters=delay_results[job].parameters,
            slew_parameters=slew_results[job].parameters,
            inverter=inverters[job],
            fitting_conditions=tuple(job_conditions[job][cond]
                                     for cond in job_kept[job]),
            simulation_runs=runs,
            delay_converged=delay_results[job].converged,
            slew_converged=slew_results[job].converged,
        ))
    return characterizations, failures


def characterize_library(
    technology: TechnologyNode,
    library: Union[StandardCellLibrary, Sequence[Cell]],
    delay_prior: TimingPrior,
    slew_prior: TimingPrior,
    conditions: Union[int, Sequence[InputCondition]] = 4,
    n_seeds: int = 200,
    transitions: Sequence[Transition] = (Transition.FALL, Transition.RISE),
    input_pins: str = "first",
    variation: Optional[VariationSample] = None,
    rng: RandomState = None,
    counter: Optional[SimulationCounter] = None,
    concurrency: str = "serial",
    max_workers: Optional[int] = None,
    ledger: Optional[RunLedger] = None,
    max_bytes: Optional[int] = None,
    strict: Optional[bool] = None,
    retry_policy: Optional[RetryPolicy] = None,
    transient_engine: Optional[str] = None,
) -> LibraryCharacterization:
    """Statistically characterize every requested arc of a cell library.

    Parameters
    ----------
    technology:
        Target technology node.
    library:
        A :class:`StandardCellLibrary` or a plain cell sequence.
    delay_prior, slew_prior:
        Learned priors shared by every arc.
    conditions:
        Number of fitting conditions per arc (drawn per arc by Latin
        hypercube from the orchestrator's ``rng``) or one explicit condition
        list shared by all arcs.
    n_seeds:
        Monte Carlo seeds (ignored when ``variation`` is given).
    transitions:
        Output transitions to characterize per input pin.
    input_pins:
        ``"first"`` (one switching pin per cell, the paper's convention) or
        ``"all"``.
    variation:
        Optional explicit seed batch shared by every arc.
    rng:
        Random source for seed sampling and condition selection.
    counter:
        Optional simulation-run accounting; every arc charges
        ``k * n_seeds`` runs under ``library:<cell>:<arc>``, identically in
        both execution modes.
    concurrency:
        Runtime executor mode: ``"serial"`` (default; shares the in-process
        simulation cache) or ``"process"`` (fans tiles of the *flat
        simulation axis* out over a process pool -- better load balance
        than whole-arc jobs, since arcs of very different cost split
        evenly).  Results are deterministic and identical across modes: the
        seed batch and every arc's fitting conditions are fixed in the
        parent before dispatch.
    max_workers:
        Process-pool size for ``concurrency="process"``.
    ledger:
        Optional :class:`~repro.runtime.accounting.RunLedger`; per-arc
        ledgers (stage wall time, simulation runs, solver iterations,
        cache activity) merge into it in job order, identically in every
        execution mode.  The merged record is also attached to the result.
    max_bytes:
        Memory budget threaded to every arc's batched engines (explicitly,
        so process workers honor it too); ``None`` defers each process to
        its own ``repro.runtime.configure(max_bytes=...)``.
    strict:
        ``True`` (the default, also via ``REPRO_STRICT``) fails fast on the
        first broken arc, exactly the pre-resilience behavior.  ``False``
        degrades gracefully: broken simulation rows are quarantined, arcs
        re-fit on their surviving conditions, corrupted solves re-solve
        their broken seed rows (falling back to the prior mean), and arcs
        that still fail are dropped -- every degradation lands as a
        :class:`~repro.runtime.resilience.FailureReport` on the result's
        ``failures`` and the ledger.  Non-faulted arcs are bit-identical
        between the two modes.
    retry_policy:
        Optional :class:`~repro.runtime.resilience.RetryPolicy` re-running
        a failed simulation tile at the executor before it counts as
        broken; ``None`` disables retries.
    transient_engine:
        Transient integration engine of the simulate phase: ``"batched"``
        (fixed-step lockstep RK4) or ``"adaptive"`` (error-controlled RK45;
        typically 3x+ fewer RHS evaluations at equal accuracy).  ``None``
        defers to ``runtime.configure(transient_engine=...)`` /
        ``REPRO_TRANSIENT_ENGINE``.  The engine's stepper signature is part
        of every simulation-cache key.

    Raises
    ------
    ValueError
        On an empty library or invalid mode switches.
    """
    if concurrency not in CONCURRENCY_MODES:
        raise ValueError(
            f"concurrency must be one of {CONCURRENCY_MODES}, got {concurrency!r}")
    if input_pins not in ("first", "all"):
        raise ValueError(f"input_pins must be 'first' or 'all', got {input_pins!r}")
    cells = list(library)
    if not cells:
        raise ValueError("the library has no cells to characterize")
    library_name = (library.name if isinstance(library, StandardCellLibrary)
                    else f"{technology.name}_cells")

    generator = ensure_rng(rng)
    if variation is None:
        variation = technology.variation.sample(int(n_seeds), generator)
    if variation.n_seeds < 2:
        raise ValueError("library characterization needs at least 2 seeds")

    jobs = _arc_jobs(cells, transitions, input_pins)
    space = InputSpace(technology)
    if isinstance(conditions, int):
        # Per-arc condition draws happen in job order *before* any dispatch,
        # so serial and process execution see identical inputs.
        job_conditions = [space.sample_lhs(conditions, generator) for _ in jobs]
    else:
        shared = list(conditions)
        if not shared:
            raise ValueError("at least one fitting condition is required")
        job_conditions = [shared for _ in jobs]

    strict_mode = resolve_strict(strict)
    run_ledger = ledger if ledger is not None else RunLedger()
    stepper = resolve_stepper(transient_engine)

    executor = get_executor(concurrency, max_workers=max_workers,
                            retry_policy=retry_policy)
    with run_ledger.stage("characterize_library"):
        results, failures = characterize_fused_jobs(
            technology, jobs, job_conditions, delay_prior, slew_prior,
            variation, "batched", executor, run_ledger, max_bytes,
            strict=strict_mode, stepper=stepper)

    entries: List[LibraryArcCharacterization] = []
    total_runs = 0
    for (cell, arc), result in zip(jobs, results):
        if result is None:
            continue
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
    for report in failures:
        run_ledger.add_failure(report)
    if strict_mode and failures:
        # characterize_fused_jobs fails fast under strict mode; this is a
        # defensive backstop, not a reachable path.
        raise RuntimeError(f"strict run recorded failures: "
                           f"{[f.describe() for f in failures]}")
    if not entries:
        raise RuntimeError(
            "no arcs survived characterization; failures: "
            + "; ".join(report.describe() for report in failures))

    return LibraryCharacterization(
        library_name=library_name,
        technology_name=technology.name,
        vdd_nominal=technology.vdd_nominal,
        slew_range=tuple(technology.slew_range),
        cload_range=tuple(technology.cload_range),
        n_seeds=variation.n_seeds,
        concurrency=concurrency,
        simulation_runs=total_runs,
        entries=tuple(entries),
        ledger=run_ledger,
        failures=tuple(failures),
    )

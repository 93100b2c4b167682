"""Global simulation planning over one flat row table.

The one simulation path of the library: flatten every ``(cell, arc,
condition)`` of a workload into one global plan, consult the simulation
cache per row, dedup physically identical rows, and integrate what is left
in one transient pass per plan.  It has three callers -- the fused library
pipeline (:mod:`repro.core.library_flow`, which also serves the
characterization service), historical characterization for prior learning
(:mod:`repro.core.prior_learning`) and the condition sweep
(:func:`repro.spice.sweep.sweep_conditions`, a one-job plan) -- and it is
the only code that keys the simulation cache, tiles a pass and picks the
transient engine.  Each row is keyed by its *equivalent-inverter simulation
signature* (footprint-equivalent cells reduce to bit-identical inverters)
plus its operating point: rows with equal keys are the same simulation and
integrate once for all of them.  The signature is only that dedup key and
never splits the pass: every cache-missing, deduplicated row of the plan
goes into one *row table* (one equivalent inverter per row; see
:mod:`repro.spice.batch`), so rows of different cells and output polarities
share one integration.

A plan has one technology, one variation sample and one stepper, so the
whole table is one pass, tiled on the flat row axis only by the memory
budget and the executor's shard hint.  The budget is the configured
``runtime`` ``max_bytes`` or, when none is configured,
:data:`DEFAULT_PASS_BYTES` measured per row at the stepper's step count --
with :func:`~repro.spice.batch.transient_item_bytes` for the fixed-step
engine (about 1,000 rows at 200 seeds and the default 400 steps, so a
historical node, a service batch, a sweep and a 20-cell library pass are
each a single pass) and with
:func:`~repro.spice.adaptive.adaptive_item_bytes` for the adaptive one.
Rows are independent, so any tiling is bit-identical to any other.

The plan lives in :mod:`repro.core` so both fused flows import it without
an import cycle (:mod:`repro.core.library_flow` imports
:mod:`repro.core.prior_learning` for
:class:`~repro.core.prior_learning.TimingPrior`); the sweep, one layer
down in :mod:`repro.spice`, imports it where it is called.

The :class:`SimulationPlan` protocol is three phases, with the caller owning
the :class:`~repro.runtime.accounting.RunLedger` stage windows (stage names
differ per flow -- ``fused:*`` for the library pipeline, ``priors:*`` for
historical characterization):

1. :meth:`SimulationPlan.add_job` per (cell, arc) with its operating points
   (consults the reduction and simulation caches row by row), then
   :meth:`SimulationPlan.record_metrics`;
2. :meth:`SimulationPlan.simulate` -- the row table split into tiles, one
   :func:`simulate_rows_job` per tile through ``executor.map_accounted``
   (process-safe); each tile's clean rows go into the simulation cache as
   that tile finishes, so with the durable tier attached
   (``runtime.configure(disk_cache_dir=...)``) a killed run loses at most
   the tile in flight and a rerun picks up every finished one as disk hits;
3. :meth:`SimulationPlan.finalize` -- scatter tile results to every
   ``(job, condition)`` row.

After ``finalize``, ``plan.job_delays[job][cond]`` / ``job_slews`` hold one
``(n_seeds,)`` array per row (cached rows are filled during planning), and
:meth:`SimulationPlan.kept_conditions` turns a job's quarantined rows into
the conditions it keeps plus a failure report.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells.equivalent_inverter import reduce_cell_cached
from repro.cells.library import Cell, TimingArc
from repro.runtime import resolve_max_bytes
from repro.runtime.accounting import RunLedger
from repro.runtime.chunking import plan_chunks
from repro.spice.adaptive import (
    adaptive_item_bytes,
    simulate_arc_transitions_adaptive,
)
from repro.spice.batch import simulate_arc_transitions, transient_item_bytes
from repro.runtime.resilience import FailureReport
from repro.spice.stepper import IntegrationStats, StepperSpec, resolve_stepper
from repro.spice.testbench import SimulationCache, get_simulation_cache
from repro.technology.node import TechnologyNode
from repro.technology.variation import VariationSample

#: Byte budget of one integration tile when no ``runtime`` ``max_bytes`` is
#: configured (an explicit budget always wins): about 1,000 fixed-step rows
#: at 200 seeds (:func:`~repro.spice.batch.transient_item_bytes`), or 26
#: adaptive ones.  Peak memory of a pass grows with its rows, so an
#: unbounded pass over a large library would cost far more memory than the
#: per-call overhead it saves.
DEFAULT_PASS_BYTES = 64 * 2**20


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


def simulate_rows_job(payload: tuple):
    """Integrate one tile of a plan's row table; module-level for pickling.

    The payload carries one equivalent-inverter reduction per row (rows of
    one signature share the object, so a pickled tile ships each reduction
    once), the rows' ``(sin, cload, vdd)`` operating points and the
    :class:`~repro.spice.stepper.StepperSpec` selecting the integration
    scheme (``rk45`` dispatches to the adaptive engine).  Returns the
    per-row delay/slew matrices plus the tile's :class:`RunLedger`
    (integration wall time under the flow's own stage label and the tile's
    step/RHS-evaluation metrics, merged back in payload order by the
    executor).
    """
    inverters, triples, stepper, stage, on_failure = payload
    ledger = RunLedger()
    with ledger.stage(stage):
        if stepper.method == "rk45":
            result = simulate_arc_transitions_adaptive(
                inverters, triples[:, 0], triples[:, 1], triples[:, 2],
                stepper=stepper, on_failure=on_failure)
        else:
            result = simulate_arc_transitions(
                inverters, triples[:, 0], triples[:, 1], triples[:, 2],
                n_steps=stepper.n_steps, on_failure=on_failure)
        record_integration_stats(ledger, result.stats)
        delay = np.asarray(result.delay(), dtype=float)
        slew = np.asarray(result.output_slew(), dtype=float)
    return (delay, slew, result.quarantined), ledger


class SimulationPlan:
    """One cache-aware, deduplicated plan over flat (job, condition) rows."""

    def __init__(self, technology: TechnologyNode,
                 variation: Optional[VariationSample] = None,
                 cache: bool = True,
                 integrate_stage: str = "fused:integrate",
                 on_failure: str = "raise",
                 stepper: Optional[StepperSpec] = None) -> None:
        if on_failure not in ("raise", "quarantine"):
            raise ValueError(f"on_failure must be 'raise' or 'quarantine', "
                             f"got {on_failure!r}")
        self.technology = technology
        self.variation = variation
        #: Integration scheme of every batched call, the engine part of
        #: every simulation-cache key and the step count tiles are sized
        #: by; ``None`` resolves the configured transient engine's default
        #: stepper (``runtime.configure(transient_engine=...)``).
        self.stepper = stepper if stepper is not None else resolve_stepper()
        self.n_seeds = variation.n_seeds if variation is not None else 1
        self.integrate_stage = integrate_stage
        #: Fault handling forwarded to every batched transient call; with
        #: ``"quarantine"``, broken rows land in :attr:`quarantined_rows`
        #: instead of aborting the plan.
        self.on_failure = on_failure
        #: After ``finalize``: job index -> sorted condition indices whose
        #: simulation was quarantined (NaN delay/slew, not cached).
        self.quarantined_rows: Dict[int, List[int]] = {}
        #: The global simulation cache, or ``None`` with ``cache=False``
        #: (no lookups, no puts).
        self._cache = get_simulation_cache() if cache else None
        self._variation_fp = (variation.fingerprint() if variation is not None
                              else "nominal")
        #: Equivalent-inverter reduction per job, in job order.
        self.inverters: List = []
        #: Per-job, per-condition ``(n_seeds,)`` delay/slew rows.
        self.job_delays: List[List[Optional[np.ndarray]]] = []
        self.job_slews: List[List[Optional[np.ndarray]]] = []
        #: signature -> operating point -> the ``(job, cond, cache key)``
        #: rows it serves.  Each (signature, operating point) is one row of
        #: the table; insertion order is the table's order.
        self._rows: Dict[tuple, Dict[tuple, List[tuple]]] = {}
        #: signature -> the first reduction that produced it (equal
        #: signatures are interchangeable inside the engines).
        self._reductions: Dict[tuple, object] = {}
        self._n_rows_total = 0
        #: The row table as ``(signature, operating point, targets)`` and
        #: its tiles, set by :meth:`simulate`.
        self._table: List[tuple] = []
        self._tiles: List[slice] = []
        self._results: Optional[list] = None

    # ------------------------------------------------------------------
    # Phase 1: planning
    # ------------------------------------------------------------------
    def add_job(self, cell: Cell, arc: TimingArc,
                triples: Sequence[Sequence[float]]) -> int:
        """Register one (cell, arc) with its operating points.

        Resolves the equivalent-inverter reduction, consults the simulation
        cache per condition, and files the remaining rows under their
        (signature, operating point) dedup key.  Returns the job index.
        """
        job = len(self.inverters)
        inverter = reduce_cell_cached(cell, self.technology, arc=arc,
                                      variation=self.variation)
        self.inverters.append(inverter)
        prefix = SimulationCache.arc_prefix(cell, self.technology, arc,
                                            self._variation_fp)
        signature = inverter.simulation_signature()
        triples = [tuple(float(value) for value in triple)
                   for triple in triples]
        delays: List[Optional[np.ndarray]] = [None] * len(triples)
        slews: List[Optional[np.ndarray]] = [None] * len(triples)
        for cond, triple in enumerate(triples):
            key = SimulationCache.condition_key(prefix, *triple, self.stepper)
            cached = self._cache.get(key) if self._cache is not None else None
            if cached is not None:
                delays[cond], slews[cond] = cached
                continue
            self._reductions.setdefault(signature, inverter)
            points = self._rows.setdefault(signature, {})
            points.setdefault(triple, []).append((job, cond, key))
        self.job_delays.append(delays)
        self.job_slews.append(slews)
        self._n_rows_total += len(triples)
        return job

    def record_metrics(self, ledger: RunLedger,
                       prefix: str = "fused") -> None:
        """Dedup/cache accounting under the flow's metric prefix."""
        planned_rows = sum(len(targets) for points in self._rows.values()
                           for targets in points.values())
        unique_rows = sum(len(points) for points in self._rows.values())
        ledger.add_metric(f"{prefix}_rows_total", self._n_rows_total)
        ledger.add_metric(f"{prefix}_rows_simulated", unique_rows)
        ledger.add_metric(f"{prefix}_rows_deduplicated",
                          planned_rows - unique_rows)
        ledger.add_metric(f"{prefix}_rows_cached",
                          self._n_rows_total - planned_rows)
        ledger.add_metric(f"{prefix}_signature_groups", len(self._rows))
        ledger.add_metric(f"{prefix}_rows_cross_job_shared",
                          sum(self.shared_row_counts().values()))
        if self._rows:
            ledger.add_group_sizes(
                f"{prefix}:signature_rows",
                [len(points) for points in self._rows.values()])

    def shared_row_counts(self) -> Dict[int, int]:
        """Per-job count of planned rows that serve another job too.

        This is the plan's request-attribution view: for each job, how many
        of its cache-missing rows are physically identical to a row some
        *other* job planned (same signature, same operating point) and
        therefore integrate exactly once for all of them.  The serving
        front door reports these counts as its coalescing metric -- a row
        shared across jobs is work one request did for another.  Jobs whose
        rows all hit the cache (or that never missed) are absent.
        """
        counts: Dict[int, int] = {}
        for points in self._rows.values():
            for targets in points.values():
                if len({job for job, _cond, _key in targets}) > 1:
                    for job, _cond, _key in targets:
                        counts[job] = counts.get(job, 0) + 1
        return counts

    @property
    def needs_simulation(self) -> bool:
        """Whether any row missed the cache (phases 2/3 have work to do)."""
        return bool(self._rows)

    # ------------------------------------------------------------------
    # Phase 2: one tiled pass over the row table
    # ------------------------------------------------------------------
    def simulate(self, executor, ledger: RunLedger,
                 max_bytes: Optional[int] = None) -> None:
        """Integrate the whole row table, tiled on the flat row axis.

        Tiles honor the memory budget (``max_bytes``, else the configured
        ``runtime`` budget, else :data:`DEFAULT_PASS_BYTES`) and the
        executor's shard hint; rows are independent, so any tiling
        reproduces the one-pass results.  Worker-side activity arrives in
        the per-tile ledgers merged by ``map_accounted``.

        As each tile finishes, its clean rows go into the simulation cache
        (which writes them through to its durable tier, if one is
        attached) under every condition key they serve; the puts' cache
        activity lands on ``ledger``.  Quarantined rows are never cached:
        a rerun must re-simulate them, not replay the failure.
        """
        budget = resolve_max_bytes(max_bytes)
        if budget is None:
            budget = DEFAULT_PASS_BYTES
        self._table = [(signature, triple, targets)
                       for signature, points in self._rows.items()
                       for triple, targets in points.items()]
        n_rows = len(self._table)
        item_bytes = (adaptive_item_bytes if self.stepper.method == "rk45"
                      else transient_item_bytes)
        self._tiles = plan_chunks(
            n_rows, item_bytes(self.n_seeds, self.stepper.n_steps),
            budget, min_chunks=executor.shard_hint(n_rows))
        payloads = []
        for tile in self._tiles:
            rows = self._table[tile]
            payloads.append((
                [self._reductions[signature] for signature, _, _ in rows],
                np.array([triple for _, triple, _ in rows], dtype=float),
                self.stepper, self.integrate_stage, self.on_failure))

        def fill(index: int, result) -> None:
            with ledger.caches():
                for delay_row, slew_row, quarantined, targets in (
                        self._tile_rows(self._tiles[index], result)):
                    if quarantined:
                        continue
                    for _job, _cond, key in targets:
                        self._cache.put(key, delay_row, slew_row)

        self._results = executor.map_accounted(
            simulate_rows_job, payloads, ledger=ledger,
            on_result=fill if self._cache is not None else None)

    def _tile_rows(self, tile: slice, result):
        """``(delay_row, slew_row, quarantined, targets)`` per tile row."""
        delay, slew, quarantined = result
        for offset, (_signature, _triple, targets) in enumerate(
                self._table[tile]):
            yield (np.asarray(delay[offset], dtype=float),
                   np.asarray(slew[offset], dtype=float),
                   quarantined is not None and bool(quarantined[offset]),
                   targets)

    # ------------------------------------------------------------------
    # Phase 3: scatter
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Scatter tile results to every ``(job, condition)`` row."""
        if self._results is None:
            raise RuntimeError("finalize() requires a prior simulate() call")
        for tile, result in zip(self._tiles, self._results):
            for delay_row, slew_row, quarantined, targets in self._tile_rows(
                    tile, result):
                for job, cond, _key in targets:
                    self.job_delays[job][cond] = delay_row
                    self.job_slews[job][cond] = slew_row
                    if quarantined:
                        # A quarantined row is a failed measurement: record
                        # it against every job that shares the row.
                        self.quarantined_rows.setdefault(job, []).append(cond)
        for conds in self.quarantined_rows.values():
            conds.sort()

    def kept_conditions(self, job: int, unit: str
                        ) -> Tuple[Optional[List[int]],
                                   Optional[FailureReport]]:
        """One job's surviving condition indices and its quarantine report.

        A job none of whose rows was quarantined keeps every condition and
        has no report.  Otherwise it keeps the conditions whose rows
        simulated cleanly -- ``None`` when none did, and the caller drops
        the arc -- and the report is a ``QuarantinedRows``
        :class:`~repro.runtime.resilience.FailureReport` for ``unit`` at
        stage ``simulate``.
        """
        n_conditions = len(self.job_delays[job])
        bad = self.quarantined_rows.get(job)
        if not bad:
            return list(range(n_conditions)), None
        quarantined = set(bad)
        kept = [cond for cond in range(n_conditions)
                if cond not in quarantined]
        detail = (f"{len(bad)} of {n_conditions} conditions quarantined "
                  f"(indices {bad})")
        if not kept:
            detail += "; no conditions survived, arc dropped"
        return kept or None, FailureReport(
            unit=unit, stage="simulate", error=detail,
            error_type="QuarantinedRows")

"""Learning priors from historical technology nodes (Section IV of the paper).

The flow of the paper's Fig. 4 has a "historical learning" phase: every cell
of every available historical library is characterized over its own input
space, the compact timing model is fitted per cell/arc, and the resulting
parameter vectors are fused into

* a conjugate Gaussian prior ``N(mu_t0, Sigma_t0)`` over the timing-model
  parameter mean of the *target* technology, and
* the input-condition-dependent model precision ``beta(xi)`` of Eq. 9.

Two fusion methods are provided:

``"empirical"``
    Pool all historical parameter vectors and take their sample mean and
    covariance (with optional shrinkage) -- the straightforward reading of
    the paper's equations.

``"bp"``
    Build a Gaussian factor graph with one variable per historical
    technology plus a shared global variable, attach each technology's
    parameter evidence to its node, link every node to the global variable
    with a technology-drift covariance, and run belief propagation.  The
    prior for the target technology is the *predictive* distribution of a
    new leaf: the global belief widened by the drift covariance.  On this
    star topology BP is exact, and the same machinery supports richer
    structure (chains ordered by production year, flavor sub-groups).

Both halves of the phase run fleet-scale batched:

* :func:`characterize_historical_library` pushes every (cell, arc,
  condition) row of a historical node through the shared
  :class:`~repro.core.simulation_plan.SimulationPlan` -- one transient
  pass over every arc of the node on the configured engine, with cross-arc
  dedup -- and fits all arcs in one stacked least-squares solve
  (:func:`repro.core.batch_map.fit_least_squares_stacked`);
* :func:`learn_priors` and :func:`learn_class_priors` stack every
  (response x arc-class) star graph into one
  :class:`~repro.bayes.factor_graph.BatchedFactorGraph` run, so a fleet of
  priors costs one batched BP call instead of one Python message loop per
  prior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bayes.factor_graph import BatchedFactorGraph, GaussianFactorGraph
from repro.bayes.gaussian import GaussianDensity
from repro.bayes.precision import PrecisionModel
from repro.cells.library import Cell, Transition
from repro.characterization.input_space import InputSpace
from repro.core.simulation_plan import SimulationPlan
from repro.core.timing_model import CompactTimingModel, FitResult, N_PARAMETERS
from repro.runtime.accounting import RunLedger
from repro.runtime.executor import get_executor
from repro.runtime.resilience import FailureReport, RetryPolicy, resolve_strict
from repro.spice.testbench import SimulationCounter
from repro.technology.node import TechnologyNode
from repro.technology.sampling import latin_hypercube
from repro.utils.rng import RandomState, ensure_rng

#: Response names handled throughout the flow.
RESPONSES = ("delay", "slew")

#: Default number of reference conditions used to characterize each
#: historical library (the paper uses the full LUT grid; a moderate
#: space-filling set gives the same parameter estimates far cheaper).
DEFAULT_REFERENCE_CONDITIONS = 24


@dataclass(frozen=True)
class ArcFit:
    """Compact-model fits of one cell arc in one historical technology."""

    cell_name: str
    arc_name: str
    delay_fit: FitResult
    slew_fit: FitResult


@dataclass(frozen=True)
class HistoricalLibraryData:
    """Everything learned from characterizing one historical library.

    Attributes
    ----------
    technology_name:
        Name of the historical technology node.
    unit_conditions:
        Normalized (unit-cube) reference conditions shared across
        technologies, shape ``(n_conditions, 3)``.
    arc_fits:
        Per-arc compact-model fits.
    delay_residuals, slew_residuals:
        Relative model residuals averaged across arcs, one per reference
        condition (inputs to the Eq. 9 precision estimate).
    simulation_runs:
        Number of simulator invocations spent on this library.
    failures:
        Structured :class:`~repro.runtime.resilience.FailureReport` records
        of arcs that degraded (quarantined reference conditions) or were
        dropped under ``strict=False``; empty on a clean or strict run.
    """

    technology_name: str
    unit_conditions: np.ndarray
    arc_fits: Tuple[ArcFit, ...]
    delay_residuals: np.ndarray
    slew_residuals: np.ndarray
    simulation_runs: int
    failures: Tuple[FailureReport, ...] = ()

    def parameter_matrix(self, response: str) -> np.ndarray:
        """Stack of fitted parameter vectors, shape ``(n_arcs, 4)``."""
        _check_response(response)
        rows = []
        for fit in self.arc_fits:
            result = fit.delay_fit if response == "delay" else fit.slew_fit
            rows.append(result.params.as_array())
        return np.array(rows)

    def mean_parameters(self, response: str) -> np.ndarray:
        """Average parameter vector across the library's arcs."""
        return self.parameter_matrix(response).mean(axis=0)

    def mean_fit_error(self, response: str) -> float:
        """Average of the per-arc mean absolute relative fitting errors."""
        _check_response(response)
        errors = [fit.delay_fit.mean_abs_relative_error if response == "delay"
                  else fit.slew_fit.mean_abs_relative_error
                  for fit in self.arc_fits]
        return float(np.mean(errors))


@dataclass(frozen=True)
class TimingPrior:
    """The learned prior for one response (delay or slew).

    Attributes
    ----------
    response:
        ``"delay"`` or ``"slew"``.
    density:
        Gaussian prior over the timing-model parameters (natural units).
    precision_model:
        The Eq. 9 model precision as a function of the normalized operating
        point.
    technology_names:
        Historical technologies that contributed.
    method:
        ``"bp"`` or ``"empirical"``.
    """

    response: str
    density: GaussianDensity
    precision_model: PrecisionModel
    technology_names: Tuple[str, ...]
    method: str

    def describe(self) -> str:
        """One-line summary of the prior."""
        stds = self.density.standard_deviations()
        return (f"{self.response} prior from {len(self.technology_names)} technologies "
                f"({self.method}): mean={np.round(self.density.mean, 3)}, "
                f"std={np.round(stds, 3)}")

    def fingerprint(self) -> str:
        """Stable SHA-256 digest of everything that shapes this prior.

        Two priors with the same fingerprint produce bit-identical MAP
        solves; the digest goes into content-addressed keys (the service's
        single-flight digests), so it must be identical across processes
        (no ``hash()``/``repr`` anywhere -- see
        :func:`repro.runtime.persist.stable_key_digest`).
        """
        from repro.runtime.persist import stable_key_digest

        return stable_key_digest((
            "timing_prior",
            self.response,
            self.method,
            tuple(self.technology_names),
            np.asarray(self.density.mean, dtype=float),
            np.asarray(self.density.covariance, dtype=float),
            np.asarray(self.precision_model.unit_conditions, dtype=float),
            np.asarray(self.precision_model.precisions, dtype=float),
        ))


def _check_response(response: str) -> None:
    if response not in RESPONSES:
        raise ValueError(f"response must be one of {RESPONSES}, got {response!r}")


def shared_reference_conditions(n_conditions: int = DEFAULT_REFERENCE_CONDITIONS,
                                rng: RandomState = 1234) -> np.ndarray:
    """Normalized reference conditions shared by all historical libraries.

    Using the *same* unit-cube points for every technology (each mapped into
    that technology's own physical ranges) is what makes the cross-technology
    residual variance of Eq. 9 well defined per condition.
    """
    if n_conditions < N_PARAMETERS + 1:
        raise ValueError(
            f"need at least {N_PARAMETERS + 1} reference conditions to fit the model"
        )
    return latin_hypercube(n_conditions, 3, ensure_rng(rng))


def _characterize_fused_historical(
    technology: TechnologyNode,
    arcs: Sequence[Tuple[Cell, object]],
    physical: np.ndarray,
    conditions: Sequence[tuple],
    counter: SimulationCounter,
    ledger: RunLedger,
    max_bytes: Optional[int],
    strict: bool = True,
    retry_policy: Optional[RetryPolicy] = None,
) -> Tuple[List[Optional[ArcFit]], List[Optional[np.ndarray]],
           List[Optional[np.ndarray]], List[FailureReport]]:
    """One global simulation plan + one stacked model fit.

    Every (cell, arc, condition) row of the historical node flows through
    the shared :class:`SimulationPlan` (one transient pass; signature
    dedup merges rows of footprint-twin arcs, the simulation cache fills
    repeat visits), then all (arc x response) compact models are fitted in
    one stacked Levenberg-Marquardt solve.

    With ``strict=False`` broken rows are quarantined instead of aborting:
    degraded arcs are fitted on their surviving reference conditions (with
    NaN placeholders padding their residual rows back to full length), arcs
    with no surviving conditions come back as ``None``, and every
    degradation lands as a :class:`FailureReport` in the fourth return
    value.  Clean arcs keep their full stacked blocks either way.
    """
    # Deferred: batch_map imports TimingPrior from this module.
    from repro.core.batch_map import (
        BatchMapObservations,
        fit_least_squares_stacked,
    )

    # The plan runs the configured transient engine, like every other flow.
    plan = SimulationPlan(technology, variation=None,
                          integrate_stage="priors:integrate",
                          on_failure="raise" if strict else "quarantine")
    with ledger.stage("priors:plan"), ledger.caches():
        for cell, arc in arcs:
            plan.add_job(cell, arc, conditions)
        plan.record_metrics(ledger, prefix="priors")
    if plan.needs_simulation:
        executor = get_executor("serial", retry_policy=retry_policy)
        with ledger.stage("priors:simulate"):
            plan.simulate(executor, ledger, max_bytes=max_bytes)
        plan.finalize()

    for cell, _arc in arcs:
        counter.add(len(conditions),
                    label=f"historical:{technology.name}:{cell.name}")

    n_cond = len(conditions)
    failures: List[FailureReport] = []
    job_kept: List[Optional[List[int]]] = []
    for job, (cell, arc) in enumerate(arcs):
        bad = plan.quarantined_rows.get(job)
        if not bad:
            job_kept.append(list(range(n_cond)))
            continue
        kept = [cond for cond in range(n_cond) if cond not in set(bad)]
        detail = (f"{len(bad)} of {n_cond} reference conditions quarantined "
                  f"(indices {bad})")
        if not kept:
            detail += "; no conditions survived, arc dropped"
        failures.append(FailureReport(
            unit=f"{technology.name}:{cell.name}:{arc.name}",
            stage="simulate", error=detail, error_type="QuarantinedRows"))
        job_kept.append(kept if kept else None)

    sin = physical[:, 0]
    cload = physical[:, 1]
    vdd = physical[:, 2]
    with ledger.stage("priors:fit"):
        blocks: List[BatchMapObservations] = []
        block_jobs: List[int] = []
        degraded_blocks: Dict[int, tuple] = {}
        for job in range(len(arcs)):
            kept = job_kept[job]
            if kept is None:
                continue
            ieff = np.asarray(plan.inverters[job].effective_current(vdd),
                              dtype=float).reshape(-1)
            full = len(kept) == n_cond
            rows = None if full else np.array(kept)
            delays = np.array([plan.job_delays[job][cond].reshape(-1)[0]
                               for cond in kept])
            slews = np.array([plan.job_slews[job][cond].reshape(-1)[0]
                              for cond in kept])
            pair = (BatchMapObservations(
                        sin=sin if full else sin[rows],
                        cload=cload if full else cload[rows],
                        vdd=vdd if full else vdd[rows],
                        ieff=ieff if full else ieff[rows],
                        response=delays[np.newaxis, :]),
                    BatchMapObservations(
                        sin=sin if full else sin[rows],
                        cload=cload if full else cload[rows],
                        vdd=vdd if full else vdd[rows],
                        ieff=ieff if full else ieff[rows],
                        response=slews[np.newaxis, :]))
            if full:
                block_jobs.append(job)
                blocks.extend(pair)
            else:
                # Fewer conditions than the stacked blocks (which need a
                # uniform k): the degraded arc gets its own solve.  Blocks
                # are independent rows, so the stacked peers are unaffected.
                degraded_blocks[job] = pair
        delay_fits: Dict[int, object] = {}
        slew_fits: Dict[int, object] = {}
        if blocks:
            results = fit_least_squares_stacked(blocks, max_bytes=max_bytes)
            for index, job in enumerate(block_jobs):
                delay_fits[job] = results[2 * index].fit_result(0)
                slew_fits[job] = results[2 * index + 1].fit_result(0)
        for job, (delay_obs, slew_obs) in degraded_blocks.items():
            delay_fits[job] = fit_least_squares_stacked(
                [delay_obs], max_bytes=max_bytes)[0].fit_result(0)
            slew_fits[job] = fit_least_squares_stacked(
                [slew_obs], max_bytes=max_bytes)[0].fit_result(0)

    arc_fits: List[Optional[ArcFit]] = []
    delay_residual_rows: List[Optional[np.ndarray]] = []
    slew_residual_rows: List[Optional[np.ndarray]] = []
    for job, (cell, arc) in enumerate(arcs):
        if job not in delay_fits:
            arc_fits.append(None)
            delay_residual_rows.append(None)
            slew_residual_rows.append(None)
            continue
        delay_fit = delay_fits[job]
        slew_fit = slew_fits[job]
        arc_fits.append(ArcFit(cell_name=cell.name, arc_name=arc.name,
                               delay_fit=delay_fit, slew_fit=slew_fit))
        kept = job_kept[job]
        if len(kept) == n_cond:
            delay_residual_rows.append(delay_fit.residuals)
            slew_residual_rows.append(slew_fit.residuals)
        else:
            # Pad back to full length with NaN at the quarantined
            # conditions; the caller's cross-arc average skips them there.
            delay_row = np.full(n_cond, np.nan)
            delay_row[kept] = delay_fit.residuals
            slew_row = np.full(n_cond, np.nan)
            slew_row[kept] = slew_fit.residuals
            delay_residual_rows.append(delay_row)
            slew_residual_rows.append(slew_row)
    return arc_fits, delay_residual_rows, slew_residual_rows, failures


def characterize_historical_library(
    technology: TechnologyNode,
    cells: Sequence[Cell],
    unit_conditions: Optional[np.ndarray] = None,
    transitions: Sequence[Transition] = (Transition.FALL, Transition.RISE),
    counter: Optional[SimulationCounter] = None,
    ledger: Optional[RunLedger] = None,
    max_bytes: Optional[int] = None,
    strict: Optional[bool] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> HistoricalLibraryData:
    """Characterize one historical library and fit the compact model per arc.

    For every cell and requested output transition (using the first input pin
    of each cell, as the paper models one timing arc at a time), the shared
    normalized reference conditions are mapped into the technology's ranges,
    simulated nominally, and fitted with plain least squares.  Every
    (cell, arc, condition) row goes into one :class:`SimulationPlan` -- one
    transient pass on the configured engine, with cross-arc dedup and cache
    reuse -- and all arcs are fitted in one stacked least-squares solve.

    Parameters
    ----------
    technology:
        The historical node.
    cells:
        Cells to characterize (e.g. the Table I set INV/NAND2/NOR2).
    unit_conditions:
        Normalized reference conditions; defaults to
        :func:`shared_reference_conditions`.
    transitions:
        Output transitions to cover.
    counter:
        Optional simulation-run accounting.
    ledger:
        Optional :class:`RunLedger`; stages ``priors:plan``,
        ``priors:simulate``/``priors:integrate`` and ``priors:fit`` plus
        per-node simulation counts are recorded on it.
    max_bytes:
        Memory budget forwarded to the fused planner and stacked fit.
    strict:
        ``True`` (the default, also via ``REPRO_STRICT``) fails fast on the
        first broken arc.  ``False`` degrades gracefully: quarantined rows
        are excluded from the affected arc's fit (NaN-padded out of the
        Eq. 9 residual average), arcs that fail completely are dropped, and
        every degradation lands as a
        :class:`~repro.runtime.resilience.FailureReport` on the result's
        ``failures`` and the ledger.
    retry_policy:
        Optional :class:`~repro.runtime.resilience.RetryPolicy` re-running
        a failed simulation tile before it counts as broken.
    """
    if unit_conditions is None:
        unit_conditions = shared_reference_conditions()
    unit_conditions = np.atleast_2d(np.asarray(unit_conditions, dtype=float))
    space = InputSpace(technology)
    lows = np.array([r[0] for r in space.ranges])
    highs = np.array([r[1] for r in space.ranges])
    physical = lows + unit_conditions * (highs - lows)
    conditions = [tuple(row) for row in physical]

    strict_mode = resolve_strict(strict)
    local_counter = counter if counter is not None else SimulationCounter()
    run_ledger = ledger if ledger is not None else RunLedger()
    runs_before = local_counter.total

    arcs = [(cell, cell.arc(cell.input_pins[0], Transition(transition)))
            for cell in cells for transition in transitions]

    arc_fits, delay_residual_rows, slew_residual_rows, failures = (
        _characterize_fused_historical(technology, arcs, physical, conditions,
                                       local_counter, run_ledger, max_bytes,
                                       strict=strict_mode,
                                       retry_policy=retry_policy))
    arc_fits = [fit for fit in arc_fits if fit is not None]
    delay_residual_rows = [row for row in delay_residual_rows
                           if row is not None]
    slew_residual_rows = [row for row in slew_residual_rows
                          if row is not None]

    for report in failures:
        run_ledger.add_failure(report)
    if not arc_fits:
        raise RuntimeError(
            "no arcs survived historical characterization; failures: "
            + "; ".join(report.describe() for report in failures))

    delay_matrix = np.array(delay_residual_rows)
    slew_matrix = np.array(slew_residual_rows)
    if np.isnan(delay_matrix).any() or np.isnan(slew_matrix).any():
        # Degraded arcs contribute no residual at their quarantined
        # conditions; the cross-arc average skips them there.  A condition
        # that no arc survived at leaves the Eq. 9 precision estimate
        # undefined -- no graceful fallback exists for that.
        if (np.isnan(delay_matrix).all(axis=0).any()
                or np.isnan(slew_matrix).all(axis=0).any()):
            raise RuntimeError(
                "every surviving arc was quarantined at some reference "
                "condition; the Eq. 9 residual estimate is undefined")
        delay_residuals = np.nanmean(delay_matrix, axis=0)
        slew_residuals = np.nanmean(slew_matrix, axis=0)
    else:
        delay_residuals = np.mean(delay_matrix, axis=0)
        slew_residuals = np.mean(slew_matrix, axis=0)
    runs = local_counter.total - runs_before
    run_ledger.add_simulations(runs, label=f"priors:{technology.name}")

    return HistoricalLibraryData(
        technology_name=technology.name,
        unit_conditions=unit_conditions,
        arc_fits=tuple(arc_fits),
        delay_residuals=delay_residuals,
        slew_residuals=slew_residuals,
        simulation_runs=runs,
        failures=tuple(failures),
    )


def characterize_historical_libraries(
    technologies: Sequence[TechnologyNode],
    cells: Sequence[Cell],
    unit_conditions: Optional[np.ndarray] = None,
    transitions: Sequence[Transition] = (Transition.FALL, Transition.RISE),
    counter: Optional[SimulationCounter] = None,
    ledger: Optional[RunLedger] = None,
    max_bytes: Optional[int] = None,
    strict: Optional[bool] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> List[HistoricalLibraryData]:
    """Characterize several historical nodes with shared reference conditions.

    The same normalized conditions, simulation counter and ledger are
    threaded through every node, so fleet-level accounting (per-node
    ``priors:<technology>`` simulation counts, dedup/cache metrics) lands in
    one place.
    """
    if unit_conditions is None:
        unit_conditions = shared_reference_conditions()
    return [characterize_historical_library(
                technology, cells, unit_conditions=unit_conditions,
                transitions=transitions, counter=counter,
                ledger=ledger, max_bytes=max_bytes, strict=strict,
                retry_policy=retry_policy)
            for technology in technologies]


def _star_inputs(
    named_matrices: Sequence[Tuple[str, np.ndarray]],
    shrinkage: float,
) -> Tuple[Dict[str, GaussianDensity], np.ndarray]:
    """Leaf evidence and drift covariance of one technology-star graph.

    ``named_matrices`` pairs each technology name with its ``(n_arcs, 4)``
    parameter matrix; the order is the evidence-registration order, exactly
    as :func:`learn_prior` builds its scalar star.
    """
    per_tech_means = np.array([matrix.mean(axis=0)
                               for _name, matrix in named_matrices])
    # Technology-drift covariance: spread of per-technology means, with
    # shrinkage and a floor so the star links never collapse.
    drift = np.cov(per_tech_means, rowvar=False, ddof=1)
    drift = np.atleast_2d(drift)
    drift = (1.0 - shrinkage) * drift + shrinkage * np.diag(np.diag(drift))
    drift = drift + 1e-8 * np.eye(N_PARAMETERS)

    leaves: Dict[str, GaussianDensity] = {}
    for name, matrix in named_matrices:
        within = GaussianDensity.from_samples(matrix, shrinkage=shrinkage,
                                              jitter=1e-8)
        # Evidence of the technology mean: sample mean with standard
        # error of the mean as covariance.
        sem_cov = within.covariance / max(matrix.shape[0], 1)
        leaves[name] = GaussianDensity(within.mean,
                                       sem_cov + 1e-10 * np.eye(N_PARAMETERS))
    return leaves, drift


def _finish_prior(
    historical: Sequence[HistoricalLibraryData],
    response: str,
    density: GaussianDensity,
    method: str,
    prior_widening: float,
) -> TimingPrior:
    """Widen, attach the Eq. 9 precision model and wrap as a prior."""
    if prior_widening != 1.0:
        density = density.scaled_covariance(prior_widening)
    residual_key = "delay_residuals" if response == "delay" else "slew_residuals"
    residual_matrix = np.array([getattr(data, residual_key)
                                for data in historical])
    precision_model = PrecisionModel.from_residuals(
        historical[0].unit_conditions, residual_matrix)
    return TimingPrior(
        response=response,
        density=density,
        precision_model=precision_model,
        technology_names=tuple(data.technology_name for data in historical),
        method=method,
    )


def learn_prior(
    historical: Sequence[HistoricalLibraryData],
    response: str = "delay",
    method: str = "bp",
    shrinkage: float = 0.1,
    prior_widening: float = 1.0,
) -> TimingPrior:
    """Fuse historical libraries into a :class:`TimingPrior`.

    Parameters
    ----------
    historical:
        Characterized historical libraries (at least one).
    response:
        ``"delay"`` or ``"slew"``.
    method:
        ``"bp"`` (Gaussian belief propagation over the technology star) or
        ``"empirical"`` (pooled sample mean / covariance).
    shrinkage:
        Covariance shrinkage toward the diagonal, useful because the number
        of historical technologies is small.
    prior_widening:
        Multiplier applied to the final prior covariance (ablation knob; 1.0
        reproduces the paper's flow).

    Raises
    ------
    ValueError
        If no historical data is given or the method is unknown.
    """
    _check_response(response)
    if not historical:
        raise ValueError("at least one historical library is required")
    if method not in ("bp", "empirical"):
        raise ValueError(f"method must be 'bp' or 'empirical', got {method!r}")
    if prior_widening <= 0.0:
        raise ValueError("prior_widening must be positive")

    if method == "empirical" or len(historical) == 1:
        pooled = np.vstack([data.parameter_matrix(response)
                            for data in historical])
        density = GaussianDensity.from_samples(pooled, shrinkage=shrinkage,
                                               jitter=1e-8)
        effective_method = "empirical"
    else:
        leaves, drift = _star_inputs(
            [(data.technology_name, data.parameter_matrix(response))
             for data in historical], shrinkage)
        graph = GaussianFactorGraph.star("global", leaves, drift)
        beliefs = graph.run_belief_propagation()
        global_belief = beliefs["global"]
        # Predictive distribution for a new technology node: global belief
        # widened by the technology-drift covariance.
        density = GaussianDensity(global_belief.mean,
                                  global_belief.covariance + drift)
        effective_method = "bp"

    return _finish_prior(historical, response, density, effective_method,
                         prior_widening)


def learn_priors(historical: Sequence[HistoricalLibraryData], method: str = "bp",
                 shrinkage: float = 0.1,
                 ledger: Optional[RunLedger] = None) -> Dict[str, TimingPrior]:
    """Learn both the delay and the slew prior from the same historical data.

    When BP applies, the delay and slew star graphs are stacked into one
    :class:`~repro.bayes.factor_graph.BatchedFactorGraph` and solved in a
    single batched belief-propagation call (the same numbers as
    :func:`learn_prior` per response).  The BP wall time lands on
    ``ledger`` under the ``priors:bp`` stage.
    """
    run_ledger = ledger if ledger is not None else RunLedger()
    if method != "bp" or len(historical) <= 1:
        with run_ledger.stage("priors:bp"):
            return {response: learn_prior(historical, response=response,
                                          method=method, shrinkage=shrinkage)
                    for response in RESPONSES}

    stars = [_star_inputs([(data.technology_name,
                            data.parameter_matrix(response))
                           for data in historical], shrinkage)
             for response in RESPONSES]
    leaf_names = list(stars[0][0])
    leaves = {name: [star_leaves[name] for star_leaves, _drift in stars]
              for name in leaf_names}
    drift_stack = np.stack([drift for _leaves, drift in stars])
    graph = BatchedFactorGraph.star("global", leaves, drift_stack)
    with run_ledger.stage("priors:bp"):
        beliefs = graph.run_belief_propagation()
    global_batch = beliefs["global"]
    priors: Dict[str, TimingPrior] = {}
    for index, response in enumerate(RESPONSES):
        drift = stars[index][1]
        density = GaussianDensity(global_batch.mean[index],
                                  global_batch.covariance[index] + drift)
        priors[response] = _finish_prior(historical, response, density,
                                         "bp", 1.0)
    return priors


def learn_class_priors(
    historical: Sequence[HistoricalLibraryData],
    method: str = "bp",
    shrinkage: float = 0.1,
    prior_widening: float = 1.0,
    class_of: Optional[Callable[[ArcFit], str]] = None,
    ledger: Optional[RunLedger] = None,
) -> Dict[Tuple[str, str], TimingPrior]:
    """Learn one prior per (response, arc class) in one batched BP call.

    Arc classes default to the cell name (``class_of`` maps an
    :class:`ArcFit` to a class label, e.g. for grouping footprint families).
    Only classes present in *every* historical library are learned; each
    (response, class) pair gets its own technology-star graph built from the
    class's per-library parameter matrices, and all stars are solved
    together in one :class:`BatchedFactorGraph` run.

    Returns a dict keyed by ``(response, class_name)``.
    """
    if not historical:
        raise ValueError("at least one historical library is required")
    if method not in ("bp", "empirical"):
        raise ValueError(f"method must be 'bp' or 'empirical', got {method!r}")
    if prior_widening <= 0.0:
        raise ValueError("prior_widening must be positive")

    key_of = class_of if class_of is not None else (lambda fit: fit.cell_name)
    per_library: List[Dict[str, List[ArcFit]]] = []
    for data in historical:
        classes: Dict[str, List[ArcFit]] = {}
        for fit in data.arc_fits:
            classes.setdefault(key_of(fit), []).append(fit)
        per_library.append(classes)
    shared = set(per_library[0])
    for classes in per_library[1:]:
        shared &= set(classes)
    class_names = sorted(shared)
    if not class_names:
        raise ValueError("historical libraries share no arc classes")

    def class_matrix(classes: Dict[str, List[ArcFit]], name: str,
                     response: str) -> np.ndarray:
        return np.array([
            (fit.delay_fit if response == "delay" else fit.slew_fit)
            .params.as_array()
            for fit in classes[name]])

    pairs = [(response, name) for response in RESPONSES
             for name in class_names]
    run_ledger = ledger if ledger is not None else RunLedger()
    priors: Dict[Tuple[str, str], TimingPrior] = {}

    if method == "empirical" or len(historical) == 1:
        for response, name in pairs:
            pooled = np.vstack([class_matrix(classes, name, response)
                                for classes in per_library])
            density = GaussianDensity.from_samples(pooled, shrinkage=shrinkage,
                                                   jitter=1e-8)
            priors[(response, name)] = _finish_prior(
                historical, response, density, "empirical", prior_widening)
        return priors

    stars = [_star_inputs(
                 [(data.technology_name, class_matrix(classes, name, response))
                  for data, classes in zip(historical, per_library)],
                 shrinkage)
             for response, name in pairs]
    leaf_names = list(stars[0][0])
    leaves = {leaf: [star_leaves[leaf] for star_leaves, _drift in stars]
              for leaf in leaf_names}
    drift_stack = np.stack([drift for _leaves, drift in stars])
    graph = BatchedFactorGraph.star("global", leaves, drift_stack)
    with run_ledger.stage("priors:bp"):
        beliefs = graph.run_belief_propagation()
    global_batch = beliefs["global"]
    for index, (response, name) in enumerate(pairs):
        density = GaussianDensity(global_batch.mean[index],
                                  global_batch.covariance[index]
                                  + stars[index][1])
        priors[(response, name)] = _finish_prior(historical, response, density,
                                                 "bp", prior_widening)
    return priors

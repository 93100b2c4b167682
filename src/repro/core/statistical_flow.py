"""Statistical (process-variation-aware) characterization flow (Fig. 4).

The statistical half of the paper's flow works per Monte Carlo process seed:

1. draw ``Nsample`` process seeds;
2. simulate each of the ``k`` fitting input conditions once per seed (the
   ``.ALTER``-style batched sweep is vectorized over seeds here);
3. extract the compact-model parameters ``P_T^(j)`` / ``P_S^(j)`` of every
   seed ``j`` by MAP estimation against the historical prior;
4. for any queried operating point, evaluate the compact model with every
   seed's parameters to obtain the full delay / slew *distribution* -- mean,
   standard deviation, and the (generally non-Gaussian) probability density
   of the paper's Fig. 9.

The total simulation cost is ``O(k * Nsample)``, compared with
``O(N_LUT * Nsample)`` for a statistical look-up table.
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cells.equivalent_inverter import EquivalentInverter, reduce_cell_cached
from repro.cells.library import Cell, TimingArc
from repro.characterization.input_space import (
    InputCondition,
    InputSpace,
    conditions_to_arrays,
)
from repro.core.batch_map import BatchMapObservations, map_estimate_batch
from repro.core.map_estimation import MapObservations, map_estimate
from repro.core.prior_learning import TimingPrior
from repro.core.timing_model import CompactTimingModel, TimingModelParameters
from repro.runtime import register_runtime_cache
from repro.runtime.accounting import RunLedger
from repro.runtime.cache import LruCache
from repro.spice.sweep import sweep_conditions
from repro.spice.testbench import SimulationCounter
from repro.technology.node import TechnologyNode
from repro.technology.variation import VariationSample
from repro.utils.rng import RandomState, ensure_rng

#: Parameter-extraction solvers selectable in :class:`StatisticalCharacterizer`.
SOLVERS = ("batched", "scipy")

#: Per-(characterization, supply) effective-current rows.  An STA run queries
#: one analysis supply thousands of times per characterization; the
#: device-model evaluation is identical every time, so it is paid once and
#: its reuse is visible in ``repro.runtime.cache_stats()["ieff"]``.
_IEFF_CACHE = register_runtime_cache(
    LruCache("ieff", max_entries=4096, max_bytes=64 * 2**20))

#: Distinct tokens identifying characterization instances in the Ieff cache
#: (tokens are never reused, unlike ``id()``).
_IEFF_TOKENS = itertools.count()


def arc_observation_pair(
    technology: TechnologyNode,
    inverter: EquivalentInverter,
    conditions: Sequence[InputCondition],
    delay_prior: TimingPrior,
    slew_prior: TimingPrior,
    delay_matrix: np.ndarray,
    slew_matrix: np.ndarray,
    space: Optional[InputSpace] = None,
) -> Tuple[BatchMapObservations, BatchMapObservations]:
    """Build the (delay, slew) MAP observation blocks of one arc.

    This is the single definition of how measured per-seed samples become
    Eq. 15 observations -- the per-seed effective currents at each fitting
    supply, the precision weights from the learned priors, the
    condition-major measurement matrices transposed to seed-major rows.
    :meth:`StatisticalCharacterizer.characterize` and the fused library
    pipeline both call it, so the two extraction paths can never drift.

    Parameters
    ----------
    technology:
        Target node (supplies the input-space normalization of the
        precision model).
    inverter:
        Seed-vectorized equivalent inverter of the arc.
    conditions:
        The ``k`` fitting conditions, in measurement order.
    delay_prior, slew_prior:
        Learned priors whose precision models weight the residuals.
    delay_matrix, slew_matrix:
        Measured responses of shape ``(k, n_seeds)`` (condition-major, the
        layout :func:`repro.spice.sweep.sweep_conditions` produces), SI
        seconds.
    space:
        Optional pre-built :class:`InputSpace` (avoids rebuilding it per
        arc in library-scale loops).
    """
    conditions = list(conditions)
    sin, cload, vdd = conditions_to_arrays(conditions)
    space = space if space is not None else InputSpace(technology)
    unit = space.normalize(conditions)
    delay_beta = delay_prior.precision_model.beta(unit)
    slew_beta = slew_prior.precision_model.beta(unit)

    delay_matrix = np.asarray(delay_matrix, dtype=float)
    slew_matrix = np.asarray(slew_matrix, dtype=float)
    if (delay_matrix.ndim != 2 or delay_matrix.shape[0] != len(conditions)
            or slew_matrix.shape != delay_matrix.shape):
        raise ValueError(
            f"measurement matrices must have shape ({len(conditions)}, "
            f"n_seeds); got {delay_matrix.shape} and {slew_matrix.shape}")
    n_seeds = delay_matrix.shape[1]

    # Per-seed effective currents at each fitting condition's supply,
    # evaluated in one broadcast over (k, n_seeds).
    ieff_matrix = np.broadcast_to(
        np.atleast_2d(np.asarray(
            inverter.effective_current(np.asarray(vdd)[:, np.newaxis]),
            dtype=float)),
        (len(conditions), n_seeds)).copy()

    delay_obs = BatchMapObservations(
        sin=sin, cload=cload, vdd=vdd, ieff=ieff_matrix.T,
        response=delay_matrix.T, beta=delay_beta)
    slew_obs = BatchMapObservations(
        sin=sin, cload=cload, vdd=vdd, ieff=ieff_matrix.T,
        response=slew_matrix.T, beta=slew_beta)
    return delay_obs, slew_obs


@dataclass(frozen=True)
class StatisticalCharacterization:
    """Per-seed compact-model parameters of one arc plus prediction helpers.

    Attributes
    ----------
    cell_name, arc_name:
        Identification of the characterized arc.
    delay_parameters, slew_parameters:
        Arrays of shape ``(n_seeds, 4)`` with one extracted parameter vector
        per Monte Carlo seed (natural units).
    inverter:
        The seed-vectorized equivalent inverter (needed to evaluate ``Ieff``
        per seed at prediction time).
    fitting_conditions:
        The ``k`` input conditions that were simulated.
    simulation_runs:
        Total simulator invocations spent (``k * n_seeds``).
    solver:
        Which extraction solver produced the parameters (``"batched"`` or
        ``"scipy"``).
    delay_converged, slew_converged:
        Optional per-seed convergence flags from the batched solver
        (``None`` for the scipy path, whose per-seed ``FitResult`` objects
        are not retained).
    """

    cell_name: str
    arc_name: str
    delay_parameters: np.ndarray
    slew_parameters: np.ndarray
    inverter: EquivalentInverter
    fitting_conditions: Tuple[InputCondition, ...]
    simulation_runs: int
    _model: CompactTimingModel = CompactTimingModel()
    solver: str = "batched"
    delay_converged: Optional[np.ndarray] = None
    slew_converged: Optional[np.ndarray] = None

    def __getstate__(self):
        # The Ieff-cache token is process-local: a pickled copy landing in
        # another process must not collide with tokens that process's own
        # counter already handed out, so it is dropped here and lazily
        # reissued by :meth:`ieff_row` on first use.
        state = self.__dict__.copy()
        state.pop("_ieff_token", None)
        return state

    def __setstate__(self, state) -> None:
        # Bypasses the frozen dataclass's __setattr__ (plain dict update).
        self.__dict__.update(state)

    def unconverged_seeds(self) -> np.ndarray:
        """Seed indices whose delay or slew extraction failed to converge.

        Empty when everything converged, and also for the scipy path (which
        does not retain per-seed flags).
        """
        flags = np.zeros(self.n_seeds, dtype=bool)
        if self.delay_converged is not None:
            flags |= ~np.asarray(self.delay_converged, dtype=bool)
        if self.slew_converged is not None:
            flags |= ~np.asarray(self.slew_converged, dtype=bool)
        return np.nonzero(flags)[0]

    @property
    def n_seeds(self) -> int:
        """Number of Monte Carlo seeds."""
        return int(self.delay_parameters.shape[0])

    @property
    def k(self) -> int:
        """Number of fitting input conditions."""
        return len(self.fitting_conditions)

    # ------------------------------------------------------------------
    # Per-seed prediction
    # ------------------------------------------------------------------
    def _samples(self, condition: InputCondition, parameters: np.ndarray
                 ) -> np.ndarray:
        ieff = np.asarray(self.inverter.effective_current(condition.vdd),
                          dtype=float).reshape(-1)
        if ieff.size == 1:
            ieff = np.full(self.n_seeds, float(ieff[0]))
        # evaluate_array broadcasts per-seed parameter rows against the
        # per-seed effective currents, so the whole ensemble evaluates at once.
        return np.asarray(self._model.evaluate_array(
            parameters, condition.sin, condition.cload, condition.vdd, ieff),
            dtype=float).reshape(-1)

    def ieff_row(self, vdd: float) -> np.ndarray:
        """Per-seed effective currents at one supply, cached per vdd value.

        Rows live in the runtime-registered ``"ieff"`` LRU, keyed by a
        token unique to this characterization instance plus the supply, so
        hits/misses/evictions are visible in ``runtime.cache_stats()`` and
        the memory is bounded globally rather than per instance.  (The
        token lives outside the frozen dataclass fields.)
        """
        token = self.__dict__.get("_ieff_token")
        if token is None:
            token = next(_IEFF_TOKENS)
            object.__setattr__(self, "_ieff_token", token)
        key = (token, float(vdd))
        row = _IEFF_CACHE.get(key)
        if row is None:
            row = np.asarray(self.inverter.effective_current(vdd),
                             dtype=float).reshape(-1)
            if row.size == 1:
                row = np.full(self.n_seeds, float(row[0]))
            _IEFF_CACHE.put(key, row, nbytes=row.nbytes)
        return row

    def _samples_many(self, sin: np.ndarray, cload: np.ndarray,
                      vdd: np.ndarray, parameters: np.ndarray) -> np.ndarray:
        sin = np.asarray(sin, dtype=float).reshape(-1)
        cload = np.asarray(cload, dtype=float).reshape(-1)
        vdd = np.asarray(vdd, dtype=float).reshape(-1)
        if sin.size != cload.size or sin.size != vdd.size:
            raise ValueError("sin, cload and vdd must have the same length")
        if sin.size and np.all(vdd == vdd[0]):
            ieff = np.broadcast_to(self.ieff_row(float(vdd[0])),
                                   (sin.size, self.n_seeds))
        else:
            ieff = np.broadcast_to(
                np.atleast_2d(np.asarray(
                    self.inverter.effective_current(vdd[:, np.newaxis]),
                    dtype=float)),
                (sin.size, self.n_seeds))
        # evaluate_array broadcasts the (n_seeds, 4) parameter matrix against
        # the (n_points, 1) condition columns and the (n_points, n_seeds)
        # effective currents: the whole ensemble at every operating point
        # evaluates in one array pass.
        return np.asarray(self._model.evaluate_array(
            parameters, sin[:, np.newaxis], cload[:, np.newaxis],
            vdd[:, np.newaxis], ieff), dtype=float)

    def delay_samples(self, condition: InputCondition) -> np.ndarray:
        """Per-seed delay predictions (seconds) at one operating point."""
        return self._samples(condition, self.delay_parameters)

    def slew_samples(self, condition: InputCondition) -> np.ndarray:
        """Per-seed output-slew predictions (seconds) at one operating point."""
        return self._samples(condition, self.slew_parameters)

    def delay_samples_many(self, sin: np.ndarray, cload: np.ndarray,
                           vdd: np.ndarray) -> np.ndarray:
        """Per-seed delays at many operating points, shape ``(n_points, n_seeds)``.

        The vectorized form of :meth:`delay_samples`: condition arrays in SI
        units, one row of seed samples per operating point.  The table-backed
        timing view of :mod:`repro.sta` reproduces these numbers bit for bit
        from stacked parameter planes.
        """
        return self._samples_many(sin, cload, vdd, self.delay_parameters)

    def slew_samples_many(self, sin: np.ndarray, cload: np.ndarray,
                          vdd: np.ndarray) -> np.ndarray:
        """Per-seed output slews at many points, shape ``(n_points, n_seeds)``."""
        return self._samples_many(sin, cload, vdd, self.slew_parameters)

    def delay_statistics(self, condition: InputCondition) -> Dict[str, float]:
        """Mean / std / skew of the predicted delay distribution."""
        return _moments(self.delay_samples(condition))

    def slew_statistics(self, condition: InputCondition) -> Dict[str, float]:
        """Mean / std / skew of the predicted slew distribution."""
        return _moments(self.slew_samples(condition))

    def predict_statistics(self, conditions: Sequence[InputCondition]
                           ) -> Dict[str, np.ndarray]:
        """Vectorized mean/std prediction over many operating points.

        Returns a dictionary with arrays ``mu_delay``, ``sigma_delay``,
        ``mu_slew``, ``sigma_slew`` of length ``len(conditions)``.
        """
        sin, cload, vdd = conditions_to_arrays(list(conditions))
        delay = self.delay_samples_many(sin, cload, vdd)
        slew = self.slew_samples_many(sin, cload, vdd)
        return {"mu_delay": delay.mean(axis=1), "sigma_delay": delay.std(axis=1),
                "mu_slew": slew.mean(axis=1), "sigma_slew": slew.std(axis=1)}

    def mean_parameters(self, response: str = "delay") -> TimingModelParameters:
        """Average extracted parameters across seeds."""
        matrix = (self.delay_parameters if response == "delay"
                  else self.slew_parameters)
        return TimingModelParameters.from_array(matrix.mean(axis=0))


def _moments(values: np.ndarray) -> Dict[str, float]:
    values = np.asarray(values, dtype=float).reshape(-1)
    mean = float(np.mean(values))
    std = float(np.std(values))
    skew = float(np.mean(((values - mean) / std) ** 3)) if std > 0 else 0.0
    return {"mean": mean, "std": std, "skew": skew}


class StatisticalCharacterizer:
    """Proposed-flow statistical characterizer for one cell timing arc.

    ``ledger`` threads a :class:`~repro.runtime.accounting.RunLedger`
    through the run (``simulate`` / ``extract`` stage timings, simulation
    runs, solver iterations, cache activity); ``max_bytes`` bounds the
    batched engines' working sets via deterministic chunking (``None``
    defers to ``repro.runtime.configure(max_bytes=...)``).
    """

    def __init__(
        self,
        technology: TechnologyNode,
        cell: Cell,
        delay_prior: TimingPrior,
        slew_prior: TimingPrior,
        arc: Optional[TimingArc] = None,
        n_seeds: int = 200,
        rng: RandomState = None,
        counter: Optional[SimulationCounter] = None,
        solver: str = "batched",
        ledger: Optional[RunLedger] = None,
        max_bytes: Optional[int] = None,
        transient_engine: Optional[str] = None,
    ):
        if n_seeds < 2:
            raise ValueError("statistical characterization needs at least 2 seeds")
        if solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}, got {solver!r}")
        self._technology = technology
        self._cell = cell
        self._arc = arc if arc is not None else cell.timing_arcs()[1]
        self._delay_prior = delay_prior
        self._slew_prior = slew_prior
        self._n_seeds = int(n_seeds)
        self._rng = ensure_rng(rng)
        self._counter = counter
        self._space = InputSpace(technology)
        self._model = CompactTimingModel()
        self._variation: Optional[VariationSample] = None
        self._solver = solver
        self._ledger = ledger
        self._max_bytes = max_bytes
        #: Transient integration engine of the simulate stage (``None``
        #: defers to ``runtime.configure(transient_engine=...)``).
        self._transient_engine = transient_engine

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def n_seeds(self) -> int:
        """Number of Monte Carlo seeds used per characterization."""
        return self._n_seeds

    @property
    def solver(self) -> str:
        """The default parameter-extraction solver (``"batched"`` / ``"scipy"``)."""
        return self._solver

    @property
    def variation(self) -> Optional[VariationSample]:
        """The Monte Carlo seeds of the latest characterization (if any)."""
        return self._variation

    def use_variation(self, variation: VariationSample) -> None:
        """Force a specific seed batch (so baselines share the same seeds)."""
        if variation.n_seeds < 2:
            raise ValueError("need at least 2 seeds")
        self._variation = variation
        self._n_seeds = variation.n_seeds

    # ------------------------------------------------------------------
    # Characterization
    # ------------------------------------------------------------------
    def characterize(self, conditions: Union[int, Sequence[InputCondition]],
                     rng: RandomState = None,
                     solver: Optional[str] = None) -> StatisticalCharacterization:
        """Run the statistical flow with ``k`` fitting conditions.

        Parameters
        ----------
        conditions:
            Number of fitting conditions (chosen by Latin hypercube) or an
            explicit condition list.
        rng:
            Random source for automatic condition selection.
        solver:
            Parameter-extraction solver for this run: ``"batched"`` (the
            seed-vectorized Levenberg-Marquardt solver of
            :mod:`repro.core.batch_map`, default) or ``"scipy"`` (one
            trust-region solve per seed and response; kept for parity
            testing).  ``None`` uses the constructor's choice.
        """
        solver = self._solver if solver is None else solver
        if solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}, got {solver!r}")
        if isinstance(conditions, int):
            conditions = self._space.sample_lhs(conditions,
                                                ensure_rng(rng) if rng is not None
                                                else self._rng)
        conditions = list(conditions)
        if not conditions:
            raise ValueError("at least one fitting condition is required")

        if self._variation is None:
            self._variation = self._technology.variation.sample(self._n_seeds,
                                                                self._rng)
        variation = self._variation
        inverter = reduce_cell_cached(self._cell, self._technology,
                                      arc=self._arc, variation=variation)

        ledger = self._ledger
        runs_before = self._counter.total if self._counter is not None else 0
        with (ledger.stage("simulate") if ledger is not None else nullcontext()), \
             (ledger.caches() if ledger is not None else nullcontext()):
            measurements = sweep_conditions(
                self._cell, self._technology, [c.as_tuple() for c in conditions],
                arc=self._arc, variation=variation, counter=self._counter,
                counter_label=f"proposed_statistical:{self._cell.name}",
                engine=self._transient_engine,
                max_bytes=self._max_bytes,
                ledger=ledger,
            )
        runs = ((self._counter.total - runs_before) if self._counter is not None
                else len(conditions) * variation.n_seeds)
        if ledger is not None:
            ledger.add_simulations(
                runs, label=f"proposed_statistical:{self._cell.name}")

        delay_matrix = np.stack([np.asarray(m.delay).reshape(-1)
                                 for m in measurements], axis=0)
        slew_matrix = np.stack([np.asarray(m.output_slew).reshape(-1)
                                for m in measurements], axis=0)
        return self._extract(conditions, inverter, delay_matrix, slew_matrix,
                             runs, solver)

    def characterize_from_measurements(
        self,
        conditions: Sequence[InputCondition],
        delay_matrix: np.ndarray,
        slew_matrix: np.ndarray,
        solver: Optional[str] = None,
        simulation_runs: Optional[int] = None,
    ) -> StatisticalCharacterization:
        """Extraction-only flow: inject presimulated per-seed measurements.

        The fused library pipeline (and any caller that obtained the
        transient samples elsewhere -- a replayed cache, an external
        simulator, a shared mega-batch) hands the measured matrices straight
        to the MAP extraction, skipping the simulate stage entirely.  The
        result is indistinguishable from :meth:`characterize` run on the
        same samples.

        Parameters
        ----------
        conditions:
            The ``k`` fitting conditions the matrices were measured at.
        delay_matrix, slew_matrix:
            Measured responses of shape ``(k, n_seeds)`` (condition-major),
            SI seconds, with ``n_seeds`` matching the characterizer's seed
            batch.
        solver:
            Extraction solver override (as in :meth:`characterize`).
        simulation_runs:
            Run count recorded on the result; defaults to ``k * n_seeds``
            (what measuring the matrices costs), letting orchestrators that
            account runs themselves keep the per-arc bookkeeping identical.

        Raises
        ------
        ValueError
            If no seed batch is pinned (call :meth:`use_variation` first --
            the per-seed effective currents require the concrete seeds) or
            on shape mismatches.
        """
        solver = self._solver if solver is None else solver
        if solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}, got {solver!r}")
        conditions = list(conditions)
        if not conditions:
            raise ValueError("at least one fitting condition is required")
        if self._variation is None:
            raise ValueError(
                "characterize_from_measurements needs a pinned seed batch; "
                "call use_variation() with the seeds the measurements were "
                "simulated with")
        delay_matrix = np.asarray(delay_matrix, dtype=float)
        slew_matrix = np.asarray(slew_matrix, dtype=float)
        expected = (len(conditions), self._variation.n_seeds)
        if delay_matrix.shape != expected or slew_matrix.shape != expected:
            raise ValueError(
                f"measurement matrices must have shape {expected}, got "
                f"{delay_matrix.shape} and {slew_matrix.shape}")
        inverter = reduce_cell_cached(self._cell, self._technology,
                                      arc=self._arc, variation=self._variation)
        runs = (int(simulation_runs) if simulation_runs is not None
                else len(conditions) * self._variation.n_seeds)
        return self._extract(conditions, inverter, delay_matrix, slew_matrix,
                             runs, solver)

    def _extract(self, conditions: List[InputCondition],
                 inverter: EquivalentInverter, delay_matrix: np.ndarray,
                 slew_matrix: np.ndarray, runs: int,
                 solver: str) -> StatisticalCharacterization:
        """The shared extract stage behind both characterization entry points."""
        ledger = self._ledger
        delay_obs, slew_obs = arc_observation_pair(
            self._technology, inverter, conditions, self._delay_prior,
            self._slew_prior, delay_matrix, slew_matrix, space=self._space)

        n_seeds = delay_obs.n_seeds
        delay_converged: Optional[np.ndarray] = None
        slew_converged: Optional[np.ndarray] = None
        with (ledger.stage("extract") if ledger is not None else nullcontext()):
            if solver == "batched":
                # One seed-vectorized Levenberg-Marquardt solve per response:
                # every seed is a row of the (n_seeds, k) observation matrices.
                delay_result = map_estimate_batch(
                    self._delay_prior, delay_obs, model=self._model,
                    max_bytes=self._max_bytes)
                slew_result = map_estimate_batch(
                    self._slew_prior, slew_obs, model=self._model,
                    max_bytes=self._max_bytes)
                delay_params = delay_result.parameters
                slew_params = slew_result.parameters
                delay_converged = delay_result.converged
                slew_converged = slew_result.converged
                if ledger is not None:
                    ledger.add_metric(
                        "solver_iterations",
                        int(delay_result.n_iterations.sum()
                            + slew_result.n_iterations.sum()))
            else:
                delay_params = np.empty((n_seeds, 4))
                slew_params = np.empty((n_seeds, 4))
                for seed in range(n_seeds):
                    seed_delay = MapObservations(
                        sin=delay_obs.sin, cload=delay_obs.cload,
                        vdd=delay_obs.vdd, ieff=delay_obs.ieff[seed],
                        response=delay_obs.response[seed], beta=delay_obs.beta)
                    seed_slew = MapObservations(
                        sin=slew_obs.sin, cload=slew_obs.cload,
                        vdd=slew_obs.vdd, ieff=slew_obs.ieff[seed],
                        response=slew_obs.response[seed], beta=slew_obs.beta)
                    delay_params[seed] = map_estimate(self._delay_prior, seed_delay,
                                                      model=self._model).params.as_array()
                    slew_params[seed] = map_estimate(self._slew_prior, seed_slew,
                                                     model=self._model).params.as_array()
                if ledger is not None:
                    ledger.add_metric("extraction_solves", 2 * n_seeds)

        return StatisticalCharacterization(
            cell_name=self._cell.name,
            arc_name=self._arc.name,
            delay_parameters=delay_params,
            slew_parameters=slew_params,
            inverter=inverter,
            fitting_conditions=tuple(conditions),
            simulation_runs=runs,
            solver=solver,
            delay_converged=delay_converged,
            slew_converged=slew_converged,
        )

    #: Alias so the statistical flow matches the nominal characterizer's
    #: ``fit()`` entry point.
    fit = characterize

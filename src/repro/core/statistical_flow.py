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

:class:`StatisticalCharacterizer` runs steps 2 and 3 for one arc as a
one-job pass of the fused library pipeline
(:func:`repro.core.library_flow.characterize_fused_jobs`), so one arc and a
whole library share one production path.  The straight-line sweep-and-solve
reference it must equal lives in ``tests/oracles/library.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cells.equivalent_inverter import EquivalentInverter, default_arc
from repro.cells.library import Cell, TimingArc
from repro.characterization.input_space import (
    InputCondition,
    InputSpace,
    conditions_to_arrays,
)
from repro.core.batch_map import BatchMapObservations
from repro.core.prior_learning import TimingPrior, _check_response
from repro.core.timing_model import CompactTimingModel, TimingModelParameters
from repro.runtime import register_runtime_cache
from repro.runtime.accounting import RunLedger
from repro.runtime.cache import LruCache
from repro.runtime.executor import get_executor
from repro.spice.stepper import resolve_stepper
from repro.spice.testbench import SimulationCounter
from repro.technology.node import TechnologyNode
from repro.technology.variation import VariationSample
from repro.utils.rng import RandomState, ensure_rng

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
    The fused library pipeline builds every arc's blocks with it, and the
    per-arc test oracle does too, so the two can never drift.

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
    delay_converged, slew_converged:
        Per-seed convergence flags of the MAP solve (``None`` when the
        parameters were not produced by a solve).
    """

    cell_name: str
    arc_name: str
    delay_parameters: np.ndarray
    slew_parameters: np.ndarray
    inverter: EquivalentInverter
    fitting_conditions: Tuple[InputCondition, ...]
    simulation_runs: int
    _model: CompactTimingModel = CompactTimingModel()
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

        Empty when everything converged, and also when no flags were
        recorded.
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
        """Average extracted parameters across seeds (``"delay"``/``"slew"``)."""
        _check_response(response)
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
    through the run (the fused pipeline's ``fused:*`` stage timings,
    simulation runs, solver iterations, cache activity); ``max_bytes``
    bounds the batched engines' working sets via deterministic chunking
    (``None`` defers to ``repro.runtime.configure(max_bytes=...)``).
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
        ledger: Optional[RunLedger] = None,
        max_bytes: Optional[int] = None,
        transient_engine: Optional[str] = None,
    ):
        if n_seeds < 2:
            raise ValueError("statistical characterization needs at least 2 seeds")
        self._technology = technology
        self._cell = cell
        self._arc = arc if arc is not None else default_arc(cell)
        self._delay_prior = delay_prior
        self._slew_prior = slew_prior
        self._n_seeds = int(n_seeds)
        self._rng = ensure_rng(rng)
        self._counter = counter
        self._space = InputSpace(technology)
        self._variation: Optional[VariationSample] = None
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
                     rng: RandomState = None) -> StatisticalCharacterization:
        """Run the statistical flow with ``k`` fitting conditions.

        The arc runs as a one-job pass of the fused library pipeline
        (:func:`repro.core.library_flow.characterize_fused_jobs`) on the
        serial executor: one transient pass over its ``k x n_seeds`` rows,
        then one seed-vectorized MAP solve per response.  The counter is
        charged ``k * n_seeds`` runs under ``proposed_statistical:<cell>``.

        Parameters
        ----------
        conditions:
            Number of fitting conditions (chosen by Latin hypercube) or an
            explicit condition list.
        rng:
            Random source for automatic condition selection.
        """
        # Deferred: library_flow imports this module.
        from repro.core.library_flow import characterize_fused_jobs

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
        stepper = resolve_stepper(self._transient_engine)
        (result,), _failures = characterize_fused_jobs(
            self._technology, [(self._cell, self._arc)], [conditions],
            self._delay_prior, self._slew_prior, self._variation, "batched",
            get_executor("serial"),
            self._ledger if self._ledger is not None else RunLedger(),
            self._max_bytes, stepper=stepper)
        if self._counter is not None:
            self._counter.add(result.simulation_runs,
                              label=f"proposed_statistical:{self._cell.name}")
        return result

    #: Alias so the statistical flow matches the nominal characterizer's
    #: ``fit()`` entry point.
    fit = characterize

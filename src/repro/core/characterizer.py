"""Nominal characterization with the proposed model + Bayesian inference.

:class:`BayesianCharacterizer` implements the target-technology half of the
paper's Fig. 4 flow for nominal (process-typical) characterization: pick a
tiny set of fitting input conditions, simulate them, extract the compact
timing-model parameters by MAP estimation against the historical prior, and
from then on answer delay/slew queries anywhere in the input space
analytically -- no further simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.cells.equivalent_inverter import (
    EquivalentInverter,
    default_arc,
    reduce_cell_cached,
)
from repro.cells.library import Cell, TimingArc
from repro.characterization.input_space import (
    InputCondition,
    InputSpace,
    conditions_to_arrays,
)
from repro.core.map_estimation import MapObservations, map_estimate
from repro.core.prior_learning import TimingPrior
from repro.core.timing_model import CompactTimingModel, FitResult
from repro.spice.sweep import sweep_conditions
from repro.spice.testbench import SimulationCounter
from repro.technology.node import TechnologyNode
from repro.utils.rng import RandomState, ensure_rng


@dataclass(frozen=True)
class NominalCharacterization:
    """Result of a nominal proposed-flow characterization of one arc."""

    cell_name: str
    arc_name: str
    delay_fit: FitResult
    slew_fit: FitResult
    fitting_conditions: Sequence[InputCondition]
    simulation_runs: int

    @property
    def k(self) -> int:
        """Number of fitting input conditions used."""
        return len(self.fitting_conditions)


class BayesianCharacterizer:
    """Proposed-flow nominal characterizer for one cell timing arc."""

    def __init__(
        self,
        technology: TechnologyNode,
        cell: Cell,
        delay_prior: TimingPrior,
        slew_prior: TimingPrior,
        arc: Optional[TimingArc] = None,
        counter: Optional[SimulationCounter] = None,
    ):
        self._technology = technology
        self._cell = cell
        self._arc = arc if arc is not None else default_arc(cell)
        self._delay_prior = delay_prior
        self._slew_prior = slew_prior
        self._counter = counter
        self._space = InputSpace(technology)
        self._inverter: EquivalentInverter = reduce_cell_cached(cell, technology,
                                                                arc=self._arc)
        self._model = CompactTimingModel()
        self._result: Optional[NominalCharacterization] = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def technology(self) -> TechnologyNode:
        """The target technology node."""
        return self._technology

    @property
    def cell(self) -> Cell:
        """The cell being characterized."""
        return self._cell

    @property
    def arc(self) -> TimingArc:
        """The timing arc being characterized."""
        return self._arc

    @property
    def input_capacitance(self) -> float:
        """Capacitance presented by the arc's input pin, in farads."""
        return float(np.mean(np.asarray(self._inverter.input_cap)))

    @property
    def result(self) -> NominalCharacterization:
        """The most recent characterization result.

        Raises
        ------
        RuntimeError
            If :meth:`fit` has not been called yet.
        """
        if self._result is None:
            raise RuntimeError("call fit() before using the characterizer")
        return self._result

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def choose_fitting_conditions(self, k: int, rng: RandomState = None
                                  ) -> List[InputCondition]:
        """Pick ``k`` space-filling fitting conditions in the input space."""
        if k < 1:
            raise ValueError("k must be at least 1")
        return self._space.sample_lhs(k, ensure_rng(rng))

    def fit(self, conditions: Union[int, Sequence[InputCondition]],
            rng: RandomState = None) -> NominalCharacterization:
        """Simulate the fitting conditions and extract parameters by MAP.

        Parameters
        ----------
        conditions:
            Either the number ``k`` of fitting conditions to draw
            automatically (Latin hypercube) or an explicit list of
            :class:`InputCondition`.
        rng:
            Random source for automatic condition selection.
        """
        if isinstance(conditions, int):
            conditions = self.choose_fitting_conditions(conditions, rng)
        conditions = list(conditions)
        if not conditions:
            raise ValueError("at least one fitting condition is required")

        measurements = sweep_conditions(
            self._cell, self._technology,
            [c.as_tuple() for c in conditions], arc=self._arc,
            counter=self._counter, counter_label=f"proposed_fit:{self._cell.name}",
        )

        sin, cload, vdd = conditions_to_arrays(conditions)
        ieff = self._effective_currents(vdd)
        delays = np.array([m.nominal_delay() for m in measurements])
        slews = np.array([m.nominal_slew() for m in measurements])
        unit = self._space.normalize(conditions)

        delay_obs = MapObservations(
            sin=sin, cload=cload, vdd=vdd, ieff=ieff, response=delays,
            beta=self._delay_prior.precision_model.beta(unit))
        slew_obs = MapObservations(
            sin=sin, cload=cload, vdd=vdd, ieff=ieff, response=slews,
            beta=self._slew_prior.precision_model.beta(unit))

        delay_fit = map_estimate(self._delay_prior, delay_obs, model=self._model)
        slew_fit = map_estimate(self._slew_prior, slew_obs, model=self._model)

        self._result = NominalCharacterization(
            cell_name=self._cell.name,
            arc_name=self._arc.name,
            delay_fit=delay_fit,
            slew_fit=slew_fit,
            fitting_conditions=tuple(conditions),
            simulation_runs=len(conditions),
        )
        return self._result

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _effective_currents(self, vdd: np.ndarray) -> np.ndarray:
        # One vectorized evaluation over all supplies (nominal inverter, so
        # the device parameters are scalars and broadcast cleanly).
        vdd = np.asarray(vdd, dtype=float).reshape(-1)
        return np.asarray(self._inverter.effective_current(vdd),
                          dtype=float).reshape(-1)

    def predict_delay(self, conditions: Sequence[InputCondition]) -> np.ndarray:
        """Model-predicted delay (seconds) at arbitrary operating points."""
        return self._predict(conditions, self.result.delay_fit)

    def predict_slew(self, conditions: Sequence[InputCondition]) -> np.ndarray:
        """Model-predicted output slew (seconds) at arbitrary operating points."""
        return self._predict(conditions, self.result.slew_fit)

    def _predict(self, conditions: Sequence[InputCondition], fit: FitResult
                 ) -> np.ndarray:
        sin, cload, vdd = conditions_to_arrays(list(conditions))
        ieff = self._effective_currents(vdd)
        return self._model.evaluate(fit.params, sin, cload, vdd, ieff)

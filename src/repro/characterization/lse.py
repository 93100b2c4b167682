"""The "proposed model + least squares" baseline.

The paper's Figs. 6 and 8 compare three flows: the full proposal (compact
model + Bayesian MAP), the compact model fitted with a plain least-squares
error function, and the look-up table.  The LSE flow isolates the
contribution of the analytical model itself: it benefits from the model's
sparsity (four parameters) but, lacking the prior, needs at least as many
observations as parameters before its extraction is well determined.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.cells.equivalent_inverter import default_arc, reduce_cell_cached
from repro.cells.library import Cell, TimingArc
from repro.characterization.input_space import (
    InputCondition,
    InputSpace,
    conditions_to_arrays,
)
from repro.core.timing_model import CompactTimingModel, FitResult, fit_least_squares
from repro.spice.sweep import sweep_conditions
from repro.spice.testbench import SimulationCounter
from repro.technology.node import TechnologyNode
from repro.utils.rng import RandomState, ensure_rng


class LseCharacterizer:
    """Compact-model characterization with plain least-squares extraction."""

    def __init__(self, technology: TechnologyNode, cell: Cell,
                 arc: Optional[TimingArc] = None,
                 counter: Optional[SimulationCounter] = None):
        self._technology = technology
        self._cell = cell
        self._arc = arc if arc is not None else default_arc(cell)
        self._counter = counter
        self._space = InputSpace(technology)
        self._inverter = reduce_cell_cached(cell, technology, arc=self._arc)
        self._model = CompactTimingModel()
        self._delay_fit: Optional[FitResult] = None
        self._slew_fit: Optional[FitResult] = None
        self._simulation_runs = 0

    @property
    def simulation_runs(self) -> int:
        """Simulator invocations spent fitting."""
        return self._simulation_runs

    @property
    def delay_fit(self) -> FitResult:
        """The delay-parameter fit (raises if :meth:`fit` was not called)."""
        if self._delay_fit is None:
            raise RuntimeError("call fit() before querying the characterizer")
        return self._delay_fit

    @property
    def slew_fit(self) -> FitResult:
        """The slew-parameter fit."""
        if self._slew_fit is None:
            raise RuntimeError("call fit() before querying the characterizer")
        return self._slew_fit

    def fit(self, conditions: Union[int, Sequence[InputCondition]],
            rng: RandomState = None) -> "LseCharacterizer":
        """Simulate the fitting conditions and extract parameters by least squares."""
        if isinstance(conditions, int):
            conditions = self._space.sample_lhs(conditions, ensure_rng(rng))
        conditions = list(conditions)
        if not conditions:
            raise ValueError("at least one fitting condition is required")

        measurements = sweep_conditions(
            self._cell, self._technology, [c.as_tuple() for c in conditions],
            arc=self._arc, counter=self._counter,
            counter_label=f"lse_fit:{self._cell.name}")
        self._simulation_runs = len(conditions)

        sin, cload, vdd = conditions_to_arrays(conditions)
        ieff = self._effective_currents(vdd)
        delays = np.array([m.nominal_delay() for m in measurements])
        slews = np.array([m.nominal_slew() for m in measurements])
        self._delay_fit = fit_least_squares(sin, cload, vdd, ieff, delays,
                                            model=self._model)
        self._slew_fit = fit_least_squares(sin, cload, vdd, ieff, slews,
                                           model=self._model)
        return self

    def _effective_currents(self, vdd: np.ndarray) -> np.ndarray:
        vdd = np.asarray(vdd, dtype=float).reshape(-1)
        return np.asarray(self._inverter.effective_current(vdd),
                          dtype=float).reshape(-1)

    def predict_delay(self, conditions: Sequence[InputCondition]) -> np.ndarray:
        """Model-predicted delay at arbitrary operating points."""
        return self._predict(conditions, self.delay_fit)

    def predict_slew(self, conditions: Sequence[InputCondition]) -> np.ndarray:
        """Model-predicted output slew at arbitrary operating points."""
        return self._predict(conditions, self.slew_fit)

    def _predict(self, conditions: Sequence[InputCondition], fit: FitResult
                 ) -> np.ndarray:
        sin, cload, vdd = conditions_to_arrays(list(conditions))
        ieff = self._effective_currents(vdd)
        return self._model.evaluate(fit.params, sin, cload, vdd, ieff)

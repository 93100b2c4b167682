"""Look-up-table (LUT) characterization baseline.

The conventional flow stores delay and output slew (and, in the statistical
variant, their means and standard deviations) in a table indexed by the input
conditions and answers queries by multilinear interpolation.  Its simulation
cost is the full grid size (times the number of Monte Carlo seeds for the
statistical variant), which is exactly what the paper's proposed flow avoids.

The interpolator here is a tri-linear scheme with clamping outside the grid,
matching the NLDM-style tables of commercial characterization tools.  Grid
axes with a single sample degenerate gracefully (that dimension is treated as
constant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.cells.equivalent_inverter import default_arc
from repro.cells.library import Cell, TimingArc
from repro.characterization.input_space import InputCondition, InputSpace
from repro.spice.sweep import sweep_conditions
from repro.spice.testbench import SimulationCounter
from repro.technology.node import TechnologyNode
from repro.technology.variation import VariationSample


def _axis_weights(axis: np.ndarray, value: float) -> Tuple[int, int, float]:
    """Bracket ``value`` on ``axis`` and return (low index, high index, fraction)."""
    if axis.size == 1:
        return 0, 0, 0.0
    clamped = float(np.clip(value, axis[0], axis[-1]))
    high = int(np.searchsorted(axis, clamped))
    high = min(max(high, 1), axis.size - 1)
    low = high - 1
    span = axis[high] - axis[low]
    fraction = 0.0 if span == 0.0 else (clamped - axis[low]) / span
    return low, high, fraction


def _axis_weights_many(axis: np.ndarray, values: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`_axis_weights` over an array of query values.

    One ``np.searchsorted`` call brackets every query at once; degenerate
    single-sample axes collapse to index 0 with zero fraction, exactly like
    the scalar path.
    """
    values = np.asarray(values, dtype=float)
    if axis.size == 1:
        zero = np.zeros(values.shape, dtype=int)
        return zero, zero, np.zeros(values.shape)
    clamped = np.clip(values, axis[0], axis[-1])
    high = np.clip(np.searchsorted(axis, clamped), 1, axis.size - 1)
    low = high - 1
    span = axis[high] - axis[low]
    safe = np.where(span == 0.0, 1.0, span)
    fraction = np.where(span == 0.0, 0.0, (clamped - axis[low]) / safe)
    return low, high, fraction


@dataclass(frozen=True)
class LutGrid:
    """A three-dimensional table over ``(Sin, Cload, Vdd)``."""

    sin_axis: np.ndarray
    cload_axis: np.ndarray
    vdd_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.sin_axis.size, self.cload_axis.size, self.vdd_axis.size)
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape} does not match axes {expected}"
            )
        for name, axis in (("sin_axis", self.sin_axis),
                           ("cload_axis", self.cload_axis),
                           ("vdd_axis", self.vdd_axis)):
            if axis.size > 1 and np.any(np.diff(axis) <= 0.0):
                raise ValueError(f"{name} must be strictly increasing")

    @property
    def n_entries(self) -> int:
        """Number of table entries (the grid's simulation cost per seed)."""
        return int(self.values.size)

    def interpolate(self, condition: InputCondition) -> float:
        """Tri-linear interpolation (with clamping) at one operating point."""
        s0, s1, fs = _axis_weights(self.sin_axis, condition.sin)
        c0, c1, fc = _axis_weights(self.cload_axis, condition.cload)
        v0, v1, fv = _axis_weights(self.vdd_axis, condition.vdd)
        total = 0.0
        for si, ws in ((s0, 1.0 - fs), (s1, fs)):
            if ws == 0.0:
                continue
            for ci, wc in ((c0, 1.0 - fc), (c1, fc)):
                if wc == 0.0:
                    continue
                for vi, wv in ((v0, 1.0 - fv), (v1, fv)):
                    if wv == 0.0:
                        continue
                    total += ws * wc * wv * float(self.values[si, ci, vi])
        return total

    def interpolate_many(self, conditions: Sequence[InputCondition]) -> np.ndarray:
        """Interpolate at many operating points in one vectorized pass.

        Equivalent to mapping :meth:`interpolate` over the conditions (the
        test suite enforces exact agreement) but brackets every query with
        one ``np.searchsorted`` per axis and gathers all eight trilinear
        corners as fancy-indexed array reads, so library-scale query loads
        (validation sets, NLDM table grids) cost one NumPy pass instead of a
        Python loop.
        """
        conditions = list(conditions)
        if not conditions:
            return np.zeros(0)
        sin = np.array([c.sin for c in conditions])
        cload = np.array([c.cload for c in conditions])
        vdd = np.array([c.vdd for c in conditions])
        s0, s1, fs = _axis_weights_many(self.sin_axis, sin)
        c0, c1, fc = _axis_weights_many(self.cload_axis, cload)
        v0, v1, fv = _axis_weights_many(self.vdd_axis, vdd)
        values = self.values
        ws, wc, wv = 1.0 - fs, 1.0 - fc, 1.0 - fv
        return (
            ws * (wc * (wv * values[s0, c0, v0] + fv * values[s0, c0, v1])
                  + fc * (wv * values[s0, c1, v0] + fv * values[s0, c1, v1]))
            + fs * (wc * (wv * values[s1, c0, v0] + fv * values[s1, c0, v1])
                    + fc * (wv * values[s1, c1, v0] + fv * values[s1, c1, v1]))
        )


def _grid_axes(conditions: Sequence[InputCondition]
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    sin_axis = np.unique([c.sin for c in conditions])
    cload_axis = np.unique([c.cload for c in conditions])
    vdd_axis = np.unique([c.vdd for c in conditions])
    if sin_axis.size * cload_axis.size * vdd_axis.size != len(conditions):
        raise ValueError("conditions do not form a full factorial grid")
    return sin_axis, cload_axis, vdd_axis


def _values_to_grid(conditions: Sequence[InputCondition], values: np.ndarray,
                    axes: Tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    sin_axis, cload_axis, vdd_axis = axes
    grid = np.empty((sin_axis.size, cload_axis.size, vdd_axis.size))
    for condition, value in zip(conditions, values):
        i = int(np.searchsorted(sin_axis, condition.sin))
        j = int(np.searchsorted(cload_axis, condition.cload))
        k = int(np.searchsorted(vdd_axis, condition.vdd))
        grid[i, j, k] = value
    return grid


class LutCharacterizer:
    """Nominal LUT characterization of one cell timing arc."""

    def __init__(self, technology: TechnologyNode, cell: Cell,
                 arc: Optional[TimingArc] = None,
                 counter: Optional[SimulationCounter] = None):
        self._technology = technology
        self._cell = cell
        self._arc = arc if arc is not None else default_arc(cell)
        self._counter = counter
        self._space = InputSpace(technology)
        self._delay_lut: Optional[LutGrid] = None
        self._slew_lut: Optional[LutGrid] = None
        self._simulation_runs = 0

    @property
    def simulation_runs(self) -> int:
        """Simulator invocations spent building the table."""
        return self._simulation_runs

    @property
    def delay_table(self) -> LutGrid:
        """The built delay table (raises if :meth:`build` was not called)."""
        if self._delay_lut is None:
            raise RuntimeError("call build() before querying the LUT")
        return self._delay_lut

    @property
    def slew_table(self) -> LutGrid:
        """The built output-slew table."""
        if self._slew_lut is None:
            raise RuntimeError("call build() before querying the LUT")
        return self._slew_lut

    def build(self, n_points: int) -> "LutCharacterizer":
        """Build the tables from a grid of roughly ``n_points`` conditions.

        The grid dimensions are the most balanced factorization not exceeding
        ``n_points`` (see :meth:`InputSpace.grid_for_budget`), which is how
        the LUT baseline is given the same simulation budget as ``n_points``
        training samples of the proposed flow.
        """
        conditions = self._space.grid_for_budget(n_points)
        return self.build_from_conditions(conditions)

    def build_from_conditions(self, conditions: Sequence[InputCondition]
                              ) -> "LutCharacterizer":
        """Build the tables from an explicit full-factorial condition list."""
        conditions = list(conditions)
        axes = _grid_axes(conditions)
        measurements = sweep_conditions(
            self._cell, self._technology, [c.as_tuple() for c in conditions],
            arc=self._arc, counter=self._counter,
            counter_label=f"lut:{self._cell.name}")
        self._simulation_runs = len(conditions)
        delays = np.array([m.nominal_delay() for m in measurements])
        slews = np.array([m.nominal_slew() for m in measurements])
        self._delay_lut = LutGrid(*axes, _values_to_grid(conditions, delays, axes))
        self._slew_lut = LutGrid(*axes, _values_to_grid(conditions, slews, axes))
        return self

    def predict_delay(self, conditions: Sequence[InputCondition]) -> np.ndarray:
        """Interpolated delay at arbitrary operating points."""
        return self.delay_table.interpolate_many(conditions)

    def predict_slew(self, conditions: Sequence[InputCondition]) -> np.ndarray:
        """Interpolated output slew at arbitrary operating points."""
        return self.slew_table.interpolate_many(conditions)


class StatisticalLutCharacterizer:
    """Statistical LUT characterization (mean and sigma tables).

    At every grid point the full Monte Carlo seed batch is simulated; the
    table stores the per-point mean and standard deviation, and queries are
    answered by interpolating those moments.  The predicted distribution at
    any point is therefore Gaussian -- which is exactly the limitation the
    paper's Fig. 9 exposes at low supply voltages.
    """

    def __init__(self, technology: TechnologyNode, cell: Cell,
                 variation: VariationSample,
                 arc: Optional[TimingArc] = None,
                 counter: Optional[SimulationCounter] = None):
        if variation.n_seeds < 2:
            raise ValueError("statistical LUT needs at least 2 seeds")
        self._technology = technology
        self._cell = cell
        self._arc = arc if arc is not None else default_arc(cell)
        self._variation = variation
        self._counter = counter
        self._space = InputSpace(technology)
        self._tables: Dict[str, LutGrid] = {}
        self._simulation_runs = 0

    @property
    def simulation_runs(self) -> int:
        """Simulator invocations spent building the tables."""
        return self._simulation_runs

    def build(self, n_points: int) -> "StatisticalLutCharacterizer":
        """Build mean/sigma tables from a grid of roughly ``n_points`` conditions."""
        conditions = self._space.grid_for_budget(n_points)
        return self.build_from_conditions(conditions)

    def build_from_conditions(self, conditions: Sequence[InputCondition]
                              ) -> "StatisticalLutCharacterizer":
        """Build mean/sigma tables from an explicit full-factorial grid."""
        conditions = list(conditions)
        axes = _grid_axes(conditions)
        measurements = sweep_conditions(
            self._cell, self._technology, [c.as_tuple() for c in conditions],
            arc=self._arc, variation=self._variation, counter=self._counter,
            counter_label=f"lut_statistical:{self._cell.name}")
        self._simulation_runs = len(conditions) * self._variation.n_seeds
        stats = {
            "mu_delay": np.array([np.mean(m.delay) for m in measurements]),
            "sigma_delay": np.array([np.std(m.delay) for m in measurements]),
            "mu_slew": np.array([np.mean(m.output_slew) for m in measurements]),
            "sigma_slew": np.array([np.std(m.output_slew) for m in measurements]),
        }
        self._tables = {name: LutGrid(*axes, _values_to_grid(conditions, values, axes))
                        for name, values in stats.items()}
        return self

    def _table(self, name: str) -> LutGrid:
        if name not in self._tables:
            raise RuntimeError("call build() before querying the LUT")
        return self._tables[name]

    def predict_statistics(self, conditions: Sequence[InputCondition]
                           ) -> Dict[str, np.ndarray]:
        """Interpolated mean/sigma of delay and slew at arbitrary points."""
        conditions = list(conditions)
        return {name: self._table(name).interpolate_many(conditions)
                for name in ("mu_delay", "sigma_delay", "mu_slew", "sigma_slew")}

    def delay_distribution(self, condition: InputCondition, n_samples: int = 2000,
                           rng=None) -> np.ndarray:
        """Samples of the (Gaussian) delay distribution the LUT flow predicts."""
        from repro.utils.rng import ensure_rng

        stats = self.predict_statistics([condition])
        generator = ensure_rng(rng)
        return generator.normal(float(stats["mu_delay"][0]),
                                float(stats["sigma_delay"][0]), size=n_samples)

"""Timing views: how the STA engine queries characterized cells.

The STA engine does not care where the timing numbers come from -- the
proposed compact-model flow, a look-up table, or raw Monte Carlo -- it only
needs, for each cell type, the input pin capacitance and a function from
``(input slew, load capacitance)`` to ``(delay, output slew)`` at the
analysis supply.  :class:`TimingView` provides the nominal interface and
:class:`StatisticalTimingView` the per-seed vectorized variant used by SSTA.

The analyzers ask a view one **level query** per topological level of a
netlist: :meth:`TimingView.level_timing` and
:meth:`StatisticalTimingView.level_timing_samples` take every gate's cell
row (:meth:`TimingView.cell_rows`), input slew and load, whatever mix of
cell types the level holds.  A view built by
:func:`timing_view_from_statistical` is a :class:`TabulatedTimingView`: it
stores its cells' per-seed compact-model parameters as stacked
``(n_cells, n_seeds)`` planes and answers any query with one
gather-and-evaluate per response.  A view with only callbacks answers a
level query by grouping the gates per cell type and calling each cell's
batch callback (or, without one, its scalar callback in a loop), so the
analyzers work against any view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.characterization.input_space import InputCondition
from repro.core.characterizer import BayesianCharacterizer
from repro.core.statistical_flow import StatisticalCharacterization
from repro.runtime import resolve_max_bytes
from repro.runtime.chunking import plan_chunks
from repro.utils.units import FEMTO, PICO


def _query_chunks(n_points: int, n_seeds: int) -> list:
    """Memory-budgeted split of a timing query's gate (point) axis.

    Honors ``repro.runtime.configure(max_bytes=...)`` (one chunk when no
    budget is set).  Per-gate working set of a level query on a
    :class:`TabulatedTimingView`: the delay and slew outputs plus one
    response's five gathered table rows (kd, Cpar, Vdd + V', alpha, Ieff),
    which the evaluation updates in place -- seven ``n_seeds``-wide double
    rows.
    """
    return plan_chunks(n_points, 7 * 8 * max(n_seeds, 1),
                       resolve_max_bytes(None))


def _query_arrays(input_slews_s, load_caps_f) -> Tuple[np.ndarray, np.ndarray]:
    """A query's slews and loads as equal-length 1-D float arrays.

    A ``(n_points, n_seeds)`` slew array collapses to its per-point seed
    means (slew variation is second order for the circuits used here).
    """
    slews = np.asarray(input_slews_s, dtype=float)
    if slews.ndim == 2:
        slews = slews.mean(axis=1)
    slews = slews.reshape(-1)
    loads = np.asarray(load_caps_f, dtype=float).reshape(-1)
    if slews.size != loads.size:
        raise ValueError("input_slews_s and load_caps_f must match in length")
    return slews, loads


def _level_arrays(cell_rows, input_slews_s, load_caps_f
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A level query's cell rows, slews and loads, checked to one length."""
    slews, loads = _query_arrays(input_slews_s, load_caps_f)
    rows = np.asarray(cell_rows, dtype=np.int64).reshape(-1)
    if rows.size != slews.size:
        raise ValueError("cell_rows and input_slews_s must match in length")
    return rows, slews, loads


#: Signature of a nominal timing callback: (sin, cload) -> (delay, slew).
TimingCallback = Callable[[float, float], Tuple[float, float]]
#: Signature of a statistical callback: (sin, cload) -> (delay[], slew[]).
SampleCallback = Callable[[float, float], Tuple[np.ndarray, np.ndarray]]
#: Signature of a batched callback: (sin[], cload[]) -> (delay..., slew...)
#: with one leading axis over query points (plus a seed axis for samples).
BatchCallback = Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class CellTiming:
    """Timing data of one cell type in a view.

    Attributes
    ----------
    cell_name:
        Library cell name.
    input_cap_f:
        Capacitance presented by one input pin, in farads.
    callback:
        Function mapping ``(input_slew_s, load_cap_f)`` to either
        ``(delay_s, slew_s)`` floats (nominal view) or per-seed arrays
        (statistical view).
    batch_callback:
        Optional vectorized form mapping ``(slews[], loads[])`` arrays to
        ``(delays, slews)`` with one row per query point.  When absent,
        batched queries loop over ``callback`` -- same numbers, no speedup.
    """

    cell_name: str
    input_cap_f: float
    callback: Callable
    batch_callback: Optional[BatchCallback] = None


class TimingView:
    """Nominal timing view over a set of cell types."""

    def __init__(self, vdd: float, cells: Mapping[str, CellTiming]):
        self._set_cells(vdd, {name: entry.input_cap_f
                              for name, entry in cells.items()})
        self._cells = dict(cells)

    def _set_cells(self, vdd: float, input_caps_f: Mapping[str, float]) -> None:
        """Validate and store the supply and the covered cells, in row order."""
        if vdd <= 0.0:
            raise ValueError("vdd must be positive")
        if not input_caps_f:
            raise ValueError("at least one cell timing entry is required")
        self._vdd = vdd
        self._input_caps = dict(input_caps_f)
        self._names = tuple(self._input_caps)
        self._rows = {name: row for row, name in enumerate(self._names)}

    @property
    def vdd(self) -> float:
        """Supply voltage the view was characterized at."""
        return self._vdd

    def has_cell(self, cell_name: str) -> bool:
        """Whether the view covers a cell type."""
        return cell_name in self._rows

    def input_capacitance(self, cell_name: str) -> float:
        """Input pin capacitance of a cell type, in farads."""
        return self._input_caps[self._covered(cell_name)]

    def input_capacitances(self) -> Dict[str, float]:
        """Input pin capacitance of every covered cell type, in farads."""
        return dict(self._input_caps)

    def cell_rows(self, cell_names: Sequence[str]) -> np.ndarray:
        """The row of each named cell, as level queries take them.

        Raises ``KeyError`` for a cell the view does not cover.
        """
        for name in cell_names:
            if name not in self._rows:
                raise KeyError(f"timing view does not cover cell {name!r}")
        return np.array([self._rows[name] for name in cell_names],
                        dtype=np.int64)

    def gate_timing(self, cell_name: str, input_slew_s: float, load_cap_f: float
                    ) -> Tuple[float, float]:
        """Delay and output slew of a cell at the given loading, in seconds."""
        delay, slew = self._entry(cell_name).callback(input_slew_s, load_cap_f)
        return float(delay), float(slew)

    def gate_timing_many(self, cell_name: str, input_slews_s: np.ndarray,
                         load_caps_f: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Delay and output slew of one cell at many ``(slew, load)`` points.

        Returns two arrays of the query length.  Uses the entry's
        ``batch_callback`` when available, otherwise falls back to one
        scalar :meth:`gate_timing` call per point.
        """
        entry = self._entry(cell_name)
        slews, loads = _query_arrays(input_slews_s, load_caps_f)
        delay = np.empty(slews.size)
        slew = np.empty(slews.size)
        if entry.batch_callback is not None:
            # Points are independent queries, so the memory-budgeted chunk
            # walk returns exactly the one-call results.
            for rows in _query_chunks(slews.size, 1):
                delay[rows], slew[rows] = self._checked_batch(
                    entry, cell_name, slews[rows], loads[rows],
                    rows.stop - rows.start)
            return delay, slew
        for index in range(slews.size):
            delay[index], slew[index] = self.gate_timing(
                cell_name, float(slews[index]), float(loads[index]))
        return delay, slew

    def level_timing(self, cell_rows: np.ndarray, input_slews_s: np.ndarray,
                     load_caps_f: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Delay and output slew of many gates of any mix of cell types.

        ``cell_rows`` holds each gate's row (:meth:`cell_rows`).  Returns
        two arrays of the query length; the view groups the gates per cell
        type and issues one :meth:`gate_timing_many` per group.
        """
        return self._grouped(self.gate_timing_many, (), cell_rows,
                             input_slews_s, load_caps_f)

    def _grouped(self, query: Callable, shape: Tuple[int, ...], cell_rows,
                 input_slews_s, load_caps_f) -> Tuple[np.ndarray, np.ndarray]:
        """A level query answered by one per-cell ``query`` per cell type."""
        rows, slews, loads = _level_arrays(cell_rows, input_slews_s,
                                           load_caps_f)
        delay = np.empty((slews.size,) + shape)
        slew = np.empty((slews.size,) + shape)
        for row in np.unique(rows):
            local = np.flatnonzero(rows == row)
            delay[local], slew[local] = query(self._names[row], slews[local],
                                              loads[local])
        return delay, slew

    @staticmethod
    def _checked_batch(entry: CellTiming, cell_name: str, slews: np.ndarray,
                       loads: np.ndarray, expected: int
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """One nominal batch-callback call with length validation."""
        delay, slew = entry.batch_callback(slews, loads)
        delay = np.asarray(delay, dtype=float).reshape(-1)
        slew = np.asarray(slew, dtype=float).reshape(-1)
        if delay.size != expected or slew.size != expected:
            raise ValueError(
                f"cell {cell_name!r} batch callback returned "
                f"{delay.size} points, expected {expected}")
        return delay, slew

    def _covered(self, cell_name: str) -> str:
        """``cell_name`` itself, once checked to be covered by the view."""
        if cell_name not in self._rows:
            raise KeyError(f"timing view has no cell {cell_name!r}")
        return cell_name

    def _entry(self, cell_name: str) -> CellTiming:
        return self._cells[self._covered(cell_name)]


class StatisticalTimingView(TimingView):
    """Per-seed timing view used by Monte Carlo SSTA."""

    def __init__(self, vdd: float, cells: Mapping[str, CellTiming], n_seeds: int):
        super().__init__(vdd, cells)
        self._set_seeds(n_seeds)

    def _set_seeds(self, n_seeds: int) -> None:
        if n_seeds < 2:
            raise ValueError("a statistical view needs at least 2 seeds")
        self._n_seeds = int(n_seeds)

    @property
    def n_seeds(self) -> int:
        """Number of Monte Carlo seeds carried per query."""
        return self._n_seeds

    def gate_timing(self, cell_name: str, input_slew_s: float, load_cap_f: float
                    ) -> Tuple[float, float]:
        """Ensemble-mean delay and slew, so deterministic STA can run on a
        statistical view (e.g. one produced by the library orchestrator)
        without a separate nominal characterization."""
        delay, slew = self.gate_timing_samples(cell_name, input_slew_s,
                                               load_cap_f)
        return float(np.mean(delay)), float(np.mean(slew))

    def gate_timing_many(self, cell_name: str, input_slews_s: np.ndarray,
                         load_caps_f: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Ensemble-mean delay and slew at many points (deterministic STA)."""
        delay, slew = self.gate_timing_samples_many(cell_name, input_slews_s,
                                                    load_caps_f)
        return delay.mean(axis=1), slew.mean(axis=1)

    def level_timing(self, cell_rows: np.ndarray, input_slews_s: np.ndarray,
                     load_caps_f: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Ensemble-mean delay and slew of many gates (deterministic STA)."""
        delay, slew = self.level_timing_samples(cell_rows, input_slews_s,
                                                load_caps_f)
        return delay.mean(axis=1), slew.mean(axis=1)

    def gate_timing_samples(self, cell_name: str, input_slew_s, load_cap_f: float
                            ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-seed delay and output-slew arrays of a cell.

        ``input_slew_s`` may be a scalar or a per-seed array; it is collapsed
        to its mean for the table query (slew variation is second order for
        the circuits used here) while the returned delay/slew remain
        per-seed.
        """
        slew_scalar = float(np.mean(np.asarray(input_slew_s, dtype=float)))
        delay, slew = self._entry(cell_name).callback(slew_scalar, load_cap_f)
        delay = np.asarray(delay, dtype=float).reshape(-1)
        slew = np.asarray(slew, dtype=float).reshape(-1)
        if delay.size != self._n_seeds or slew.size != self._n_seeds:
            raise ValueError(
                f"cell {cell_name!r} returned {delay.size} seeds, expected {self._n_seeds}"
            )
        return delay, slew

    def gate_timing_samples_many(self, cell_name: str,
                                 input_slews_s: np.ndarray,
                                 load_caps_f: np.ndarray
                                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-seed delay/slew of one cell at many ``(slew, load)`` points.

        ``input_slews_s`` holds one already-collapsed slew per query point
        (pass a ``(n_points, n_seeds)`` array to collapse seed-wise slews to
        their means here, mirroring :meth:`gate_timing_samples`).  Returns
        two ``(n_points, n_seeds)`` arrays.
        """
        entry = self._entry(cell_name)
        slews, loads = _query_arrays(input_slews_s, load_caps_f)
        delay = np.empty((slews.size, self._n_seeds))
        slew = np.empty((slews.size, self._n_seeds))
        if entry.batch_callback is not None:
            # Chunking the point axis keeps the (points x seeds) working set
            # under the configured budget; rows are independent, so the
            # chunk walk returns exactly the one-call ensemble.
            for rows in _query_chunks(slews.size, self._n_seeds):
                delay[rows], slew[rows] = self._checked_samples(
                    entry, cell_name, slews[rows], loads[rows],
                    rows.stop - rows.start)
        else:
            for index in range(slews.size):
                delay[index], slew[index] = self.gate_timing_samples(
                    cell_name, float(slews[index]), float(loads[index]))
        return delay, slew

    def level_timing_samples(self, cell_rows: np.ndarray,
                             input_slews_s: np.ndarray,
                             load_caps_f: np.ndarray
                             ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-seed delay/slew of many gates of any mix of cell types.

        ``cell_rows`` holds each gate's row (:meth:`cell_rows`) and
        ``input_slews_s`` one slew per gate, or a ``(n_gates, n_seeds)``
        array collapsed to its per-gate means as in
        :meth:`gate_timing_samples`.  Returns two ``(n_gates, n_seeds)``
        arrays; the view groups the gates per cell type and issues one
        :meth:`gate_timing_samples_many` per group.
        """
        return self._grouped(self.gate_timing_samples_many, (self._n_seeds,),
                             cell_rows, input_slews_s, load_caps_f)

    def _checked_samples(self, entry: CellTiming, cell_name: str,
                         slews: np.ndarray, loads: np.ndarray, expected: int
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """One statistical batch-callback call with shape validation."""
        delay, slew = entry.batch_callback(slews, loads)
        delay = np.asarray(delay, dtype=float)
        slew = np.asarray(slew, dtype=float)
        if delay.shape != (expected, self._n_seeds) or delay.shape != slew.shape:
            raise ValueError(
                f"cell {cell_name!r} returned shape {delay.shape}, expected "
                f"({expected}, {self._n_seeds})")
        return delay, slew


class TabulatedTimingView(StatisticalTimingView):
    """A statistical view backed by stacked compact-model parameter planes.

    Per response (delay, output slew) the view keeps one
    ``(5, n_cells, n_seeds)`` table: the planes kd, Cpar, ``Vdd + V'`` and
    alpha in SI units -- the expressions
    :meth:`~repro.core.timing_model.CompactTimingModel.evaluate_array`
    applies to each seed's natural-unit parameters -- and each cell's
    per-seed Ieff row at the view supply.  Every query (one point, one cell
    at many points, or a level of mixed cells) gathers the gates' table
    rows once per response and evaluates the model in place on them,
    chunked over gates under ``runtime.configure(max_bytes=...)``.  Each
    element goes through the elementwise operations of
    :meth:`~repro.core.statistical_flow.StatisticalCharacterization.delay_samples_many`
    on the same operands, so the results are bit-identical to it.  No cell
    needs a callback.
    """

    def __init__(self,
                 characterizations: Mapping[str, StatisticalCharacterization],
                 input_caps_f: Mapping[str, float], vdd: float):
        seeds = {char.n_seeds for char in characterizations.values()}
        if len(seeds) != 1:
            raise ValueError(
                "all statistical characterizations must share the seed count")
        for cell_name in characterizations:
            if cell_name not in input_caps_f:
                raise KeyError(
                    f"missing input capacitance for cell {cell_name!r}")
        self._set_cells(vdd, {name: float(input_caps_f[name])
                              for name in characterizations})
        self._set_seeds(seeds.pop())
        chars = list(characterizations.values())
        self._tables = (self._table(chars, "delay_parameters"),
                        self._table(chars, "slew_parameters"))

    def _table(self, chars, field: str) -> np.ndarray:
        """One response's ``(5, n_cells, n_seeds)`` evaluation table.

        Like each response's ``*_samples_many``, it reads every cell's Ieff
        row through the runtime's ``"ieff"`` cache.
        """
        theta = np.stack([getattr(char, field) for char in chars])
        return np.stack([theta[..., 0], theta[..., 1] * FEMTO,
                         self._vdd + theta[..., 2],
                         theta[..., 3] * FEMTO / PICO,
                         np.stack([char.ieff_row(float(self._vdd))
                                   for char in chars])])

    def gate_timing_samples(self, cell_name: str, input_slew_s, load_cap_f: float
                            ) -> Tuple[np.ndarray, np.ndarray]:
        slew_scalar = float(np.mean(np.asarray(input_slew_s, dtype=float)))
        delay, slew = self.gate_timing_samples_many(cell_name, [slew_scalar],
                                                    [load_cap_f])
        return delay[0], slew[0]

    def gate_timing_samples_many(self, cell_name: str,
                                 input_slews_s: np.ndarray,
                                 load_caps_f: np.ndarray
                                 ) -> Tuple[np.ndarray, np.ndarray]:
        row = self._rows[self._covered(cell_name)]
        slews, loads = _query_arrays(input_slews_s, load_caps_f)
        return self.level_timing_samples(np.full(slews.size, row), slews,
                                         loads)

    def level_timing_samples(self, cell_rows: np.ndarray,
                             input_slews_s: np.ndarray,
                             load_caps_f: np.ndarray
                             ) -> Tuple[np.ndarray, np.ndarray]:
        rows, slews, loads = _level_arrays(cell_rows, input_slews_s,
                                           load_caps_f)
        outputs = tuple(np.empty((slews.size, self._n_seeds))
                        for _ in self._tables)
        # Gates are independent, so the chunk walk returns exactly the
        # one-pass results.
        for gates in _query_chunks(slews.size, self._n_seeds):
            sin = slews[gates, np.newaxis]
            cload = loads[gates, np.newaxis]
            for table, out in zip(self._tables, outputs):
                kd, cpar, supply, alpha, ieff = table.take(rows[gates], axis=1)
                # kd * ((Vdd + V') * (Cload + Cpar + alpha * Sin)) / Ieff.
                alpha *= sin
                cpar += cload
                cpar += alpha
                cpar *= supply
                kd *= cpar
                np.divide(kd, ieff, out=out[gates])
        return outputs


# ----------------------------------------------------------------------
# Factories
# ----------------------------------------------------------------------
def timing_view_from_characterizers(
    characterizers: Mapping[str, BayesianCharacterizer],
    vdd: float,
) -> TimingView:
    """Build a nominal :class:`TimingView` from fitted proposed-flow characterizers.

    Every characterizer must already have been fitted (``fit()`` called); the
    view queries its analytical model at the requested slew and load --
    scalar queries one at a time, batched queries in one vectorized model
    evaluation per cell.
    """
    cells: Dict[str, CellTiming] = {}
    for cell_name, characterizer in characterizers.items():
        input_cap = characterizer.input_capacitance

        def make_callbacks(bound=characterizer):
            def callback(input_slew_s: float, load_cap_f: float):
                condition = InputCondition(sin=input_slew_s, cload=load_cap_f, vdd=vdd)
                delay = float(bound.predict_delay([condition])[0])
                slew = float(bound.predict_slew([condition])[0])
                return delay, slew

            def batch_callback(input_slews_s: np.ndarray, load_caps_f: np.ndarray):
                conditions = [InputCondition(sin=float(s), cload=float(c), vdd=vdd)
                              for s, c in zip(input_slews_s, load_caps_f)]
                return (np.asarray(bound.predict_delay(conditions), dtype=float),
                        np.asarray(bound.predict_slew(conditions), dtype=float))

            return callback, batch_callback

        callback, batch_callback = make_callbacks()
        cells[cell_name] = CellTiming(cell_name=cell_name, input_cap_f=input_cap,
                                      callback=callback,
                                      batch_callback=batch_callback)
    return TimingView(vdd=vdd, cells=cells)


def timing_view_from_statistical(
    characterizations: Mapping[str, StatisticalCharacterization],
    input_caps_f: Mapping[str, float],
    vdd: float,
) -> StatisticalTimingView:
    """Build a :class:`StatisticalTimingView` from statistical characterizations.

    The view is a :class:`TabulatedTimingView`: the cells' per-seed
    compact-model parameters and Ieff rows are stacked once here, and every
    query is one gather-and-evaluate per response over them.

    Parameters
    ----------
    characterizations:
        Mapping of cell name to its per-seed characterization.
    input_caps_f:
        Input pin capacitance per cell name, in farads.
    vdd:
        Analysis supply voltage.
    """
    return TabulatedTimingView(characterizations, input_caps_f, vdd)

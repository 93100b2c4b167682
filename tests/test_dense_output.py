"""Dense-output (cubic Hermite) waveform evaluation on non-uniform grids.

The adaptive stepper emits coarse, deliberately non-uniform time grids plus
the exact integrator derivatives at every sample.  ``Waveform`` /
``WaveformBatch`` use those derivatives for cubic Hermite interpolation in
``value_at`` and bisection-refined ``crossing_time``, so timing extraction
on an adaptive grid matches the fixed-step engines' dense uniform grids.
A cubic polynomial is the exact-reproduction witness: Hermite interpolation
is exact for cubics on any grid, while linear interpolation on the same
coarse grid is visibly wrong.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cells import reduce_cell
from repro.spice import (
    simulate_arc_transition,
    simulate_arc_transition_adaptive,
    simulate_arc_transitions,
)
from repro.spice import transient as serial_engine
from repro.spice.waveform import Waveform, WaveformBatch

#: Deliberately non-uniform sample times on [0, 1] (adaptive-style grid).
GRID = np.array([0.0, 0.07, 0.1, 0.34, 0.5, 0.62, 0.9, 1.0])


def _cubic(t):
    """A cubic with a single crossing of 0.4 inside (0, 1)."""
    return 2.0 * t**3 - 3.0 * t**2 + 2.0 * t


def _cubic_deriv(t):
    return 6.0 * t**2 - 6.0 * t + 2.0


def _true_crossing(threshold):
    """Exact real root of ``_cubic(t) == threshold`` inside (0, 1)."""
    roots = np.roots([2.0, -3.0, 2.0, -threshold])
    real = roots[np.abs(roots.imag) < 1e-12].real
    (root,) = real[(real > 0.0) & (real < 1.0)]
    return root


class TestWaveformDenseOutput:
    def test_value_at_reproduces_cubic_exactly(self):
        wave = Waveform(GRID, _cubic(GRID), derivative=_cubic_deriv(GRID))
        linear = Waveform(GRID, _cubic(GRID))
        for when in (0.05, 0.2, 0.45, 0.75, 0.95):
            exact = _cubic(when)
            assert wave.value_at(when)[0] == pytest.approx(exact, abs=1e-12)
        # The same coarse grid without derivatives is measurably off.
        assert abs(linear.value_at(0.2)[0] - _cubic(0.2)) > 1e-3

    def test_crossing_time_refined_beyond_linear(self):
        wave = Waveform(GRID, _cubic(GRID), derivative=_cubic_deriv(GRID))
        linear = Waveform(GRID, _cubic(GRID))
        truth = _true_crossing(0.4)
        hermite_err = abs(wave.crossing_time(0.4)[0] - truth)
        linear_err = abs(linear.crossing_time(0.4)[0] - truth)
        assert hermite_err < 1e-12
        assert hermite_err < linear_err / 1000

    def test_nonfinite_derivative_falls_back_to_linear(self):
        deriv = _cubic_deriv(GRID).copy()
        deriv[:] = np.nan
        wave = Waveform(GRID, _cubic(GRID), derivative=deriv)
        linear = Waveform(GRID, _cubic(GRID))
        assert wave.crossing_time(0.4)[0] == pytest.approx(
            linear.crossing_time(0.4)[0])
        assert wave.value_at(0.2)[0] == pytest.approx(linear.value_at(0.2)[0])

    def test_derivative_shape_validated(self):
        with pytest.raises(ValueError, match="derivative"):
            Waveform(GRID, _cubic(GRID), derivative=_cubic_deriv(GRID[:-1]))

    def test_seed_slice_keeps_derivative(self):
        volt = np.stack([_cubic(GRID), 1.0 - _cubic(GRID)], axis=1)
        deriv = np.stack([_cubic_deriv(GRID), -_cubic_deriv(GRID)], axis=1)
        wave = Waveform(GRID, volt, derivative=deriv)
        single = wave.seed(0)
        assert single.derivative is not None
        assert single.value_at(0.2)[0] == pytest.approx(_cubic(0.2),
                                                        abs=1e-12)


class TestWaveformBatchDenseOutput:
    def _batch(self, with_derivative=True):
        # Two conditions on different non-uniform grids, one seed each;
        # condition 1 runs on a shifted/stretched copy of the base grid.
        t0, t1 = GRID, 2.0 * GRID
        time = np.stack([t0, t1])
        volt = np.stack([_cubic(t0), _cubic(t1 / 2.0)])[:, :, np.newaxis]
        deriv = None
        if with_derivative:
            deriv = np.stack([_cubic_deriv(t0),
                              _cubic_deriv(t1 / 2.0) / 2.0])[:, :, np.newaxis]
        return WaveformBatch(time, volt,
                             valid_len=np.array([t0.size, t1.size]),
                             derivative=deriv)

    def test_batch_crossing_matches_per_condition_waveform(self):
        batch = self._batch()
        crossings = batch.crossing_time(np.array([0.4, 0.4]))
        for index in range(2):
            single = batch.condition(index)
            assert single.derivative is not None
            assert crossings[index, 0] == pytest.approx(
                single.crossing_time(0.4)[0], rel=1e-12)

    def test_batch_hermite_beats_linear_crossing(self):
        truth = _true_crossing(0.4)
        hermite = self._batch().crossing_time(np.array([0.4, 0.4]))
        linear = self._batch(with_derivative=False).crossing_time(
            np.array([0.4, 0.4]))
        assert abs(hermite[0, 0] - truth) < 1e-12
        assert abs(hermite[1, 0] - 2.0 * truth) < 2e-12
        assert abs(hermite[0, 0] - truth) < abs(linear[0, 0] - truth) / 1000


class TestAdaptiveGridExtraction:
    def test_adaptive_waveforms_carry_derivatives(self, tech28, inv_cell):
        inverter = reduce_cell(inv_cell, tech28)
        result = simulate_arc_transition_adaptive(inverter, sin=5e-12,
                                                  cload=2e-15, vdd=0.9)
        wave = result.output_waveform
        assert wave.derivative is not None
        # The grid really is non-uniform (that is the whole point).
        steps = np.diff(wave.time)
        assert steps.max() > 2.0 * steps.min()

    def test_delay_on_coarse_adaptive_grid_matches_refined_fixed(self, tech28,
                                                                 inv_cell):
        # The adaptive grid has far fewer samples than even the nominal
        # fixed grid, yet dense output keeps the 50% crossing within the
        # refined fixed-step engine's answer (the nominal fixed grid itself
        # carries a few-tenths-percent discretization error).
        inverter = reduce_cell(inv_cell, tech28)
        refined = simulate_arc_transitions(
            inverter, [5e-12], [2e-15], [0.9],
            n_steps=16 * serial_engine.DEFAULT_STEPS)
        nominal = simulate_arc_transition(inverter, sin=5e-12, cload=2e-15,
                                          vdd=0.9)
        adaptive = simulate_arc_transition_adaptive(inverter, sin=5e-12,
                                                    cload=2e-15, vdd=0.9)
        assert adaptive.output_waveform.time.size < \
            nominal.output_waveform.time.size / 4
        np.testing.assert_allclose(adaptive.delay(), refined.delay()[0],
                                   rtol=1e-3)

"""Bit identity of the crossing extraction with its straight-line reference.

:meth:`repro.spice.waveform.WaveformBatch.crossing_time` takes one
comparison when every trace runs the same way, reads "any crossing" off
the ``argmax`` sample, and bisects the Hermite cubic keeping only the low
end of its (exactly dyadic) bracket.  :mod:`oracles.crossings` keeps the
straight-line measurement.  Over random batches -- rising, falling and
mixed traces, forced directions, padding, flat segments, crossings at the
first sample, NaN traces and non-finite derivatives -- the two must agree
by ``np.array_equal``; so must the adaptive engine's reported delays and
slews and the reference measurement of its own waveforms.

Hypothesis runs derandomized with no example database, so Tier-1 stays
deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.crossings import crossing_time, delay_and_slew

from repro import get_technology, make_cell
from repro.cells import reduce_cell_cached
from repro.cells.library import Transition
from repro.characterization.input_space import InputSpace
from repro.spice import simulate_arc_transitions_adaptive
from repro.spice.waveform import WaveformBatch

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)


def _batch(seed: int, thresholds: np.ndarray, n_time: int, n_seeds: int,
           mode: str, dense: bool):
    """A random padded batch whose traces mostly cross ``thresholds``."""
    n_cond = thresholds.size
    rng = np.random.default_rng(seed)
    time = np.cumsum(rng.uniform(0.1, 1.0, (n_cond, n_time)), axis=1)
    progress = np.cumsum(rng.uniform(0.0, 1.0, (n_cond, n_time, n_seeds)),
                         axis=1)
    progress /= progress[:, -1:, :] + rng.uniform(0.0, 0.3, (n_cond, 1, n_seeds))
    progress += rng.normal(0.0, 0.05, progress.shape)   # non-monotone noise
    if mode == "rising":
        rising = np.ones((n_cond, 1, n_seeds), dtype=bool)
    elif mode == "falling":
        rising = np.zeros((n_cond, 1, n_seeds), dtype=bool)
    else:
        rising = rng.random((n_cond, 1, n_seeds)) < 0.5
    voltage = np.where(rising, progress, 1.0 - progress)
    # Flat segments and samples exactly at the threshold exercise the
    # zero-span path and the inclusive comparisons.
    flat = rng.random(voltage.shape) < 0.1
    voltage[:, 1:][flat[:, 1:]] = voltage[:, :-1][flat[:, 1:]]
    on_level = rng.random(voltage.shape) < 0.05
    voltage[on_level] = np.broadcast_to(thresholds[:, np.newaxis, np.newaxis],
                                        voltage.shape)[on_level]
    valid_len = rng.integers(2, n_time + 1, n_cond)
    for row, length in enumerate(valid_len):
        time[row, length:] = time[row, length - 1]
        voltage[row, length:] = voltage[row, length - 1]
    if rng.random() < 0.5:
        voltage[rng.integers(n_cond), :, rng.integers(n_seeds)] = np.nan
    derivative = None
    if dense:
        derivative = rng.normal(0.0, 2.0, voltage.shape)
        derivative[rng.random(voltage.shape) < 0.03] = np.inf
    return time, voltage, valid_len, derivative


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1),
       n_cond=st.integers(1, 4),
       n_time=st.integers(2, 30),
       n_seeds=st.integers(1, 6),
       mode=st.sampled_from(("rising", "falling", "mixed")),
       dense=st.booleans(),
       rising=st.sampled_from((None, True, False)),
       level=st.floats(0.05, 0.95))
def test_crossing_time_equals_reference(seed, n_cond, n_time, n_seeds, mode,
                                        dense, rising, level):
    thresholds = level * np.linspace(0.9, 1.1, n_cond)
    time, voltage, valid_len, derivative = _batch(seed, thresholds, n_time,
                                                  n_seeds, mode, dense)
    batch = WaveformBatch(time, voltage, valid_len=valid_len,
                          derivative=derivative)
    # Infinite derivatives make the (discarded) cubic NaN on both sides.
    with np.errstate(invalid="ignore"):
        expected = crossing_time(time, voltage, valid_len, thresholds,
                                 rising=rising, derivative=derivative)
        measured = batch.crossing_time(thresholds, rising)
    assert np.array_equal(measured, expected, equal_nan=True)


@pytest.mark.parametrize("transition", [Transition.FALL, Transition.RISE])
def test_adaptive_measurements_equal_reference_extraction(transition):
    technology = get_technology("n28_bulk")
    cell = make_cell("NAND2_X1")
    inverter = reduce_cell_cached(
        cell, technology, arc=cell.arc(cell.input_pins[0], transition),
        variation=technology.variation.sample(16, rng=3))
    conditions = InputSpace(technology).sample_lhs(
        6, np.random.default_rng(11))
    sin, cload, vdd = (np.array([getattr(c, name) for c in conditions])
                       for name in ("sin", "cload", "vdd"))
    result = simulate_arc_transitions_adaptive(inverter, sin, cload, vdd)
    delay, slew = delay_and_slew(result.input_waveforms,
                                 result.output_waveforms, vdd)
    assert np.array_equal(result.delay(), delay)
    assert np.array_equal(result.output_slew(), slew)

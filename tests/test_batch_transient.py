"""Tests for the batched multi-condition transient engine.

Covers equivalence with the condition-by-condition oracle
(:mod:`oracles.transient`, built on :func:`simulate_arc_transition`) over a
grid of conditions, seeds and both transition polarities, the
window-extension path, the non-functional
``RuntimeError`` branch, the engine's per-row memory estimate,
``WaveformBatch`` measurements, and the simulation / reduction caches.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from oracles.transient import serial_sweep, serial_transitions

from repro import make_cell
from repro.cells import Transition, clear_reduction_cache, reduce_cell, reduce_cell_cached
from repro.characterization.input_space import InputSpace
from repro.spice import (
    RampStimulus,
    SimulationCounter,
    Waveform,
    WaveformBatch,
    get_simulation_cache,
    simulate_arc_transition,
    simulate_arc_transitions,
    sweep_conditions,
)
from repro.spice import transient as serial_engine
from repro.spice.batch import transient_item_bytes

#: Mixed grid spanning slews, loads and supplies (including a slow low-Vdd
#: corner so conditions retire from the active set at different times).
GRID = [
    (2e-12, 0.5e-15, 1.0),
    (5e-12, 2e-15, 0.9),
    (9e-12, 4e-15, 0.8),
    (14e-12, 1e-15, 0.7),
    (4e-12, 3e-15, 0.62),
]


class TestBatchedSerialEquivalence:
    @pytest.mark.parametrize("transition", [Transition.FALL, Transition.RISE])
    @pytest.mark.parametrize("n_seeds", [1, 7])
    def test_grid_equivalence(self, tech28, nand2_cell, transition, n_seeds):
        variation = (tech28.variation.sample(n_seeds, rng=3)
                     if n_seeds > 1 else None)
        arc = nand2_cell.arc("A", transition)
        inverter = reduce_cell(nand2_cell, tech28, arc=arc, variation=variation)
        sin, cload, vdd = (np.array(axis) for axis in zip(*GRID))

        batch = simulate_arc_transitions(inverter, sin, cload, vdd)
        ref_delay, ref_slew = serial_transitions(inverter, GRID)

        np.testing.assert_allclose(batch.delay(), ref_delay, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(batch.output_slew(), ref_slew, rtol=1e-9,
                                   atol=0.0)

    def test_sweep_engines_agree(self, tech14, inv_cell):
        batched = sweep_conditions(inv_cell, tech14, GRID, engine="batched",
                                   cache=False)
        delays, slews = serial_sweep(inv_cell, tech14, GRID)
        for b, delay, slew in zip(batched, delays, slews):
            np.testing.assert_allclose(b.delay, delay, rtol=1e-9)
            np.testing.assert_allclose(b.output_slew, slew, rtol=1e-9)

    def test_sweep_rejects_unknown_engine(self, tech14, inv_cell):
        # "serial" is the retired twin; its reference lives in the oracle.
        for engine in ("magic", "serial"):
            with pytest.raises(ValueError):
                sweep_conditions(inv_cell, tech14, GRID[:1], engine=engine)

    def test_per_condition_extraction_matches_serial_result(self, tech14,
                                                            inv_cell):
        inverter = reduce_cell(inv_cell, tech14)
        sin, cload, vdd = (np.array(axis) for axis in zip(*GRID[:3]))
        batch = simulate_arc_transitions(inverter, sin, cload, vdd)
        reference = simulate_arc_transition(inverter, sin=float(sin[1]),
                                            cload=float(cload[1]),
                                            vdd=float(vdd[1]))
        np.testing.assert_allclose(batch.delay()[1], reference.delay(),
                                   rtol=1e-9)
        np.testing.assert_allclose(batch.output_slew()[1],
                                   reference.output_slew(), rtol=1e-9)

    def test_input_validation(self, tech14, inv_cell):
        inverter = reduce_cell(inv_cell, tech14)
        with pytest.raises(ValueError):
            simulate_arc_transitions(inverter, [], [], [])
        with pytest.raises(ValueError):
            simulate_arc_transitions(inverter, [1e-12, 2e-12], [1e-15], [0.8])
        with pytest.raises(ValueError):
            simulate_arc_transitions(inverter, [0.0], [1e-15], [0.8])
        with pytest.raises(ValueError):
            simulate_arc_transitions(inverter, [1e-12], [1e-15], [0.8],
                                     n_steps=4)


class TestWindowExtension:
    def test_extension_path_still_matches_serial(self, tech28, inv_cell,
                                                 monkeypatch):
        # Shrink the safety margin so the first window is too short and the
        # geometric extension loop has to run; both engines read the margin
        # from the serial module, so they stay in lockstep.
        monkeypatch.setattr(serial_engine, "_WINDOW_MARGIN", 0.4)
        inverter = reduce_cell(inv_cell, tech28)
        sin, cload, vdd = (np.array(axis) for axis in zip(*GRID))
        batch = simulate_arc_transitions(inverter, sin, cload, vdd)
        ref_delay, ref_slew = serial_transitions(inverter, GRID)
        np.testing.assert_allclose(batch.delay(), ref_delay, rtol=1e-9)
        np.testing.assert_allclose(batch.output_slew(), ref_slew, rtol=1e-9)

    def test_extension_grows_the_waveform(self, tech28, inv_cell, monkeypatch):
        inverter = reduce_cell(inv_cell, tech28)
        base = simulate_arc_transition(inverter, sin=5e-12, cload=2e-15,
                                       vdd=0.9)
        monkeypatch.setattr(serial_engine, "_WINDOW_MARGIN", 0.4)
        extended = simulate_arc_transition(inverter, sin=5e-12, cload=2e-15,
                                           vdd=0.9)
        # The tight margin forces at least one extra chunk beyond the base
        # ramp+tail sample count.
        assert extended.output_waveform.time.size > 0
        assert extended.output_waveform.final_value()[0] < 0.1 * 0.9
        assert base.output_waveform.final_value()[0] < 0.1 * 0.9

    def test_stragglers_retire_later_than_fast_conditions(self, tech28,
                                                          inv_cell,
                                                          monkeypatch):
        monkeypatch.setattr(serial_engine, "_WINDOW_MARGIN", 0.4)
        inverter = reduce_cell(inv_cell, tech28)
        sin, cload, vdd = (np.array(axis) for axis in zip(*GRID))
        batch = simulate_arc_transitions(inverter, sin, cload, vdd)
        alone = [simulate_arc_transitions(inverter, [s], [c], [v]).stats
                 for s, c, v in GRID]
        # Each row is charged the steps it took before it retired, and with
        # a mixed grid and a tight window at least one condition needs more
        # chunks than another (the active set actually shrank).
        assert batch.stats.steps_taken == sum(s.steps_taken for s in alone)
        assert (max(s.steps_taken for s in alone)
                > min(s.steps_taken for s in alone))

    def test_non_functional_condition_raises(self, tech28, inv_cell,
                                             monkeypatch):
        # Starve the solver: tiny window, no extensions allowed.
        monkeypatch.setattr(serial_engine, "_WINDOW_MARGIN", 1e-3)
        monkeypatch.setattr(serial_engine, "_MAX_EXTENSIONS", 1)
        inverter = reduce_cell(inv_cell, tech28)
        with pytest.raises(RuntimeError, match="did not complete"):
            simulate_arc_transition(inverter, sin=5e-12, cload=4e-15, vdd=0.7)
        with pytest.raises(RuntimeError, match="did not complete"):
            simulate_arc_transitions(inverter, [5e-12], [4e-15], [0.7])

    def test_batched_error_reports_incomplete_condition(self, tech28, inv_cell,
                                                        monkeypatch):
        monkeypatch.setattr(serial_engine, "_WINDOW_MARGIN", 1e-3)
        monkeypatch.setattr(serial_engine, "_MAX_EXTENSIONS", 1)
        inverter = reduce_cell(inv_cell, tech28)
        with pytest.raises(RuntimeError, match="cload=4e-15"):
            simulate_arc_transitions(inverter, [5e-12], [4e-15], [0.7])


class TestFootprint:
    @pytest.mark.parametrize("n_seeds", [1, 32, 200])
    def test_item_bytes_cover_the_measured_peak(self, tech28, n_seeds):
        # A mixed row table (INV/NAND2/NOR2, both polarities, 4 conditions
        # each): the per-row estimate the plan tiles by must cover the
        # engine's traced peak, and by no more than twice.
        variation = (tech28.variation.sample(n_seeds, rng=3)
                     if n_seeds > 1 else None)
        reductions = [
            reduce_cell(cell, tech28, arc=cell.arc(cell.input_pins[0], tr),
                        variation=variation)
            for cell in map(make_cell, ("INV_X1", "NAND2_X1", "NOR2_X1"))
            for tr in (Transition.FALL, Transition.RISE)]
        conditions = InputSpace(tech28).sample_lhs(
            4 * len(reductions), np.random.default_rng(3))
        rows = [reductions[index % len(reductions)]
                for index in range(len(conditions))]
        sin, cload, vdd = (np.array(axis) for axis in zip(
            *(condition.as_tuple() for condition in conditions)))
        simulate_arc_transitions(rows[:2], sin[:2], cload[:2], vdd[:2])
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            simulate_arc_transitions(rows, sin, cload, vdd)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        estimate = len(rows) * transient_item_bytes(n_seeds)
        assert peak <= estimate <= 2 * peak, (peak, estimate)


class TestWaveformBatch:
    def _ramp_batch(self):
        time = np.stack([np.linspace(0.0, 30e-12, 300),
                         np.linspace(0.0, 60e-12, 300)])
        vdd = np.array([1.0, 0.8])
        slew = np.array([10e-12, 20e-12])
        volts = np.stack([
            RampStimulus(vdd=float(v), slew=float(s)).voltage(row)
            for v, s, row in zip(vdd, slew, time)
        ])
        return WaveformBatch(time, volts), vdd, slew

    def test_crossing_times_per_condition(self):
        batch, vdd, slew = self._ramp_batch()
        cross = batch.crossing_time(0.5 * vdd)
        assert cross.shape == (2, 1)
        assert cross[0, 0] == pytest.approx(5e-12, rel=1e-6)
        assert cross[1, 0] == pytest.approx(10e-12, rel=1e-6)

    def test_transition_time_recovers_ramp_slew(self):
        batch, vdd, slew = self._ramp_batch()
        measured = batch.transition_time(vdd)[:, 0]
        np.testing.assert_allclose(measured, slew, rtol=1e-2)

    def test_condition_trims_padding_and_matches_waveform(self):
        time = np.stack([np.linspace(0.0, 1.0, 10), np.linspace(0.0, 2.0, 10)])
        volts = np.tile(np.linspace(0.0, 1.0, 10), (2, 1))
        valid = np.array([10, 6])
        volts[1, 6:] = volts[1, 5]
        time[1, 6:] = time[1, 5]
        batch = WaveformBatch(time, volts, valid_len=valid)
        trimmed = batch.condition(1)
        assert isinstance(trimmed, Waveform)
        assert trimmed.time.size == 6
        assert batch.final_value()[1, 0] == pytest.approx(volts[1, 5])

    def test_no_crossing_is_nan(self):
        time = np.tile(np.linspace(0.0, 1.0, 8), (1, 1))
        volts = np.full((1, 8), 0.2)
        batch = WaveformBatch(time, volts)
        assert np.isnan(batch.crossing_time(0.9, rising=True)[0, 0])

    def test_validation(self):
        with pytest.raises(ValueError):
            WaveformBatch(np.linspace(0, 1, 5), np.zeros((1, 5)))  # 1-D time
        with pytest.raises(ValueError):
            WaveformBatch(np.zeros((2, 5)), np.zeros((3, 5)))
        with pytest.raises(ValueError):
            WaveformBatch(np.zeros((2, 5)), np.zeros((2, 5)),
                          valid_len=np.array([5, 1]))
        batch = WaveformBatch(np.tile(np.linspace(0, 1, 5), (2, 1)),
                              np.zeros((2, 5)))
        with pytest.raises(ValueError):
            batch.transition_time(np.array([1.0, -1.0]))

    def test_mismatched_reference_rejected(self):
        a = WaveformBatch(np.tile(np.linspace(0, 1, 5), (2, 1)), np.zeros((2, 5)))
        b = WaveformBatch(np.tile(np.linspace(0, 1, 5), (3, 1)), np.zeros((3, 5)))
        with pytest.raises(ValueError):
            a.propagation_delay(b, 1.0)


class TestCaches:
    def test_simulation_cache_serves_repeat_sweeps(self, tech14, inv_cell):
        cache = get_simulation_cache()
        cache.clear()
        counter = SimulationCounter()
        first = sweep_conditions(inv_cell, tech14, GRID[:3], counter=counter)
        hits_before = cache.hits
        second = sweep_conditions(inv_cell, tech14, GRID[:3], counter=counter)
        assert cache.hits >= hits_before + 3
        # Counters keep charging: they count required runs, not executed ones.
        assert counter.total == 6
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.delay, b.delay)
            np.testing.assert_array_equal(a.output_slew, b.output_slew)

    def test_cache_distinguishes_seed_batches(self, tech28, inv_cell):
        cache = get_simulation_cache()
        cache.clear()
        va = tech28.variation.sample(3, rng=1)
        vb = tech28.variation.sample(3, rng=2)
        a = sweep_conditions(inv_cell, tech28, GRID[:1], variation=va)
        b = sweep_conditions(inv_cell, tech28, GRID[:1], variation=vb)
        assert not np.allclose(a[0].delay, b[0].delay, rtol=1e-6, atol=0.0)

    def test_cached_results_cannot_be_corrupted(self, tech14, inv_cell):
        cache = get_simulation_cache()
        cache.clear()
        first = sweep_conditions(inv_cell, tech14, GRID[:1])
        first[0].delay[:] = -1.0
        second = sweep_conditions(inv_cell, tech14, GRID[:1])
        assert np.all(second[0].delay > 0.0)

    def test_disabled_cache_misses(self, tech14, inv_cell):
        cache = get_simulation_cache()
        cache.clear()
        cache.disable()
        try:
            sweep_conditions(inv_cell, tech14, GRID[:1])
            sweep_conditions(inv_cell, tech14, GRID[:1])
            assert cache.hits == 0
        finally:
            cache.enable()

    def test_reduction_cache_reuses_inverter(self, tech28, inv_cell):
        clear_reduction_cache()
        variation = tech28.variation.sample(4, rng=5)
        first = reduce_cell_cached(inv_cell, tech28, variation=variation)
        second = reduce_cell_cached(inv_cell, tech28, variation=variation)
        assert first is second
        other = reduce_cell_cached(inv_cell, tech28,
                                   variation=tech28.variation.sample(4, rng=6))
        assert other is not first

    def test_variation_fingerprint_tracks_content(self, tech28):
        va = tech28.variation.sample(5, rng=7)
        vb = va.subset(np.arange(5))
        assert va.fingerprint() == vb.fingerprint()
        assert va.fingerprint() != tech28.variation.sample(5, rng=8).fingerprint()


class TestStimulusFastPath:
    def test_scalar_matches_array_path(self):
        for rising in (True, False):
            ramp = RampStimulus(vdd=0.9, slew=7e-12, rising=rising)
            for t in (0.0, 1e-12, 3.5e-12, 7e-12, 2e-11):
                assert isinstance(ramp.voltage(t), float)
                assert ramp.voltage(t) == np.asarray(
                    ramp.voltage(np.array([t])))[0]
                assert ramp.slope(t) == np.asarray(
                    ramp.slope(np.array([t])))[0]

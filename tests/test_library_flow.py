"""Tests for the library-scale characterization orchestrator."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SimulationCounter, get_technology, make_cell
from repro.cells.library import StandardCellLibrary, Transition
from repro.core.library_flow import (
    LibraryCharacterization,
    characterize_library,
)
from repro.liberty import parse_liberty
from repro.sta import MonteCarloSsta, StaticTimingAnalyzer, c17_benchmark


@pytest.fixture(scope="module")
def small_library():
    return StandardCellLibrary("unit_lib", [make_cell("INV_X1"),
                                            make_cell("NAND2_X1")])


@pytest.fixture(scope="module")
def library_result(tech28_module, small_library, priors_module):
    delay_prior, slew_prior = priors_module
    counter = SimulationCounter()
    result = characterize_library(
        tech28_module, small_library, delay_prior, slew_prior,
        conditions=2, n_seeds=10, rng=5, counter=counter)
    return result, counter


# The session fixtures in conftest.py build priors from INV/NOR2; reuse the
# same machinery at module scope with the cells characterized here.
@pytest.fixture(scope="module")
def tech28_module():
    return get_technology("n28_bulk")


@pytest.fixture(scope="module")
def priors_module(tech28_module):
    from repro.core.prior_learning import (
        characterize_historical_library,
        learn_prior,
        shared_reference_conditions,
    )

    unit = shared_reference_conditions(8, rng=7)
    historical = [characterize_historical_library(
        get_technology("n45_bulk"),
        [make_cell("INV_X1"), make_cell("NAND2_X1")],
        unit_conditions=unit, transitions=(Transition.FALL,))]
    return (learn_prior(historical, response="delay"),
            learn_prior(historical, response="slew"))


class TestCharacterizeLibrary:
    def test_covers_every_cell_and_transition(self, library_result):
        result, _ = library_result
        assert result.cell_names() == ["INV_X1", "NAND2_X1"]
        arc_names = [entry.arc.name for entry in result.entries]
        assert arc_names == [
            "INV_X1:A->Z(fall)", "INV_X1:A->Z(rise)",
            "NAND2_X1:A->Z(fall)", "NAND2_X1:A->Z(rise)",
        ]
        assert result.n_seeds == 10

    def test_simulation_run_accounting(self, library_result):
        result, counter = library_result
        # 4 arcs x 2 conditions x 10 seeds, charged per arc under a
        # library:<cell>:<arc> label.
        assert result.simulation_runs == 4 * 2 * 10
        assert counter.total == result.simulation_runs
        labels = counter.by_label()
        assert labels["library:INV_X1:INV_X1:A->Z(fall)"] == 20

    def test_shared_seed_batch_across_arcs(self, library_result):
        result, _ = library_result
        fingerprints = {
            entry.statistical.inverter.nmos.params.vth0.tobytes()
            for entry in result.entries if entry.cell_name == "INV_X1"
        }
        # Same variation sample feeds both INV arcs (same devices -> same
        # per-seed threshold arrays).
        assert len(fingerprints) == 1

    def test_entry_lookup(self, library_result):
        result, _ = library_result
        entry = result.get("INV_X1", "INV_X1:A->Z(rise)")
        assert entry.arc.output_transition is Transition.RISE
        assert entry.input_cap_f > 0.0
        with pytest.raises(KeyError):
            result.get("INV_X1", "INV_X1:B->Z(rise)")
        with pytest.raises(KeyError):
            result.arcs_of("XOR2_X1")

    def test_all_extractions_converged(self, library_result):
        result, _ = library_result
        assert result.unconverged_arcs() == []

    def test_input_validation(self, tech28_module, small_library,
                              priors_module):
        delay_prior, slew_prior = priors_module
        with pytest.raises(ValueError):
            characterize_library(tech28_module, [], delay_prior, slew_prior)
        with pytest.raises(ValueError):
            characterize_library(tech28_module, small_library, delay_prior,
                                 slew_prior, concurrency="threads")
        # One extraction solver: the retired solver switch is not accepted.
        with pytest.raises(TypeError, match="solver"):
            characterize_library(tech28_module, small_library, delay_prior,
                                 slew_prior, solver="batched")
        with pytest.raises(ValueError):
            characterize_library(tech28_module, small_library, delay_prior,
                                 slew_prior, input_pins="last")
        with pytest.raises(ValueError):
            characterize_library(tech28_module, small_library, delay_prior,
                                 slew_prior, conditions=[])


class TestProcessConcurrency:
    def test_process_matches_serial_bitwise(self, tech28_module, small_library,
                                            priors_module, library_result):
        delay_prior, slew_prior = priors_module
        serial, serial_counter = library_result
        counter = SimulationCounter()
        parallel = characterize_library(
            tech28_module, small_library, delay_prior, slew_prior,
            conditions=2, n_seeds=10, rng=5, counter=counter,
            concurrency="process", max_workers=2)
        assert parallel.concurrency == "process"
        assert counter.total == serial_counter.total
        assert counter.by_label() == serial_counter.by_label()
        assert len(parallel.entries) == len(serial.entries)
        for a, b in zip(serial.entries, parallel.entries):
            assert a.arc.name == b.arc.name
            np.testing.assert_array_equal(a.statistical.delay_parameters,
                                          b.statistical.delay_parameters)
            np.testing.assert_array_equal(a.statistical.slew_parameters,
                                          b.statistical.slew_parameters)
            assert a.statistical.fitting_conditions == \
                b.statistical.fitting_conditions


class TestDownstreamConsumers:
    def test_liberty_round_trip(self, library_result):
        result, _ = library_result
        writer = result.liberty_writer(n_slew=3, n_cap=3)
        text = writer.render()
        parsed = parse_liberty(text)
        assert sorted(parsed.cells) == ["INV_X1", "NAND2_X1"]
        cell = parsed.cells["INV_X1"]
        # Both transitions present, each with delay + transition + sigma.
        assert len(cell.arcs) == 2
        for arc in cell.arcs:
            assert arc.delay is not None
            assert arc.transition is not None
            assert arc.sigma_delay is not None
            assert np.all(arc.delay.values_ns > 0.0)

    def test_timing_view_feeds_ssta(self, library_result):
        result, _ = library_result
        view = result.timing_view(transition=Transition.FALL)
        assert view.n_seeds == result.n_seeds
        netlist = c17_benchmark()
        sta = StaticTimingAnalyzer(netlist, view,
                                   primary_input_slew=5e-12).run()
        ssta = MonteCarloSsta(netlist, view, primary_input_slew=5e-12).run()
        assert sta.critical_delay > 0.0
        assert ssta.summary.std > 0.0
        assert ssta.summary.mean == pytest.approx(sta.critical_delay, rel=0.5)

    def test_all_pins_emit_their_own_capacitance(self, tech28_module,
                                                 priors_module):
        delay_prior, slew_prior = priors_module
        result = characterize_library(
            tech28_module, [make_cell("NAND2_X1")], delay_prior, slew_prior,
            conditions=2, n_seeds=4, rng=2, transitions=(Transition.FALL,),
            input_pins="all")
        assert [entry.arc.input_pin for entry in result.entries] == ["A", "B"]
        parsed = parse_liberty(result.liberty_writer(n_slew=2, n_cap=2).render())
        caps = parsed.cells["NAND2_X1"].input_pin_caps_pf
        assert sorted(caps) == ["A", "B"]
        for entry in result.entries:
            assert caps[entry.arc.input_pin] == pytest.approx(
                entry.input_cap_f * 1e12, rel=1e-5)

    def test_timing_view_missing_transition(self, tech28_module,
                                            priors_module):
        delay_prior, slew_prior = priors_module
        fall_only = characterize_library(
            tech28_module, [make_cell("INV_X1")], delay_prior, slew_prior,
            conditions=2, n_seeds=4, rng=1,
            transitions=(Transition.FALL,))
        with pytest.raises(KeyError):
            fall_only.timing_view(transition=Transition.RISE)

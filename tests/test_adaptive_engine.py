"""Tests for the adaptive (Dormand-Prince RK45) transient engine.

Covers accuracy parity against a refined fixed-step reference (the honest
comparison: the fixed engine converges *to* the adaptive answer as its step
count grows), the single-condition wrapper, integration-stats accounting and
ledger recording, bit-identical results under memory-budget chunking and
across executor concurrency modes, window-exhaustion and quarantine
behavior, the ``adaptive.reject`` rejection-storm fault site, stepper-aware
simulation-cache keys, and the runtime engine/tolerance configuration knobs.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro.runtime as runtime
from repro.cells import Transition, reduce_cell
from repro.runtime import faultinject
from repro.runtime.accounting import RunLedger
from repro.runtime.faultinject import FaultSpec
from repro.spice import (
    StepperSpec,
    get_simulation_cache,
    simulate_arc_transition_adaptive,
    simulate_arc_transitions,
    simulate_arc_transitions_adaptive,
    sweep_conditions,
)
from repro.spice import transient as serial_engine
from repro.spice.adaptive import _C2, _C3, _C4, _C5, _C6
from repro.spice.batch import _input_level, _past_ramp_input
from repro.spice.stepper import resolve_stepper
from repro.spice.testbench import SimulationCache

#: Mixed grid spanning slews, loads and supplies (same shape as the batched
#: engine's equivalence grid, including a slow low-Vdd corner).
GRID = [
    (2e-12, 0.5e-15, 1.0),
    (5e-12, 2e-15, 0.9),
    (9e-12, 4e-15, 0.8),
    (14e-12, 1e-15, 0.7),
    (4e-12, 3e-15, 0.62),
]


@pytest.fixture(autouse=True)
def _restore_runtime_config():
    """Engine/tolerance knobs are process-global; leave them as found."""
    config = runtime.runtime_config()
    saved = (config.transient_engine, config.transient_rtol,
             config.transient_atol_frac)
    yield
    runtime.configure(transient_engine=saved[0], transient_rtol=saved[1],
                      transient_atol_frac=saved[2])


class TestAccuracyParity:
    @pytest.mark.parametrize("transition", [Transition.FALL, Transition.RISE])
    def test_closer_to_refined_reference_than_fixed_step(self, tech28,
                                                         nand2_cell,
                                                         transition):
        variation = tech28.variation.sample(5, rng=3)
        arc = nand2_cell.arc("A", transition)
        inverter = reduce_cell(nand2_cell, tech28, arc=arc,
                               variation=variation)
        sin, cload, vdd = (np.array(axis) for axis in zip(*GRID))

        reference = simulate_arc_transitions(
            inverter, sin, cload, vdd,
            n_steps=16 * serial_engine.DEFAULT_STEPS)
        fixed = simulate_arc_transitions(inverter, sin, cload, vdd)
        adaptive = simulate_arc_transitions_adaptive(inverter, sin, cload,
                                                     vdd)

        ref_delay, ref_slew = reference.delay(), reference.output_slew()
        fixed_err = np.max(np.abs(fixed.delay() / ref_delay - 1.0))
        adaptive_err = np.max(np.abs(adaptive.delay() / ref_delay - 1.0))
        # The fixed engine's nominal grid carries ~1e-3 discretization
        # error; the adaptive answer must sit well inside it.
        assert adaptive_err < fixed_err
        assert adaptive_err < 2e-3
        slew_err = np.max(np.abs(adaptive.output_slew() / ref_slew - 1.0))
        assert slew_err < np.max(np.abs(fixed.output_slew() / ref_slew - 1.0))

    def test_single_condition_wrapper_matches_batch(self, tech28, inv_cell):
        inverter = reduce_cell(inv_cell, tech28)
        single = simulate_arc_transition_adaptive(inverter, sin=5e-12,
                                                  cload=2e-15, vdd=0.9)
        batch = simulate_arc_transitions_adaptive(inverter, [5e-12], [2e-15],
                                                  [0.9])
        assert np.array_equal(single.delay(), batch.delay()[0])
        assert np.array_equal(single.output_slew(), batch.output_slew()[0])


class TestPastRampShortcut:
    @pytest.mark.parametrize("falling", [True, False, "mixed"])
    def test_past_ramp_input_equals_every_stage_value(self, falling):
        # Once no active row is on its ramp, the adaptive rhs takes its
        # input from _past_ramp_input instead of forming it per stage; every
        # stage time t + c*h with t >= sin must give the same bits.
        rng = np.random.default_rng(7)
        n_rows = 64
        ramp = rng.uniform(1e-12, 3e-11, n_rows)
        supply = rng.uniform(0.5, 1.2, n_rows)
        flags = (rng.random(n_rows) < 0.5 if falling == "mixed"
                 else falling)
        t = ramp * rng.choice([1.0, 1.0 + 1e-16, 1.5, 40.0], n_rows)
        h = ramp * rng.uniform(0.0, 8.0, n_rows)
        constant = _past_ramp_input(supply, flags)
        for c_frac in (_C2, _C3, _C4, _C5, _C6, 1.0):
            fraction = np.clip((t + c_frac * h) / ramp, 0.0, 1.0)
            per_stage = supply * _input_level(fraction, flags)
            assert np.array_equal(per_stage, constant)
            assert np.array_equal(supply[:, np.newaxis] - per_stage[:, np.newaxis],
                                  supply[:, np.newaxis] - constant[:, np.newaxis])


class TestIntegrationStats:
    def test_both_engines_attach_stats(self, tech28, inv_cell):
        inverter = reduce_cell(inv_cell, tech28)
        sin, cload, vdd = (np.array(axis) for axis in zip(*GRID))
        fixed = simulate_arc_transitions(inverter, sin, cload, vdd)
        adaptive = simulate_arc_transitions_adaptive(inverter, sin, cload,
                                                     vdd)
        assert fixed.stats.method == "rk4"
        assert adaptive.stats.method == "rk45"
        # Fixed cost is exact: 4 stage evaluations per step per condition.
        assert fixed.stats.rhs_evals == 4 * fixed.stats.steps_taken
        assert fixed.stats.steps_rejected == 0
        assert adaptive.stats.steps_taken > 0
        assert adaptive.stats.rhs_evals > 0
        # Both engines retire rows as they complete, so what is left of
        # the gap is step control alone: fewer evaluations, not several
        # times fewer.
        assert adaptive.stats.rhs_evals < fixed.stats.rhs_evals

    def test_sweep_records_stats_in_ledger(self, tech28, inv_cell):
        get_simulation_cache().clear()
        ledger = RunLedger()
        sweep_conditions(inv_cell, tech28, GRID, engine="adaptive",
                         ledger=ledger)
        metrics = ledger.metrics()
        assert metrics["transient_steps"] > 0
        assert metrics["transient_rhs_evals"] > 0
        assert "transient_steps_rejected" in metrics


class TestDeterminism:
    def test_chunked_sweep_bit_identical(self, tech28, nand2_cell):
        variation = tech28.variation.sample(4, rng=9)
        get_simulation_cache().clear()
        one_pass = sweep_conditions(nand2_cell, tech28, GRID,
                                    variation=variation, engine="adaptive",
                                    cache=False)
        # A tiny budget forces one condition per chunk; the adaptive
        # controller is fully row-local, so results are bit-identical.
        chunked = sweep_conditions(nand2_cell, tech28, GRID,
                                   variation=variation, engine="adaptive",
                                   cache=False, max_bytes=1)
        for a, b in zip(one_pass, chunked):
            assert np.array_equal(a.delay, b.delay)
            assert np.array_equal(a.output_slew, b.output_slew)

    def test_repeat_runs_bit_identical(self, tech28, inv_cell):
        inverter = reduce_cell(inv_cell, tech28)
        sin, cload, vdd = (np.array(axis) for axis in zip(*GRID))
        first = simulate_arc_transitions_adaptive(inverter, sin, cload, vdd)
        second = simulate_arc_transitions_adaptive(inverter, sin, cload, vdd)
        assert np.array_equal(first.delay(), second.delay())
        assert np.array_equal(first.output_slew(), second.output_slew())


class TestFailureModes:
    def test_window_exhaustion_raises_with_reason(self, tech28, inv_cell,
                                                  monkeypatch):
        # Starve the solver exactly as the fixed engines are starved: the
        # adaptive horizon honors the (monkeypatched) extension budget.
        monkeypatch.setattr(serial_engine, "_WINDOW_MARGIN", 1e-3)
        monkeypatch.setattr(serial_engine, "_MAX_EXTENSIONS", 1)
        inverter = reduce_cell(inv_cell, tech28)
        with pytest.raises(RuntimeError, match="did not complete"):
            simulate_arc_transitions_adaptive(inverter, [5e-12], [4e-15],
                                              [0.7])
        with pytest.raises(RuntimeError, match="adaptive stepper"):
            simulate_arc_transitions_adaptive(inverter, [5e-12], [4e-15],
                                              [0.7])

    def test_quarantine_mode_yields_nan_rows(self, tech28, inv_cell,
                                             monkeypatch):
        monkeypatch.setattr(serial_engine, "_WINDOW_MARGIN", 1e-3)
        monkeypatch.setattr(serial_engine, "_MAX_EXTENSIONS", 1)
        inverter = reduce_cell(inv_cell, tech28)
        result = simulate_arc_transitions_adaptive(
            inverter, [5e-12], [4e-15], [0.7], on_failure="quarantine")
        assert result.quarantined[0]
        assert np.all(np.isnan(result.delay()[0]))

    def test_invalid_on_failure_rejected(self, tech28, inv_cell):
        inverter = reduce_cell(inv_cell, tech28)
        with pytest.raises(ValueError, match="on_failure"):
            simulate_arc_transitions_adaptive(inverter, [5e-12], [2e-15],
                                              [0.9], on_failure="ignore")

    def test_rejection_storm_fault_site(self, tech28, inv_cell):
        assert "adaptive.reject" in faultinject.fault_sites()
        inverter = reduce_cell(inv_cell, tech28)
        spec = FaultSpec(site="adaptive.reject", kind="nan", rate=1.0,
                         rows=(0,))
        with faultinject.inject([spec], seed=1):
            # Every trial step rejects; the 0.2x shrink per rejection
            # underflows the step size before the storm counter trips.
            with pytest.raises(RuntimeError,
                               match="step-size underflow|rejection storm"):
                simulate_arc_transitions_adaptive(inverter, [5e-12], [2e-15],
                                                  [0.9])
        # Poison the *last* active row: once it dies and the active set
        # compacts, row index 1 no longer exists and the survivor (still
        # row 0 after prefix compaction) integrates untouched.
        storm = FaultSpec(site="adaptive.reject", kind="nan", rate=1.0,
                          rows=(1,))
        with faultinject.inject([storm], seed=1):
            result = simulate_arc_transitions_adaptive(
                inverter, [5e-12, 5e-12], [2e-15, 2e-15], [0.9, 0.9],
                on_failure="quarantine")
        assert result.quarantined[1]
        assert not result.quarantined[0]
        assert np.all(np.isfinite(result.delay()[0]))


class TestCacheKeys:
    def test_fixed_and_adaptive_entries_never_collide(self, tech28,
                                                      inv_cell):
        cache = get_simulation_cache()
        cache.clear()
        fixed = sweep_conditions(inv_cell, tech28, GRID[:2], engine="batched")
        adaptive = sweep_conditions(inv_cell, tech28, GRID[:2],
                                    engine="adaptive")
        # Four distinct entries: the engines may never replay each other.
        assert cache.stats().misses >= 4
        # And the cached values faithfully replay per engine.
        again = sweep_conditions(inv_cell, tech28, GRID[:2],
                                 engine="adaptive")
        for a, b in zip(adaptive, again):
            assert np.array_equal(a.delay, b.delay)
        assert any(not np.array_equal(a.delay, b.delay)
                   for a, b in zip(fixed, adaptive))

    def test_condition_key_forms(self):
        prefix = ("cell", "tech")
        legacy = SimulationCache.condition_key(prefix, 1e-12, 1e-15, 0.9, 64)
        assert legacy == prefix + (1e-12, 1e-15, 0.9, "rk4", 64)
        spec = StepperSpec(method="rk45")
        keyed = SimulationCache.condition_key(prefix, 1e-12, 1e-15, 0.9, spec)
        assert keyed == prefix + (1e-12, 1e-15, 0.9) + spec.signature()
        passthrough = SimulationCache.condition_key(prefix, 1e-12, 1e-15, 0.9,
                                                    ("rk4", 400))
        assert passthrough == prefix + (1e-12, 1e-15, 0.9, "rk4", 400)

    def test_rk45_signature_ignores_n_steps(self):
        a = StepperSpec(method="rk45", n_steps=100)
        b = StepperSpec(method="rk45", n_steps=6400)
        assert a.signature() == b.signature()
        assert (StepperSpec(method="rk45", rtol=1e-6).signature()
                != a.signature())


@pytest.fixture(scope="module")
def adaptive_priors():
    from repro.core.prior_learning import (
        characterize_historical_library,
        learn_prior,
        shared_reference_conditions,
    )
    from repro import get_technology, make_cell
    from repro.cells import Transition

    unit = shared_reference_conditions(8, rng=7)
    historical = [characterize_historical_library(
        get_technology("n45_bulk"),
        [make_cell("INV_X1"), make_cell("NAND2_X1")],
        unit_conditions=unit, transitions=(Transition.FALL,))]
    return (learn_prior(historical, response="delay"),
            learn_prior(historical, response="slew"))


class TestPlanEngineResolution:
    def test_direct_fused_call_follows_configured_engine(self, tech28,
                                                         adaptive_priors):
        """``stepper=None`` on a direct fused call runs the configured
        engine, so it reproduces ``characterize_library`` exactly."""
        from repro import make_cell
        from repro.characterization.input_space import InputSpace
        from repro.core.library_flow import (
            characterize_fused_jobs,
            characterize_library,
        )
        from repro.runtime.executor import get_executor

        cells = [make_cell("INV_X1"), make_cell("NAND2_X1")]
        conditions = InputSpace(tech28).sample_lhs(3, np.random.default_rng(4))
        variation = tech28.variation.sample(6, rng=2)
        runtime.configure(transient_engine="adaptive")
        get_simulation_cache().clear()
        library = characterize_library(
            tech28, cells, adaptive_priors[0], adaptive_priors[1],
            conditions=conditions, variation=variation)
        jobs = [(cell, cell.arc(cell.input_pins[0], transition))
                for cell in cells
                for transition in (Transition.FALL, Transition.RISE)]
        get_simulation_cache().clear()
        direct, failures = characterize_fused_jobs(
            tech28, jobs, [list(conditions) for _ in jobs],
            adaptive_priors[0], adaptive_priors[1], variation, "batched",
            get_executor("serial"), RunLedger(), None, stepper=None)
        get_simulation_cache().clear()
        assert not failures
        assert len(direct) == len(library.entries) == 4
        for (cell, arc), entry, result in zip(jobs, library.entries, direct):
            assert (entry.cell_name, entry.arc) == (cell.name, arc)
            np.testing.assert_array_equal(result.delay_parameters,
                                          entry.statistical.delay_parameters)
            np.testing.assert_array_equal(result.slew_parameters,
                                          entry.statistical.slew_parameters)


class TestLibraryConcurrency:
    def test_bit_identical_across_concurrency_modes(self, tech28,
                                                    adaptive_priors):
        from repro import make_cell
        from repro.cells import StandardCellLibrary
        from repro.core.library_flow import characterize_library

        library = StandardCellLibrary(
            "adaptive_equiv", [make_cell("INV_X1"), make_cell("NAND2_X1")])
        results = []
        for concurrency in ("serial", "process"):
            get_simulation_cache().clear()
            results.append(characterize_library(
                tech28, library, adaptive_priors[0], adaptive_priors[1],
                conditions=2, n_seeds=8, rng=5, concurrency=concurrency,
                transient_engine="adaptive",
                **({"max_workers": 2} if concurrency == "process" else {})))
        serial = results[0]
        for other in results[1:]:
            for a, b in zip(serial.entries, other.entries):
                np.testing.assert_array_equal(
                    a.statistical.delay_parameters,
                    b.statistical.delay_parameters)
                np.testing.assert_array_equal(
                    a.statistical.slew_parameters,
                    b.statistical.slew_parameters)


class TestRuntimeKnobs:
    def test_engine_resolution_order(self):
        assert runtime.TRANSIENT_ENGINES == ("batched", "adaptive")
        assert runtime.resolve_transient_engine("adaptive") == "adaptive"
        runtime.configure(transient_engine="adaptive")
        assert runtime.resolve_transient_engine(None) == "adaptive"
        assert resolve_stepper(None).method == "rk45"
        assert runtime.resolve_transient_engine("batched") == "batched"
        runtime.configure(transient_engine=None)
        assert runtime.resolve_transient_engine(None) == "batched"
        with pytest.raises(ValueError, match="engine"):
            runtime.resolve_transient_engine("rk4")
        with pytest.raises(ValueError, match="engine"):
            resolve_stepper("rk4")
        # The retired one-condition-at-a-time twin is no engine name.
        with pytest.raises(ValueError, match="engine"):
            runtime.resolve_transient_engine("serial")
        with pytest.raises(ValueError, match="transient_engine"):
            runtime.configure(transient_engine="euler")

    def test_tolerance_knobs_resolve_into_default_stepper(self):
        runtime.configure(transient_rtol=1e-5, transient_atol_frac=1e-4)
        spec = resolve_stepper("adaptive")
        assert spec.rtol == 1e-5
        assert spec.atol_frac == 1e-4
        # Fixed-step engines ignore the tolerance knobs entirely.
        assert resolve_stepper("batched").method == "rk4"
        runtime.configure(transient_rtol=None, transient_atol_frac=None)
        assert resolve_stepper("adaptive").rtol == StepperSpec().rtol
        with pytest.raises(ValueError, match="transient_rtol"):
            runtime.configure(transient_rtol=-1.0)

    @pytest.mark.parametrize("value", [1.0, 5.0, float("inf"), float("nan")])
    def test_tolerances_outside_the_stepper_range_rejected(self, value):
        # StepperSpec takes both tolerances in (0, 1) only; configure must
        # not accept a value every default adaptive flow would then fail on.
        config = runtime.runtime_config()
        before = (config.transient_rtol, config.transient_atol_frac)
        for knob in ("transient_rtol", "transient_atol_frac"):
            with pytest.raises(ValueError, match=knob):
                runtime.configure(**{knob: value})
        assert (config.transient_rtol, config.transient_atol_frac) == before

    def test_out_of_range_env_tolerance_is_ignored(self, tmp_path):
        # A seed configure rejects is ignored like any other, so a default
        # adaptive flow keeps the engine's own tolerance.
        script = (
            "import repro.runtime as runtime\n"
            "from repro import get_technology, make_cell, sweep_conditions\n"
            "from repro.spice.stepper import resolve_stepper\n"
            "spec = resolve_stepper()\n"
            "(result,) = sweep_conditions(make_cell('INV_X1'),\n"
            "    get_technology('n28_bulk'), [(5e-12, 2e-15, 0.9)])\n"
            "print(runtime.runtime_config().transient_rtol, spec.method,\n"
            "      spec.rtol, result.delay.size)\n"
        )
        env = dict(os.environ, REPRO_TRANSIENT_ENGINE="adaptive",
                   REPRO_TRANSIENT_RTOL="2", REPRO_TRANSIENT_ATOL="inf")
        env.pop("REPRO_DISK_CACHE", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             cwd=tmp_path, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["None", "rk45", str(StepperSpec().rtol),
                                      "1"]

    def test_loose_tolerance_costs_fewer_evaluations(self, tech28, inv_cell):
        inverter = reduce_cell(inv_cell, tech28)
        tight = simulate_arc_transitions_adaptive(
            inverter, [5e-12], [2e-15], [0.9],
            stepper=StepperSpec(method="rk45", rtol=1e-9, atol_frac=1e-9))
        loose = simulate_arc_transitions_adaptive(
            inverter, [5e-12], [2e-15], [0.9],
            stepper=StepperSpec(method="rk45", rtol=1e-5, atol_frac=1e-5))
        assert loose.stats.rhs_evals < tight.stats.rhs_evals
        # The loose answer still lands within its (loose) tolerance class.
        assert np.allclose(loose.delay(), tight.delay(), rtol=1e-3)

    def test_engine_stepper_consistency_enforced(self, tech28, inv_cell):
        with pytest.raises(ValueError, match="inconsistent"):
            sweep_conditions(inv_cell, tech28, GRID[:1], engine="adaptive",
                             stepper=StepperSpec(method="rk4"))
        with pytest.raises(ValueError, match="inconsistent"):
            sweep_conditions(inv_cell, tech28, GRID[:1], engine="batched",
                             stepper=StepperSpec(method="rk45"))

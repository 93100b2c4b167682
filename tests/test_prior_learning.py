"""Tests for historical-library characterization and prior learning."""

from __future__ import annotations

import numpy as np
import pytest
from oracles.bp import learn_class_priors_scalar, learn_priors_scalar, scalar_prior
from oracles.historical import characterize_historical_library_per_arc

from repro.core.prior_learning import (
    TimingPrior,
    characterize_historical_libraries,
    characterize_historical_library,
    learn_class_priors,
    learn_prior,
    learn_priors,
    shared_reference_conditions,
)


class TestSharedReferenceConditions:
    def test_shape_and_range(self):
        unit = shared_reference_conditions(12, rng=1)
        assert unit.shape == (12, 3)
        assert np.all((unit >= 0.0) & (unit <= 1.0))

    def test_deterministic(self):
        assert np.allclose(shared_reference_conditions(8, rng=2),
                           shared_reference_conditions(8, rng=2))

    def test_too_few_conditions_rejected(self):
        with pytest.raises(ValueError):
            shared_reference_conditions(3)


class TestHistoricalLibraryData:
    def test_parameter_matrix_shapes(self, historical_data):
        for data in historical_data:
            matrix = data.parameter_matrix("delay")
            assert matrix.shape == (2, 4)  # two cells, FALL arcs only
            assert np.all(np.isfinite(matrix))

    def test_fits_are_accurate(self, historical_data):
        for data in historical_data:
            assert data.mean_fit_error("delay") < 0.05
            assert data.mean_fit_error("slew") < 0.05

    def test_residuals_per_condition(self, historical_data, reference_conditions):
        for data in historical_data:
            assert data.delay_residuals.shape == (reference_conditions.shape[0],)
            assert data.simulation_runs == 2 * reference_conditions.shape[0]

    def test_unknown_response_rejected(self, historical_data):
        with pytest.raises(ValueError):
            historical_data[0].parameter_matrix("power")

    def test_parameters_similar_across_technologies(self, historical_data):
        """The cross-node similarity that justifies the prior (Table I)."""
        means = [data.mean_parameters("delay") for data in historical_data]
        kd_values = [m[0] for m in means]
        assert max(kd_values) - min(kd_values) < 0.2


@pytest.fixture(scope="module")
def four_node_history(reference_conditions, inv_cell, nor2_cell):
    from repro import get_technology
    from repro.cells.library import Transition

    return [characterize_historical_library(
                get_technology(name), [inv_cell, nor2_cell],
                unit_conditions=reference_conditions,
                transitions=(Transition.FALL,))
            for name in ("n45_bulk", "n32_soi", "n28_bulk", "n20_planar")]


class TestLearnPrior:
    def test_bp_prior_structure(self, delay_prior, historical_data):
        assert isinstance(delay_prior, TimingPrior)
        assert delay_prior.density.dim == 4
        assert delay_prior.method == "bp"
        assert len(delay_prior.technology_names) == len(historical_data)
        assert np.all(delay_prior.density.standard_deviations() > 0)

    def test_prior_mean_is_plausible(self, delay_prior):
        mean = delay_prior.density.mean
        assert 0.1 < mean[0] < 1.0          # kd
        assert 0.0 < mean[1] < 10.0         # Cpar in fF
        assert -0.6 < mean[2] < 0.2         # V'
        assert 0.0 <= mean[3] < 5.0         # alpha in fF/ps

    def test_empirical_and_bp_agree_on_mean(self, historical_data):
        bp = learn_prior(historical_data, response="delay", method="bp")
        empirical = learn_prior(historical_data, response="delay", method="empirical")
        assert np.allclose(bp.density.mean, empirical.density.mean, atol=0.2)

    def test_slew_prior_differs_from_delay_prior(self, delay_prior, slew_prior):
        assert not np.allclose(delay_prior.density.mean, slew_prior.density.mean)

    def test_single_library_falls_back_to_empirical(self, historical_data):
        prior = learn_prior(historical_data[:1], response="delay", method="bp")
        assert prior.method == "empirical"

    def test_prior_widening(self, historical_data):
        narrow = learn_prior(historical_data, response="delay")
        wide = learn_prior(historical_data, response="delay", prior_widening=4.0)
        assert np.all(wide.density.standard_deviations()
                      >= narrow.density.standard_deviations())

    def test_invalid_arguments(self, historical_data):
        with pytest.raises(ValueError):
            learn_prior([], response="delay")
        with pytest.raises(ValueError):
            learn_prior(historical_data, response="delay", method="magic")
        with pytest.raises(ValueError):
            learn_prior(historical_data, response="power")
        with pytest.raises(ValueError):
            learn_prior(historical_data, response="delay", prior_widening=0.0)

    @pytest.mark.parametrize("n_nodes", [2, 3, 4])
    @pytest.mark.parametrize("response", ["delay", "slew"])
    def test_matches_scalar_star_oracle(self, four_node_history, n_nodes,
                                        response):
        """A batch-of-one star reproduces the scalar message loop exactly."""
        historical = four_node_history[:n_nodes]
        prior = learn_prior(historical, response=response, prior_widening=2.0)
        expected = scalar_prior(
            historical, response,
            [data.parameter_matrix(response) for data in historical],
            prior_widening=2.0)
        assert prior.method == expected.method == "bp"
        np.testing.assert_array_equal(prior.density.mean,
                                      expected.density.mean)
        np.testing.assert_array_equal(prior.density.covariance,
                                      expected.density.covariance)

    def test_learn_priors_returns_both_responses(self, historical_data):
        priors = learn_priors(historical_data)
        assert set(priors) == {"delay", "slew"}
        assert priors["delay"].response == "delay"

    def test_precision_model_attached(self, delay_prior):
        betas = delay_prior.precision_model.beta(np.array([[0.5, 0.5, 0.5]]))
        assert betas[0] > 0

    def test_describe(self, delay_prior):
        text = delay_prior.describe()
        assert "delay prior" in text
        assert "bp" in text


class TestBatchedLearnPriors:
    def test_batched_matches_loop(self, historical_data):
        batched = learn_priors(historical_data)
        loop = learn_priors_scalar(historical_data)
        for response in ("delay", "slew"):
            np.testing.assert_allclose(batched[response].density.mean,
                                       loop[response].density.mean,
                                       rtol=1e-12)
            np.testing.assert_allclose(batched[response].density.covariance,
                                       loop[response].density.covariance,
                                       rtol=1e-12)
            assert batched[response].method == loop[response].method == "bp"

    def test_ledger_records_bp_stage(self, historical_data):
        from repro.runtime.accounting import RunLedger

        ledger = RunLedger()
        learn_priors(historical_data, ledger=ledger)
        assert "priors:bp" in ledger.stages()

    def test_empirical_method_falls_back(self, historical_data):
        priors = learn_priors(historical_data, method="empirical")
        assert priors["delay"].method == "empirical"

    def test_single_library_falls_back(self, historical_data):
        priors = learn_priors(historical_data[:1])
        assert priors["delay"].method == "empirical"

    def test_invalid_engine(self, historical_data):
        # One BP path: the retired engine switch is not accepted.
        with pytest.raises(TypeError, match="engine"):
            learn_priors(historical_data, engine="loop")


class TestLearnClassPriors:
    def test_keys_and_structure(self, historical_data):
        priors = learn_class_priors(historical_data)
        cell_names = {fit.cell_name for fit in historical_data[0].arc_fits}
        assert set(priors) == {(response, name)
                               for response in ("delay", "slew")
                               for name in cell_names}
        for prior in priors.values():
            assert prior.method == "bp"
            assert prior.density.dim == 4

    def test_batched_matches_loop(self, historical_data):
        batched = learn_class_priors(historical_data)
        loop = learn_class_priors_scalar(historical_data)
        assert set(batched) == set(loop)
        for key in batched:
            np.testing.assert_allclose(batched[key].density.mean,
                                       loop[key].density.mean, rtol=1e-12)
            np.testing.assert_allclose(batched[key].density.covariance,
                                       loop[key].density.covariance,
                                       rtol=1e-12)

    def test_class_priors_differ_between_classes(self, historical_data):
        priors = learn_class_priors(historical_data)
        names = sorted({name for _response, name in priors})
        assert not np.allclose(priors[("delay", names[0])].density.mean,
                               priors[("delay", names[1])].density.mean)

    def test_custom_class_function_pools_everything(self, historical_data):
        priors = learn_class_priors(historical_data, class_of=lambda fit: "all")
        assert set(priors) == {("delay", "all"), ("slew", "all")}
        # One class over all arcs reproduces the per-response prior.
        pooled = learn_priors(historical_data)
        np.testing.assert_allclose(priors[("delay", "all")].density.mean,
                                   pooled["delay"].density.mean, rtol=1e-12)

    def test_empirical_fallback(self, historical_data):
        priors = learn_class_priors(historical_data[:1])
        assert all(prior.method == "empirical" for prior in priors.values())

    def test_no_shared_classes_raises(self, historical_data):
        with pytest.raises(ValueError, match="share no arc classes"):
            learn_class_priors(
                historical_data,
                class_of=lambda fit: f"{fit.cell_name}-{id(fit)}")

    def test_invalid_arguments(self, historical_data):
        with pytest.raises(ValueError):
            learn_class_priors([])
        with pytest.raises(ValueError):
            learn_class_priors(historical_data, method="magic")
        with pytest.raises(ValueError):
            learn_class_priors(historical_data, prior_widening=0.0)
        with pytest.raises(TypeError):
            learn_class_priors(historical_data, engine="loop")


class TestFusedHistoricalCharacterization:
    @pytest.fixture(scope="class")
    def fused_and_legacy(self, reference_conditions, inv_cell, nor2_cell):
        import repro.spice.testbench as testbench
        from repro.cells.library import Transition
        from repro.runtime.accounting import RunLedger
        from repro.spice.testbench import SimulationCounter

        tech = __import__("repro").get_technology("n28_bulk")
        results = {}
        for name, characterize in (
                ("per_arc", characterize_historical_library_per_arc),
                ("fused", characterize_historical_library)):
            testbench.get_simulation_cache().clear()
            counter = SimulationCounter()
            ledger = RunLedger()
            results[name] = (
                characterize(
                    tech, [inv_cell, nor2_cell],
                    unit_conditions=reference_conditions,
                    transitions=(Transition.FALL,),
                    counter=counter, ledger=ledger),
                counter, ledger)
        testbench.get_simulation_cache().clear()
        return results

    def test_fused_matches_legacy_fits(self, fused_and_legacy):
        legacy, _c, _l = fused_and_legacy["per_arc"]
        fused, _c2, _l2 = fused_and_legacy["fused"]
        for a, b in zip(legacy.arc_fits, fused.arc_fits):
            assert a.cell_name == b.cell_name and a.arc_name == b.arc_name
            np.testing.assert_allclose(b.delay_fit.params.as_array(),
                                       a.delay_fit.params.as_array(),
                                       rtol=1e-4, atol=1e-9)
            np.testing.assert_allclose(b.slew_fit.params.as_array(),
                                       a.slew_fit.params.as_array(),
                                       rtol=1e-4, atol=1e-9)
        np.testing.assert_allclose(fused.delay_residuals,
                                   legacy.delay_residuals, atol=1e-6)

    def test_counter_accounting_identical(self, fused_and_legacy):
        _legacy, c_legacy, _l = fused_and_legacy["per_arc"]
        _fused, c_fused, _l2 = fused_and_legacy["fused"]
        assert c_fused.total == c_legacy.total
        assert c_fused.by_label() == c_legacy.by_label()

    def test_ledger_stages_and_metrics(self, fused_and_legacy):
        data, _counter, ledger = fused_and_legacy["fused"]
        stages = ledger.stages()
        for stage in ("priors:plan", "priors:simulate", "priors:integrate",
                      "priors:fit"):
            assert stage in stages
        metrics = ledger.metrics()
        assert metrics["priors_rows_total"] == 16
        assert metrics["priors_rows_simulated"] == 16
        assert metrics["priors_signature_groups"] == 2
        assert ledger.simulations_by_label() == {
            "priors:n28_bulk": data.simulation_runs}

    def test_footprint_twins_dedup(self, reference_conditions):
        import dataclasses

        import repro.spice.testbench as testbench
        from repro.cells.library import Transition
        from repro.runtime.accounting import RunLedger
        from repro import get_technology, make_cell

        base = make_cell("INV_X1")
        twins = [dataclasses.replace(base, name=f"INV_X1_C{i}")
                 for i in range(3)]
        testbench.get_simulation_cache().clear()
        ledger = RunLedger()
        data = characterize_historical_library(
            get_technology("n28_bulk"), twins,
            unit_conditions=reference_conditions,
            transitions=(Transition.FALL,), ledger=ledger)
        testbench.get_simulation_cache().clear()
        metrics = ledger.metrics()
        n = reference_conditions.shape[0]
        # Three twin cells share one signature: one cell's rows simulate,
        # the other two dedup against the same slots.
        assert metrics["priors_signature_groups"] == 1
        assert metrics["priors_rows_simulated"] == n
        assert metrics["priors_rows_deduplicated"] == 2 * n
        assert data.simulation_runs == 3 * n

    def test_plural_helper_shares_accounting(self, reference_conditions,
                                             inv_cell):
        import repro.spice.testbench as testbench
        from repro.cells.library import Transition
        from repro.runtime.accounting import RunLedger
        from repro import get_technology
        from repro.spice.testbench import SimulationCounter

        testbench.get_simulation_cache().clear()
        counter = SimulationCounter()
        ledger = RunLedger()
        libraries = characterize_historical_libraries(
            [get_technology("n28_bulk"), get_technology("n45_bulk")],
            [inv_cell], unit_conditions=reference_conditions,
            transitions=(Transition.FALL,), counter=counter, ledger=ledger)
        testbench.get_simulation_cache().clear()
        assert [data.technology_name for data in libraries] == \
            ["n28_bulk", "n45_bulk"]
        n = reference_conditions.shape[0]
        assert ledger.simulations_by_label() == {
            "priors:n28_bulk": n, "priors:n45_bulk": n}
        assert counter.total == 2 * n

    def test_run_count_comes_from_the_inputs(self, reference_conditions,
                                             inv_cell, nor2_cell):
        from repro import get_technology
        from repro.runtime.accounting import RunLedger
        from repro.spice.testbench import SimulationCounter

        class SharedCounter(SimulationCounter):
            """A counter that another flow charges during this pass."""

            def add(self, runs, label="unlabelled"):
                super().add(runs, label)
                if label.startswith("historical:"):
                    super().add(1, label="another flow")

        counter = SharedCounter()
        ledger = RunLedger()
        data = characterize_historical_library(
            get_technology("n45_bulk"), [inv_cell, nor2_cell],
            unit_conditions=reference_conditions, counter=counter,
            ledger=ledger)
        # 2 cells x 2 transitions x 8 conditions, nominal.
        expected = 2 * 2 * reference_conditions.shape[0]
        assert data.simulation_runs == expected
        assert ledger.simulations_by_label() == {"priors:n45_bulk": expected}
        assert counter.by_label()["another flow"] == 4

    def test_configured_transient_engine_drives_historical(
            self, reference_conditions, inv_cell, nor2_cell):
        """``runtime.configure(transient_engine=...)`` reaches prior learning.

        The two schemes leave distinct fingerprints in the ledger: fixed-step
        RK4 costs exactly four RHS evaluations per step and never rejects,
        while the FSAL RK45 pair costs one initial evaluation per row plus
        six per step attempt (nominal rows carry one seed).
        """
        import repro.runtime as runtime
        import repro.spice.testbench as testbench
        from repro import get_technology
        from repro.runtime.accounting import RunLedger

        def run():
            testbench.get_simulation_cache().clear()
            ledger = RunLedger()
            characterize_historical_library(
                get_technology("n28_bulk"), [inv_cell, nor2_cell],
                unit_conditions=reference_conditions, ledger=ledger)
            testbench.get_simulation_cache().clear()
            return ledger.metrics()

        fixed = run()
        assert fixed["transient_steps_rejected"] == 0
        assert fixed["transient_rhs_evals"] == 4 * fixed["transient_steps"]
        saved = runtime.runtime_config().transient_engine
        runtime.configure(transient_engine="adaptive")
        try:
            adaptive = run()
        finally:
            runtime.configure(transient_engine=saved)
        attempts = (adaptive["transient_steps"]
                    + adaptive["transient_steps_rejected"])
        assert adaptive["transient_rhs_evals"] == (
            adaptive["priors_rows_simulated"] + 6 * attempts)
        assert adaptive["transient_steps"] < fixed["transient_steps"]

    def test_invalid_engine(self, reference_conditions, inv_cell):
        from repro import get_technology

        # One historical path: the retired engine switch is not accepted.
        with pytest.raises(TypeError, match="engine"):
            characterize_historical_library(
                get_technology("n28_bulk"), [inv_cell],
                unit_conditions=reference_conditions, engine="batched")

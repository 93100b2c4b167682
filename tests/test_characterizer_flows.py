"""Integration tests for the proposed nominal and statistical flows."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BayesianCharacterizer,
    InputCondition,
    InputSpace,
    LseCharacterizer,
    LutCharacterizer,
    SimulationCounter,
    StatisticalCharacterizer,
    StatisticalLutCharacterizer,
    mean_relative_error,
    nominal_baseline,
    statistical_baseline,
)
from repro.cells import Transition
from repro.cells.equivalent_inverter import default_arc


class TestBayesianCharacterizer:
    def test_fit_with_two_conditions_is_accurate(self, tech14, nor2_cell,
                                                 delay_prior, slew_prior):
        counter = SimulationCounter()
        flow = BayesianCharacterizer(tech14, nor2_cell, delay_prior, slew_prior,
                                     counter=counter)
        result = flow.fit(2, rng=3)
        assert result.k == 2
        assert result.simulation_runs == 2
        assert counter.total == 2

        validation = InputSpace(tech14).sample_random(25, rng=4)
        baseline = nominal_baseline(nor2_cell, tech14, validation)
        delay_error = mean_relative_error(flow.predict_delay(validation),
                                          baseline.delay)
        slew_error = mean_relative_error(flow.predict_slew(validation),
                                         baseline.slew)
        assert delay_error < 0.10
        assert slew_error < 0.12

    def test_explicit_conditions_accepted(self, tech14, inv_cell, delay_prior,
                                          slew_prior):
        flow = BayesianCharacterizer(tech14, inv_cell, delay_prior, slew_prior)
        conditions = [InputCondition(3e-12, 1e-15, 0.7),
                      InputCondition(10e-12, 4e-15, 0.95)]
        result = flow.fit(conditions)
        assert list(result.fitting_conditions) == conditions

    def test_predict_before_fit_raises(self, tech14, inv_cell, delay_prior,
                                       slew_prior):
        flow = BayesianCharacterizer(tech14, inv_cell, delay_prior, slew_prior)
        with pytest.raises(RuntimeError):
            flow.predict_delay([InputCondition(5e-12, 2e-15, 0.8)])

    def test_rise_arc_characterization(self, tech14, nor2_cell, delay_prior,
                                       slew_prior):
        arc = nor2_cell.arc("A", Transition.RISE)
        flow = BayesianCharacterizer(tech14, nor2_cell, delay_prior, slew_prior,
                                     arc=arc)
        flow.fit(3, rng=5)
        prediction = flow.predict_delay([InputCondition(5e-12, 2e-15, 0.8)])
        assert prediction[0] > 0

    def test_input_capacitance_positive(self, tech14, nand2_cell, delay_prior,
                                        slew_prior):
        flow = BayesianCharacterizer(tech14, nand2_cell, delay_prior, slew_prior)
        assert flow.input_capacitance > 0

    def test_empty_fit_rejected(self, tech14, inv_cell, delay_prior, slew_prior):
        flow = BayesianCharacterizer(tech14, inv_cell, delay_prior, slew_prior)
        with pytest.raises(ValueError):
            flow.fit([])
        with pytest.raises(ValueError):
            flow.fit(0)

    def test_extracted_parameters_are_physical(self, tech14, nor2_cell, delay_prior,
                                               slew_prior):
        flow = BayesianCharacterizer(tech14, nor2_cell, delay_prior, slew_prior)
        result = flow.fit(3, rng=8)
        params = result.delay_fit.params
        assert 0.1 < params.kd < 2.0
        assert 0.0 <= params.cpar_ff < 10.0
        assert -0.6 < params.vprime_v < 0.5

    def test_fits_are_solo_batched_solves(self, tech14, nor2_cell,
                                          delay_prior, slew_prior):
        """Delay and slew share one stacked solve, yet each fit is exactly
        its one-row ``map_estimate_batch`` solve, and agrees with the
        scipy oracle to solver tolerance."""
        from oracles.map import MapObservations, map_estimate

        from repro.cells.equivalent_inverter import reduce_cell_cached
        from repro.characterization.input_space import conditions_to_arrays
        from repro.core.batch_map import BatchMapObservations, map_estimate_batch
        from repro.spice.sweep import sweep_conditions

        flow = BayesianCharacterizer(tech14, nor2_cell, delay_prior, slew_prior)
        result = flow.fit(3, rng=8)
        conditions = list(result.fitting_conditions)
        measurements = sweep_conditions(
            nor2_cell, tech14, [c.as_tuple() for c in conditions], arc=flow.arc)
        sin, cload, vdd = conditions_to_arrays(conditions)
        ieff = np.asarray(reduce_cell_cached(nor2_cell, tech14, arc=flow.arc)
                          .effective_current(vdd), dtype=float).reshape(-1)
        unit = InputSpace(tech14).normalize(conditions)
        for prior, fit, response in (
                (delay_prior, result.delay_fit,
                 [m.nominal_delay() for m in measurements]),
                (slew_prior, result.slew_fit,
                 [m.nominal_slew() for m in measurements])):
            beta = prior.precision_model.beta(unit)
            solo = map_estimate_batch(prior, BatchMapObservations(
                sin=sin, cload=cload, vdd=vdd, ieff=ieff,
                response=np.array([response]), beta=beta))
            assert np.array_equal(fit.params.as_array(), solo.parameters[0])
            assert np.array_equal(fit.residuals, solo.residuals[0])
            assert fit.converged
            oracle = map_estimate(prior, MapObservations(
                sin=sin, cload=cload, vdd=vdd, ieff=ieff, response=response,
                beta=beta), ftol=1e-13, xtol=1e-13, gtol=1e-13)
            np.testing.assert_allclose(fit.params.as_array(),
                                       oracle.params.as_array(),
                                       rtol=1e-4, atol=1e-6)


class TestStatisticalCharacterizer:
    @pytest.fixture(scope="class")
    def statistical_setup(self, tech28, inv_cell, delay_prior, slew_prior):
        """One shared statistical characterization (30 seeds, k=4)."""
        counter = SimulationCounter()
        variation = tech28.variation.sample(30, rng=21)
        flow = StatisticalCharacterizer(tech28, inv_cell, delay_prior, slew_prior,
                                        n_seeds=30, counter=counter)
        flow.use_variation(variation)
        characterization = flow.characterize(4, rng=22)
        return variation, characterization, counter

    def test_simulation_accounting(self, statistical_setup):
        variation, characterization, counter = statistical_setup
        assert characterization.simulation_runs == 4 * 30
        assert counter.total == 4 * 30
        assert characterization.n_seeds == 30
        assert characterization.k == 4

    def test_parameter_matrix_shape(self, statistical_setup):
        _, characterization, _ = statistical_setup
        assert characterization.delay_parameters.shape == (30, 4)
        assert characterization.slew_parameters.shape == (30, 4)
        assert np.all(np.isfinite(characterization.delay_parameters))

    def test_statistics_match_baseline(self, statistical_setup, tech28, inv_cell):
        variation, characterization, _ = statistical_setup
        conditions = [InputCondition(6e-12, 2e-15, 0.9),
                      InputCondition(12e-12, 5e-15, 0.78)]
        baseline = statistical_baseline(inv_cell, tech28, conditions, variation)
        reference = baseline.statistics()
        predicted = characterization.predict_statistics(conditions)
        assert np.allclose(predicted["mu_delay"], reference["mu_delay"], rtol=0.10)
        assert np.allclose(predicted["sigma_delay"], reference["sigma_delay"],
                           rtol=0.5, atol=2e-13)

    def test_samples_and_moments(self, statistical_setup):
        _, characterization, _ = statistical_setup
        condition = InputCondition(5e-12, 2e-15, 0.85)
        delay_samples = characterization.delay_samples(condition)
        assert delay_samples.shape == (30,)
        stats = characterization.delay_statistics(condition)
        assert stats["std"] > 0
        assert stats["mean"] == pytest.approx(delay_samples.mean())
        assert characterization.slew_statistics(condition)["mean"] > 0

    def test_mean_parameters(self, statistical_setup):
        _, characterization, _ = statistical_setup
        params = characterization.mean_parameters("delay")
        assert 0.1 < params.kd < 2.0

    def test_mean_parameters_rejects_unknown_response(self,
                                                      statistical_setup):
        _, characterization, _ = statistical_setup
        with pytest.raises(ValueError, match="response"):
            characterization.mean_parameters("Delay")

    def test_seed_count_validation(self, tech28, inv_cell, delay_prior, slew_prior):
        with pytest.raises(ValueError):
            StatisticalCharacterizer(tech28, inv_cell, delay_prior, slew_prior,
                                     n_seeds=1)

    def test_empty_conditions_rejected(self, tech28, inv_cell, delay_prior,
                                       slew_prior):
        flow = StatisticalCharacterizer(tech28, inv_cell, delay_prior, slew_prior,
                                        n_seeds=5)
        with pytest.raises(ValueError):
            flow.characterize([])


def _run_flow(flow, tech28, cell, priors, arc):
    """One cheap run of a characterization flow, as a tuple of arrays."""
    delay_prior, slew_prior = priors
    conditions = InputSpace(tech28).sample_lhs(2, np.random.default_rng(6))
    probes = InputSpace(tech28).sample_lhs(3, np.random.default_rng(7))
    variation = tech28.variation.sample(4, rng=8)
    if flow == "bayesian":
        model = BayesianCharacterizer(tech28, cell, delay_prior, slew_prior,
                                      arc=arc)
        model.fit(conditions)
        return model.predict_delay(probes), model.predict_slew(probes)
    if flow == "statistical":
        model = StatisticalCharacterizer(tech28, cell, delay_prior, slew_prior,
                                         arc=arc, n_seeds=4)
        model.use_variation(variation)
        result = model.characterize(conditions)
        return result.delay_parameters, result.slew_parameters
    if flow == "lse":
        model = LseCharacterizer(tech28, cell, arc=arc)
        model.fit(InputSpace(tech28).sample_lhs(6, np.random.default_rng(6)))
        return model.predict_delay(probes), model.predict_slew(probes)
    if flow == "lut":
        model = LutCharacterizer(tech28, cell, arc=arc).build(8)
        return model.predict_delay(probes), model.predict_slew(probes)
    if flow == "statistical_lut":
        model = StatisticalLutCharacterizer(tech28, cell, variation,
                                            arc=arc).build(8)
        return tuple(model.predict_statistics(probes).values())
    if flow == "nominal_baseline":
        result = nominal_baseline(cell, tech28, conditions, arc=arc)
        return result.delay, result.slew
    result = statistical_baseline(cell, tech28, conditions, variation, arc=arc)
    return tuple(result.statistics().values())


@pytest.mark.parametrize("flow", [
    "bayesian", "statistical", "lse", "lut", "statistical_lut",
    "nominal_baseline", "statistical_baseline"])
def test_arc_none_is_the_default_arc(flow, tech28, nand2_cell, delay_prior,
                                     slew_prior):
    """Every flow reads ``arc=None`` as first pin, falling output."""
    priors = (delay_prior, slew_prior)
    implicit = _run_flow(flow, tech28, nand2_cell, priors, None)
    explicit = _run_flow(flow, tech28, nand2_cell, priors,
                         default_arc(nand2_cell))
    assert default_arc(nand2_cell).output_transition is Transition.FALL
    for left, right in zip(implicit, explicit):
        np.testing.assert_array_equal(left, right)

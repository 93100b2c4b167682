"""Tests for MAP parameter extraction (Eq. 15) of one observation set.

A nominal fit is a one-row :class:`BatchMapObservations` solved by
:func:`map_estimate_batch`, the one Eq. 15 solver; these tests pin its
behaviour on a single row: prior dominance, data override, the small-k
advantage over prior-free LSE, precision weighting and input validation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bayes import GaussianDensity
from repro.core.batch_map import BatchMapObservations, map_estimate_batch
from repro.core.timing_model import (
    CompactTimingModel,
    FitResult,
    TimingModelParameters,
)


TRUTH = TimingModelParameters(kd=0.40, cpar_ff=1.2, vprime_v=-0.25,
                              alpha_ff_per_ps=0.10)


def synthetic_observations(n: int, noise: float = 0.0, seed: int = 0,
                           params: TimingModelParameters = TRUTH,
                           beta=None) -> BatchMapObservations:
    """``n`` observations of ``params`` as one row."""
    rng = np.random.default_rng(seed)
    sin = rng.uniform(1e-12, 15e-12, n)
    cload = rng.uniform(0.3e-15, 6e-15, n)
    vdd = rng.uniform(0.65, 1.0, n)
    ieff = 4e-4 * (vdd - 0.3)
    response = CompactTimingModel().evaluate(params, sin, cload, vdd, ieff)
    response = response * (1.0 + noise * rng.standard_normal(n))
    return BatchMapObservations(sin=sin, cload=cload, vdd=vdd, ieff=ieff,
                                response=response[np.newaxis], beta=beta)


def map_fit(prior, observations: BatchMapObservations, **options) -> FitResult:
    """The one-row solve as a :class:`FitResult`."""
    return map_estimate_batch(prior, observations, **options).fit_result(0)


def tight_prior_at(params: TimingModelParameters, scale: float = 1e-6
                   ) -> GaussianDensity:
    return GaussianDensity(params.as_array(), scale * np.eye(4))


class TestMapObservations:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            BatchMapObservations(sin=[1e-12, 2e-12], cload=[1e-15], vdd=[0.8],
                                 ieff=[1e-4], response=[1e-12])

    def test_positive_response_required(self):
        with pytest.raises(ValueError):
            BatchMapObservations(sin=[1e-12], cload=[1e-15], vdd=[0.8],
                                 ieff=[1e-4], response=[0.0])

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            BatchMapObservations(sin=[1e-12], cload=[1e-15], vdd=[0.8],
                                 ieff=[1e-4], response=[1e-12], beta=[-1.0])

    def test_k_property(self):
        obs = synthetic_observations(5)
        assert obs.k == 5
        assert obs.n_seeds == 1


class TestMapEstimate:
    def test_tight_prior_dominates_with_no_informative_data(self):
        """With a nearly-delta prior the estimate sticks to the prior mean."""
        biased = TimingModelParameters(kd=0.6, cpar_ff=2.0, vprime_v=-0.1,
                                       alpha_ff_per_ps=0.3)
        observations = synthetic_observations(1, params=TRUTH,
                                              beta=np.array([1.0]))
        result = map_fit(tight_prior_at(biased), observations)
        assert np.allclose(result.params.as_array(), biased.as_array(), atol=0.02)

    def test_abundant_precise_data_overrides_loose_prior(self):
        prior = GaussianDensity(np.array([0.6, 2.5, 0.0, 0.5]), 0.5 * np.eye(4))
        observations = synthetic_observations(40, beta=np.full(40, 1e6))
        result = map_fit(prior, observations)
        prediction = CompactTimingModel().evaluate(
            result.params, observations.sin, observations.cload, observations.vdd,
            observations.ieff)
        assert np.allclose(prediction, observations.response[0], rtol=1e-3)

    def test_small_k_with_good_prior_beats_no_prior(self):
        """The headline behaviour: k=2 plus a decent prior is accurate."""
        from repro.core.timing_model import fit_least_squares

        near_truth = TimingModelParameters(kd=0.42, cpar_ff=1.3, vprime_v=-0.22,
                                           alpha_ff_per_ps=0.12)
        prior = GaussianDensity(near_truth.as_array(), np.diag([0.02, 0.2, 0.05,
                                                                0.05]) ** 2)
        observations = synthetic_observations(2, noise=0.01, seed=5,
                                              beta=np.full(2, 1e4))
        map_result = map_fit(prior, observations)

        lse_result = fit_least_squares(observations.sin, observations.cload,
                                       observations.vdd, observations.ieff,
                                       observations.response[0],
                                       initial_guess=np.array([1.0, 5.0, 0.3, 1.0]))
        # Evaluate both on a dense synthetic validation set.
        validation = synthetic_observations(100, seed=99)
        model = CompactTimingModel()

        def error(params):
            prediction = model.evaluate(params, validation.sin, validation.cload,
                                        validation.vdd, validation.ieff)
            observed = validation.response[0]
            return np.mean(np.abs(prediction - observed) / observed)

        map_error = error(map_result.params)
        assert map_error < 0.03
        assert map_error < error(lse_result.params)

    def test_beta_weights_emphasize_trusted_conditions(self):
        observations = synthetic_observations(6, seed=2)
        corrupted_response = observations.response.copy()
        corrupted_response[0, 0] *= 1.4
        beta = np.full(6, 1e4)
        beta[0] = 1e-2
        corrupted = BatchMapObservations(
            sin=observations.sin, cload=observations.cload,
            vdd=observations.vdd, ieff=observations.ieff,
            response=corrupted_response, beta=beta)
        prior = GaussianDensity(TRUTH.as_array(), 0.1 * np.eye(4))
        result = map_fit(prior, corrupted)
        assert abs(result.residuals[1:]).max() < 0.05

    def test_accepts_timing_prior_wrapper(self, delay_prior):
        observations = synthetic_observations(3)
        result = map_fit(delay_prior, observations)
        assert result.converged
        assert result.n_observations == 3

    def test_prior_weight_validation(self):
        observations = synthetic_observations(3)
        with pytest.raises(ValueError, match="prior_weight"):
            map_fit(tight_prior_at(TRUTH), observations, prior_weight=0.0)

    def test_wrong_prior_dimension_rejected(self):
        observations = synthetic_observations(3)
        with pytest.raises(ValueError, match="dimension"):
            map_fit(GaussianDensity([0.0, 0.0], np.eye(2)), observations)

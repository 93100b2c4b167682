"""Tests for the batched seed-parallel MAP solver (repro.core.batch_map).

The contract under test: `map_estimate_batch` minimizes exactly the Eq. 15
objective of the scalar `map_estimate`, seed by seed, so it must agree with
the per-seed oracle (:func:`oracles.map.map_estimate_per_seed`) to solver
tolerance across parameter regimes (interior optima, bound-active optima,
strong/weak priors) for both responses and output polarities -- while doing
the whole seed batch in a handful of vectorized LM iterations.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles.map import map_estimate_per_seed

from repro.bayes import GaussianDensity
from repro.core.batch_map import (
    BatchMapObservations,
    BatchMapResult,
    map_estimate_batch,
)
from repro.core.timing_model import (
    CompactTimingModel,
    DEFAULT_LOWER_BOUNDS,
    DEFAULT_UPPER_BOUNDS,
    TimingModelParameters,
)

#: Tight scipy tolerances so the reference converges at least as far as the
#: batched solver it is compared with.
_REFERENCE_TOLS = dict(ftol=1e-13, xtol=1e-13, gtol=1e-13)


def make_batch(truth: np.ndarray, n_seeds: int, k: int, seed: int,
               noise: float = 0.0, spread=(0.03, 0.2, 0.03, 0.03)):
    """Synthetic observations: per-seed perturbed truth on shared conditions."""
    rng = np.random.default_rng(seed)
    sin = rng.uniform(1e-12, 15e-12, k)
    cload = rng.uniform(0.3e-15, 6e-15, k)
    vdd = rng.uniform(0.65, 1.0, k)
    ieff = 4e-4 * (vdd - 0.3)
    model = CompactTimingModel()
    thetas = np.clip(truth + rng.normal(0.0, spread, size=(n_seeds, 4)),
                     DEFAULT_LOWER_BOUNDS, DEFAULT_UPPER_BOUNDS)
    response = np.array([
        model.evaluate(TimingModelParameters.from_array(t), sin, cload, vdd, ieff)
        for t in thetas])
    if noise:
        response *= 1.0 + noise * rng.standard_normal(response.shape)
    return sin, cload, vdd, ieff, response


class TestBatchMapObservations:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BatchMapObservations(sin=[1e-12, 2e-12], cload=[1e-15], vdd=[0.8, 0.9],
                                 ieff=[1e-4, 1e-4], response=[[1e-12, 2e-12]])
        with pytest.raises(ValueError):
            BatchMapObservations(sin=[1e-12], cload=[1e-15], vdd=[0.8],
                                 ieff=[1e-4], response=[[1e-12, 2e-12]])

    def test_positive_response_and_ieff_required(self):
        with pytest.raises(ValueError):
            BatchMapObservations(sin=[1e-12], cload=[1e-15], vdd=[0.8],
                                 ieff=[1e-4], response=[[0.0]])
        with pytest.raises(ValueError):
            BatchMapObservations(sin=[1e-12], cload=[1e-15], vdd=[0.8],
                                 ieff=[-1e-4], response=[[1e-12]])

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            BatchMapObservations(sin=[1e-12], cload=[1e-15], vdd=[0.8],
                                 ieff=[1e-4], response=[[1e-12]], beta=[-1.0])

    def test_properties(self):
        observations = BatchMapObservations(
            sin=[1e-12, 2e-12], cload=[1e-15, 2e-15], vdd=[0.8, 0.9],
            ieff=[1e-4, 2e-4], response=np.full((5, 2), 1e-12))
        assert observations.k == 2
        assert observations.n_seeds == 5

    def test_per_seed_ieff_accepted(self):
        observations = BatchMapObservations(
            sin=[1e-12], cload=[1e-15], vdd=[0.8],
            ieff=np.full((3, 1), 1e-4), response=np.full((3, 1), 1e-12))
        assert observations.ieff.shape == (3, 1)


class TestParityGrid:
    """Batched-vs-scipy agreement over seeds x arc regimes x responses."""

    # Distinct parameter regimes standing in for different cell arcs and
    # output polarities: delay-like and slew-like magnitudes of Table I,
    # fast and slow arcs.
    REGIMES = {
        "inv_fall_delay": np.array([0.40, 1.2, -0.25, 0.10]),
        "nand_rise_delay": np.array([0.55, 2.0, -0.20, 0.30]),
        "inv_fall_slew": np.array([0.90, 0.6, -0.35, 0.60]),
        "nor_rise_slew": np.array([1.40, 3.0, -0.10, 1.20]),
    }

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_parity(self, regime):
        truth = self.REGIMES[regime]
        seed = 100 + sorted(self.REGIMES).index(regime)
        sin, cload, vdd, ieff, response = make_batch(
            truth, n_seeds=40, k=5, seed=seed, noise=0.01)
        prior = GaussianDensity(truth, np.diag([0.05, 0.3, 0.05, 0.08]) ** 2)
        observations = BatchMapObservations(sin=sin, cload=cload, vdd=vdd,
                                            ieff=ieff, response=response,
                                            beta=np.full(5, 1e4))
        reference = map_estimate_per_seed(prior, observations, **_REFERENCE_TOLS)
        result = map_estimate_batch(prior, observations)
        assert result.converged.all()
        np.testing.assert_allclose(result.parameters, reference,
                                   rtol=1e-6, atol=5e-8)

    def test_parity_with_per_seed_ieff(self):
        truth = self.REGIMES["inv_fall_delay"]
        sin, cload, vdd, ieff, response = make_batch(truth, n_seeds=25, k=4,
                                                     seed=11, noise=0.01)
        rng = np.random.default_rng(1)
        ieff_matrix = ieff * (1.0 + 0.05 * rng.standard_normal((25, 4)))
        prior = GaussianDensity(truth, np.diag([0.05, 0.3, 0.05, 0.08]) ** 2)
        observations = BatchMapObservations(sin=sin, cload=cload, vdd=vdd,
                                            ieff=ieff_matrix, response=response,
                                            beta=np.full(4, 1e4))
        params = map_estimate_per_seed(prior, observations, **_REFERENCE_TOLS)
        result = map_estimate_batch(prior, observations)
        assert result.converged.all()
        np.testing.assert_allclose(result.parameters, params,
                                   rtol=1e-6, atol=5e-8)

    def test_parity_strong_data_weak_prior(self):
        truth = self.REGIMES["nand_rise_delay"]
        sin, cload, vdd, ieff, response = make_batch(truth, n_seeds=30, k=8,
                                                     seed=3, noise=0.005)
        prior = GaussianDensity(np.array([0.6, 2.5, 0.0, 0.5]), 0.5 * np.eye(4))
        observations = BatchMapObservations(sin=sin, cload=cload, vdd=vdd,
                                            ieff=ieff, response=response,
                                            beta=np.full(8, 1e6))
        reference = map_estimate_per_seed(prior, observations, **_REFERENCE_TOLS)
        result = map_estimate_batch(prior, observations)
        assert result.converged.all()
        np.testing.assert_allclose(result.parameters, reference,
                                   rtol=1e-6, atol=5e-8)

    def test_prior_weight_parity(self):
        truth = self.REGIMES["inv_fall_slew"]
        sin, cload, vdd, ieff, response = make_batch(truth, n_seeds=10, k=4,
                                                     seed=8, noise=0.01)
        prior = GaussianDensity(truth, np.diag([0.05, 0.3, 0.05, 0.08]) ** 2)
        observations = BatchMapObservations(sin=sin, cload=cload, vdd=vdd,
                                            ieff=ieff, response=response,
                                            beta=np.full(4, 1e4))
        params = map_estimate_per_seed(prior, observations, prior_weight=3.0,
                                       **_REFERENCE_TOLS)
        result = map_estimate_batch(prior, observations, prior_weight=3.0)
        np.testing.assert_allclose(result.parameters, params,
                                   rtol=1e-6, atol=5e-8)


class TestBounds:
    def test_bound_active_seeds_match_scipy(self):
        """Optima pressed against the lower bounds (Cpar, alpha at 0)."""
        truth = np.array([0.40, 0.05, -0.58, 0.005])
        sin, cload, vdd, ieff, response = make_batch(
            truth, n_seeds=30, k=5, seed=7,
            spread=(0.02, 0.1, 0.05, 0.02))
        # Prior mean outside the box pulls several seeds onto the bounds.
        prior = GaussianDensity(np.array([0.4, 0.0, -0.65, -0.05]),
                                np.diag([0.05, 0.2, 0.05, 0.05]) ** 2)
        observations = BatchMapObservations(sin=sin, cload=cload, vdd=vdd,
                                            ieff=ieff, response=response,
                                            beta=np.full(5, 1e5))
        reference = map_estimate_per_seed(prior, observations, **_REFERENCE_TOLS)
        result = map_estimate_batch(prior, observations)
        assert result.converged.all()
        lower = DEFAULT_LOWER_BOUNDS
        # The scenario must actually exercise the bounds to be meaningful.
        assert np.any(result.parameters[:, 2] <= lower[2] + 1e-9)
        assert np.any(result.parameters[:, 3] <= lower[3] + 1e-9)
        np.testing.assert_allclose(result.parameters, reference,
                                   rtol=2e-6, atol=5e-8)
        # Never leaves the feasible box.
        assert np.all(result.parameters >= lower - 1e-15)
        assert np.all(result.parameters <= DEFAULT_UPPER_BOUNDS + 1e-15)

    def test_custom_bounds_respected(self):
        truth = np.array([0.40, 1.2, -0.25, 0.10])
        sin, cload, vdd, ieff, response = make_batch(truth, n_seeds=8, k=4,
                                                     seed=2)
        model = CompactTimingModel(lower_bounds=np.array([0.5, 0.0, -0.6, 0.0]),
                                   upper_bounds=np.array([5.0, 20.0, 0.6, 10.0]))
        prior = GaussianDensity(truth, np.diag([0.05, 0.3, 0.05, 0.08]) ** 2)
        result = map_estimate_batch(
            prior, BatchMapObservations(sin=sin, cload=cload, vdd=vdd, ieff=ieff,
                                        response=response), model=model)
        assert np.all(result.parameters[:, 0] >= 0.5 - 1e-15)


class TestReporting:
    def make_result(self, max_iterations=60) -> BatchMapResult:
        truth = np.array([0.40, 1.2, -0.25, 0.10])
        sin, cload, vdd, ieff, response = make_batch(truth, n_seeds=12, k=4,
                                                     seed=5, noise=0.01)
        prior = GaussianDensity(truth, np.diag([0.05, 0.3, 0.05, 0.08]) ** 2)
        return map_estimate_batch(
            prior, BatchMapObservations(sin=sin, cload=cload, vdd=vdd, ieff=ieff,
                                        response=response),
            max_iterations=max_iterations)

    def test_converged_run_reports_no_stragglers(self):
        result = self.make_result()
        assert result.n_seeds == 12
        assert result.n_converged == 12
        assert result.unconverged_seeds().size == 0
        assert np.all(result.n_iterations >= 1)
        assert np.all(np.isfinite(result.cost))

    def test_iteration_starved_run_reports_unconverged_seeds(self):
        result = self.make_result(max_iterations=1)
        assert result.n_converged < result.n_seeds
        stragglers = result.unconverged_seeds()
        assert stragglers.size == result.n_seeds - result.n_converged
        assert not result.converged[stragglers].any()

    def test_fit_result_bridge(self):
        result = self.make_result()
        fit = result.fit_result(0)
        assert fit.converged
        assert fit.n_observations == 4
        assert fit.params.as_array() == pytest.approx(result.parameters[0])
        assert fit.mean_abs_relative_error == pytest.approx(
            result.mean_abs_relative_error()[0])

    def test_input_validation(self):
        result_args = self.make_result
        truth = np.array([0.40, 1.2, -0.25, 0.10])
        sin, cload, vdd, ieff, response = make_batch(truth, n_seeds=4, k=3,
                                                     seed=9)
        prior = GaussianDensity(truth, np.diag([0.05, 0.3, 0.05, 0.08]) ** 2)
        observations = BatchMapObservations(sin=sin, cload=cload, vdd=vdd,
                                            ieff=ieff, response=response)
        with pytest.raises(ValueError):
            map_estimate_batch(prior, observations, prior_weight=0.0)
        with pytest.raises(ValueError):
            map_estimate_batch(prior, observations, max_iterations=0)
        with pytest.raises(ValueError):
            map_estimate_batch(GaussianDensity([0.0, 0.0], np.eye(2)),
                               observations)
        assert result_args() is not None


class TestStatisticalFlowSolverSwitch:
    """The characterizer's batched solve matches the per-seed scipy oracle."""

    @pytest.fixture(scope="class")
    def characterized(self, tech28, inv_cell, delay_prior, slew_prior):
        from oracles.library import sweep_arc

        from repro.cells.equivalent_inverter import default_arc
        from repro.characterization.input_space import InputSpace
        from repro.core.statistical_flow import StatisticalCharacterizer

        variation = tech28.variation.sample(16, rng=21)
        conditions = InputSpace(tech28).sample_lhs(
            3, np.random.default_rng(4))
        flow = StatisticalCharacterizer(tech28, inv_cell, delay_prior,
                                        slew_prior, n_seeds=16)
        flow.use_variation(variation)
        batched = flow.characterize(conditions)
        _, delay_obs, slew_obs, _ = sweep_arc(
            tech28, inv_cell, default_arc(inv_cell), delay_prior, slew_prior,
            conditions, variation)
        per_seed = (map_estimate_per_seed(delay_prior, delay_obs),
                    map_estimate_per_seed(slew_prior, slew_obs))
        return batched, per_seed

    def test_parameter_parity_end_to_end(self, characterized):
        batched, (delay, slew) = characterized
        np.testing.assert_allclose(batched.delay_parameters, delay,
                                   rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(batched.slew_parameters, slew,
                                   rtol=1e-4, atol=1e-6)

    def test_convergence_flags_only_on_batched(self, characterized):
        batched, _ = characterized
        assert batched.delay_converged is not None
        assert batched.delay_converged.all()
        assert batched.slew_converged.all()
        assert batched.unconverged_seeds().size == 0

    def test_invalid_solver_rejected(self, tech28, inv_cell, delay_prior,
                                     slew_prior):
        from repro.core.statistical_flow import StatisticalCharacterizer

        # One extraction solver: the retired solver switch is not accepted.
        with pytest.raises(TypeError, match="solver"):
            StatisticalCharacterizer(tech28, inv_cell, delay_prior, slew_prior,
                                     solver="scipy")
        flow = StatisticalCharacterizer(tech28, inv_cell, delay_prior,
                                        slew_prior, n_seeds=4)
        with pytest.raises(TypeError, match="solver"):
            flow.characterize(2, solver="scipy")


class TestStackedSolve:
    """map_estimate_stacked must reproduce per-block map_estimate_batch."""

    def make_blocks(self, n_blocks=3, n_seeds=6, k=4):
        truth = np.array([0.45, 1.2, -0.2, 0.12])
        blocks = []
        for index in range(n_blocks):
            sin, cload, vdd, ieff, response = make_batch(
                truth, n_seeds=n_seeds, k=k, seed=30 + index, noise=0.01)
            blocks.append(BatchMapObservations(
                sin=sin, cload=cload, vdd=vdd, ieff=ieff, response=response,
                beta=np.full(k, 2.0 + index)))
        return blocks

    def prior(self, scale=0.1):
        mean = np.array([0.45, 1.2, -0.2, 0.12])
        return GaussianDensity(mean, scale * np.eye(4))

    def test_shared_prior_matches_per_block(self):
        from repro.core.batch_map import map_estimate_stacked

        blocks = self.make_blocks()
        prior = self.prior()
        stacked = map_estimate_stacked(prior, blocks)
        assert len(stacked) == len(blocks)
        for block, result in zip(blocks, stacked):
            reference = map_estimate_batch(prior, block)
            np.testing.assert_allclose(result.parameters,
                                       reference.parameters, rtol=1e-12)
            assert result.n_observations == block.k
            assert result.n_seeds == block.n_seeds
            assert result.converged.all()

    def test_per_block_priors_match_per_block_solves(self):
        from repro.core.batch_map import map_estimate_stacked

        blocks = self.make_blocks()
        priors = [self.prior(0.05), self.prior(0.2), self.prior(0.8)]
        stacked = map_estimate_stacked(priors, blocks)
        for prior, block, result in zip(priors, blocks, stacked):
            reference = map_estimate_batch(prior, block)
            np.testing.assert_allclose(result.parameters,
                                       reference.parameters, rtol=1e-10)

    def test_chunked_stack_matches_unchunked(self):
        from repro.core.batch_map import map_estimate_stacked

        blocks = self.make_blocks()
        prior = self.prior()
        unchunked = map_estimate_stacked(prior, blocks)
        chunked = map_estimate_stacked(prior, blocks, max_bytes=1024)
        for a, b in zip(unchunked, chunked):
            np.testing.assert_allclose(a.parameters, b.parameters, rtol=1e-12)

    def test_two_dimensional_conditions_accepted(self):
        truth = np.array([0.45, 1.2, -0.2, 0.12])
        sin, cload, vdd, ieff, response = make_batch(truth, n_seeds=4, k=3,
                                                     seed=9)
        rows = response.shape
        observations = BatchMapObservations(
            sin=np.broadcast_to(sin, rows).copy(),
            cload=np.broadcast_to(cload, rows).copy(),
            vdd=np.broadcast_to(vdd, rows).copy(),
            ieff=ieff, response=response)
        reference = map_estimate_batch(self.prior(), BatchMapObservations(
            sin=sin, cload=cload, vdd=vdd, ieff=ieff, response=response))
        result = map_estimate_batch(self.prior(), observations)
        np.testing.assert_allclose(result.parameters, reference.parameters,
                                   rtol=1e-12)

    def test_input_validation(self):
        from repro.core.batch_map import map_estimate_stacked

        blocks = self.make_blocks(n_blocks=2)
        with pytest.raises(ValueError):
            map_estimate_stacked(self.prior(), [])
        with pytest.raises(ValueError):
            map_estimate_stacked([self.prior()], blocks)
        short = self.make_blocks(n_blocks=1, k=2)
        with pytest.raises(ValueError):
            map_estimate_stacked(self.prior(), [blocks[0], short[0]])
        with pytest.raises(ValueError):
            BatchMapObservations(sin=np.full((3, 2), 1e-12),
                                 cload=[1e-15, 2e-15], vdd=[0.8, 0.9],
                                 ieff=[1e-4, 2e-4],
                                 response=np.full((2, 2), 1e-12))

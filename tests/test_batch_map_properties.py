"""Property tests of the stacked Levenberg-Marquardt solver (batch_map).

Rows of a stacked solve never interact: every block of any subset, order
and memory-budget chunking of a stack must get, bit for bit, the result of
that block solved alone -- under one shared prior, under per-block priors
and prior-free.  Within a block, any subset of its rows solved again
reproduces exactly those rows of the whole solve, which is what the
repair of non-finite seed rows relies on.  One level down, the
closed-form 4x4 Cholesky that solves each row's damped normal system must
match a dense ``np.linalg.solve``, reject (never NaN) systems it cannot
factor, and keep rank-deficient prior-free fits finite.

Hypothesis runs derandomized with no example database, so Tier-1 stays
deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bayes import GaussianDensity
from repro.core.batch_map import (
    BatchMapObservations,
    _UPPER,
    _cholesky_solve,
    _slice_observations,
    fit_least_squares_stacked,
    map_estimate_batch,
    map_estimate_stacked,
)
from repro.core.timing_model import (
    CompactTimingModel,
    DEFAULT_LOWER_BOUNDS,
    DEFAULT_UPPER_BOUNDS,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=12,
                    suppress_health_check=[HealthCheck.too_slow])

K = 4
TRUTH = np.array([0.45, 1.2, -0.2, 0.12])
#: Seeds per block: single-row blocks sit next to larger ones.
BLOCK_SEEDS = (1, 3, 2, 5, 1, 4)
RESULT_FIELDS = ("parameters", "converged", "n_iterations", "cost",
                 "residuals")
#: Seeds per block in the row-subset re-solves.
SUBSET_SEEDS = 9


def _block(index: int, n_seeds: int) -> BatchMapObservations:
    """Synthetic observations; blocks differ in layout as well as values.

    Even blocks carry per-row condition grids, odd ones a shared grid;
    ``beta`` cycles through absent, shared and per-row.
    """
    rng = np.random.default_rng(100 + index)
    shape = (n_seeds, K) if index % 2 == 0 else (K,)
    sin = rng.uniform(1e-12, 15e-12, shape)
    cload = rng.uniform(0.3e-15, 6e-15, shape)
    vdd = rng.uniform(0.65, 1.0, shape)
    ieff = 4e-4 * (vdd - 0.3) * rng.uniform(0.9, 1.1, (n_seeds, K))
    thetas = np.clip(TRUTH + rng.normal(0.0, (0.03, 0.2, 0.03, 0.03),
                                        (n_seeds, 4)),
                     DEFAULT_LOWER_BOUNDS, DEFAULT_UPPER_BOUNDS)
    response = CompactTimingModel.evaluate_array(
        thetas[:, np.newaxis, :], sin, cload, vdd, ieff)
    response = response * (1.0 + 0.01 * rng.standard_normal(response.shape))
    beta = (None, rng.uniform(1.0, 5.0, K),
            rng.uniform(1.0, 5.0, (n_seeds, K)))[index % 3]
    return BatchMapObservations(sin=sin, cload=cload, vdd=vdd, ieff=ieff,
                                response=response, beta=beta)


def _prior(index: int) -> GaussianDensity:
    """A distinct prior per block, with correlated parameters."""
    rng = np.random.default_rng(200 + index)
    factor = rng.normal(0.0, 0.2, (4, 4))
    covariance = factor @ factor.T + (0.02 + 0.05 * index) * np.eye(4)
    return GaussianDensity(TRUTH + rng.normal(0.0, 0.02, 4), covariance)


@pytest.fixture(scope="module")
def solo():
    """Every block with its prior, and each mode's result of it alone."""
    blocks = [_block(index, n) for index, n in enumerate(BLOCK_SEEDS)]
    priors = [_prior(index) for index in range(len(blocks))]
    shared = _prior(len(blocks))
    alone = {
        "shared": [map_estimate_batch(shared, block) for block in blocks],
        "per_block": [map_estimate_batch(prior, block)
                      for prior, block in zip(priors, blocks)],
        "free": [fit_least_squares_stacked([block])[0] for block in blocks],
    }
    return blocks, priors, shared, alone


@pytest.mark.parametrize("mode", ["shared", "per_block", "free"])
@PROPERTY
@given(subset=st.lists(st.integers(0, len(BLOCK_SEEDS) - 1), min_size=1,
                       max_size=len(BLOCK_SEEDS), unique=True),
       max_bytes=st.one_of(st.none(), st.integers(1, 20_000)))
def test_every_block_matches_its_solo_solve(solo, mode, subset, max_bytes):
    blocks, priors, shared, alone = solo
    chosen = [blocks[index] for index in subset]
    if mode == "free":
        results = fit_least_squares_stacked(chosen, max_bytes=max_bytes)
    else:
        prior = (shared if mode == "shared"
                 else [priors[index] for index in subset])
        results = map_estimate_stacked(prior, chosen, max_bytes=max_bytes)
    assert len(results) == len(subset)
    for index, result in zip(subset, results):
        reference = alone[mode][index]
        for field in RESULT_FIELDS:
            assert np.array_equal(getattr(result, field),
                                  getattr(reference, field)), (index, field)


@pytest.fixture(scope="module")
def whole():
    """One block of each layout with its own prior, solved whole."""
    blocks = [_block(index, SUBSET_SEEDS) for index in range(6)]
    priors = [_prior(index) for index in range(len(blocks))]
    return blocks, priors, [map_estimate_batch(prior, block)
                            for prior, block in zip(priors, blocks)]


@PROPERTY
@given(index=st.integers(0, 5),
       rows=st.lists(st.integers(0, SUBSET_SEEDS - 1), min_size=1,
                     max_size=SUBSET_SEEDS, unique=True),
       max_bytes=st.one_of(st.none(), st.integers(1, 20_000)))
def test_row_subset_resolve_matches_whole_solve(whole, index, rows,
                                                max_bytes):
    blocks, priors, results = whole
    rows = np.array(rows)
    result = map_estimate_batch(priors[index],
                                _slice_observations(blocks[index], rows),
                                max_bytes=max_bytes)
    for field in RESULT_FIELDS:
        assert np.array_equal(getattr(result, field),
                              getattr(results[index], field)[rows]), field


def test_solo_solves_converge(solo):
    """The references the property compares against are real solutions."""
    _blocks, _priors, _shared, alone = solo
    for results in alone.values():
        for result in results:
            assert result.converged.all()
            assert np.all(np.isfinite(result.parameters))


# ---------------------------------------------------------------------------
# The closed-form 4x4 Cholesky against a dense solve
# ---------------------------------------------------------------------------
def _spd_systems(seed: int, n_systems: int, log_condition: float):
    """Random SPD matrices with eigenvalues spread over ``log_condition``."""
    rng = np.random.default_rng(seed)
    matrices = np.empty((n_systems, 4, 4))
    for index in range(n_systems):
        basis, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        eigenvalues = 10.0 ** rng.uniform(0.0, log_condition, 4)
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        matrices[index] = scale * (basis * eigenvalues) @ basis.T
    matrices = 0.5 * (matrices + matrices.transpose(0, 2, 1))
    return matrices, rng.standard_normal((n_systems, 4))


def _packed(matrices: np.ndarray) -> np.ndarray:
    """``(m, 4, 4)`` matrices as the solver's ``(10, m)`` upper triangles."""
    return np.ascontiguousarray(matrices[:, _UPPER[0], _UPPER[1]].T)


def _assert_matches_dense(matrices, rhs, frozen=None):
    solution, factored = _cholesky_solve(_packed(matrices),
                                         np.ascontiguousarray(rhs.T))
    assert factored.all()
    reference = np.linalg.solve(matrices, rhs[..., np.newaxis])[..., 0]
    error = np.linalg.norm(solution.T - reference, axis=1)
    assert np.all(error <= 1e-10 * np.linalg.norm(reference, axis=1))
    if frozen is not None:
        assert np.all(solution.T[frozen] == 0.0)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n_systems=st.integers(1, 40),
       log_condition=st.floats(0.0, 4.0))
def test_cholesky_matches_dense_solve_on_spd_systems(seed, n_systems,
                                                     log_condition):
    matrices, rhs = _spd_systems(seed, n_systems, log_condition)
    _assert_matches_dense(matrices, rhs)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n_systems=st.integers(1, 40),
       log_condition=st.floats(0.0, 4.0))
def test_cholesky_matches_dense_solve_on_frozen_systems(seed, n_systems,
                                                        log_condition):
    """Frozen coordinates: unit diagonal, zero row/column and gradient."""
    matrices, rhs = _spd_systems(seed, n_systems, log_condition)
    frozen = np.random.default_rng(seed + 1).random((n_systems, 4)) < 0.4
    pairs = frozen[:, :, np.newaxis] | frozen[:, np.newaxis, :]
    matrices = np.where(pairs, 0.0, matrices)
    rows, coords = np.nonzero(frozen)
    matrices[rows, coords, coords] = 1.0
    rhs = np.where(frozen, 0.0, rhs)
    _assert_matches_dense(matrices, rhs, frozen)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1),
       defect=st.sampled_from(["indefinite", "singular", "nan", "inf"]))
def test_unfactorable_rows_are_rejected_without_nan(seed, defect):
    """A bad pivot flags its own row only, with a zero (never NaN) step."""
    matrices, rhs = _spd_systems(seed, 6, 2.0)
    broken = np.random.default_rng(seed).integers(0, 6)
    coord = int(np.random.default_rng(seed + 1).integers(0, 4))
    if defect == "indefinite":
        basis, _ = np.linalg.qr(np.random.default_rng(seed).normal(
            size=(4, 4)))
        matrices[broken] = (basis * [2.0, 1.0, -0.5, 3.0]) @ basis.T
    elif defect == "singular":
        matrices[broken, coord, :] = 0.0
        matrices[broken, :, coord] = 0.0
    else:
        matrices[broken, coord, coord] = np.nan if defect == "nan" else np.inf
    solution, factored = _cholesky_solve(_packed(matrices),
                                         np.ascontiguousarray(rhs.T))
    assert not factored[broken]
    assert np.all(solution[:, broken] == 0.0)
    assert np.all(np.isfinite(solution))
    healthy = np.arange(6) != broken
    assert factored[healthy].all()
    reference = np.linalg.solve(matrices[healthy],
                                rhs[healthy][..., np.newaxis])[..., 0]
    np.testing.assert_allclose(solution.T[healthy], reference, rtol=1e-10,
                               atol=0.0)


# ---------------------------------------------------------------------------
# Rank-deficient prior-free fits
# ---------------------------------------------------------------------------
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n_distinct=st.integers(1, 2),
       n_seeds=st.integers(1, 6), zero_slew=st.booleans())
def test_rank_deficient_prior_free_fit_stays_finite(seed, n_distinct,
                                                    n_seeds, zero_slew):
    """Repeated conditions leave the Jacobian rank-deficient (rank <= 2);
    a zero input slew also zeroes the ``alpha`` column.  Only the damping
    regularizes the normal equations, and the fit must stay finite."""
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, n_distinct, K)
    sin = (np.zeros(n_distinct) if zero_slew
           else rng.uniform(1e-12, 15e-12, n_distinct))[pick]
    cload = rng.uniform(0.3e-15, 6e-15, n_distinct)[pick]
    vdd = rng.uniform(0.65, 1.0, n_distinct)[pick]
    ieff = 4e-4 * (vdd - 0.3)
    response = np.array([
        CompactTimingModel.evaluate_array(TRUTH, sin, cload, vdd, ieff)
        * rng.uniform(0.8, 1.2) for _ in range(n_seeds)])
    observations = BatchMapObservations(sin=sin, cload=cload, vdd=vdd,
                                        ieff=ieff, response=response)
    (result,) = fit_least_squares_stacked([observations])
    assert np.all(np.isfinite(result.parameters))
    assert np.all(result.parameters >= DEFAULT_LOWER_BOUNDS)
    assert np.all(result.parameters <= DEFAULT_UPPER_BOUNDS)
    assert np.all(np.isfinite(result.cost))
    assert np.all(np.isfinite(result.residuals))

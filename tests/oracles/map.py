"""Scalar MAP extraction (Eq. 15): one scipy trust-region solve per problem.

The reference for :func:`repro.core.batch_map.map_estimate_batch`, which
solves every row of a seed block in one vectorized Levenberg-Marquardt pass.
:func:`map_estimate` solves one observation set with
:func:`scipy.optimize.least_squares`, stacking the whitened prior residuals
under the precision-weighted relative data residuals;
:func:`map_estimate_per_seed` runs it once per seed row -- the same Eq. 15
objective, one bounded ``least_squares`` call per seed.  The two solvers
must agree to solver tolerance (``rtol 1e-4``, ``atol 1e-6`` at scipy's
default tolerances).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.bayes.gaussian import GaussianDensity
from repro.core.batch_map import BatchMapObservations
from repro.core.prior_learning import TimingPrior
from repro.core.timing_model import (
    CompactTimingModel,
    FitResult,
    N_PARAMETERS,
    TimingModelParameters,
)


@dataclass(frozen=True)
class MapObservations:
    """One set of ``k`` target-technology observations.

    ``sin``, ``cload`` and ``vdd`` are the operating points (SI units),
    ``ieff`` the driving device's effective current at each, ``response``
    the observed delay or slew in seconds, and ``beta`` the model precision
    per observation (``None`` means unit precision).
    """

    sin: np.ndarray
    cload: np.ndarray
    vdd: np.ndarray
    ieff: np.ndarray
    response: np.ndarray
    beta: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        arrays = {
            "sin": np.asarray(self.sin, dtype=float).reshape(-1),
            "cload": np.asarray(self.cload, dtype=float).reshape(-1),
            "vdd": np.asarray(self.vdd, dtype=float).reshape(-1),
            "ieff": np.asarray(self.ieff, dtype=float).reshape(-1),
            "response": np.asarray(self.response, dtype=float).reshape(-1),
        }
        length = arrays["response"].size
        if length == 0:
            raise ValueError("at least one observation is required")
        for name, array in arrays.items():
            if array.size != length:
                raise ValueError(f"{name} has {array.size} entries, expected {length}")
            object.__setattr__(self, name, array)
        if np.any(arrays["response"] <= 0.0):
            raise ValueError("responses must be strictly positive")
        if self.beta is not None:
            beta = np.asarray(self.beta, dtype=float).reshape(-1)
            if beta.size != length:
                raise ValueError("beta must have one entry per observation")
            if np.any(beta <= 0.0):
                raise ValueError("beta values must be strictly positive")
            object.__setattr__(self, "beta", beta)

    @property
    def k(self) -> int:
        """Number of fitting observations."""
        return int(self.response.size)


def map_estimate(
    prior: "TimingPrior | GaussianDensity",
    observations: MapObservations,
    model: Optional[CompactTimingModel] = None,
    prior_weight: float = 1.0,
    ftol: float = 1e-8,
    xtol: float = 1e-8,
    gtol: float = 1e-8,
) -> FitResult:
    """MAP extraction of one observation set by bounded trust-region LSQ.

    ``prior_weight`` scales the prior term (1.0 = Eq. 15) and must be
    positive.  ``ftol``, ``xtol`` and ``gtol`` go to
    :func:`scipy.optimize.least_squares` (scipy's defaults); parity tests
    tighten them so this reference converges at least as far as the batched
    solver it is compared against.
    """
    from scipy.optimize import least_squares

    if prior_weight <= 0.0:
        raise ValueError("prior_weight must be positive")
    density = prior.density if isinstance(prior, TimingPrior) else prior
    if density.dim != N_PARAMETERS:
        raise ValueError(f"prior has dimension {density.dim}, expected {N_PARAMETERS}")
    model = model or CompactTimingModel()

    mu0 = density.mean
    # Whitening matrix L with L.T @ L = precision: the prior term becomes
    # ||L @ (theta - mu0)||^2 / 2 and stacks into the least squares.  The
    # batched solver builds the identical whitener.
    whitener = density.scaled_covariance(1.0 / prior_weight).whitening_matrix(
        jitter=1e-12)

    beta = (observations.beta if observations.beta is not None
            else np.ones(observations.k))
    sqrt_beta = np.sqrt(beta)

    lower, upper = model.bounds

    def residuals(theta: np.ndarray) -> np.ndarray:
        prediction = CompactTimingModel.evaluate_array(
            theta, observations.sin, observations.cload, observations.vdd,
            observations.ieff)
        data_residual = sqrt_beta * (prediction - observations.response) / observations.response
        prior_residual = whitener @ (theta - mu0)
        return np.concatenate([data_residual, prior_residual])

    start = np.clip(mu0, lower + 1e-9, upper - 1e-9)
    solution = least_squares(residuals, start, bounds=(lower, upper), method="trf",
                             ftol=ftol, xtol=xtol, gtol=gtol)

    prediction = CompactTimingModel.evaluate_array(
        solution.x, observations.sin, observations.cload, observations.vdd,
        observations.ieff)
    relative = (prediction - observations.response) / observations.response
    return FitResult(
        params=TimingModelParameters.from_array(solution.x),
        mean_abs_relative_error=float(np.mean(np.abs(relative))),
        max_abs_relative_error=float(np.max(np.abs(relative))),
        residuals=relative,
        n_observations=observations.k,
        converged=bool(solution.success),
    )


def map_estimate_per_seed(prior, observations: BatchMapObservations,
                          **options) -> np.ndarray:
    """Parameters ``(n_seeds, 4)``, one :func:`map_estimate` per seed row.

    ``options`` go to :func:`map_estimate` (e.g. tighter ``ftol``).
    Condition, current and precision arrays may be shared ``(k,)`` rows or
    per-seed ``(n_seeds, k)`` matrices, as in the batched solver.
    """
    def row(values, seed):
        return values if values is None or values.ndim == 1 else values[seed]

    parameters = np.empty((observations.n_seeds, 4))
    for seed in range(observations.n_seeds):
        parameters[seed] = map_estimate(prior, MapObservations(
            sin=row(observations.sin, seed),
            cload=row(observations.cload, seed),
            vdd=row(observations.vdd, seed),
            ieff=row(observations.ieff, seed),
            response=observations.response[seed],
            beta=row(observations.beta, seed)), **options).params.as_array()
    return parameters

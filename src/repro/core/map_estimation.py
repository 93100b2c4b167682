"""Maximum-a-posteriori (MAP) parameter extraction (Eq. 15 of the paper).

Given the learned prior ``N(mu_t0, Sigma_t0)`` over timing-model parameters,
the per-condition model precision ``beta(xi)`` and a *very small* set of
target-technology observations, the MAP estimate minimizes

.. math::

    \\tfrac{1}{2} (\\theta - \\mu_{t0})^T \\Sigma_{t0}^{-1} (\\theta - \\mu_{t0})
    + \\tfrac{1}{2} \\sum_i \\beta(\\xi^{(i)})
        \\Big(\\tfrac{T^{(i)} - f(\\xi^{(i)}, \\theta)}{T^{(i)}}\\Big)^2

which is the paper's Eq. 15 with the residuals expressed in relative form --
consistent with the precision definition of Eq. 9, which is computed from
*relative* model errors (an absolute-residual formulation would require
precisions of order ``1e22`` for picosecond-scale delays).

The objective is a sum of a convex quadratic prior term and a (mildly)
nonlinear least-squares likelihood; it is solved with a bounded
Gauss-Newton/trust-region method by stacking the whitened prior residuals and
the precision-weighted data residuals into one least-squares problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.bayes.gaussian import GaussianDensity
from repro.core.prior_learning import TimingPrior
from repro.core.timing_model import (
    CompactTimingModel,
    FitResult,
    N_PARAMETERS,
    TimingModelParameters,
)


@dataclass(frozen=True)
class MapObservations:
    """Target-technology observations feeding the MAP estimate.

    All arrays share the length ``k`` (the number of fitting input
    conditions, typically 1-10).

    Attributes
    ----------
    sin, cload, vdd:
        Operating points in SI units.
    ieff:
        Effective current of the arc's driving device at each operating
        point (per Eq. 4), in amperes.
    response:
        Observed delay or output slew, in seconds.
    beta:
        Model precision at each operating point (from the learned
        :class:`~repro.bayes.precision.PrecisionModel`); ``None`` means a
        unit precision for every observation.
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
    """MAP extraction of the compact-model parameters.

    Parameters
    ----------
    prior:
        Either a full :class:`~repro.core.prior_learning.TimingPrior` or the
        bare Gaussian parameter prior.
    observations:
        Target-technology observations (see :class:`MapObservations`).
    model:
        Optional :class:`CompactTimingModel` supplying parameter bounds.
    prior_weight:
        Scale factor on the prior term (1.0 = Eq. 15; 0 would degenerate to
        plain least squares and is disallowed -- use
        :func:`repro.core.timing_model.fit_least_squares` for that).
    ftol, xtol, gtol:
        Termination tolerances forwarded to
        :func:`scipy.optimize.least_squares` (scipy's defaults).  The parity
        suite tightens them so this reference path converges at least as far
        as the batched solver it is compared against.

    Returns
    -------
    FitResult
        Extracted parameters plus training-residual statistics.
    """
    from scipy.optimize import least_squares  # deferred: SciPy loads on first use

    if prior_weight <= 0.0:
        raise ValueError("prior_weight must be positive; use fit_least_squares for "
                         "a prior-free extraction")
    density = prior.density if isinstance(prior, TimingPrior) else prior
    if density.dim != N_PARAMETERS:
        raise ValueError(f"prior has dimension {density.dim}, expected {N_PARAMETERS}")
    model = model or CompactTimingModel()

    mu0 = density.mean
    # Whitening matrix L such that L.T @ L = precision; then the prior term
    # becomes ||L @ (theta - mu0)||^2 / 2 and stacks into least squares.
    # The batched estimator (repro.core.batch_map) builds the identical
    # whitener, so the two solvers minimize the same objective.
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

"""Distribution estimation for delay / slew ensembles.

The statistical flow produces *samples* of delay and slew per operating
point.  The paper's Fig. 9 compares the resulting probability density against
the Monte Carlo baseline and against the Gaussian implied by a statistical
look-up table; the helpers here compute those densities (histogram and
Gaussian kernel density estimates), their summary moments, and a simple
measure of how non-Gaussian an ensemble is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class DistributionSummary:
    """Summary statistics of a sampled distribution.

    Attributes
    ----------
    mean, std:
        First two moments.
    skewness:
        Fisher skewness (0 for a Gaussian).
    excess_kurtosis:
        Excess kurtosis (0 for a Gaussian).
    quantiles:
        The (1 %, 50 %, 99 %) quantiles, the values timing sign-off cares
        about most.
    n_samples:
        Ensemble size.
    """

    mean: float
    std: float
    skewness: float
    excess_kurtosis: float
    quantiles: Tuple[float, float, float]
    n_samples: int


def _validate_samples(samples) -> np.ndarray:
    samples = np.asarray(samples, dtype=float).reshape(-1)
    if samples.size < 2:
        raise ValueError("at least two samples are required")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples contain non-finite values")
    return samples


def summarize(samples) -> DistributionSummary:
    """Compute a :class:`DistributionSummary` for an ensemble."""
    from scipy import stats  # deferred: SciPy loads on first use

    samples = _validate_samples(samples)
    quantiles = np.quantile(samples, [0.01, 0.50, 0.99])
    return DistributionSummary(
        mean=float(np.mean(samples)),
        std=float(np.std(samples)),
        skewness=float(stats.skew(samples)),
        excess_kurtosis=float(stats.kurtosis(samples)),
        quantiles=(float(quantiles[0]), float(quantiles[1]), float(quantiles[2])),
        n_samples=int(samples.size),
    )


def summarize_many(samples: np.ndarray) -> list:
    """One :class:`DistributionSummary` per row of a sample matrix.

    Vectorized over rows: moments, (biased) skewness/kurtosis and the three
    sign-off quantiles of all ensembles are computed in single array passes,
    so summarizing every endpoint of a large netlist costs one NumPy sweep
    instead of per-endpoint scipy calls.  Agrees with mapping
    :func:`summarize` over the rows (enforced by the test suite).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] < 2:
        raise ValueError("samples must be (n_rows, n_samples>=2)")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples contain non-finite values")
    n = samples.shape[1]
    mean = samples.mean(axis=1)
    centered = samples - mean[:, np.newaxis]
    m2 = np.mean(centered ** 2, axis=1)
    m3 = np.mean(centered ** 3, axis=1)
    m4 = np.mean(centered ** 4, axis=1)
    std = np.sqrt(m2)
    safe_m2 = np.where(m2 > 0.0, m2, 1.0)
    # Degenerate (zero-variance) rows get nan, matching scipy's skew/kurtosis.
    skewness = np.where(m2 > 0.0, m3 / safe_m2 ** 1.5, np.nan)
    kurtosis = np.where(m2 > 0.0, m4 / safe_m2 ** 2 - 3.0, np.nan)
    quantiles = np.quantile(samples, [0.01, 0.50, 0.99], axis=1)
    return [DistributionSummary(
        mean=float(mean[row]), std=float(std[row]),
        skewness=float(skewness[row]),
        excess_kurtosis=float(kurtosis[row]),
        quantiles=(float(quantiles[0, row]), float(quantiles[1, row]),
                   float(quantiles[2, row])),
        n_samples=n,
    ) for row in range(samples.shape[0])]


def empirical_pdf(samples, n_bins: int = 40, value_range: Tuple[float, float] | None = None
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram density estimate.

    Returns ``(bin_centers, density)`` with the density normalized so its
    integral over the bins is one.
    """
    samples = _validate_samples(samples)
    if n_bins < 2:
        raise ValueError("n_bins must be at least 2")
    density, edges = np.histogram(samples, bins=n_bins, range=value_range, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, density


def kde_pdf(samples, evaluation_points=None, n_points: int = 200
            ) -> Tuple[np.ndarray, np.ndarray]:
    """Gaussian kernel density estimate.

    Parameters
    ----------
    samples:
        The ensemble.
    evaluation_points:
        Points at which to evaluate the density; defaults to a uniform grid
        spanning the sample range widened by 10 %.
    n_points:
        Number of grid points when ``evaluation_points`` is not given.
    """
    from scipy import stats  # deferred: SciPy loads on first use

    samples = _validate_samples(samples)
    if np.std(samples) == 0.0:
        raise ValueError("kernel density estimation requires non-degenerate samples")
    kde = stats.gaussian_kde(samples)
    if evaluation_points is None:
        low, high = samples.min(), samples.max()
        margin = 0.1 * (high - low)
        evaluation_points = np.linspace(low - margin, high + margin, n_points)
    evaluation_points = np.asarray(evaluation_points, dtype=float)
    return evaluation_points, kde(evaluation_points)


def gaussian_pdf(mean: float, std: float, evaluation_points
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Density of a Gaussian with the given moments (the statistical-LUT view)."""
    from scipy import stats  # deferred: SciPy loads on first use

    if std <= 0.0:
        raise ValueError("std must be positive")
    evaluation_points = np.asarray(evaluation_points, dtype=float)
    density = stats.norm.pdf(evaluation_points, loc=mean, scale=std)
    return evaluation_points, density


def normality_deviation(samples, n_points: int = 200) -> float:
    """Integrated absolute difference between the empirical and Gaussian PDFs.

    The value is the total-variation-style distance
    ``0.5 * integral |kde(x) - normal(x)| dx`` in ``[0, 1]``; 0 means the
    ensemble is indistinguishable from a Gaussian with the same moments.
    Used to quantify how non-Gaussian the low-Vdd delay distribution of
    Fig. 9 is, and how much of that the proposed flow captures.
    """
    samples = _validate_samples(samples)
    grid, kde_density = kde_pdf(samples, n_points=n_points)
    _, normal_density = gaussian_pdf(float(np.mean(samples)), float(np.std(samples)),
                                     grid)
    spacing = grid[1] - grid[0]
    return float(0.5 * np.sum(np.abs(kde_density - normal_density)) * spacing)

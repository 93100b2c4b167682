"""Bayesian machinery: Gaussian algebra, precision learning, belief propagation.

The paper's "belief propagation across multiple technology nodes" is the
fusion of compact-model parameter extractions from historical libraries into
a conjugate Gaussian prior for the target technology, plus an
input-condition-dependent model precision (Eq. 9).  This package provides the
reusable pieces:

* :mod:`repro.bayes.gaussian` -- multivariate Gaussian densities with both
  moment and information (canonical) parameterizations;
* :mod:`repro.bayes.conjugate` -- conjugate / linear-Gaussian updates;
* :mod:`repro.bayes.precision` -- the model-precision (``beta``) estimator of
  Eq. 9 with input-space interpolation;
* :mod:`repro.bayes.factor_graph` -- Gaussian factor graphs with
  sum-product message passing (exact on trees, loopy with damping
  otherwise), used to propagate parameter beliefs between technology nodes.
  :class:`~repro.bayes.factor_graph.BatchedFactorGraph` sweeps a stack of
  same-topology graphs at once; one graph is a stack of one.
"""

from repro.bayes.gaussian import GaussianBatch, GaussianDensity
from repro.bayes.conjugate import gaussian_linear_update, posterior_of_mean
from repro.bayes.precision import PrecisionModel
from repro.bayes.factor_graph import (
    BatchedFactorGraph,
    BeliefPropagationInfo,
)

__all__ = [
    "BatchedFactorGraph",
    "BeliefPropagationInfo",
    "GaussianBatch",
    "GaussianDensity",
    "PrecisionModel",
    "gaussian_linear_update",
    "posterior_of_mean",
]

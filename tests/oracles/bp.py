"""Scalar belief propagation: one GaussianFactorGraph per stacked graph.

The reference for :class:`repro.bayes.BatchedFactorGraph`, which advances B
same-topology graphs through the scalar engine's message schedule with one
batched solve per update.  :func:`run_per_graph` rebuilds every stacked
graph as a scalar :class:`~repro.bayes.GaussianFactorGraph` and runs it on
its own -- same schedule, same numbers, B times the Python overhead.

:func:`learn_priors_scalar` and :func:`learn_class_priors_scalar` are the
matching references for the fleet-level prior learners: one scalar
:func:`~repro.core.prior_learning.learn_prior` star per (response, class).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

import numpy as np

from repro.bayes.factor_graph import (
    GaussianFactorGraph,
    _Evidence,
    _Smoothness,
)
from repro.bayes.gaussian import GaussianBatch, GaussianDensity
from repro.core.prior_learning import RESPONSES, learn_prior


def run_per_graph(graph, max_iterations: int = 100, tolerance: float = 1e-10,
                  damping=0.0) -> Dict[str, GaussianBatch]:
    """Beliefs of every stacked graph of ``graph``, one scalar run each."""
    damping = np.asarray(damping, dtype=float)
    if damping.ndim == 0:
        damping = np.full(graph.batch_size, float(damping))
    per_graph: List[Dict[str, GaussianDensity]] = []
    for index in range(graph.batch_size):
        scalar = GaussianFactorGraph()
        for name, dim in graph._dims.items():
            scalar.add_variable(name, dim)
        for variable, precision, shift in graph._evidence:
            scalar._evidence.append(
                _Evidence(variable, precision[index], shift[index]))
        for factor in graph._factors:
            scalar._register_smoothness(_Smoothness(
                factor.name, factor.variable_a, factor.variable_b,
                factor.noise_precision[index]))
        per_graph.append(scalar.run_belief_propagation(
            max_iterations=max_iterations, tolerance=tolerance,
            damping=float(damping[index])))
    return {
        name: GaussianBatch.from_densities(
            [beliefs[name] for beliefs in per_graph])
        for name in graph._dims
    }


def learn_priors_scalar(historical, method: str = "bp",
                        shrinkage: float = 0.1):
    """The delay and slew priors, one scalar star graph per response."""
    return {response: learn_prior(historical, response=response,
                                  method=method, shrinkage=shrinkage)
            for response in RESPONSES}


def learn_class_priors_scalar(historical, shrinkage: float = 0.1,
                              prior_widening: float = 1.0,
                              class_of=lambda fit: fit.cell_name):
    """One scalar :func:`learn_prior` per (response, arc class).

    Each class's star is the node-level star restricted to that class's arc
    fits, so :func:`learn_prior` on the filtered libraries builds exactly
    the graph :func:`~repro.core.prior_learning.learn_class_priors` stacks.
    """
    classes = sorted(set.intersection(*(
        {class_of(fit) for fit in data.arc_fits} for data in historical)))
    priors = {}
    for name in classes:
        members = [dataclasses.replace(data, arc_fits=tuple(
                       fit for fit in data.arc_fits if class_of(fit) == name))
                   for data in historical]
        for response in RESPONSES:
            priors[(response, name)] = learn_prior(
                members, response=response, shrinkage=shrinkage,
                prior_widening=prior_widening)
    return priors

"""Scalar belief propagation: one Python message loop per graph.

The reference for :class:`repro.bayes.BatchedFactorGraph`, which advances B
same-topology graphs through this loop's message schedule with one batched
solve per update.  :func:`scalar_belief_propagation` runs one graph: a
sequential (Gauss-Seidel) sweep over the pairwise factors in registration
order, both directions each, with one small ``np.linalg.solve`` per message
in information form.  :func:`run_per_graph` runs every stacked graph of a
batched graph through it on its own -- same schedule, same numbers, B times
the Python overhead -- and :func:`scalar_star` builds one technology star.

:func:`learn_priors_scalar` and :func:`learn_class_priors_scalar` are the
matching references for the prior learners: one :func:`scalar_star` per
(response, class), fused exactly as :mod:`repro.core.prior_learning` fuses
its stacked stars.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bayes.factor_graph import _JITTER, _noise_precision_from_covariance
from repro.bayes.gaussian import GaussianBatch, GaussianDensity
from repro.core.prior_learning import RESPONSES, _finish_prior, _star_inputs

#: ``(name, variable_a, variable_b, noise_precision)`` of one pairwise factor.
Factor = Tuple[str, str, str, np.ndarray]


def scalar_belief_propagation(
    dims: Dict[str, int],
    evidence: Sequence[Tuple[str, np.ndarray, np.ndarray]],
    factors: Sequence[Factor],
    max_iterations: int = 100,
    tolerance: float = 1e-10,
    damping: float = 0.0,
) -> Dict[str, GaussianDensity]:
    """Beliefs of one graph: ``dims`` maps each variable to its dimension,
    ``evidence`` holds ``(variable, precision, shift)`` unary factors and
    ``factors`` the pairwise ones, in registration order."""
    if not (0.0 <= damping < 1.0):
        raise ValueError("damping must be in [0, 1)")
    adjacency: Dict[str, List[Factor]] = {name: [] for name in dims}
    for factor in factors:
        _name, variable_a, variable_b, _noise = factor
        adjacency[variable_a].append(factor)
        if variable_b != variable_a:
            adjacency[variable_b].append(factor)

    # Unary information per variable (fixed during propagation).
    unary = {name: [np.zeros((dim, dim)), np.zeros(dim)]
             for name, dim in dims.items()}
    for variable, precision, shift in evidence:
        unary[variable][0] = unary[variable][0] + precision
        unary[variable][1] = unary[variable][1] + shift

    # Messages from each pairwise factor to each of its two endpoints.
    messages = {}
    for name, variable_a, variable_b, _noise in factors:
        for target in (variable_a, variable_b):
            messages[(name, target)] = (np.zeros((dims[target], dims[target])),
                                        np.zeros(dims[target]))

    def incoming(variable, exclude):
        """Product of the unary factor and all messages into ``variable``."""
        precision, shift = unary[variable][0].copy(), unary[variable][1].copy()
        for name, _a, _b, _noise in adjacency[variable]:
            if name == exclude:
                continue
            message_precision, message_shift = messages[(name, variable)]
            precision = precision + message_precision
            shift = shift + message_shift
        return precision, shift

    converged = not factors
    for _ in range(max_iterations):
        max_change = 0.0
        for name, variable_a, variable_b, noise in factors:
            for source, target in ((variable_a, variable_b),
                                   (variable_b, variable_a)):
                in_precision, in_shift = incoming(source, name)
                joint_precision = in_precision + noise
                jitter = _JITTER * np.eye(joint_precision.shape[0])
                solve = np.linalg.solve(joint_precision + jitter, np.column_stack(
                    [noise, in_shift[:, np.newaxis]]))
                new_precision = noise - noise @ solve[:, :-1]
                new_shift = noise @ solve[:, -1]
                old_precision, old_shift = messages[(name, target)]
                if damping > 0.0:
                    new_precision = ((1.0 - damping) * new_precision
                                     + damping * old_precision)
                    new_shift = (1.0 - damping) * new_shift + damping * old_shift
                max_change = max(
                    max_change,
                    float(np.max(np.abs(new_precision - old_precision),
                                 initial=0.0)),
                    float(np.max(np.abs(new_shift - old_shift), initial=0.0)),
                )
                messages[(name, target)] = (new_precision, new_shift)
        if max_change < tolerance:
            converged = True
            break
    if not converged:
        raise RuntimeError(
            "belief propagation did not converge; increase max_iterations "
            "or damping")

    beliefs: Dict[str, GaussianDensity] = {}
    for name, dim in dims.items():
        precision, shift = incoming(name, None)
        if np.all(np.abs(precision) < 1e-300):
            raise RuntimeError(
                f"variable {name!r} received no information; attach evidence "
                "or links")
        beliefs[name] = GaussianDensity.from_information(
            precision + _JITTER * np.eye(dim), shift)
    return beliefs


def scalar_star(center: str, leaves: Dict[str, GaussianDensity],
                link_covariance: np.ndarray) -> Dict[str, GaussianDensity]:
    """Beliefs of one star graph: every leaf observes ``center`` through
    the shared ``(d, d)`` link covariance."""
    dim = next(iter(leaves.values())).dim
    dims = {center: dim}
    evidence = []
    factors = []
    precision = _noise_precision_from_covariance(
        np.asarray(link_covariance, dtype=float), dim)
    for leaf, density in leaves.items():
        dims[leaf] = dim
        evidence.append((leaf, *density.to_information()))
        factors.append((f"{center}~{leaf}", center, leaf, precision))
    return scalar_belief_propagation(dims, evidence, factors)


def run_per_graph(graph, max_iterations: int = 100, tolerance: float = 1e-10,
                  damping=0.0) -> Dict[str, GaussianBatch]:
    """Beliefs of every stacked graph of ``graph``, one scalar run each."""
    damping = np.asarray(damping, dtype=float)
    if damping.ndim == 0:
        damping = np.full(graph.batch_size, float(damping))
    per_graph: List[Dict[str, GaussianDensity]] = []
    for index in range(graph.batch_size):
        per_graph.append(scalar_belief_propagation(
            graph._dims,
            [(variable, precision[index], shift[index])
             for variable, precision, shift in graph._evidence],
            [(factor.name, factor.variable_a, factor.variable_b,
              factor.noise_precision[index]) for factor in graph._factors],
            max_iterations=max_iterations, tolerance=tolerance,
            damping=float(damping[index])))
    return {
        name: GaussianBatch.from_densities(
            [beliefs[name] for beliefs in per_graph])
        for name in graph._dims
    }


def scalar_prior(historical, response: str, matrices, method: str = "bp",
                 shrinkage: float = 0.1, prior_widening: float = 1.0):
    """One prior from per-library ``(n_arcs, 4)`` parameter matrices, its
    technology star run through :func:`scalar_star`."""
    if method == "empirical" or len(historical) == 1:
        density = GaussianDensity.from_samples(np.vstack(matrices),
                                               shrinkage=shrinkage, jitter=1e-8)
        return _finish_prior(historical, response, density, "empirical",
                             prior_widening)
    leaves, drift = _star_inputs(
        [(data.technology_name, matrix)
         for data, matrix in zip(historical, matrices)], shrinkage)
    center = scalar_star("global", leaves, drift)["global"]
    return _finish_prior(historical, response,
                         GaussianDensity(center.mean, center.covariance + drift),
                         "bp", prior_widening)


def learn_priors_scalar(historical, method: str = "bp",
                        shrinkage: float = 0.1):
    """The delay and slew priors, one scalar star graph per response."""
    return {response: scalar_prior(
                historical, response,
                [data.parameter_matrix(response) for data in historical],
                method=method, shrinkage=shrinkage)
            for response in RESPONSES}


def learn_class_priors_scalar(historical, shrinkage: float = 0.1,
                              prior_widening: float = 1.0,
                              class_of=lambda fit: fit.cell_name):
    """One scalar star prior per (response, arc class).

    Each class's star is the node-level star restricted to that class's arc
    fits, so the filtered libraries give exactly the graph
    :func:`~repro.core.prior_learning.learn_class_priors` stacks.
    """
    classes = sorted(set.intersection(*(
        {class_of(fit) for fit in data.arc_fits} for data in historical)))
    priors = {}
    for name in classes:
        members = [dataclasses.replace(data, arc_fits=tuple(
                       fit for fit in data.arc_fits if class_of(fit) == name))
                   for data in historical]
        for response in RESPONSES:
            priors[(response, name)] = scalar_prior(
                historical, response,
                [data.parameter_matrix(response) for data in members],
                shrinkage=shrinkage, prior_widening=prior_widening)
    return priors

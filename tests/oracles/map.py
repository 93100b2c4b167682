"""Per-seed MAP extraction: one scipy trust-region solve per seed row.

The reference for :func:`repro.core.batch_map.map_estimate_batch`, which
solves every row of a seed block in one vectorized Levenberg-Marquardt pass.
Here each row becomes a scalar
:class:`~repro.core.map_estimation.MapObservations` and goes through
:func:`repro.core.map_estimation.map_estimate` on its own -- the same Eq. 15
objective, one bounded ``least_squares`` call per seed.  The two must agree
to solver tolerance (``rtol 1e-4``, ``atol 1e-6`` at scipy's default
tolerances).
"""

from __future__ import annotations

import numpy as np

from repro.core.batch_map import BatchMapObservations
from repro.core.map_estimation import MapObservations, map_estimate


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

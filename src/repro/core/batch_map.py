"""Batched seed-parallel MAP extraction (Eq. 15, vectorized over seeds).

The statistical flow extracts one compact-model parameter vector *per Monte
Carlo seed* (and per response), so a 200-seed arc costs 400 independent
four-parameter bounded least-squares problems.  Solving them one at a time
through :func:`scipy.optimize.least_squares` pays the full Python/trust-region
overhead 400 times over -- after the batched transient engine
(:mod:`repro.spice.batch`) removed the simulation bottleneck, that extraction
loop dominated the wall clock of
:meth:`repro.core.statistical_flow.StatisticalCharacterizer.characterize`.

This module applies the same treatment the transient engine received:

* **Analytic Jacobians.**  :meth:`CompactTimingModel.evaluate_and_jacobian`
  returns exact derivatives for a whole ``(n_seeds, 4)`` parameter matrix in
  one broadcast, so no finite differencing (scipy's 2-point scheme costs four
  extra model evaluations per seed per iteration).
* **Stacked whitened prior residuals.**  The Gaussian prior term of Eq. 15
  enters as four extra residual rows ``L @ (theta - mu0)`` per seed, with the
  shared whitener ``L`` from
  :meth:`repro.bayes.gaussian.GaussianDensity.whitening_matrix` -- the same
  formulation the scalar estimator uses, so the two paths optimize literally
  the same objective.
* **Per-seed Levenberg-Marquardt damping.**  Every seed carries its own
  damping factor, updated from its own step acceptance.
* **Closed-form 4x4 Cholesky.**  An iteration forms only the ten unique
  entries of every seed's damped normal matrix and factors them with
  elementwise operations on ``(n_seeds,)`` vectors; a non-positive or
  non-finite pivot rejects that seed's step (its damping grows) instead of
  producing NaN.  Every per-seed quantity keeps the seed axis last and sums
  in a fixed order, so no reduction or BLAS kernel depends on how many seeds
  share an iteration.
* **Projected bounds.**  Candidate steps are clipped to the model's parameter
  box; first-order optimality is checked on the *projected* gradient so seeds
  resting on a bound still retire.
* **Active-set retirement.**  Converged seeds leave the working set
  (mirroring the batched transient engine's condition retirement), so a few
  slow seeds do not keep the whole ensemble iterating.

The result is ~10-40 vectorized LM iterations for a full seed batch instead
of hundreds of scipy solves; the parity suite pins the extracted parameters
to the per-seed scipy oracle (``tests/oracles/map.py``) at tight tolerance,
and ``benchmarks/test_perf_map.py`` tracks the speedup in ``BENCH_map.json``.

Beyond the single-arc batch, :func:`map_estimate_stacked` stacks *many* arcs'
seed batches into one solve: every ``(arc, seed)`` pair becomes a row of one
``(sum of n_seeds, 4)`` problem, block-diagonal by arc -- each row carries its
own arc's fitting conditions, precision weights and (optionally) its own
prior.  Rows never interact (the per-row damping, retirement and 4x4 normal
solves are exactly the single-arc ones), so the stacked solve reproduces the
per-arc solves bit-for-bit, in any block order and memory-budget chunking,
while paying the interpreted per-iteration overhead once for the whole
library instead of once per arc.  This is the extraction half of the fused
library pipeline (:func:`repro.core.library_flow.characterize_library`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.bayes.gaussian import GaussianDensity
from repro.core.prior_learning import TimingPrior
from repro.core.timing_model import (
    CompactTimingModel,
    DEFAULT_INITIAL_GUESS,
    FitResult,
    N_PARAMETERS,
    TimingModelParameters,
)
from repro.runtime import faultinject, resolve_max_bytes
from repro.runtime.chunking import plan_chunks

SITE_RESULT = faultinject.register_fault_site(
    "batch_map.result",
    "solved parameter matrix of one batched MAP/LSQ call (NaN row faults)")

#: Default iteration cap; well above what quadratic LM convergence needs.
DEFAULT_MAX_ITERATIONS = 60

#: Damping growth / shrink factors (classic Marquardt schedule).
_LAMBDA_UP = 4.0
_LAMBDA_DOWN = 0.25
_LAMBDA_INIT = 1e-3
_LAMBDA_MIN = 1e-14
_LAMBDA_MAX = 1e12


@dataclass(frozen=True)
class BatchMapObservations:
    """Seed-batched target-technology observations feeding the MAP extraction.

    The ``k`` fitting conditions are shared by every seed; the measured
    responses (and, for seed-vectorized equivalent inverters, the effective
    currents) differ per seed.

    Attributes
    ----------
    sin, cload, vdd:
        Operating points, shape ``(k,)`` (shared by every seed, the
        single-arc case) or ``(n_seeds, k)`` (one condition set per row --
        the stacked multi-arc solve, where each row belongs to an arc with
        its own fitting conditions), SI units.
    ieff:
        Effective current of the driving device, shape ``(n_seeds, k)`` or
        ``(k,)`` (shared across seeds), in amperes.
    response:
        Observed delay or output slew per seed, shape ``(n_seeds, k)``, in
        seconds.
    beta:
        Model precision per condition, shape ``(k,)`` (shared across seeds,
        like the learned precision model that produces it) or
        ``(n_seeds, k)`` (per-row, stacked solves); ``None`` means unit
        precision.
    """

    sin: np.ndarray
    cload: np.ndarray
    vdd: np.ndarray
    ieff: np.ndarray
    response: np.ndarray
    beta: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        response = np.atleast_2d(np.asarray(self.response, dtype=float))
        if response.ndim != 2:
            raise ValueError(
                f"response must have shape (n_seeds, k), got {response.shape}")
        k = response.shape[1]
        if k == 0:
            raise ValueError("at least one observation is required")
        bad_rows, bad_cols = np.nonzero(~np.isfinite(response))
        if bad_rows.size:
            raise ValueError(
                f"response contains a non-finite value at seed "
                f"{int(bad_rows[0])}, observation {int(bad_cols[0])} "
                f"({bad_rows.size} non-finite in total)")
        if np.any(response <= 0.0):
            raise ValueError("responses must be strictly positive")

        def conditions(name: str, value) -> np.ndarray:
            array = np.asarray(value, dtype=float)
            if array.ndim <= 1:
                array = array.reshape(-1)
                if array.size != k:
                    raise ValueError(
                        f"{name} has {array.size} entries, expected {k}")
            elif array.shape != response.shape:
                raise ValueError(
                    f"{name} must have shape ({k},) or {response.shape}, "
                    f"got {array.shape}")
            return array

        sin = conditions("sin", self.sin)
        cload = conditions("cload", self.cload)
        vdd = conditions("vdd", self.vdd)
        ieff = conditions("ieff", self.ieff)
        if np.any(ieff <= 0.0):
            raise ValueError("effective currents must be strictly positive")
        object.__setattr__(self, "sin", sin)
        object.__setattr__(self, "cload", cload)
        object.__setattr__(self, "vdd", vdd)
        object.__setattr__(self, "ieff", ieff)
        object.__setattr__(self, "response", response)
        if self.beta is not None:
            beta = conditions("beta", self.beta)
            if np.any(beta <= 0.0):
                raise ValueError("beta values must be strictly positive")
            object.__setattr__(self, "beta", beta)

    @property
    def k(self) -> int:
        """Number of fitting observations per seed."""
        return int(self.response.shape[1])

    @property
    def n_seeds(self) -> int:
        """Number of Monte Carlo seeds."""
        return int(self.response.shape[0])


@dataclass(frozen=True)
class BatchMapResult:
    """Outcome of a seed-batched MAP extraction.

    Attributes
    ----------
    parameters:
        Extracted parameter matrix, shape ``(n_seeds, 4)``, natural units.
    converged:
        Per-seed first-order convergence flags.  A ``False`` entry means the
        seed exhausted ``max_iterations`` without meeting the gradient/step
        tolerances; its row of ``parameters`` is the best iterate found.
    n_iterations:
        LM iterations each seed was active for.
    cost:
        Final objective value (sum of squared stacked residuals) per seed.
    residuals:
        Relative data residuals ``(model - observed) / observed`` at the
        solution, shape ``(n_seeds, k)``.
    n_observations:
        Number of fitting conditions ``k``.
    """

    parameters: np.ndarray
    converged: np.ndarray
    n_iterations: np.ndarray
    cost: np.ndarray
    residuals: np.ndarray
    n_observations: int

    @property
    def n_seeds(self) -> int:
        """Number of seeds in the batch."""
        return int(self.parameters.shape[0])

    @property
    def n_converged(self) -> int:
        """Number of seeds meeting the convergence tolerances."""
        return int(np.count_nonzero(self.converged))

    def unconverged_seeds(self) -> np.ndarray:
        """Indices of seeds that failed to converge (empty when all did)."""
        return np.nonzero(~self.converged)[0]

    def mean_abs_relative_error(self) -> np.ndarray:
        """Per-seed mean absolute relative training error."""
        return np.mean(np.abs(self.residuals), axis=1)

    def fit_result(self, seed: int) -> FitResult:
        """One seed's extraction as a scalar-API :class:`FitResult`."""
        residuals = self.residuals[seed]
        return FitResult(
            params=TimingModelParameters.from_array(self.parameters[seed]),
            mean_abs_relative_error=float(np.mean(np.abs(residuals))),
            max_abs_relative_error=float(np.max(np.abs(residuals))),
            residuals=residuals.copy(),
            n_observations=self.n_observations,
            converged=bool(self.converged[seed]),
        )


def map_estimate_batch(
    prior: "TimingPrior | GaussianDensity",
    observations: BatchMapObservations,
    model: Optional[CompactTimingModel] = None,
    prior_weight: float = 1.0,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    gtol: float = 1e-10,
    xtol: float = 1e-12,
    max_bytes: Optional[int] = None,
) -> BatchMapResult:
    """Seed-batched MAP extraction of the compact-model parameters.

    Minimizes the Eq. 15 objective independently for every seed, all seeds
    advancing together through vectorized Levenberg-Marquardt iterations
    (see the module docstring for the design).  The scalar counterpart is
    :func:`repro.core.map_estimation.map_estimate`; the two agree to solver
    tolerance because they share the residual formulation, the prior
    whitener, the parameter bounds and the starting point.

    Parameters
    ----------
    prior:
        Full :class:`~repro.core.prior_learning.TimingPrior` or the bare
        Gaussian parameter prior, shared by all seeds.
    observations:
        The seed batch (see :class:`BatchMapObservations`).
    model:
        Optional :class:`CompactTimingModel` supplying parameter bounds.
    prior_weight:
        Scale factor on the prior term (must be positive; 1.0 = Eq. 15).
    max_iterations:
        LM iteration cap per seed.
    gtol:
        Infinity-norm tolerance on the projected gradient.
    xtol:
        Relative step-size tolerance.
    max_bytes:
        Memory budget for the solver's working set; the seed axis is split
        into deterministic chunks that are solved sequentially (seeds are
        independent problems, so results are identical to the unchunked
        solve).  ``None`` defers to ``repro.runtime.configure(max_bytes=...)``.

    Returns
    -------
    BatchMapResult
        Parameters plus per-seed convergence reporting.
    """
    if prior_weight <= 0.0:
        raise ValueError("prior_weight must be positive; use fit_least_squares "
                         "for a prior-free extraction")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    density = prior.density if isinstance(prior, TimingPrior) else prior
    if density.dim != N_PARAMETERS:
        raise ValueError(f"prior has dimension {density.dim}, expected {N_PARAMETERS}")
    term = _PriorTerm.from_density(density, prior_weight)
    return _chunked_solve(term, observations, model or CompactTimingModel(),
                          max_iterations, gtol, xtol, max_bytes)


def map_estimate_stacked(
    priors: Union["TimingPrior | GaussianDensity",
                  Sequence["TimingPrior | GaussianDensity"]],
    observations: Sequence[BatchMapObservations],
    model: Optional[CompactTimingModel] = None,
    prior_weight: float = 1.0,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    gtol: float = 1e-10,
    xtol: float = 1e-12,
    max_bytes: Optional[int] = None,
) -> List[BatchMapResult]:
    """One block-diagonal MAP solve for many arcs' seed batches at once.

    Every block (one arc's :class:`BatchMapObservations`) contributes its
    ``n_seeds`` rows to a single stacked problem; rows carry their own
    block's fitting conditions, precision weights and prior, so the blocks
    remain fully independent -- the stacked solve returns exactly the
    per-block :func:`map_estimate_batch` results, computed in one run of
    vectorized LM iterations instead of one run per arc.  This is the
    library-wide extraction of the fused characterization pipeline.

    Parameters
    ----------
    priors:
        One prior shared by every block, or a sequence with one prior per
        block.  When every block resolves to the same Gaussian density the
        solver keeps one shared whitener; heterogeneous priors switch the
        prior term to per-row matrices, which run the same arithmetic.
        Either way each block's result is bit-for-bit its solo solve.
    observations:
        One :class:`BatchMapObservations` per block.  All blocks must share
        the observation count ``k`` (they stack on a common condition axis);
        their condition values may differ freely.
    model, prior_weight, max_iterations, gtol, xtol, max_bytes:
        As in :func:`map_estimate_batch`; ``max_bytes`` chunks the stacked
        row axis (chunks may span block boundaries -- rows are independent).

    Returns
    -------
    list of BatchMapResult
        One result per block, in input order.
    """
    blocks = list(observations)
    if not blocks:
        raise ValueError("at least one observation block is required")
    if isinstance(priors, (TimingPrior, GaussianDensity)):
        priors = [priors] * len(blocks)
    else:
        priors = list(priors)
        if len(priors) != len(blocks):
            raise ValueError(
                f"got {len(priors)} priors for {len(blocks)} observation blocks")
    if prior_weight <= 0.0:
        raise ValueError("prior_weight must be positive")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    k = blocks[0].k
    for index, block in enumerate(blocks):
        if block.k != k:
            raise ValueError(
                f"observation block {index} has k={block.k}, expected {k} "
                "(stacked solves need a uniform condition count)")
    densities = []
    for prior in priors:
        density = prior.density if isinstance(prior, TimingPrior) else prior
        if density.dim != N_PARAMETERS:
            raise ValueError(
                f"prior has dimension {density.dim}, expected {N_PARAMETERS}")
        densities.append(density)

    stacked, block_sizes = _stack_blocks(blocks)
    term = _PriorTerm.from_densities(densities, block_sizes, prior_weight)
    result = _chunked_solve(term, stacked, model or CompactTimingModel(),
                            max_iterations, gtol, xtol, max_bytes)
    return _split_stacked(result, block_sizes, k)


def fit_least_squares_stacked(
    observations: Sequence[BatchMapObservations],
    model: Optional[CompactTimingModel] = None,
    initial_guess: Optional[np.ndarray] = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    gtol: float = 1e-10,
    xtol: float = 1e-12,
    max_bytes: Optional[int] = None,
) -> List[BatchMapResult]:
    """Prior-free stacked least squares: the batched twin of
    :func:`repro.core.timing_model.fit_least_squares`.

    Every block's rows join one block-diagonal Levenberg-Marquardt solve of
    the plain relative-residual objective (no prior term, no precision
    weights unless a block carries ``beta``), starting from the same clipped
    initial guess as the scipy path.  This is the extraction half of fused
    historical-library characterization
    (:func:`repro.core.prior_learning.characterize_historical_library`):
    one solve fits every (arc, response) of a historical node instead of one
    scipy trust-region loop per fit.  The two solvers optimize the same
    objective from the same start, so the fitted parameters agree to solver
    tolerance (~1e-6 relative; both well inside the fit's own residual
    scale).

    Parameters
    ----------
    observations:
        One :class:`BatchMapObservations` per (arc, response) block; all
        blocks must share the observation count ``k``.
    model:
        Optional :class:`CompactTimingModel` supplying parameter bounds.
    initial_guess:
        Starting parameter vector shared by every row; defaults to
        :data:`repro.core.timing_model.DEFAULT_INITIAL_GUESS`.
    max_iterations, gtol, xtol, max_bytes:
        As in :func:`map_estimate_batch`.

    Returns
    -------
    list of BatchMapResult
        One result per block, in input order.
    """
    blocks = list(observations)
    if not blocks:
        raise ValueError("at least one observation block is required")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    k = blocks[0].k
    for index, block in enumerate(blocks):
        if block.k != k:
            raise ValueError(
                f"observation block {index} has k={block.k}, expected {k} "
                "(stacked solves need a uniform condition count)")
    if initial_guess is None:
        start = DEFAULT_INITIAL_GUESS.copy()
    else:
        start = np.asarray(initial_guess, dtype=float).reshape(-1).copy()
        if start.size != N_PARAMETERS:
            raise ValueError(f"initial_guess must have {N_PARAMETERS} entries")

    stacked, block_sizes = _stack_blocks(blocks)
    term = _PriorTerm.free(start)
    result = _chunked_solve(term, stacked, model or CompactTimingModel(),
                            max_iterations, gtol, xtol, max_bytes)
    return _split_stacked(result, block_sizes, k)


def _stack_blocks(blocks: Sequence[BatchMapObservations]
                  ) -> "tuple[BatchMapObservations, List[int]]":
    """Concatenate blocks on the row axis (shared condition grids stay 1-D)."""
    k = blocks[0].k

    def stack(field: str) -> np.ndarray:
        values = [getattr(block, field) for block in blocks]
        # Shared-grid fast path: when every block carries the same 1-D
        # condition vector (the NLDM convention -- one fitting grid for the
        # whole library), keep it 1-D instead of materializing a dense
        # (total_rows, k) copy.
        first = values[0]
        if all(value.ndim == 1 and (value is first
                                    or np.array_equal(value, first))
               for value in values):
            return first
        return np.concatenate(
            [np.broadcast_to(value, block.response.shape)
             if value.ndim == 1 else value
             for value, block in zip(values, blocks)], axis=0)

    betas = [block.beta for block in blocks]
    if all(beta is None for beta in betas):
        beta_rows = None
    else:
        first_beta = betas[0]
        if (first_beta is not None
                and all(beta is not None and beta.ndim == 1
                        and (beta is first_beta
                             or np.array_equal(beta, first_beta))
                        for beta in betas)):
            beta_rows = first_beta
        else:
            parts = []
            for block in blocks:
                beta = block.beta if block.beta is not None else np.ones(k)
                if beta.ndim == 1:
                    beta = np.broadcast_to(beta, block.response.shape)
                parts.append(beta)
            beta_rows = np.concatenate(parts, axis=0)

    stacked = BatchMapObservations(
        sin=stack("sin"), cload=stack("cload"), vdd=stack("vdd"),
        ieff=stack("ieff"), response=stack("response"), beta=beta_rows)
    return stacked, [block.n_seeds for block in blocks]


def _split_stacked(result: "BatchMapResult", block_sizes: Sequence[int],
                   k: int) -> List[BatchMapResult]:
    """Slice one stacked solve back into per-block results."""
    results: List[BatchMapResult] = []
    start = 0
    for size in block_sizes:
        rows = slice(start, start + size)
        results.append(BatchMapResult(
            parameters=result.parameters[rows],
            converged=result.converged[rows],
            n_iterations=result.n_iterations[rows],
            cost=result.cost[rows],
            residuals=result.residuals[rows],
            n_observations=k,
        ))
        start += size
    return results


#: Packed upper triangle of a symmetric 4x4 matrix, row by row: entry
#: ``(i, j >= i)`` of every normal matrix is ``packed[_ROW_START[i] + j - i]``
#: (:func:`numpy.triu_indices` order), so each row's entries are contiguous.
_UPPER = np.triu_indices(N_PARAMETERS)
_ROW_START = (0, 4, 7, 9, 10)
_DIAGONAL = np.array(_ROW_START[:-1])


class _PriorTerm:
    """The Gaussian prior contribution, shared across rows or per-row.

    Stored in the solver's row-last layout: the mean is ``(4, n)`` and the
    whitener ``W`` and its normal matrix ``W^T W`` are ``(4, 4, n)``, with
    ``n = 1`` when every row shares one prior.  That row axis broadcasts,
    so shared and per-row priors run the same elementwise arithmetic and a
    block stacked under per-block priors gets exactly its solo result.
    ``W^T W`` is formed once per density (row subsets gather it rather than
    recomputing it).  The prior-free term has no whitener: its residual,
    gradient and normal contributions vanish and only the LM damping
    regularizes the normal equations.
    """

    def __init__(self, mu0: np.ndarray, whitener: Optional[np.ndarray],
                 normal: Optional[np.ndarray] = None):
        self.mu0 = mu0
        self.whitener = whitener
        self.shared = mu0.shape[1] == 1
        if normal is None and whitener is not None:
            # Row l of W contributes its outer product; rows summed in order.
            normal = whitener[0][:, np.newaxis] * whitener[0][np.newaxis, :]
            for row in whitener[1:]:
                normal = normal + row[:, np.newaxis] * row[np.newaxis, :]
        self.normal = normal
        self.packed = None if normal is None else normal[_UPPER]

    @classmethod
    def from_density(cls, density: GaussianDensity,
                     prior_weight: float) -> "_PriorTerm":
        whitener = density.scaled_covariance(
            1.0 / prior_weight).whitening_matrix(jitter=1e-12)
        return cls(np.asarray(density.mean, dtype=float)[:, np.newaxis],
                   whitener[:, :, np.newaxis])

    @classmethod
    def free(cls, start: np.ndarray) -> "_PriorTerm":
        """A zero-information prior: plain least squares from ``start``.

        This is exactly the objective of
        :func:`repro.core.timing_model.fit_least_squares`; ``start`` only
        seeds the iteration (via :meth:`start`).
        """
        return cls(np.asarray(start, dtype=float)[:, np.newaxis], None)

    @classmethod
    def from_densities(cls, densities: Sequence[GaussianDensity],
                       block_sizes: Sequence[int],
                       prior_weight: float) -> "_PriorTerm":
        """Per-block priors expanded to rows (shared fast path when equal)."""
        first = densities[0]
        if all(density is first
               or (np.array_equal(density.mean, first.mean)
                   and np.array_equal(density.covariance, first.covariance))
               for density in densities):
            return cls.from_density(first, prior_weight)
        terms = [cls.from_density(density, prior_weight)
                 for density in densities]

        def rows(field: str) -> np.ndarray:
            return np.concatenate(
                [np.broadcast_to(getattr(term, field),
                                 getattr(term, field).shape[:-1] + (size,))
                 for term, size in zip(terms, block_sizes)], axis=-1)

        return cls(rows("mu0"), rows("whitener"), normal=rows("normal"))

    def take(self, rows: np.ndarray) -> "_PriorTerm":
        """The term restricted to a row subset (no-op when shared)."""
        if self.shared:
            return self
        return _PriorTerm(_take_rows(self.mu0, rows),
                          _take_rows(self.whitener, rows),
                          normal=_take_rows(self.normal, rows))

    def add_cost(self, cost: np.ndarray, theta: np.ndarray) -> None:
        """Add the squared whitened residual ``|W (theta - mu0)|^2`` in place."""
        if self.whitener is None:
            return
        residual = _ordered_sum(self.whitener * (theta - self.mu0)[np.newaxis])
        cost += _ordered_sum(residual * residual)

    def add_gradient_and_normal(self, gradient: np.ndarray,
                                normal: np.ndarray, theta: np.ndarray) -> None:
        """Add ``W^T W (theta - mu0)`` and the packed ``W^T W`` in place."""
        if self.whitener is None:
            return
        gradient += _ordered_sum(self.normal * (theta - self.mu0)[np.newaxis])
        normal += self.packed

    def start(self, lower: np.ndarray, upper: np.ndarray,
              n_rows: int) -> np.ndarray:
        """Per-row ``(4, n)`` start: the prior mean, nudged inside the bounds."""
        start = np.clip(self.mu0, lower + 1e-9, upper - 1e-9)
        return np.broadcast_to(start, (N_PARAMETERS, n_rows)).copy()


def _take_rows(value: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row subset of a row-last array (a shared length-1 row axis stays)."""
    if value.shape[-1] == 1:
        return value
    return np.take(value, rows, axis=-1)


def _ordered_sum(values: np.ndarray) -> np.ndarray:
    """``values`` summed over their second-to-last axis, in index order.

    Explicit elementwise adds rather than a NumPy reduction, whose
    summation order follows the array's shape: a row's sum must not depend
    on how many rows share the pass.
    """
    count = values.shape[-2]
    if count == 1:
        return values[..., 0, :].copy()
    total = values[..., 0, :] + values[..., 1, :]
    for index in range(2, count):
        total += values[..., index, :]
    return total


def _cholesky_solve(packed: np.ndarray, rhs: np.ndarray
                    ) -> "tuple[np.ndarray, np.ndarray]":
    """Solve every row's symmetric 4x4 system by closed-form Cholesky.

    ``packed`` holds each row's upper triangle (``_UPPER`` order, shape
    ``(10, m)``) and is overwritten with the factor; ``rhs`` is ``(4, m)``.
    Returns the ``(4, m)`` solutions and a per-row ``factored`` flag: a row
    with a non-positive or non-finite pivot gets a zero solution and
    ``False``.  Only elementwise operations, so each row's result is
    independent of the other rows in the pass.
    """
    # Right-looking A = L L^T: row i of the packed upper triangle becomes
    # column i of L below the diagonal (l_ji, j > i), after the trailing
    # rows are updated with its outer product; 1 / L_ii goes to ``inverse``.
    usable, inverse, columns = [], [], []
    for i in range(N_PARAMETERS):
        start, stop = _ROW_START[i], _ROW_START[i + 1]
        pivot = packed[start]
        usable.append((pivot > 0.0) & (pivot < np.inf))
        inverse.append(1.0 / np.sqrt(np.where(usable[i], pivot, 1.0)))
        column = packed[start + 1:stop]
        column *= inverse[i]
        columns.append(column)
        for offset, j in enumerate(range(i + 1, N_PARAMETERS)):
            packed[_ROW_START[j]:_ROW_START[j + 1]] -= (
                column[offset] * column[offset:])
    factored = usable[0] & usable[1] & usable[2] & usable[3]

    # Forward substitution L y = b, then back substitution L^T x = y.
    solution = rhs.copy()
    for i in range(N_PARAMETERS - 1):
        solution[i] *= inverse[i]
        solution[i + 1:] -= columns[i] * solution[i]
    solution[-1] *= inverse[-1]
    for i in reversed(range(N_PARAMETERS)):
        for l_ji, x_j in zip(columns[i], solution[i + 1:]):
            solution[i] -= l_ji * x_j
        solution[i] *= inverse[i]
    return np.where(factored, solution, 0.0), factored


def _chunked_solve(
    term: _PriorTerm,
    observations: BatchMapObservations,
    model: CompactTimingModel,
    max_iterations: int,
    gtol: float,
    xtol: float,
    max_bytes: Optional[int],
) -> BatchMapResult:
    """Split the row axis under the memory budget and solve sequentially."""
    # Per-seed working set of one pass: the (4, k) Jacobian, its weighted
    # copy and a (4, k) block of products, the prediction, residual and
    # cost rows of length k, and about a hundred scalars (parameters,
    # gradient, normal entries, factorization scratch) -- roughly
    # 8 * (16k + 100) bytes.  Rows that carry their own condition vectors
    # (stacked multi-arc solves) add the stored (k,) arrays plus the
    # compacted working copies; per-row priors add their (4,) mean and two
    # (4, 4) matrices.
    k = observations.k
    item_bytes = 8 * (16 * k + 100)
    for value in (observations.sin, observations.cload, observations.vdd,
                  observations.beta):
        if value is not None and value.ndim == 2:
            item_bytes += 8 * 2 * k
    if not term.shared:
        item_bytes += 8 * 2 * (N_PARAMETERS + 2 * N_PARAMETERS ** 2)
    chunks = plan_chunks(observations.n_seeds, item_bytes,
                         resolve_max_bytes(max_bytes))
    if len(chunks) > 1:
        index = np.arange(observations.n_seeds)
        parts = [
            _solve_seed_block(term.take(index[rows]),
                              _slice_observations(observations, rows),
                              model, max_iterations, gtol, xtol)
            for rows in chunks
        ]
        result = BatchMapResult(
            parameters=np.concatenate([p.parameters for p in parts], axis=0),
            converged=np.concatenate([p.converged for p in parts]),
            n_iterations=np.concatenate([p.n_iterations for p in parts]),
            cost=np.concatenate([p.cost for p in parts]),
            residuals=np.concatenate([p.residuals for p in parts], axis=0),
            n_observations=k,
        )
    else:
        result = _solve_seed_block(term, observations, model, max_iterations,
                                   gtol, xtol)
    # Identity (same object, no copy) without an active fault injector;
    # under injection, poisoned rows model a silently corrupted solve and
    # are caught downstream by repair_batch_result / the library flows.
    poisoned = faultinject.corrupt_rows(SITE_RESULT, result.parameters)
    if poisoned is not result.parameters:
        result = replace(result, parameters=poisoned)
    return result


def _slice_observations(observations: BatchMapObservations,
                        rows: slice) -> BatchMapObservations:
    """One contiguous seed block of a batch (shared conditions stay shared)."""

    def take(value: Optional[np.ndarray]) -> Optional[np.ndarray]:
        if value is None or value.ndim == 1:
            return value
        return value[rows]

    return BatchMapObservations(
        sin=take(observations.sin),
        cload=take(observations.cload),
        vdd=take(observations.vdd),
        ieff=take(observations.ieff),
        response=observations.response[rows],
        beta=take(observations.beta),
    )


def _solve_seed_block(
    term: _PriorTerm,
    observations: BatchMapObservations,
    model: CompactTimingModel,
    max_iterations: int,
    gtol: float,
    xtol: float,
) -> BatchMapResult:
    """The vectorized LM solve of one (possibly chunked) row block.

    Every per-row quantity keeps the row axis last -- conditions are
    ``(k, m)``, parameters and gradients ``(4, m)``, the normal matrix ten
    upper-triangle ``(m,)`` entries -- so each pass is a fixed set of
    elementwise array operations: no reduction or BLAS kernel whose
    arithmetic depends on how many rows share the pass.
    """
    lower, upper = (bound[:, np.newaxis] for bound in model.bounds)
    bound_atol = 1e-10 * (upper - lower)
    lower_edge, upper_edge = lower + bound_atol, upper - bound_atol

    response = observations.response
    n_seeds, k = response.shape
    beta = (observations.beta if observations.beta is not None else np.ones(k))

    def row_last(value: np.ndarray) -> np.ndarray:
        return (value[:, np.newaxis] if value.ndim == 1
                else np.ascontiguousarray(value.T))

    # Residual weights: sqrt(beta) / response gives the relative, precision-
    # weighted data residual of Eq. 15 when multiplied by (model - response).
    response_rows = row_last(response)
    columns = [row_last(value) for value in (
        observations.sin, observations.cload, observations.vdd,
        observations.ieff)]
    columns += [response_rows, row_last(np.sqrt(beta)) / response_rows]

    def cost_of(theta: np.ndarray, data: List[np.ndarray],
                row_term: _PriorTerm) -> np.ndarray:
        sin, cload, vdd, ieff, observed, weight = data
        prediction = CompactTimingModel.evaluate_array(
            theta.T, sin, cload, vdd, ieff)
        residual = (prediction - observed) * weight
        cost = _ordered_sum(residual * residual)
        row_term.add_cost(cost, theta)
        return cost

    # The working set holds the rows still iterating (``rows`` maps it back
    # to the block); a pass updates it elementwise, and rows that retire
    # are written out before the set is compacted.
    theta = term.start(lower, upper, n_seeds)
    cost = cost_of(theta, columns, term)
    converged = np.zeros(n_seeds, dtype=bool)
    iterations = np.full(n_seeds, max_iterations)
    rows = np.arange(n_seeds)
    theta_w, cost_w, data, row_term = theta, cost, columns, term
    damping = np.full(n_seeds, _LAMBDA_INIT)
    for iteration in range(1, max_iterations + 1):
        if rows.size == 0:
            break
        sin, cload, vdd, ieff, observed, weight = data
        prediction, jacobian = CompactTimingModel.evaluate_and_jacobian(
            theta_w.T, sin, cload, vdd, ieff)
        r_data = (prediction - observed) * weight
        j_data = jacobian * weight
        # Gradient and the packed upper triangle of the Gauss-Newton normal
        # matrix; the prior block contributes whitener^T whitener, which
        # keeps every normal matrix positive definite regardless of the data.
        gradient = _ordered_sum(j_data * r_data)
        normal = np.concatenate([_ordered_sum(j_data[i:] * j_data[i])
                                 for i in range(N_PARAMETERS)])
        row_term.add_gradient_and_normal(gradient, normal, theta_w)

        # Active-set classification: a coordinate resting on a bound whose
        # gradient pushes further outward is frozen for this iteration (it
        # cannot produce feasible descent); the projected gradient over the
        # remaining free coordinates is the first-order optimality measure.
        at_lower = theta_w <= lower_edge
        at_upper = theta_w >= upper_edge
        free = ~((at_lower & (gradient > 0.0)) | (at_upper & (gradient < 0.0)))
        projected = np.where(free, gradient, 0.0)
        done = np.abs(projected).max(axis=0) < gtol * np.maximum(cost_w, 1.0)

        # Marquardt step on the *reduced* system: frozen coordinates get a
        # unit diagonal and a zero row/column and gradient entry, so their
        # step component is exactly zero while the free block keeps its
        # damped Gauss-Newton curvature.  A row whose factorization fails
        # (a non-positive or non-finite pivot) takes no step and counts as
        # rejected, so its damping grows.
        diagonal = normal[_DIAGONAL]
        normal = np.where(free[_UPPER[0]] & free[_UPPER[1]], normal, 0.0)
        normal[_DIAGONAL] = np.where(
            free, diagonal + damping * np.maximum(diagonal, 1e-30), 1.0)
        step, factored = _cholesky_solve(normal, -projected)
        candidate = np.minimum(np.maximum(theta_w + step, lower), upper)
        moved = candidate - theta_w
        new_cost = cost_of(candidate, data, row_term)

        accept = (new_cost <= cost_w) & factored
        # Tiny accepted moves mean the iterate is numerically stationary
        # (possibly pressed against a bound).  A tiny move that is *rejected*
        # under already-saturated damping is stationary too: the heaviest
        # representable damping cannot produce a descent step, which happens
        # when large beta scales the cost so far above 1 that float rounding
        # swamps the remaining descent (the gradient test above, scaled by
        # the cost, covers the same regime from the other side).
        saturated = damping >= _LAMBDA_MAX
        step_small = factored & (
            np.abs(moved).max(axis=0)
            < xtol * (np.abs(theta_w).max(axis=0) + xtol))
        done |= step_small & (accept | saturated)

        theta_w = np.where(accept, candidate, theta_w)
        cost_w = np.where(accept, new_cost, cost_w)
        damping = np.where(accept, np.maximum(damping * _LAMBDA_DOWN, _LAMBDA_MIN),
                           np.minimum(damping * _LAMBDA_UP, _LAMBDA_MAX))

        # A saturated seed still proposing non-tiny steps that all fail is
        # genuinely stuck: retire it so it stops burning iterations, but
        # report it unconverged.
        retire = done | (saturated & ~step_small)
        if retire.any():
            leaving = np.flatnonzero(retire)
            block_rows = rows[leaving]
            theta[:, block_rows] = np.take(theta_w, leaving, axis=1)
            cost[block_rows] = cost_w[leaving]
            converged[block_rows] = done[leaving]
            iterations[block_rows] = iteration
            staying = np.flatnonzero(~retire)
            rows = rows[staying]
            theta_w = np.take(theta_w, staying, axis=1)
            cost_w = cost_w[staying]
            damping = damping[staying]
            data = [_take_rows(value, staying) for value in data]
            row_term = row_term.take(staying)
    theta[:, rows] = theta_w
    cost[rows] = cost_w

    parameters = np.ascontiguousarray(theta.T)
    prediction = CompactTimingModel.evaluate_array(
        parameters[:, np.newaxis, :], observations.sin, observations.cload,
        observations.vdd, observations.ieff)
    residuals = (prediction - response) / response
    return BatchMapResult(
        parameters=parameters,
        converged=converged,
        n_iterations=iterations,
        cost=cost,
        residuals=residuals,
        n_observations=k,
    )


def repair_batch_result(
    result: BatchMapResult,
    observations: BatchMapObservations,
    prior: "TimingPrior | GaussianDensity",
    model: Optional[CompactTimingModel] = None,
    prior_weight: float = 1.0,
    include_unconverged: bool = False,
    ledger=None,
) -> BatchMapResult:
    """Per-seed fallback chain ``batched -> scipy -> prior mean``.

    Seeds whose solved parameter row is non-finite (a diverged or corrupted
    batched solve) are re-solved one at a time through the scalar scipy
    path (:func:`repro.core.map_estimation.map_estimate`); a seed the scipy
    solver cannot rescue either falls back to the prior mean, clipped into
    the model's parameter box and flagged unconverged.  Healthy rows are
    returned untouched (same values, bit-identical), so a clean result
    passes through unchanged -- the chain only ever *adds* information to
    broken rows.

    Parameters
    ----------
    result, observations:
        One block's solve outcome and the observations that produced it.
    prior:
        The block's prior (supplies the scipy re-solve and the last-resort
        mean).
    model, prior_weight:
        As in :func:`map_estimate_batch`.
    include_unconverged:
        Also re-solve finite-but-unconverged seeds.  Off by default: clean
        runs legitimately carry a few unconverged seeds, and re-solving
        them would break the bit-identity of non-faulted results between
        strict and non-strict runs.
    ledger:
        Optional :class:`~repro.runtime.accounting.RunLedger`; repairs are
        counted under ``map_repaired_scipy`` / ``map_repaired_prior``
        (recorded only when nonzero).

    Returns
    -------
    BatchMapResult
        The result with broken rows repaired; the same object when nothing
        needed repair.
    """
    from repro.core.map_estimation import MapObservations, map_estimate

    bad = ~np.all(np.isfinite(result.parameters), axis=1)
    if include_unconverged:
        bad = bad | ~result.converged
    if not np.any(bad):
        return result

    model = model or CompactTimingModel()
    lower, upper = model.bounds
    density = prior.density if isinstance(prior, TimingPrior) else prior
    whitener = density.scaled_covariance(
        1.0 / prior_weight).whitening_matrix(jitter=1e-12)
    mu0 = np.asarray(density.mean, dtype=float)

    def row_of(value: Optional[np.ndarray], row: int) -> Optional[np.ndarray]:
        if value is None or value.ndim == 1:
            return value
        return value[row]

    parameters = result.parameters.copy()
    converged = result.converged.copy()
    residuals = result.residuals.copy()
    cost = result.cost.copy()
    via_scipy = 0
    via_prior = 0
    for row in np.nonzero(bad)[0]:
        response_row = observations.response[row]
        theta = None
        try:
            fit = map_estimate(
                prior,
                MapObservations(
                    sin=row_of(observations.sin, row),
                    cload=row_of(observations.cload, row),
                    vdd=row_of(observations.vdd, row),
                    ieff=row_of(observations.ieff, row),
                    response=response_row,
                    beta=row_of(observations.beta, row),
                ),
                model=model,
                prior_weight=prior_weight,
            )
            candidate = fit.params.as_array()
            if np.all(np.isfinite(candidate)):
                theta = candidate
                converged[row] = bool(fit.converged)
                via_scipy += 1
        except Exception:
            theta = None
        if theta is None:
            theta = np.clip(mu0, lower, upper)
            converged[row] = False
            via_prior += 1
        parameters[row] = theta
        prediction = CompactTimingModel.evaluate_array(
            theta[np.newaxis, np.newaxis, :],
            row_of(observations.sin, row), row_of(observations.cload, row),
            row_of(observations.vdd, row), row_of(observations.ieff, row))[0]
        residuals[row] = (prediction - response_row) / response_row
        beta_row = row_of(observations.beta, row)
        weight = (np.sqrt(beta_row) if beta_row is not None
                  else 1.0) / response_row
        data = (prediction - response_row) * weight
        prior_res = whitener @ (theta - mu0)
        cost[row] = float(data @ data + prior_res @ prior_res)

    if ledger is not None:
        if via_scipy:
            ledger.add_metric("map_repaired_scipy", via_scipy)
        if via_prior:
            ledger.add_metric("map_repaired_prior", via_prior)
    return replace(result, parameters=parameters, converged=converged,
                   residuals=residuals, cost=cost)

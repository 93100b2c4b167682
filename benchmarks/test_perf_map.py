"""Throughput microbenchmark: per-seed scipy oracle versus batched MAP.

After the batched transient engine removed the simulation bottleneck
(``BENCH_transient.json``), parameter extraction became the dominant cost of
a statistical characterization.  This benchmark isolates that stage on a
realistic workload -- ``REPRO_BENCH_MAP_SEEDS`` Monte Carlo seeds x
``REPRO_BENCH_MAP_CONDITIONS`` fitting conditions of one NAND2 arc, both
responses (delay and slew) -- and times

* the per-seed oracle (:func:`oracles.map.map_estimate_per_seed`): one
  bounded trust-region ``least_squares`` per seed per response
  (``2 x n_seeds`` solves);
* the batched path: one seed-vectorized Levenberg-Marquardt solve per
  response (``repro.core.batch_map.map_estimate_batch``).

The measured observations come from a real batched-engine simulation (not
timed -- this benchmark measures extraction, not integration), the two
extractions are checked for parity, and the result lands in
``BENCH_map.json`` next to ``BENCH_transient.json`` so both stages of the
statistical flow are tracked across PRs.
"""

from __future__ import annotations

import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from bench_utils import env_float, env_int, write_json_result  # noqa: E402
from oracles.map import map_estimate_per_seed  # noqa: E402

from repro import get_technology, make_cell, sweep_conditions
from repro.bayes import GaussianDensity
from repro.cells import reduce_cell_cached
from repro.characterization.input_space import InputSpace, conditions_to_arrays
from repro.core.batch_map import BatchMapObservations, map_estimate_batch
from repro.core.timing_model import fit_least_squares


def test_batched_map_extraction_throughput(results_dir):
    n_seeds = env_int("REPRO_BENCH_MAP_SEEDS", 200)
    k = env_int("REPRO_BENCH_MAP_CONDITIONS", 4)
    # Regression tripwire well below the dedicated-hardware numbers recorded
    # in BENCH_map.json (the scipy loop's per-seed overhead makes the real
    # ratio large, but shared CI runners are noisy).
    min_speedup = env_float("REPRO_BENCH_MAP_MIN_SPEEDUP", 3.0)

    technology = get_technology("n28_bulk")
    cell = make_cell("NAND2_X1")
    variation = technology.variation.sample(n_seeds, rng=42)

    space = InputSpace(technology)
    conditions = space.sample_lhs(k, np.random.default_rng(23))
    sin, cload, vdd = conditions_to_arrays(conditions)

    # Real measurements through the batched transient engine (not timed).
    measurements = sweep_conditions(cell, technology,
                                    [c.as_tuple() for c in conditions],
                                    variation=variation)
    delay = np.stack([np.asarray(m.delay).reshape(-1) for m in measurements])
    slew = np.stack([np.asarray(m.output_slew).reshape(-1)
                     for m in measurements])
    inverter = reduce_cell_cached(cell, technology, variation=variation)
    ieff = np.broadcast_to(
        np.atleast_2d(np.asarray(
            inverter.effective_current(vdd[:, np.newaxis]), dtype=float)),
        (k, n_seeds)).copy()

    # Priors anchored on a nominal least-squares fit, mirroring how learned
    # priors sit near the target technology's parameters.
    nominal_inverter = reduce_cell_cached(cell, technology)
    nominal_ieff = np.asarray(nominal_inverter.effective_current(vdd),
                              dtype=float).reshape(-1)
    priors = {}
    responses = {"delay": delay, "slew": slew}
    for name, matrix in responses.items():
        anchor = fit_least_squares(sin, cload, vdd, nominal_ieff,
                                   matrix[:, 0]).params.as_array()
        priors[name] = GaussianDensity(anchor,
                                       np.diag([0.05, 0.3, 0.05, 0.08]) ** 2)
    beta = np.full(k, 1e4)

    # Warm-up (first-call numpy overheads) outside the timed regions.
    map_estimate_batch(priors["delay"], BatchMapObservations(
        sin=sin, cload=cload, vdd=vdd, ieff=ieff.T[:2], response=delay.T[:2],
        beta=beta))

    observations = {name: BatchMapObservations(
                        sin=sin, cload=cload, vdd=vdd, ieff=ieff.T,
                        response=matrix.T, beta=beta)
                    for name, matrix in responses.items()}

    start = time.perf_counter()
    scipy_params = {name: map_estimate_per_seed(priors[name], observations[name])
                    for name in responses}
    scipy_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched_params = {}
    batched_converged = {}
    for name in responses:
        result = map_estimate_batch(priors[name], observations[name])
        batched_params[name] = result.parameters
        batched_converged[name] = int(result.n_converged)
    batched_seconds = time.perf_counter() - start

    # Parity: both solvers minimize the same objective; the batched solver
    # converges tighter than scipy's 1e-8 defaults, so compare loosely here
    # (the tight parity grid lives in tests/test_batch_map.py).
    for name in responses:
        np.testing.assert_allclose(batched_params[name], scipy_params[name],
                                   rtol=1e-4, atol=1e-6)

    speedup = scipy_seconds / batched_seconds
    total_solves = 2 * n_seeds
    payload = {
        "benchmark": "map_extraction",
        "n_seeds": n_seeds,
        "n_conditions": k,
        "n_responses": 2,
        "scipy_seconds": round(scipy_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "speedup": round(speedup, 2),
        "scipy_seeds_per_sec": round(total_solves / scipy_seconds, 1),
        "batched_seeds_per_sec": round(total_solves / batched_seconds, 1),
        "batched_converged": batched_converged,
        "parity_rtol": 1e-4,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    write_json_result(results_dir / "BENCH_map.json", payload)

    assert speedup >= min_speedup, (
        f"batched MAP extraction only {speedup:.2f}x faster than the scipy "
        f"loop (floor {min_speedup}x)"
    )

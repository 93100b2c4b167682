"""Acceptance benchmark of the ``repro.runtime`` substrate.

Proves the runtime consolidation's contract at production scale:

1. a ``REPRO_BENCH_RUNTIME_LIB_SEEDS``-seed library characterization and a
   ``REPRO_BENCH_RUNTIME_WIDTH x REPRO_BENCH_RUNTIME_DEPTH``-gate,
   ``REPRO_BENCH_RUNTIME_SSTA_SEEDS``-seed Monte Carlo SSTA both complete
   under an explicit ``max_bytes`` chunk budget
   (``REPRO_BENCH_RUNTIME_BUDGET_MB``, default 8 MiB -- far below the
   unchunked engines' working sets at the default sizes);
2. the budgeted results match the unchunked engines at ``rtol <= 1e-9``
   (chunk rows are computed independently, so they are bit-identical in
   practice);
3. ``repro.runtime.cache_stats()`` reports nonzero hits for the Ieff and
   simulation caches, and the unified :class:`RunLedger` accounts the run.

Chunking overhead (budgeted versus unchunked SSTA wall clock) lands in
``BENCH_runtime.json`` next to the per-engine speedup records, so the cost
of bounded memory is tracked across PRs.
"""

from __future__ import annotations

import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from bench_utils import env_float, env_int, write_json_result  # noqa: E402
from test_perf_ssta import _synthetic_library_view  # noqa: E402

import repro.runtime as runtime
from repro import (
    RunLedger,
    characterize_library,
    get_technology,
    make_cell,
)
from repro.analysis import format_ledger
from repro.core.prior_learning import characterize_historical_library, learn_prior
from repro.spice.testbench import get_simulation_cache
from repro.sta import MonteCarloSsta, random_layered_dag


def test_chunked_budget_acceptance(results_dir):
    width = env_int("REPRO_BENCH_RUNTIME_WIDTH", 100)
    depth = env_int("REPRO_BENCH_RUNTIME_DEPTH", 50)
    ssta_seeds = env_int("REPRO_BENCH_RUNTIME_SSTA_SEEDS", 1000)
    lib_seeds = env_int("REPRO_BENCH_RUNTIME_LIB_SEEDS", 200)
    budget = int(env_float("REPRO_BENCH_RUNTIME_BUDGET_MB", 8.0) * 2**20)

    target = get_technology("n28_bulk")
    cells = [make_cell(name) for name in ("INV_X1", "NAND2_X1", "NOR2_X1")]
    historical = [characterize_historical_library(get_technology("n45_bulk"),
                                                  cells)]
    delay_prior = learn_prior(historical, response="delay")
    slew_prior = learn_prior(historical, response="slew")

    # ------------------------------------------------------------------
    # Library characterization: unchunked reference (cache disabled so it
    # genuinely simulates), then the budgeted run on a cold cache (so its
    # chunked engines genuinely simulate too), then a warm replay.
    # ------------------------------------------------------------------
    sim_cache = get_simulation_cache()
    sim_cache.clear()
    sim_cache.disable()
    baseline_lib = characterize_library(
        target, cells, delay_prior, slew_prior, conditions=4,
        n_seeds=lib_seeds, rng=17)
    sim_cache.enable()

    ledger = RunLedger()
    t0 = time.perf_counter()
    budgeted_lib = characterize_library(
        target, cells, delay_prior, slew_prior, conditions=4,
        n_seeds=lib_seeds, rng=17, max_bytes=budget, ledger=ledger)
    lib_seconds = time.perf_counter() - t0

    for base, chunked in zip(baseline_lib.entries, budgeted_lib.entries):
        np.testing.assert_allclose(chunked.statistical.delay_parameters,
                                   base.statistical.delay_parameters,
                                   rtol=1e-9)
        np.testing.assert_allclose(chunked.statistical.slew_parameters,
                                   base.statistical.slew_parameters,
                                   rtol=1e-9)

    # Warm replay: identical results, but served from the simulation cache.
    warm_lib = characterize_library(
        target, cells, delay_prior, slew_prior, conditions=4,
        n_seeds=lib_seeds, rng=17, max_bytes=budget, ledger=ledger)
    for a, b in zip(budgeted_lib.entries, warm_lib.entries):
        assert np.array_equal(a.statistical.delay_parameters,
                              b.statistical.delay_parameters)

    # ------------------------------------------------------------------
    # SSTA at scale: unchunked pass, then the same run under the budget.
    # ------------------------------------------------------------------
    view = _synthetic_library_view(ssta_seeds, vdd=0.9)
    netlist = random_layered_dag(width=width, depth=depth, window=2, rng=17)
    n_gates = len(netlist.gates)
    netlist.compile()  # shared warm-up

    t0 = time.perf_counter()
    baseline_ssta = MonteCarloSsta(netlist, view).run()
    unchunked_seconds = time.perf_counter() - t0

    runtime.configure(max_bytes=budget)
    try:
        t0 = time.perf_counter()
        chunked_ssta = MonteCarloSsta(netlist, view, ledger=ledger).run()
        chunked_seconds = time.perf_counter() - t0
    finally:
        runtime.configure(max_bytes=None)

    np.testing.assert_allclose(chunked_ssta.delay_samples,
                               baseline_ssta.delay_samples, rtol=1e-9)
    assert chunked_ssta.critical_output == baseline_ssta.critical_output

    # ------------------------------------------------------------------
    # Acceptance: the runtime caches visibly worked.
    # ------------------------------------------------------------------
    stats = runtime.cache_stats()
    assert stats["simulation"].hits > 0, "warm library replay must hit"
    assert stats["ieff"].hits > 0, "repeated Ieff rows must hit"
    assert ledger.simulations_total > 0
    assert ledger.stage_seconds("ssta") > 0.0

    print("\n" + format_ledger(ledger, title="Unified run ledger"))

    payload = {
        "benchmark": "runtime_chunked_budget",
        "budget_bytes": budget,
        "library_seeds": lib_seeds,
        "library_arcs": len(budgeted_lib.entries),
        "library_budgeted_seconds": round(lib_seconds, 4),
        "ssta_gates": n_gates,
        "ssta_seeds": ssta_seeds,
        "ssta_unchunked_seconds": round(unchunked_seconds, 4),
        "ssta_chunked_seconds": round(chunked_seconds, 4),
        "ssta_chunking_overhead": round(chunked_seconds
                                        / max(unchunked_seconds, 1e-12), 3),
        "equivalence_rtol": 1e-9,
        "cache_stats": {name: {"hits": s.hits, "misses": s.misses,
                               "evictions": s.evictions}
                        for name, s in stats.items()},
        "simulations_total": ledger.simulations_total,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    write_json_result(results_dir / "BENCH_runtime.json", payload)

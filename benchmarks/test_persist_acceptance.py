"""Durable-store acceptance run: warm-starting from disk beats recomputing.

The robustness counterpart of the cache microbenchmarks: a small library
characterization runs once against an empty on-disk tier (cold -- every
simulation is integrated and written through), then again in a fresh
"process" (all memory caches cleared, disk kept).  That warm run is also
how a killed run resumes: it reruns against the same store.  The benchmark
times ``PAIRS`` such cold/warm pairs, each cold run against a fresh, empty
store.  Every warm run must

* reproduce its cold run's entries bit for bit (disk entries are pickled
  float64 arrays -- the round trip is exact),
* integrate nothing: its plan simulates no row (``fused_rows_simulated``
  is 0) and finds every row cached (``fused_rows_cached`` equals
  ``fused_rows_total``),
* read every row its cold run wrote: the ledger's ``simulation:disk``
  hits equal the cold run's disk writes.

Those are counts, so the gate reads the same on any host; a warm run that
lost its durable tier recomputes and fails it.  The cold/warm wall-clock
ratio of every pair and their median are printed and recorded beside it:
how much a warm start saves depends on how cheap integration is.

One more contract rides along: corrupted store entries (one truncated, one
bit-flipped) are quarantined and recomputed -- same results, never a crash.

The record, every pair included, lands in ``BENCH_persist.json``.  Knobs:

``REPRO_BENCH_PERSIST_CELLS``        cells in the synthetic library (6)
``REPRO_BENCH_PERSIST_SEEDS``        Monte Carlo seeds (16)
``REPRO_BENCH_PERSIST_CONDITIONS``   fitting conditions per arc (3)
"""

from __future__ import annotations

import dataclasses
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from bench_utils import env_int, write_json_result  # noqa: E402

import repro.runtime as runtime
from repro import RunLedger, get_technology, make_cell
from repro.analysis import format_cache_stats
from repro.cells.library import StandardCellLibrary
from repro.core.library_flow import characterize_library
from repro.core.prior_learning import characterize_historical_library, learn_prior

_TEMPLATES = ("INV_X1", "NAND2_X1", "NOR2_X1", "INV_X2")

#: Cold/warm pairs run; each warm run is gated, and the record keeps the
#: median cold/warm ratio.
PAIRS = 5


def synthetic_library(n_cells: int) -> StandardCellLibrary:
    """``n_cells`` renamed template copies (footprint twins at library scale)."""
    cells = []
    for index in range(n_cells):
        base = make_cell(_TEMPLATES[index % len(_TEMPLATES)])
        cells.append(dataclasses.replace(base, name=f"{base.name}_C{index:03d}"))
    return StandardCellLibrary(f"persist_{n_cells}cells", cells)


def _assert_entries_equal(lhs, rhs):
    assert len(lhs.entries) == len(rhs.entries)
    for left, right in zip(lhs.entries, rhs.entries):
        assert (left.cell_name, left.arc.name) == (right.cell_name,
                                                   right.arc.name)
        np.testing.assert_array_equal(left.statistical.delay_parameters,
                                      right.statistical.delay_parameters)
        np.testing.assert_array_equal(left.statistical.slew_parameters,
                                      right.statistical.slew_parameters)


def test_persist_acceptance(results_dir):
    n_cells = env_int("REPRO_BENCH_PERSIST_CELLS", 6)
    n_seeds = env_int("REPRO_BENCH_PERSIST_SEEDS", 16)
    conditions = env_int("REPRO_BENCH_PERSIST_CONDITIONS", 3)

    technology = get_technology("n28_bulk")
    library = synthetic_library(n_cells)
    historical = [characterize_historical_library(
        get_technology("n45_bulk"),
        [make_cell(name) for name in ("INV_X1", "NAND2_X1", "NOR2_X1")])]
    delay_prior = learn_prior(historical, response="delay")
    slew_prior = learn_prior(historical, response="slew")

    def disk_writes():
        return runtime.cache_stats()["simulation"].disk_writes

    def run():
        # clear_all_caches() empties every *memory* tier, so each run sees
        # exactly what a fresh process would: nothing in RAM, whatever the
        # durable tier holds on disk.
        runtime.clear_all_caches()
        ledger = RunLedger()
        writes = disk_writes()
        start = time.perf_counter()
        result = characterize_library(
            technology, library, delay_prior, slew_prior,
            conditions=conditions, n_seeds=n_seeds, rng=17, ledger=ledger)
        seconds = time.perf_counter() - start
        return result, ledger, seconds, disk_writes() - writes

    pairs, ratios = [], []
    with tempfile.TemporaryDirectory(prefix="repro_bench_persist_") as root:
        try:
            for index in range(PAIRS):
                # A fresh, empty store per pair: every cold run integrates.
                store = Path(root) / f"pair{index}"
                runtime.configure(disk_cache_dir=str(store))
                cold, _, cold_seconds, cold_writes = run()
                warm, warm_ledger, warm_seconds, _ = run()

                # ----------------------------------------------------------
                # Warm start: bit-identical, and every row served from the
                # durable tier, on every pair.
                # ----------------------------------------------------------
                _assert_entries_equal(warm, cold)
                rows = warm_ledger.metrics()
                warm_hits = warm_ledger.cache_activity().get(
                    "simulation:disk", {}).get("hits", 0)
                assert rows["fused_rows_simulated"] == 0, (
                    f"pair {index}: the warm run integrated "
                    f"{rows['fused_rows_simulated']} rows")
                assert rows["fused_rows_cached"] == rows["fused_rows_total"]
                assert cold_writes > 0
                assert warm_hits == cold_writes, (
                    f"pair {index}: the warm run read {warm_hits} disk "
                    f"entries of the {cold_writes} its cold run wrote")
                ratios.append(cold_seconds / warm_seconds)
                pairs.append({"cold_seconds": round(cold_seconds, 4),
                              "warm_seconds": round(warm_seconds, 4),
                              "speedup": round(ratios[-1], 2),
                              "cold_disk_writes": int(cold_writes),
                              "warm_disk_hits": int(warm_hits),
                              "warm_rows_total": int(rows["fused_rows_total"])})
            speedup = statistics.median(ratios)

            sim_stats = runtime.cache_stats()["simulation"]
            store_root = store / "simulation"

            # --------------------------------------------------------------
            # Corruption: truncate one entry, bit-flip another; the third
            # run quarantines both, recomputes, and still matches exactly.
            # --------------------------------------------------------------
            entries = sorted(store_root.glob("entries/*/*.entry"))
            assert len(entries) >= 2
            entries[0].write_bytes(entries[0].read_bytes()[:20])
            flipped = bytearray(entries[1].read_bytes())
            flipped[-1] ^= 0x01
            entries[1].write_bytes(bytes(flipped))

            repaired, _, repaired_seconds, _ = run()
            _assert_entries_equal(repaired, cold)
            quarantined = runtime.cache_stats()["simulation"].disk_quarantined
            assert quarantined >= 2, \
                "both damaged entries must be quarantined, not fatal"
        finally:
            runtime.configure(disk_cache_dir=None)

    n_arcs = len(cold.entries)
    print(f"\nPersist acceptance: {n_cells} cells / {n_arcs} arcs x "
          f"{n_seeds} seeds x {conditions} conditions")
    for index, pair in enumerate(pairs):
        print(f"pair {index}         : cold {pair['cold_seconds']:.3f} s, "
              f"warm {pair['warm_seconds']:.3f} s ({pair['speedup']:.2f}x)")
    print(f"median speedup : {speedup:.2f}x; every warm run read its cold "
          f"run's {pairs[-1]['cold_disk_writes']} disk writes and integrated "
          f"0 of {pairs[-1]['warm_rows_total']} rows")
    print(f"corrupted rerun: {repaired_seconds:.3f} s "
          f"({quarantined} entr{'y' if quarantined == 1 else 'ies'} quarantined)")
    print("\n" + format_cache_stats({"simulation": sim_stats},
                                    title="Last pair's warm-run cache tiers"))

    payload = {
        "benchmark": "persist_acceptance",
        "host": platform.node(),
        "n_cells": n_cells,
        "n_seeds": n_seeds,
        "n_conditions": conditions,
        "n_arcs": n_arcs,
        "cold_seconds": statistics.median(pair["cold_seconds"] for pair in pairs),
        "warm_seconds": statistics.median(pair["warm_seconds"] for pair in pairs),
        "speedup": round(speedup, 2),
        "pairs": pairs,
        "disk_entries": int(sim_stats.disk_entries),
        "disk_bytes": int(sim_stats.disk_bytes),
        "corrupted_rerun_seconds": round(repaired_seconds, 4),
        "quarantined_entries": int(quarantined),
    }
    write_json_result(results_dir / "BENCH_persist.json", payload)

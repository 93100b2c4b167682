"""Helpers shared by the benchmark harness (kept out of conftest so that
benchmark modules can import them explicitly without relying on pytest's
conftest injection)."""

from __future__ import annotations

import json
import os
from pathlib import Path

#: Training sizes evaluated for the error-versus-samples figures.
NOMINAL_TRAINING_SIZES = (1, 2, 3, 5, 10, 20, 50)
STATISTICAL_TRAINING_SIZES = (1, 2, 3, 5, 10, 20)

#: Directory where regenerated tables and series are written: the untracked
#: ``benchmarks/out/`` unless ``REPRO_BENCH_RESULTS_DIR`` names another one.
#: The committed tables live in ``benchmarks/benchmark_results/``; refresh
#: them with ``REPRO_BENCH_RESULTS_DIR=benchmarks/benchmark_results``.
RESULTS_DIR = Path(os.environ.get("REPRO_BENCH_RESULTS_DIR", "").strip()
                   or Path(__file__).parent / "out")

#: Environment knobs understood by the benchmark harness (all optional):
#:
#: ``REPRO_BENCH_RESULTS_DIR``      results directory (``benchmarks/out``)
#: ``REPRO_BENCH_SEEDS``            Monte Carlo seeds for statistical runs (120)
#: ``REPRO_BENCH_VALIDATION``       validation points for error evaluation (50)
#: ``REPRO_BENCH_STAT_VALIDATION``  validation points for statistical runs (24)
#: ``REPRO_BENCH_PERF_CONDITIONS``  conditions in the transient perf sweep (50)
#: ``REPRO_BENCH_PERF_SEEDS``       seeds in the transient perf sweep (200)
#: ``REPRO_BENCH_PERF_MIN_SPEEDUP`` assertion floor, batched/per-condition oracle (2.0)
#: ``REPRO_BENCH_PERF_REPEATS``     best-of-N timing passes per engine (3)
#: ``REPRO_BENCH_INTEG_CONDITIONS`` conditions in the integrator benchmark (50)
#: ``REPRO_BENCH_INTEG_SEEDS``      seeds in the integrator benchmark (200)
#: ``REPRO_BENCH_INTEG_REPEATS``    best-of-N timing passes per engine (3)
#: ``REPRO_BENCH_INTEG_MIN_RHS_RATIO``  assertion floor for RK4/RK45 RHS evals (3.0)
#: ``REPRO_BENCH_INTEG_MIN_SPEEDUP``    assertion floor for RK4/RK45 wall clock (2.0)
#: ``REPRO_BENCH_INTEG_ACC_CONDITIONS`` conditions in the accuracy subset (8)
#: ``REPRO_BENCH_INTEG_ACC_SEEDS``      seeds in the accuracy subset (25)
#: ``REPRO_BENCH_MAP_SEEDS``        seeds in the MAP extraction benchmark (200)
#: ``REPRO_BENCH_MAP_CONDITIONS``   fitting conditions per seed (4)
#: ``REPRO_BENCH_MAP_MIN_SPEEDUP``  assertion floor for batched/scipy MAP (3.0)
#: ``REPRO_BENCH_SSTA_WIDTH``       gates per layer in the SSTA benchmark (100)
#: ``REPRO_BENCH_SSTA_DEPTH``       layers in the SSTA benchmark netlist (50)
#: ``REPRO_BENCH_SSTA_SEEDS``       seeds in the SSTA graph benchmark (200)
#: ``REPRO_BENCH_SSTA_MIN_SPEEDUP`` assertion floor, batched/loop-oracle SSTA (5.0)
#: ``REPRO_BENCH_LIB_CELLS``        cells in the fused-library benchmark (20)
#: ``REPRO_BENCH_LIB_SEEDS``        seeds in the fused-library benchmark (200)
#: ``REPRO_BENCH_LIB_CONDITIONS``   shared fitting conditions per arc (4)
#: ``REPRO_BENCH_LIB_MIN_SPEEDUP``  assertion floor, fused/per-arc oracle (3.0)
#: ``REPRO_BENCH_RUNTIME_WIDTH``    gates per layer in the budgeted SSTA run (100)
#: ``REPRO_BENCH_RUNTIME_DEPTH``    layers in the budgeted SSTA netlist (50)
#: ``REPRO_BENCH_RUNTIME_SSTA_SEEDS``  seeds in the budgeted SSTA run (1000)
#: ``REPRO_BENCH_RUNTIME_LIB_SEEDS``   seeds in the budgeted library run (200)
#: ``REPRO_BENCH_RUNTIME_BUDGET_MB``   explicit max_bytes chunk budget (8.0)
#: ``REPRO_BENCH_FAULT_CELLS``       cells in the fault-acceptance library (4)
#: ``REPRO_BENCH_FAULT_SEEDS``       seeds in the fault-acceptance run (8)
#: ``REPRO_BENCH_FAULT_CONDITIONS``  fitting conditions per arc (3)
#: ``REPRO_BENCH_PERSIST_CELLS``       cells in the durable-store library (6)
#: ``REPRO_BENCH_PERSIST_SEEDS``       seeds in the durable-store run (16)
#: ``REPRO_BENCH_PERSIST_CONDITIONS``  fitting conditions per arc (3)
#: ``REPRO_BENCH_PERSIST_MIN_SPEEDUP`` assertion floor for cold/warm (3.0)
#: ``REPRO_BENCH_SERVICE_CLIENTS``     concurrent serving clients (6)
#: ``REPRO_BENCH_SERVICE_SEEDS``       seeds in the serving acceptance run (8)
#: ``REPRO_BENCH_SERVICE_CONDITIONS``  fitting conditions per arc (2)
#: ``REPRO_BENCH_SERVICE_MIN_SPEEDUP`` assertion floor, median coalesced/naive (3.0)
#: ``REPRO_BENCH_PRIORS_NODES``      historical nodes per technology star (8)
#: ``REPRO_BENCH_PRIORS_CLASSES``    arc classes in the prior-learning fleet (50)
#: ``REPRO_BENCH_PRIORS_MIN_SPEEDUP`` assertion floor, batched/per-graph-oracle BP (3.0)
#:
#: Separately, ``REPRO_DISK_CACHE`` / ``REPRO_DISK_CACHE_BYTES`` enable the
#: library's durable on-disk cache tier (see ``repro.runtime``); the global
#: simulation cache itself is set in code (``repro.spice.testbench``).


def env_int(name: str, default: int) -> int:
    """Read an integer configuration value from the environment."""
    return int(os.environ.get(name, default))


def env_float(name: str, default: float) -> float:
    """Read a float configuration value from the environment."""
    return float(os.environ.get(name, default))


def write_result(path: Path, text: str) -> None:
    """Write a regenerated table to disk and echo it to stdout."""
    path.parent.mkdir(exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")
    print("\n" + text)


def write_json_result(path: Path, payload: dict) -> None:
    """Write a machine-readable benchmark record and echo it to stdout."""
    path.parent.mkdir(exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8")
    print("\n" + text)

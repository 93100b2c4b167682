"""Section V headline: simulation-run speedups at matched accuracy.

The paper summarizes its evaluation as ">= 15x fewer simulation runs than the
LUT flow for the same accuracy" (6x from the compact timing model, 2.5x more
from the Bayesian prior), with 17-20x reductions for the statistical metrics,
and an asymptotic cost of ``O(k * Nsample)`` versus ``O(N_LUT * Nsample)``.

This benchmark assembles the speedup summary from the Fig. 6 and Fig. 7/8
curves (shared fixtures -- no additional simulation) and asserts the ordering
and rough magnitudes.  It also folds every machine-readable ``BENCH_*.json``
record found in the results directory (the ``results_dir`` fixture: the
untracked ``benchmarks/out/`` unless ``REPRO_BENCH_RESULTS_DIR`` names
another one, the same directory the other benchmarks write to and CI
uploads) -- the transient, MAP, SSTA, runtime,
library-pipeline, durable-store and serving-front-door wall-clock
benchmarks -- into one aggregate table, so a
single artifact summarizes both axes of the reproduction's performance
story: fewer simulation runs (the paper's claim) and faster wall clock per
run (the batched engines).
"""

from __future__ import annotations

import json

import numpy as np

from repro.analysis import format_table
from repro.experiments import compute_speedup
from bench_utils import write_result


def collect_bench_records(results_dir):
    """Wall-clock speedup/overhead figures from all BENCH_*.json artifacts.

    Records are produced by independent benchmark modules that may or may
    not have run in this session; whatever is present is aggregated.  Any
    numeric top-level key containing ``speedup``, ``overhead`` or ``ratio``
    is picked up, so new benchmark records (e.g. the integrator benchmark's
    wall-clock speedup and RHS-evaluation ratio) fold in without touching
    this module.  Each figure carries its record's absolute ``*_seconds``
    values beside it, so a ratio can be read against what it divides.
    """
    rows = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        name = payload.get("benchmark", path.stem)
        numbers = {key: value for key, value in sorted(payload.items())
                   if isinstance(value, (int, float))
                   and not isinstance(value, bool)}
        seconds = ", ".join(f"{key[:-len('_seconds')]} {value:.3f}"
                            for key, value in numbers.items()
                            if key.endswith("_seconds"))
        for key, value in numbers.items():
            if (("speedup" in key and "min" not in key)
                    or "overhead" in key or "ratio" in key):
                rows.append([name, key, float(value), seconds])
    return rows


def test_speedup_summary(benchmark, nominal_curves_14, statistical_curves_28,
                         results_dir):
    def build_summary():
        rows = []
        speedups = {}
        # Nominal delay (Fig. 6): proposed vs LSE-only vs LUT.
        bayes = nominal_curves_14["bayesian"]
        lse = nominal_curves_14["lse"]
        lut = nominal_curves_14["lut"]
        for label, slow in (("model contribution (vs LUT, LSE fit)", lut),
                            ("full flow (vs LUT)", lut)):
            fast = lse if "LSE" in label else bayes
            summary = compute_speedup(fast, slow)
            if summary is not None:
                rows.append([f"nominal delay: {label}", summary.fast_runs,
                             summary.slow_runs, summary.speedup])
                speedups[label] = summary.speedup
        # Statistical metrics (Figs. 7-8): proposed vs statistical LUT.
        for metric in ("mu_delay", "sigma_delay", "mu_slew", "sigma_slew"):
            fast = statistical_curves_28[("bayesian", metric)]
            slow = statistical_curves_28[("lut", metric)]
            summary = compute_speedup(fast, slow)
            if summary is not None:
                rows.append([f"statistical {metric}", summary.fast_runs,
                             summary.slow_runs, summary.speedup])
                speedups[metric] = summary.speedup
        return rows, speedups

    rows, speedups = benchmark.pedantic(build_summary, rounds=1, iterations=1)
    text = format_table(
        ["experiment", "proposed runs", "baseline-flow runs", "speedup (x)"],
        rows,
        title="Section V summary: simulation-run reduction at matched accuracy")

    # Wall-clock records from whatever per-engine benchmarks ran before this
    # one (BENCH_transient / BENCH_integrator / BENCH_map / BENCH_ssta /
    # BENCH_runtime / BENCH_library / BENCH_persist / BENCH_service).
    bench_rows = collect_bench_records(results_dir)
    if bench_rows:
        text += "\n\n" + format_table(
            ["benchmark", "figure", "value (x)", "seconds"], bench_rows,
            title="Wall-clock engine benchmarks (BENCH_*.json aggregate)")
    write_result(results_dir / "speedup_summary.txt", text)

    # At least the nominal-delay and mean-statistics comparisons must exist.
    assert rows, "no speedup could be computed from the curves"
    full_flow = speedups.get("full flow (vs LUT)")
    assert full_flow is not None
    # Paper: >= 15x; require a conservative >= 5x on the synthetic substrate.
    assert full_flow >= 5.0
    # Every computed speedup favours the proposed flow.
    assert all(value >= 1.0 for value in speedups.values())

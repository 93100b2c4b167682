"""One workload process: set up, measure, check, print the result.

Started by ``perfbench/run.py`` with a scrubbed environment; see
``perfbench/README.md`` for the workloads and metrics.  The metric names and
units come from ``BENCHMARK.json``: with ``--trace 0`` the result carries
every end-to-end metric, measured with tracing off; with ``--trace 1`` it
carries every per-layer metric of a separate traced run, and the spans are
written once, at the end, to ``perfbench/out/``.

The last line of standard output is the result object; the line before it
records the run's configuration, input digest and machine fingerprint.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads
from repro.runtime import stable_key_digest

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Set-up runs per process; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: A seed never used while the benchmark or the seed commit's figures were
#: made, kept for rechecking later claims.
RECHECK_SEED = 7919
#: A tail percentile needs this many samples beyond it.
TAIL_SAMPLES = 10


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the launcher started us")
    return parser.parse_args(argv)


def tail_percentile(values) -> float:
    """p95, or the highest percentile with ten samples beyond it.

    With fewer than twenty samples no percentile at or above the median has
    ten samples beyond it, and the median is reported.
    """
    ordered = sorted(values)
    n = len(ordered)
    fraction = min(0.95, 1.0 - TAIL_SAMPLES / n) if n else 0.0
    if fraction <= 0.5:
        return statistics.median(ordered)
    position = fraction * (n - 1)
    low = math.floor(position)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def machine_fingerprint() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {name: os.environ.get(name) for name in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def end_to_end_metrics(window, setup_s, peak_rss_mb, errors):
    operations = window.operations
    ok = [op for op in operations if op.ok]
    # Latency of the operations that came back whole (client-side on
    # serve_closed); a run where none did still reports its times.
    latencies = [op.calibrated_s for op in ok or operations]
    throughput = len(ok) / window.wall_s
    values = {
        "setup_s": setup_s,
        "flow_s": statistics.median(latencies),
        "serve_rps": throughput,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p95_ms": 1e3 * tail_percentile(latencies),
        "ok_pct": 100.0 * len(ok) / len(operations),
        "peak_rss_mb": peak_rss_mb,
    }
    values.update(errors)
    return values


def per_layer_metrics(window, tracer, setup_tracer, setup_counts):
    traced = [op for op in window.operations if op.traced]
    n_traced = max(len(traced), 1)
    totals = tracer.layer_totals(dict(zip(tracer.roots("iteration"),
                                          (op.scale for op in traced))))
    counts = tracer.counts
    values = {name: totals.get(name, 0.0) / n_traced for name in (
        "spice.historical.integrate_s", "spice.library.integrate_s",
        "spice.integrate_calls", "plan.plan_s", "cells.reduce_s",
        "batch_map.solve_s", "batch_map.solve_calls", "batch_map.fit_s",
        "bayes.bp_s", "bayes.bp_graphs", "liberty.emit_s", "sta.view_s",
        "sta.compile_s", "sta.ssta_s", "persist.get_s")}
    for name, key in (("spice.lane_rhs_evals", "transient_rhs_evals"),
                      ("spice.steps", "transient_steps"),
                      ("spice.steps_rejected", "transient_steps_rejected"),
                      ("batch_map.lm_iterations", "solver_iterations"),
                      ("batch_map.unconverged_seeds", "unconverged_seeds"),
                      ("liberty.bytes", "liberty_bytes")):
        values[name] = counts.get(key, 0) / n_traced
    for suffix in ("rows_total", "rows_simulated", "rows_deduplicated",
                   "rows_cached", "signature_groups", "rows_cross_job_shared"):
        values[f"plan.{suffix}"] = (counts.get(f"fused_{suffix}", 0)
                                    + counts.get(f"priors_{suffix}", 0)
                                    ) / n_traced
    spice_s = sum(totals.get(f"spice.{flow}.integrate_s", 0.0)
                  for flow in ("historical", "library"))
    values["spice.lane_rhs_evals_per_s"] = (
        counts.get("transient_rhs_evals", 0) / spice_s if spice_s else 0.0)
    ssta_s = totals.get("sta.ssta_s", 0.0)
    values["sta.gate_seed_evals_per_s"] = (
        window.layer.get("sta.gate_seed_evals", 0) / ssta_s if ssta_s else 0.0)
    # Durable-tier writes happen in set-up (warm_rerun), whose last pass
    # the traced run traces separately.
    values["persist.put_s"] = setup_tracer.layer_totals().get(
        "persist.put_s", 0.0)
    values["cache.simulation.disk_writes"] = setup_counts.get("disk_writes", 0)
    for name in ("cache.simulation.hit_pct", "cache.simulation.disk_hits",
                 "service.batches", "service.requests_per_batch",
                 "service.solved_hit_pct", "service.coalesced_arcs",
                 "service.queue_peak"):
        values[name] = window.layer.get(name, 0.0)
    # Fused passes at the top of a thread are the service scheduler's; the
    # flows call the pipeline from inside characterize_library.
    batches = [tracer.spans[index][2] - tracer.spans[index][1]
               for index in tracer.roots("characterize_fused_jobs")
               if tracer.spans[index][2] is not None]
    values["service.compute_s"] = statistics.mean(batches) if batches else 0.0
    traced_s = window.layer.get("service.traced_s", 0.0)
    values["service.busy_pct"] = (100.0 * sum(batches) / traced_s
                                  if traced_s else 0.0)
    untraced = [op.calibrated_s for op in window.operations if not op.traced]
    base = statistics.mean(untraced) if untraced else 0.0
    values["trace.overhead_pct"] = (
        100.0 * (statistics.mean([op.calibrated_s for op in traced]) / base
                 - 1.0) if traced and base else 0.0)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    imported = time.monotonic()
    probe = speed.SpeedProbe()
    import_s = (imported - args.spawned_at) * probe.scale(probe.measure(),
                                                          probe.measure())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, OUT)
    setup_tracer = tracing.Tracer()
    setup_counts = {}
    try:
        durations = []
        for repeat in range(SETUP_REPEATS):
            last_traced = args.trace and repeat == SETUP_REPEATS - 1
            if last_traced:
                setup_tracer.install()
            speed_before = probe.measure()
            start = time.monotonic()
            try:
                workload.setup()
            finally:
                setup_tracer.uninstall()
            elapsed = time.monotonic() - start
            durations.append(elapsed * probe.scale(speed_before,
                                                   probe.measure()))
            if last_traced:
                setup_counts = workloads.simulation_cache_counts()
        setup_s = import_s + statistics.median(durations)
        configuration = workload.configuration()
        inputs_digest = stable_key_digest(workload.inputs_key())

        tracer = tracing.Tracer() if args.trace else None
        window = workload.run(tracer, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = window.problems + workload.verify()
        errors = workload.accuracy()
    finally:
        workload.close()

    if args.trace:
        values = per_layer_metrics(window, tracer, setup_tracer, setup_counts)
        listed = spec["per_layer"]
    else:
        values = end_to_end_metrics(window, setup_s, peak_rss_mb, errors)
        listed = spec["end_to_end"]
    metrics = {entry["name"]: {"value": float(values[entry["name"]]),
                               "unit": entry["unit"]}
               for entry in listed}
    attempted = len(window.operations)
    failed = sum(not op.ok for op in window.operations)
    correct = (not problems and not failed
               and all(math.isfinite(value) for value in errors.values()))
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "recheck_seed": RECHECK_SEED,
        "inputs_digest": inputs_digest,
        "configuration": configuration,
        "machine": machine_fingerprint(),
        "setup_runs_s": durations,
        "operations": attempted,
        "operation_s": [op.seconds for op in window.operations][:50],
        "operation_scale": [op.scale for op in window.operations][:50],
        "problems": problems[:20],
    }
    if args.trace:
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     extra={"info": info, "per_layer": values})
    print(json.dumps({"info": info}, default=str))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Plain-text rendering of tables and curves.

The benchmark harness regenerates the paper's tables and figures as text:
Table I as a fixed-width table, Figs. 6-8 as error-versus-samples series, and
the speedup statements as one-line summaries.  Keeping the rendering here (and
out of the benchmarks) makes it reusable from the examples and easy to test.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.experiments.runner import AccuracyCurve, SpeedupSummary
from repro.runtime.accounting import RunLedger


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Render a fixed-width text table.

    Floats are shown with four significant digits; all other values use
    ``str``.
    """
    headers = [str(h) for h in headers]
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = []
        for value in row:
            if isinstance(value, float):
                rendered.append(f"{value:.4g}")
            else:
                rendered.append(str(value))
        if len(rendered) != len(headers):
            raise ValueError("every row must have one entry per header")
        rendered_rows.append(rendered)

    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_line(headers))
    lines.append(render_line(["-" * width for width in widths]))
    lines.extend(render_line(row) for row in rendered_rows)
    return "\n".join(lines)


def format_curve_table(curves: Dict[str, AccuracyCurve], title: str = "") -> str:
    """Render error-versus-samples curves side by side (a Fig. 6/7/8 analogue)."""
    if not curves:
        raise ValueError("at least one curve is required")
    sizes = {curve.training_sizes for curve in curves.values()}
    if len(sizes) != 1:
        raise ValueError("all curves must share the same training sizes")
    training_sizes = list(sizes.pop())
    methods = list(curves)
    headers = ["samples"] + [f"{name} err%" for name in methods] + [
        f"{name} runs" for name in methods]
    rows = []
    for index, size in enumerate(training_sizes):
        row: List[object] = [size]
        row.extend(float(curves[name].mean_error_percent[index]) for name in methods)
        row.extend(float(curves[name].simulation_runs[index]) for name in methods)
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_speedups(speedups: Sequence[SpeedupSummary], title: str = "") -> str:
    """Render speedup summaries, one per line."""
    lines = [title] if title else []
    if not speedups:
        lines.append("(no speedup could be computed)")
    for summary in speedups:
        lines.append(summary.describe())
    return "\n".join(lines)


def format_ledger(ledger: RunLedger, title: str = "Run ledger") -> str:
    """Render a :class:`~repro.runtime.accounting.RunLedger` as text.

    Six sections (each omitted when empty): wall time per stage,
    simulation runs per label, free-form metrics (solver iterations, gate
    evaluations, ...), work-group size summaries (e.g. the fused library
    pipeline's distinct rows per equivalent-inverter signature), cache
    hit/miss/eviction activity, and the failures recorded by non-strict
    (gracefully degrading) runs.

    Caches with a durable tier attached contribute extra activity rows
    named ``"<cache>:disk"`` (recorded by ``RunLedger.caches()``), so
    warm-start traffic against the on-disk store is visible in the same
    cache table.
    """
    blocks: List[str] = []
    stages = ledger.stages()
    if stages:
        blocks.append(format_table(
            ["stage", "calls", "seconds"],
            [[name, int(entry["calls"]), float(entry["wall_s"])]
             for name, entry in stages.items()],
            title=title))
        title = ""
    simulations = ledger.simulations_by_label()
    if simulations:
        rows: List[Sequence[object]] = [[label, runs] for label, runs
                                        in sorted(simulations.items())]
        rows.append(["TOTAL", ledger.simulations_total])
        blocks.append(format_table(["simulations", "runs"], rows, title=title))
        title = ""
    metrics = ledger.metrics()
    if metrics:
        blocks.append(format_table(
            ["metric", "value"],
            [[name, value] for name, value in sorted(metrics.items())],
            title=title))
        title = ""
    groups = ledger.group_sizes()
    if groups:
        rows = []
        for name, sizes in sorted(groups.items()):
            if sizes:
                rows.append([name, len(sizes), sum(sizes), min(sizes),
                             float(sum(sizes)) / len(sizes), max(sizes)])
            else:
                rows.append([name, 0, 0, 0, 0.0, 0])
        blocks.append(format_table(
            ["groups", "count", "items", "min", "mean", "max"], rows,
            title=title))
        title = ""
    caches = ledger.cache_activity()
    if caches:
        blocks.append(format_table(
            ["cache", "hits", "misses", "evictions"],
            [[name, activity["hits"], activity["misses"], activity["evictions"]]
             for name, activity in sorted(caches.items())],
            title=title))
        title = ""
    failures = ledger.failures()
    if failures:
        blocks.append(format_table(
            ["failure", "stage", "error", "attempts"],
            [[report.unit, report.stage,
              f"{report.error_type}: {report.error}" if report.error_type
              else report.error, report.attempts]
             for report in failures],
            title=title))
    if not blocks:
        return title + "\n(empty ledger)" if title else "(empty ledger)"
    return "\n\n".join(blocks)


def format_cache_stats(stats: Dict[str, object],
                       title: str = "Cache tiers") -> str:
    """Render ``repro.runtime.cache_stats()`` including the durable tier.

    One row per registered cache: the memory-tier counters, then -- for
    durable caches with a :class:`~repro.runtime.persist.DiskStore`
    attached -- the disk-tier hit/miss/write traffic, resident entry bytes,
    and the number of corrupt entries quarantined.  Memory-only caches show
    ``-`` in the disk columns so warm-start coverage is obvious at a
    glance.
    """
    headers = ["cache", "hits", "misses", "evictions", "entries", "bytes",
               "disk hits", "disk misses", "disk writes", "disk bytes",
               "quarantined"]
    rows = []
    for name, s in sorted(stats.items()):
        row: List[object] = [name, s.hits, s.misses, s.evictions,
                             s.entries, s.current_bytes]
        if getattr(s, "disk_attached", False):
            row.extend([s.disk_hits, s.disk_misses, s.disk_writes,
                        s.disk_bytes, s.disk_quarantined])
        else:
            row.extend(["-", "-", "-", "-", "-"])
        rows.append(row)
    return format_table(headers, rows, title=title)

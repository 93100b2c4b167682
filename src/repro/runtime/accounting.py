"""Unified run accounting: the :class:`RunLedger`.

PRs 1-3 each accounted differently -- the transient engine charges a
:class:`~repro.spice.testbench.SimulationCounter`, the MAP solver reports
per-seed iteration counts, the library orchestrator sums
``simulation_runs``, and wall time was measured ad hoc in the examples.
The :class:`RunLedger` merges all of it into one picklable record:

* **simulations** -- simulator invocations by label (the paper's cost
  metric), mirroring :class:`~repro.spice.testbench.SimulationCounter`;
* **stages** -- wall time and call count per named stage
  (``with ledger.stage("simulate"): ...``);
* **metrics** -- free-form integer counters (solver iterations, timing
  queries, chunk counts);
* **group sizes** -- named lists of work-group sizes (e.g. how many
  distinct simulation rows each equivalent-inverter signature contributed
  to the fused library pipeline's row table), so dedup is observable;
* **cache activity** -- hit/miss/eviction deltas of the registered runtime
  caches (``with ledger.caches(): ...`` snapshots around a block);
* **gauges** -- high-water marks (peak queue depth of the serving front
  door, peak batch size): ``set_gauge`` keeps the maximum seen, and merge
  takes the max across ledgers instead of summing;
* **failures** -- structured
  :class:`~repro.runtime.resilience.FailureReport` records of work that was
  quarantined or degraded rather than aborted (non-strict library flows),
  concatenated on merge like group sizes.

Ledgers merge associatively (``parent.merge(child)``), so per-arc ledgers
produced inside process-pool workers combine into one library-level record
regardless of execution mode, and :func:`repro.analysis.reporting.format_ledger`
renders the result for humans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional


class RunLedger:
    """Mergeable record of what one run did and where the time went.

    Plain picklable state (dicts of numbers), so ledgers cross process
    boundaries with the jobs that fill them.  Not thread-safe -- the
    library's concurrency model is process fan-out with per-worker ledgers
    merged by the parent.
    """

    def __init__(self) -> None:
        self._simulations: Dict[str, int] = {}
        self._stages: Dict[str, list] = {}
        self._metrics: Dict[str, int] = {}
        self._groups: Dict[str, List[int]] = {}
        self._cache_activity: Dict[str, Dict[str, int]] = {}
        self._failures: List[dict] = []
        self._gauges: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def add_simulations(self, runs: int, label: str = "unlabelled") -> None:
        """Charge ``runs`` simulator invocations under ``label``."""
        if runs < 0:
            raise ValueError("runs must be non-negative")
        self._simulations[label] = self._simulations.get(label, 0) + int(runs)

    def add_metric(self, name: str, value: int) -> None:
        """Accumulate a free-form integer counter (summed on merge)."""
        self._metrics[name] = self._metrics.get(name, 0) + int(value)

    def set_gauge(self, name: str, value: float) -> None:
        """Record a high-water mark (keeps the maximum ever seen).

        Gauges answer "how bad did it get" questions -- peak queue depth,
        largest coalesced batch -- where summing across merges would be
        meaningless, so merge takes the max too.
        """
        value = float(value)
        current = self._gauges.get(name)
        if current is None or value > current:
            self._gauges[name] = value

    def add_group_sizes(self, name: str, sizes: Iterable[int]) -> None:
        """Record the sizes of a named batch of work groups.

        Sizes append in recording order and concatenate on merge, so a
        library run's per-signature simulation-group sizes survive process
        fan-out and show up in :func:`repro.analysis.reporting.format_ledger`.
        """
        validated = [int(size) for size in sizes]
        if any(size < 0 for size in validated):
            raise ValueError("group sizes must be non-negative")
        self._groups.setdefault(name, []).extend(validated)

    def add_stage_time(self, name: str, wall_s: float, calls: int = 1) -> None:
        """Record ``wall_s`` seconds (and ``calls`` entries) against a stage."""
        entry = self._stages.setdefault(name, [0.0, 0])
        entry[0] += float(wall_s)
        entry[1] += int(calls)

    def add_cache_activity(self, cache_name: str, hits: int = 0,
                           misses: int = 0, evictions: int = 0) -> None:
        """Record cache hit/miss/eviction deltas against one cache name."""
        entry = self._cache_activity.setdefault(
            cache_name, {"hits": 0, "misses": 0, "evictions": 0})
        entry["hits"] += int(hits)
        entry["misses"] += int(misses)
        entry["evictions"] += int(evictions)

    def add_failure(self, report) -> None:
        """Record a :class:`~repro.runtime.resilience.FailureReport`.

        Stored in dict form so the ledger stays plain picklable state;
        failures concatenate on merge in recording order.
        """
        record = report.as_dict() if hasattr(report, "as_dict") else dict(report)
        self._failures.append(record)

    @contextmanager
    def stage(self, name: str):
        """Time a block of work against the named stage."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add_stage_time(name, time.perf_counter() - start)

    @contextmanager
    def caches(self, names: Optional[Iterable[str]] = None):
        """Record registered-cache activity deltas across a block.

        ``names`` restricts the snapshot to specific caches; the default
        covers every cache registered when the block opens (caches
        registered *inside* the block are picked up on exit too).  A cache
        with a durable tier attached contributes a second activity row
        named ``"<name>:disk"`` carrying the disk store's hit/miss/eviction
        deltas, so warm-start behavior shows up in the same ledger table
        without disturbing the memory-tier counters.
        """
        from repro.runtime.cache import registered_caches

        def snapshot() -> Dict[str, tuple]:
            caches = registered_caches()
            if names is not None:
                wanted = set(names)
                caches = {n: c for n, c in caches.items() if n in wanted}
            out: Dict[str, tuple] = {}
            for n, c in caches.items():
                out[n] = (c.hits, c.misses, c.evictions)
                disk = getattr(c, "disk_store", None)
                if disk is not None:
                    s = disk.stats()
                    out[n + ":disk"] = (s.hits, s.misses, s.evictions)
            return out

        before = snapshot()
        try:
            yield self
        finally:
            for cache_name, (hits, misses, evictions) in snapshot().items():
                h0, m0, e0 = before.get(cache_name, (0, 0, 0))
                # clear() inside the block resets counters below the
                # baseline; clamp at zero rather than recording negatives.
                self.add_cache_activity(
                    cache_name,
                    hits=max(hits - h0, 0),
                    misses=max(misses - m0, 0),
                    evictions=max(evictions - e0, 0),
                )

    def merge(self, other: "RunLedger") -> "RunLedger":
        """Fold another ledger's records into this one (returns self)."""
        for label, runs in other._simulations.items():
            self.add_simulations(runs, label)
        for name, (wall_s, calls) in other._stages.items():
            self.add_stage_time(name, wall_s, calls)
        for name, value in other._metrics.items():
            self.add_metric(name, value)
        for name, sizes in other._groups.items():
            self.add_group_sizes(name, sizes)
        for cache_name, activity in other._cache_activity.items():
            self.add_cache_activity(cache_name, **activity)
        for record in other._failures:
            self._failures.append(dict(record))
        for name, value in other._gauges.items():
            self.set_gauge(name, value)
        return self

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def simulations_total(self) -> int:
        """Total simulator invocations across all labels."""
        return sum(self._simulations.values())

    def simulations_by_label(self) -> Dict[str, int]:
        """Simulator invocations per label."""
        return dict(self._simulations)

    def stages(self) -> Dict[str, Dict[str, float]]:
        """Wall seconds and call count per stage, in recording order."""
        return {name: {"wall_s": wall_s, "calls": calls}
                for name, (wall_s, calls) in self._stages.items()}

    def stage_seconds(self, name: str) -> float:
        """Accumulated wall seconds of one stage (0.0 when unrecorded)."""
        entry = self._stages.get(name)
        return float(entry[0]) if entry else 0.0

    def metrics(self) -> Dict[str, int]:
        """All free-form counters."""
        return dict(self._metrics)

    def group_sizes(self) -> Dict[str, List[int]]:
        """Recorded work-group sizes per name, in recording order."""
        return {name: list(sizes) for name, sizes in self._groups.items()}

    def gauges(self) -> Dict[str, float]:
        """All high-water marks recorded via :meth:`set_gauge`."""
        return dict(self._gauges)

    def cache_activity(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/eviction deltas per cache name."""
        return {name: dict(activity)
                for name, activity in self._cache_activity.items()}

    def failures(self) -> List:
        """Recorded failures as :class:`FailureReport` objects, in order."""
        from repro.runtime.resilience import FailureReport
        return [FailureReport.from_dict(record) for record in self._failures]

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable form of the whole ledger."""
        return {
            "simulations": self.simulations_by_label(),
            "simulations_total": self.simulations_total,
            "stages": self.stages(),
            "metrics": self.metrics(),
            "gauges": self.gauges(),
            "groups": self.group_sizes(),
            "caches": self.cache_activity(),
            "failures": [dict(record) for record in self._failures],
        }

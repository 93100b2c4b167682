"""Span tracing of the library's public entry points, installed from outside.

:class:`Tracer` replaces each entry point of :data:`ENTRY_POINTS` with a
wrapper that records one span per call -- name, start, end, parent span and
thread -- and puts the originals back on :meth:`Tracer.uninstall`.  Nothing
under ``src/`` knows about it; with the tracer uninstalled the library runs
its own functions at no cost.  Spans stay in memory until the run ends.

Counts are read at the same boundaries, from what the library already
exposes: the wrappers of ``characterize_fused_jobs`` and
``characterize_historical_libraries`` add the :class:`~repro.RunLedger`
metric deltas of their call (RHS evaluations, steps, LM iterations, plan
row counts) to :attr:`Tracer.counts`.  Each ledger is read on the thread
that fills it, so no ledger is read while another thread writes it.

A span's self time is its duration minus the time its child spans cover.
Children are spans of the same thread (the parent stack is thread-local),
and one thread runs them one after the other, so their durations add up.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

#: ``(module, attribute path, span name)`` of every traced entry point.  An
#: attribute path with a dot names a method of a class in that module.
#: Functions are patched where their callers look them up: the benchmark
#: calls the flows through the ``repro`` package, and the library finds its
#: engines, solvers and reductions as globals of the calling module.
ENTRY_POINTS = (
    ("repro", "characterize_historical_libraries",
     "characterize_historical_libraries"),
    ("repro", "learn_priors", "learn_priors"),
    ("repro", "characterize_library", "characterize_library"),
    ("repro.core.library_flow", "characterize_fused_jobs",
     "characterize_fused_jobs"),
    ("repro.core.simulation_plan", "SimulationPlan.add_job", "plan.add_job"),
    ("repro.core.simulation_plan", "SimulationPlan.simulate", "plan.simulate"),
    ("repro.core.simulation_plan", "SimulationPlan.finalize", "plan.finalize"),
    ("repro.core.simulation_plan", "simulate_arc_transitions",
     "simulate_arc_transitions"),
    ("repro.core.simulation_plan", "simulate_arc_transitions_adaptive",
     "simulate_arc_transitions_adaptive"),
    ("repro.core.simulation_plan", "reduce_cell_cached", "reduce_cell_cached"),
    ("repro.core.library_flow", "reduce_cell_cached", "reduce_cell_cached"),
    ("repro.core.library_flow", "map_estimate_stacked", "map_estimate_stacked"),
    ("repro.core.library_flow", "map_estimate_batch", "map_estimate_batch"),
    ("repro.core.batch_map", "fit_least_squares_stacked",
     "fit_least_squares_stacked"),
    ("repro.bayes.factor_graph", "BatchedFactorGraph.run_belief_propagation",
     "run_belief_propagation"),
    ("repro.core.library_flow", "LibraryCharacterization.liberty_writer",
     "liberty_writer"),
    ("repro.liberty.writer", "LibertyWriter.render", "liberty.render"),
    ("repro.core.library_flow", "LibraryCharacterization.timing_view",
     "timing_view"),
    ("repro.sta.netlist", "Netlist.compile", "netlist.compile"),
    ("repro.sta.ssta", "MonteCarloSsta.run", "ssta.run"),
    ("repro.runtime.persist", "DiskStore.get", "disk.get"),
    ("repro.runtime.persist", "DiskStore.put", "disk.put"),
)

#: Span name -> per-layer self-time metric.  Spice time is split by flow
#: below, so it is absent here.
SELF_TIME_METRIC = {
    "plan.add_job": "plan.plan_s",
    "plan.simulate": "plan.plan_s",
    "plan.finalize": "plan.plan_s",
    "reduce_cell_cached": "cells.reduce_s",
    "map_estimate_stacked": "batch_map.solve_s",
    "map_estimate_batch": "batch_map.solve_s",
    "fit_least_squares_stacked": "batch_map.fit_s",
    "run_belief_propagation": "bayes.bp_s",
    "liberty_writer": "liberty.emit_s",
    "liberty.render": "liberty.emit_s",
    "timing_view": "sta.view_s",
    "netlist.compile": "sta.compile_s",
    "ssta.run": "sta.ssta_s",
    "disk.get": "persist.get_s",
    "disk.put": "persist.put_s",
}

SPICE_SPANS = ("simulate_arc_transitions", "simulate_arc_transitions_adaptive")

#: Ledger metrics whose per-call deltas the flow wrappers collect.
LEDGER_COUNTS = ("transient_rhs_evals", "transient_steps",
                 "transient_steps_rejected", "solver_iterations")
LEDGER_PREFIXES = ("fused_", "priors_")

#: Spans whose ``ledger`` argument the tracer reads before and after a call.
LEDGER_SPANS = ("characterize_fused_jobs", "characterize_historical_libraries")


class Tracer:
    """In-memory span recorder over monkeypatched library entry points."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent, thread]`` list per span, in the
        #: order the spans opened; ``parent`` indexes this list (or is None).
        self.spans: List[list] = []
        #: Counts read at span boundaries (ledger deltas, unconverged seeds).
        self.counts: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: List[tuple] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               threading.current_thread().name])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        """Record one benchmark-side span around a block."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def add_count(self, name: str, value: int) -> None:
        with self._lock:
            self.counts[name] += int(value)

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    def _wrap(self, function, name: str):
        tracer = self
        reads_ledger = name in LEDGER_SPANS
        signature = inspect.signature(function) if reads_ledger else None

        @functools.wraps(function)
        def traced(*args, **kwargs):
            ledger = None
            if reads_ledger:
                ledger = signature.bind(*args, **kwargs).arguments.get("ledger")
                before = ledger.metrics() if ledger is not None else {}
            index = tracer._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(index)
            if ledger is not None:
                tracer._count_ledger(before, ledger.metrics())
            if name == "characterize_fused_jobs":
                characterizations = result[0]
                tracer.add_count("unconverged_seeds", sum(
                    int(item.unconverged_seeds().size)
                    for item in characterizations if item is not None))
            elif name == "liberty.render":
                tracer.add_count("liberty_bytes", len(result.encode("utf-8")))
            return result

        return traced

    def _count_ledger(self, before: dict, after: dict) -> None:
        for key, value in after.items():
            if key in LEDGER_COUNTS or key.startswith(LEDGER_PREFIXES):
                delta = value - before.get(key, 0)
                if delta:
                    self.add_count(key, delta)

    def install(self) -> None:
        """Replace every entry point with its tracing wrapper."""
        if self._originals:
            return
        for module_name, path, name in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *classes, attribute = path.split(".")
            for class_name in classes:
                owner = getattr(owner, class_name)
            own = attribute in vars(owner)
            original = getattr(owner, attribute)
            self._originals.append((owner, attribute, original, own))
            setattr(owner, attribute, self._wrap(original, name))

    def uninstall(self) -> None:
        """Put every original entry point back."""
        for owner, attribute, original, own in reversed(self._originals):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._originals = []

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Self time of every span, indexed like :attr:`spans`."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _thread in self.spans:
            if parent is not None and end is not None:
                covered[parent] += end - start
        return [(end - start - covered[index]) if end is not None else 0.0
                for index, (name, start, end, _parent, _thread)
                in enumerate(self.spans)]

    def _flow_of(self, index: int) -> Optional[str]:
        """``historical`` or ``library``: which flow a span ran under."""
        while index is not None:
            name = self.spans[index][0]
            if name == "characterize_historical_libraries":
                return "historical"
            if name in ("characterize_library", "characterize_fused_jobs"):
                return "library"
            index = self.spans[index][3]
        return None

    def roots(self, name: str) -> List[int]:
        """Indices of the top-level spans with the given name, in order."""
        return [index for index, span in enumerate(self.spans)
                if span[0] == name and span[3] is None]

    def layer_totals(self, scales: Optional[Dict[int, float]] = None
                     ) -> Dict[str, float]:
        """Summed self time per layer metric, plus call counts.

        ``scales`` maps a top-level span to the factor that calibrates the
        times of every span under it (see ``speed.py``).
        """
        scales = scales or {}
        root: List[int] = []
        totals: Dict[str, float] = defaultdict(float)
        for index, self_time in enumerate(self.self_times()):
            name, _start, _end, parent, _thread = self.spans[index]
            root.append(index if parent is None else root[parent])
            self_time *= scales.get(root[index], 1.0)
            if name in SPICE_SPANS:
                flow = self._flow_of(index) or "library"
                totals[f"spice.{flow}.integrate_s"] += self_time
                totals["spice.integrate_calls"] += 1
            elif name in SELF_TIME_METRIC:
                totals[SELF_TIME_METRIC[name]] += self_time
            if name in ("map_estimate_stacked", "map_estimate_batch"):
                totals["batch_map.solve_calls"] += 1
            elif name == "run_belief_propagation":
                totals["bayes.bp_graphs"] += 1
        return totals

    def write(self, path, extra: Optional[dict] = None) -> None:
        """Dump every span (and ``extra``) as JSON, once, at the end."""
        self_times = self.self_times()
        payload = dict(extra or {})
        payload["spans"] = [
            {"name": name, "start": start, "end": end, "parent": parent,
             "thread": thread, "self_s": self_times[index]}
            for index, (name, start, end, parent, thread)
            in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

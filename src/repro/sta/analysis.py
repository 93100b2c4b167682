"""Deterministic static timing analysis.

A classic block-based STA: gates are visited in topological order, each net's
arrival time and transition time are computed from its driver's delay/slew at
the actual capacitive load (sum of fanout input-pin capacitances plus any
external load), and the worst primary-output arrival together with its
critical path is reported.

Propagation is one array pass per topological level: the netlist is
compiled once (:meth:`~repro.sta.netlist.Netlist.compile`), arrivals and
slews live in flat per-net arrays (plus the sentinel row that spare fanin
slots read as ``-inf``), each level finds its gates' worst fanins with a
running maximum over the padded fanin matrix
(:meth:`~repro.sta.netlist.CompiledNetlist.level_worst_fanins`), and the
whole level, whatever its mix of cell types, is one timing-view query
(:meth:`~repro.sta.timing_view.TimingView.level_timing`).  Every net's
capacitive load comes from one precomputed load vector (external load plus
summed fanout pin capacitances), so no fanout list is walked during
propagation.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.runtime.accounting import RunLedger
from repro.sta.netlist import CompiledNetlist, Netlist
from repro.sta.timing_view import TimingView

#: Minimum load a gate output sees, even when dangling (farads).
MIN_LOAD_F = 1e-17


@dataclass(frozen=True)
class PathReport:
    """Result of a deterministic STA run.

    Attributes
    ----------
    arrival_times:
        Arrival time (seconds) of every net.
    transition_times:
        Transition time (seconds) of every net.
    critical_output:
        Primary output with the latest arrival.
    critical_delay:
        That latest arrival time, in seconds.
    critical_path:
        Gate instance names from inputs to the critical output.
    """

    arrival_times: Dict[str, float]
    transition_times: Dict[str, float]
    critical_output: str
    critical_delay: float
    critical_path: Tuple[str, ...]


def _net_load_vector(compiled: CompiledNetlist, view: TimingView) -> np.ndarray:
    """Per-net-index load vector from a view's input-pin capacitances."""
    return compiled.net_loads(view.input_capacitances())


class TimingGraphAnalyzer:
    """Shared state management of the STA and SSTA analyzers.

    Owns the compiled netlist and the per-net-index load vector;
    subclasses provide the level-batched ``_propagate``.
    An optional :class:`~repro.runtime.accounting.RunLedger` records each
    :meth:`run` as one stage (``"sta"`` / ``"ssta"``) with per-run cache
    activity and a ``gate_evaluations`` metric.
    """

    #: Ledger stage name of :meth:`run` (overridden per analyzer).
    _ledger_stage = "timing_graph"

    def __init__(self, netlist: Netlist, timing_view: TimingView,
                 primary_input_slew: float = 5e-12,
                 primary_input_arrival: float = 0.0,
                 ledger: Optional[RunLedger] = None):
        if not (primary_input_slew > 0.0 and np.isfinite(primary_input_slew)):
            raise ValueError("primary_input_slew must be positive and finite")
        self._netlist = netlist
        self._view = timing_view
        self._input_slew = float(primary_input_slew)
        self._input_arrival = float(primary_input_arrival)
        self._ledger = ledger
        self._bind(netlist.compile())

    def _bind(self, compiled: CompiledNetlist) -> None:
        self._gate_rows = self._view.cell_rows(
            compiled.cell_names)[compiled.gate_cell]
        self._compiled = compiled
        self._loads = _net_load_vector(compiled, self._view)

    def _refresh(self) -> None:
        """Re-derive compiled state if the netlist mutated since construction.

        ``Netlist.compile()`` invalidates its cache on mutation, so this is
        one identity check in the common case and keeps the precomputed load
        vector (and the view-coverage check) live, matching the
        pre-compiled engines' behaviour.
        """
        compiled = self._netlist.compile()
        if compiled is not self._compiled:
            self._bind(compiled)

    def net_load(self, net: str) -> float:
        """Total capacitive load on a net, in farads (precomputed)."""
        self._refresh()
        if net not in self._compiled.net_names:
            raise KeyError(f"netlist {self._netlist.name!r} has no net {net!r}")
        return float(self._loads[self._compiled.net_names.index(net)])

    def run(self):
        """Propagate arrivals and slews and return the timing report."""
        self._refresh()
        ledger = self._ledger
        with (ledger.stage(self._ledger_stage) if ledger is not None
              else nullcontext()), \
             (ledger.caches() if ledger is not None else nullcontext()):
            if ledger is not None:
                ledger.add_metric("gate_evaluations", self._compiled.n_gates)
            return self._propagate()


class StaticTimingAnalyzer(TimingGraphAnalyzer):
    """Topological STA over a :class:`Netlist` and a :class:`TimingView`."""

    _ledger_stage = "sta"

    def _propagate(self) -> PathReport:
        compiled = self._compiled
        arrival = np.full(compiled.n_nets + 1, -np.inf)
        slew = np.zeros(compiled.n_nets + 1)
        arrival[compiled.primary_input_nets] = self._input_arrival
        slew[compiled.primary_input_nets] = self._input_slew
        loads = np.maximum(self._loads, MIN_LOAD_F)
        # Each gate's chosen worst input net (for the critical-path trace).
        net_ids = np.arange(compiled.n_nets + 1)
        drive_net = np.empty(compiled.n_gates, dtype=np.int64)

        starts = compiled.level_starts.tolist()
        for level in range(compiled.n_levels):
            gates = slice(starts[level], starts[level + 1])
            worst, drive_net[gates] = compiled.level_worst_fanins(
                level, arrival, net_ids)
            out_nets = compiled.gate_output_net[gates]
            delay, out_slew = self._view.level_timing(
                self._gate_rows[gates], slew[drive_net[gates]],
                loads[out_nets])
            arrival[out_nets] = np.add(worst, delay, out=worst)
            slew[out_nets] = out_slew

        po_nets = compiled.primary_output_nets
        critical_index = int(po_nets[int(np.argmax(arrival[po_nets]))])
        critical_path: List[str] = []
        net = critical_index
        while compiled.driver_gate[net] >= 0:
            gate_index = int(compiled.driver_gate[net])
            critical_path.append(compiled.gate_names[gate_index])
            net = int(drive_net[gate_index])
        critical_path.reverse()

        names = compiled.net_names
        return PathReport(
            arrival_times={name: float(arrival[i]) for i, name in enumerate(names)},
            transition_times={name: float(slew[i]) for i, name in enumerate(names)},
            critical_output=names[critical_index],
            critical_delay=float(arrival[critical_index]),
            critical_path=tuple(critical_path),
        )

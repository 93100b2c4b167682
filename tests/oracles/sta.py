"""Per-gate loop propagation: the reference STA and Monte Carlo SSTA.

The references for :class:`repro.sta.StaticTimingAnalyzer` and
:class:`repro.sta.MonteCarloSsta`, which propagate level by level over the
compiled netlist with one batched timing query per (level, cell type).
Here every gate is one Python iteration and one timing-view query, in
topological order; every net's load comes from the same precomputed load
vector.  Reports must agree with the batched analyzers at ``rtol 1e-12``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.analysis.distributions import summarize_many
from repro.sta.analysis import MIN_LOAD_F, PathReport
from repro.sta.ssta import SstaReport


def _loads(netlist, view) -> Dict[str, float]:
    compiled = netlist.compile()
    loads = compiled.net_loads(view.input_capacitances())
    return {name: float(loads[index])
            for index, name in enumerate(compiled.net_names)}


def sta_loop(netlist, view, primary_input_slew: float = 5e-12,
             primary_input_arrival: float = 0.0) -> PathReport:
    """Deterministic STA, one gate at a time."""
    loads = _loads(netlist, view)
    arrivals: Dict[str, float] = {}
    slews: Dict[str, float] = {}
    worst_input_gate: Dict[str, Optional[str]] = {}

    for net in netlist.primary_inputs:
        arrivals[net] = primary_input_arrival
        slews[net] = primary_input_slew
        worst_input_gate[net] = None

    for gate in netlist.topological_gates():
        input_arrival = max(arrivals[net] for net in gate.input_nets)
        worst_net = max(gate.input_nets, key=lambda net: arrivals[net])
        input_slew = slews[worst_net]
        load = max(loads[gate.output_net], MIN_LOAD_F)
        delay, output_slew = view.gate_timing(gate.cell_name, input_slew, load)
        arrivals[gate.output_net] = input_arrival + delay
        slews[gate.output_net] = output_slew
        worst_input_gate[gate.output_net] = gate.name

    critical_output = max(netlist.primary_outputs,
                          key=lambda net: arrivals[net])
    path: List[str] = []
    net = critical_output
    while worst_input_gate.get(net) is not None:
        gate_name = worst_input_gate[net]
        path.append(gate_name)
        gate = netlist.gate(gate_name)
        net = max(gate.input_nets, key=lambda candidate: arrivals[candidate])
    path.reverse()
    return PathReport(
        arrival_times=arrivals,
        transition_times=slews,
        critical_output=critical_output,
        critical_delay=float(arrivals[critical_output]),
        critical_path=tuple(path),
    )


def ssta_loop(netlist, view, primary_input_slew: float = 5e-12,
              primary_input_arrival: float = 0.0) -> SstaReport:
    """Monte Carlo SSTA, one gate (and one per-seed timing query) at a time."""
    loads = _loads(netlist, view)
    n_seeds = view.n_seeds
    seed_index = np.arange(n_seeds)
    arrivals: Dict[str, np.ndarray] = {}
    slews: Dict[str, np.ndarray] = {}

    for net in netlist.primary_inputs:
        arrivals[net] = np.full(n_seeds, primary_input_arrival)
        slews[net] = np.full(n_seeds, primary_input_slew)

    for gate in netlist.topological_gates():
        stacked = np.stack([arrivals[net] for net in gate.input_nets], axis=0)
        input_arrival = stacked.max(axis=0)
        # Seed-wise worst input; each seed's driving slew comes from that
        # seed's own latest-arriving input.
        worst_input = np.argmax(stacked, axis=0)
        slew_stack = np.stack([slews[net] for net in gate.input_nets], axis=0)
        input_slew = slew_stack[worst_input, seed_index]
        load = max(loads[gate.output_net], MIN_LOAD_F)
        delay, output_slew = view.gate_timing_samples(
            gate.cell_name, input_slew, load)
        arrivals[gate.output_net] = input_arrival + delay
        slews[gate.output_net] = output_slew

    po_names = netlist.primary_outputs
    po_samples = np.stack([arrivals[net] for net in po_names], axis=0)
    output_summaries = dict(zip(po_names, summarize_many(po_samples)))
    critical_output = max(output_summaries,
                          key=lambda net: output_summaries[net].mean)
    critical_index = list(po_names).index(critical_output)
    winners = np.argmax(po_samples, axis=0)
    return SstaReport(
        critical_output=critical_output,
        delay_samples=po_samples[critical_index].copy(),
        summary=output_summaries[critical_output],
        output_summaries=output_summaries,
        criticality={name: float(np.count_nonzero(winners == index) / n_seeds)
                     for index, name in enumerate(po_names)},
    )

"""Per-gate loop references: the netlist compile, STA and Monte Carlo SSTA.

The references for :func:`repro.sta.compile_netlist`,
:class:`repro.sta.StaticTimingAnalyzer` and :class:`repro.sta.MonteCarloSsta`,
which build the compiled netlist with array operations and propagate one
array pass per level.  :func:`compile_loop` levelizes with Kahn's algorithm
one gate at a time and must equal the array compile field for field.  The
propagation loops visit every gate as one Python iteration and one
timing-view query, in :func:`compile_loop`'s level-major order (any
topological order gives the same results), and take every net's load from
:func:`compile_loop`'s arrays too, so they never run the production
compile.  Reports must agree with the batched analyzers at ``rtol 1e-12``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.distributions import summarize_many
from repro.sta.analysis import MIN_LOAD_F, PathReport
from repro.sta.netlist import CompiledNetlist
from repro.sta.ssta import SstaReport


def compile_loop(netlist) -> CompiledNetlist:
    """Kahn levelization and array building, one gate at a time."""
    gates = netlist.gates
    pis = netlist.primary_inputs

    net_index: Dict[str, int] = {}
    for net in pis:
        net_index[net] = len(net_index)
    for gate in gates:
        net_index[gate.output_net] = len(net_index)
    for gate in gates:
        for net in gate.input_nets:
            if net not in net_index:
                raise ValueError(
                    f"net {net!r} (input of {gate.name}) has no driver")
    for net in netlist.primary_outputs:
        if net not in net_index:
            raise ValueError(f"primary output {net!r} has no driver")

    # A gate's level is one more than the worst level of its fanin nets;
    # primary-input nets sit at level 0.
    gate_pos = {gate.name: index for index, gate in enumerate(gates)}
    indegree = [0] * len(gates)
    consumer_lists: List[List[int]] = [[] for _ in gates]
    for position, gate in enumerate(gates):
        for net in gate.input_nets:
            driver = netlist.driver_of(net)
            if driver is not None:
                indegree[position] += 1
                consumer_lists[gate_pos[driver.name]].append(position)
    gate_level = [0] * len(gates)
    net_level = {net: 0 for net in pis}
    ready = [position for position in range(len(gates))
             if indegree[position] == 0]
    processed = 0
    while ready:
        next_ready: List[int] = []
        for position in ready:
            gate = gates[position]
            level = 1 + max(net_level[net] for net in gate.input_nets)
            gate_level[position] = level
            net_level[gate.output_net] = level
            processed += 1
            for consumer in consumer_lists[position]:
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    next_ready.append(consumer)
        ready = next_ready
    if processed != len(gates):
        raise ValueError(f"netlist {netlist.name!r} contains a combinational loop")

    # Level-major compiled order, insertion order within a level.
    order = sorted(range(len(gates)),
                   key=lambda position: (gate_level[position], position))
    n_nets = len(net_index)
    cell_names = tuple(dict.fromkeys(gate.cell_name for gate in gates))
    max_fanin = max((len(gate.input_nets) for gate in gates), default=0)
    fanin_matrix = np.full((len(gates), max_fanin), n_nets, dtype=np.int64)
    gate_cell = np.empty(len(gates), dtype=np.int64)
    output_net = np.empty(len(gates), dtype=np.int64)
    compiled_level = np.empty(len(gates), dtype=np.int64)
    load_nets: List[int] = []
    load_pin_gate: List[int] = []
    for compiled_index, position in enumerate(order):
        gate = gates[position]
        gate_cell[compiled_index] = cell_names.index(gate.cell_name)
        output_net[compiled_index] = net_index[gate.output_net]
        compiled_level[compiled_index] = gate_level[position]
        for slot, net in enumerate(gate.input_nets):
            fanin_matrix[compiled_index, slot] = net_index[net]
        for net in dict.fromkeys(gate.input_nets):
            load_nets.append(net_index[net])
            load_pin_gate.append(compiled_index)

    level_starts = [index for index in range(len(gates))
                    if index == 0
                    or compiled_level[index] != compiled_level[index - 1]]
    level_starts.append(len(gates))
    driver_gate = np.full(n_nets, -1, dtype=np.int64)
    for compiled_index in range(len(gates)):
        driver_gate[output_net[compiled_index]] = compiled_index

    return CompiledNetlist(
        netlist=netlist,
        net_names=tuple(net_index),
        gate_names=tuple(gates[position].name for position in order),
        cell_names=cell_names,
        gate_cell=gate_cell,
        gate_output_net=output_net,
        gate_level=compiled_level,
        fanin_matrix=fanin_matrix,
        level_starts=np.asarray(level_starts, dtype=np.int64),
        driver_gate=driver_gate,
        external_loads=np.array([netlist.external_load(net)
                                 for net in net_index], dtype=float),
        load_nets=np.asarray(load_nets, dtype=np.int64),
        load_pin_gate=np.asarray(load_pin_gate, dtype=np.int64),
        primary_input_nets=np.asarray([net_index[net] for net in pis],
                                      dtype=np.int64),
        primary_output_nets=np.asarray(
            [net_index[net] for net in netlist.primary_outputs],
            dtype=np.int64),
    )


def _levelized(netlist, view) -> Tuple[list, Dict[str, float]]:
    """:func:`compile_loop`'s level-major gates and every net's load."""
    compiled = compile_loop(netlist)
    loads = compiled.net_loads(view.input_capacitances())
    return ([netlist.gate(name) for name in compiled.gate_names],
            {name: float(loads[index])
             for index, name in enumerate(compiled.net_names)})


def sta_loop(netlist, view, primary_input_slew: float = 5e-12,
             primary_input_arrival: float = 0.0) -> PathReport:
    """Deterministic STA, one gate at a time."""
    gates, loads = _levelized(netlist, view)
    arrivals: Dict[str, float] = {}
    slews: Dict[str, float] = {}
    worst_input_gate: Dict[str, Optional[str]] = {}

    for net in netlist.primary_inputs:
        arrivals[net] = primary_input_arrival
        slews[net] = primary_input_slew
        worst_input_gate[net] = None

    for gate in gates:
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
    gates, loads = _levelized(netlist, view)
    n_seeds = view.n_seeds
    seed_index = np.arange(n_seeds)
    arrivals: Dict[str, np.ndarray] = {}
    slews: Dict[str, np.ndarray] = {}

    for net in netlist.primary_inputs:
        arrivals[net] = np.full(n_seeds, primary_input_arrival)
        slews[net] = np.full(n_seeds, primary_input_slew)

    for gate in gates:
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

"""Gate-level netlists, their compiled form, and benchmark circuit generators.

A netlist is a directed acyclic graph of gate instances connected by named
nets.  Every net has at most one driver (a gate output or a primary input);
combinational loops are rejected at construction time.  Three generators
provide the circuits used by the examples and tests: an inverter chain (the
classic ring-oscillator-style delay line), a balanced NAND/NOR reduction
tree, and the ISCAS-85 C17 benchmark.

:class:`CompiledNetlist` is the array form the batched STA/SSTA engines run
on: nets and gates are integer-indexed, the DAG is levelized (gates stored
level-major so each level is a contiguous slice), gate fanins are a CSR
index array, and every net's capacitive load reduces to one scatter-add over
the fanin pins.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.runtime import register_runtime_cache
from repro.runtime.cache import LruCache

#: Compiled netlists, keyed by ``(netlist token, mutation epoch)`` in the
#: runtime-registered ``"netlist_compile"`` LRU.  Repeated analyzer
#: constructions over an unchanged netlist hit; every mutator bumps the
#: epoch, so stale compilations age out instead of lingering per instance.
_COMPILE_CACHE = register_runtime_cache(
    LruCache("netlist_compile", max_entries=32, max_bytes=512 * 2**20))

#: Distinct per-instance tokens (never reused, unlike ``id()``).
_NETLIST_TOKENS = itertools.count()

#: Name allowances of :attr:`CompiledNetlist.nbytes`: a gate's instance and
#: cell names, and a net's name, at about eight characters each.
_GATE_NAME_BYTES = 16
_NET_NAME_BYTES = 8


@dataclass(frozen=True)
class Gate:
    """One gate instance.

    Attributes
    ----------
    name:
        Unique instance name.
    cell_name:
        Library cell implementing the gate (e.g. ``"NAND2_X1"``).
    input_nets:
        Nets driving the gate's input pins, in pin order.
    output_net:
        Net driven by the gate's output.
    """

    name: str
    cell_name: str
    input_nets: Tuple[str, ...]
    output_net: str

    def __post_init__(self) -> None:
        if not self.input_nets:
            raise ValueError(f"gate {self.name} needs at least one input net")
        if self.output_net in self.input_nets:
            raise ValueError(f"gate {self.name} drives one of its own inputs")


class Netlist:
    """A combinational gate-level netlist."""

    def __init__(self, name: str, primary_inputs: Sequence[str],
                 primary_outputs: Sequence[str],
                 output_loads_f: Optional[Dict[str, float]] = None):
        if not primary_inputs:
            raise ValueError("a netlist needs at least one primary input")
        self._name = name
        self._primary_inputs = list(dict.fromkeys(primary_inputs))
        self._primary_outputs = list(dict.fromkeys(primary_outputs))
        self._gates: Dict[str, Gate] = {}
        self._driver_of: Dict[str, str] = {}
        self._consumers: Dict[str, List[str]] = {}
        self._output_loads = dict(output_loads_f or {})
        self._token = next(_NETLIST_TOKENS)
        self._epoch = 0

    def __getstate__(self):
        # The compile-cache token is process-local: a pickled copy landing in
        # another process must not collide with tokens that process's own
        # counter already handed out, so it is reissued on unpickling.
        state = self.__dict__.copy()
        del state["_token"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._token = next(_NETLIST_TOKENS)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_gate(self, gate: Gate) -> None:
        """Add a gate instance; net driver conflicts are rejected."""
        if gate.name in self._gates:
            raise ValueError(f"gate {gate.name!r} already exists")
        if gate.output_net in self._driver_of:
            raise ValueError(f"net {gate.output_net!r} already has a driver")
        if gate.output_net in self._primary_inputs:
            raise ValueError(f"net {gate.output_net!r} is a primary input")
        self._gates[gate.name] = gate
        self._driver_of[gate.output_net] = gate.name
        for net in dict.fromkeys(gate.input_nets):
            self._consumers.setdefault(net, []).append(gate.name)
        self._epoch += 1

    def set_output_load(self, net: str, capacitance_f: float) -> None:
        """Attach an external load capacitance to a net (typically a PO)."""
        if capacitance_f < 0.0:
            raise ValueError("load capacitance must be non-negative")
        self._output_loads[net] = float(capacitance_f)
        self._epoch += 1

    def add_primary_output(self, net: str) -> None:
        """Declare an existing net a primary output (idempotent)."""
        if net not in self._primary_outputs:
            self._primary_outputs.append(net)
            self._epoch += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Netlist name."""
        return self._name

    @property
    def primary_inputs(self) -> List[str]:
        """Primary input nets."""
        return list(self._primary_inputs)

    @property
    def primary_outputs(self) -> List[str]:
        """Primary output nets."""
        return list(self._primary_outputs)

    @property
    def gates(self) -> List[Gate]:
        """All gate instances."""
        return list(self._gates.values())

    def gate(self, name: str) -> Gate:
        """Look up a gate by instance name."""
        if name not in self._gates:
            raise KeyError(f"netlist {self._name!r} has no gate {name!r}")
        return self._gates[name]

    def driver_of(self, net: str) -> Optional[Gate]:
        """The gate driving a net, or ``None`` for primary inputs."""
        gate_name = self._driver_of.get(net)
        return self._gates[gate_name] if gate_name is not None else None

    def fanout_gates(self, net: str) -> List[Gate]:
        """Gates whose inputs are connected to a net."""
        return [self._gates[name] for name in self._consumers.get(net, ())]

    def external_load(self, net: str) -> float:
        """External load capacitance attached to a net (0 if none)."""
        return self._output_loads.get(net, 0.0)

    def nets(self) -> List[str]:
        """Every net in the design (inputs, internal, outputs)."""
        names = dict.fromkeys(self._primary_inputs)
        for gate in self._gates.values():
            for net in (*gate.input_nets, gate.output_net):
                names.setdefault(net)
        return list(names)

    # ------------------------------------------------------------------
    # Graph view
    # ------------------------------------------------------------------
    def gate_graph(self) -> nx.DiGraph:
        """Directed graph with gate names as nodes (edges follow nets)."""
        graph = nx.DiGraph()
        for gate in self._gates.values():
            graph.add_node(gate.name)
        for gate in self._gates.values():
            for consumer in self.fanout_gates(gate.output_net):
                graph.add_edge(gate.name, consumer.name)
        return graph

    def topological_gates(self) -> List[Gate]:
        """Gates in topological (input-to-output) order.

        Raises
        ------
        ValueError
            If the netlist contains a combinational loop.
        """
        graph = self.gate_graph()
        if not nx.is_directed_acyclic_graph(graph):
            raise ValueError(f"netlist {self._name!r} contains a combinational loop")
        return [self._gates[name] for name in nx.topological_sort(graph)]

    def validate(self) -> None:
        """Check that every gate input and primary output has a driver."""
        known = set(self._primary_inputs) | set(self._driver_of)
        for gate in self._gates.values():
            for net in gate.input_nets:
                if net not in known:
                    raise ValueError(f"net {net!r} (input of {gate.name}) has no driver")
        for net in self._primary_outputs:
            if net not in known:
                raise ValueError(f"primary output {net!r} has no driver")
        self.topological_gates()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self) -> "CompiledNetlist":
        """The integer-indexed, levelized form used by the batched engines.

        Compilations live in the runtime-registered ``"netlist_compile"``
        LRU, keyed by this instance plus its mutation epoch: every mutator
        (:meth:`add_gate`, :meth:`set_output_load`,
        :meth:`add_primary_output`) bumps the epoch, so repeated analyzer
        constructions over an unchanged netlist share one
        :class:`CompiledNetlist` object (identity-stable while cached,
        which is what the analyzers' refresh check relies on), and total
        compile memory is bounded across all netlists.
        """
        key = (self._token, self._epoch)
        compiled = _COMPILE_CACHE.get(key)
        if compiled is None:
            compiled = compile_netlist(self)
            _COMPILE_CACHE.put(key, compiled, nbytes=compiled.nbytes)
        return compiled


@dataclass(frozen=True)
class CompiledNetlist:
    """Array view of a :class:`Netlist` for level-batched timing engines.

    Gates are stored **level-major**: gates of topological level 1 first
    (those fed only by primary inputs), then level 2, and so on, preserving
    insertion order within a level.  All per-gate arrays use this compiled
    order; ``level_starts`` delimits the levels, so each level is one
    contiguous slice of every array.

    Attributes
    ----------
    netlist:
        The source netlist (kept for name lookups and report building).
    net_names:
        Net name per net index (primary inputs first, then gate outputs in
        insertion order).
    gate_names, gate_cells:
        Instance and cell name per compiled gate index.
    gate_output_net:
        Net index driven by each gate.
    gate_level:
        Topological level of each gate (primary-input nets are level 0).
    fanin_nets, fanin_ptr:
        CSR fanin structure: gate ``g`` reads nets
        ``fanin_nets[fanin_ptr[g]:fanin_ptr[g + 1]]``, in pin order.
    level_starts:
        Compiled-gate index where each level begins, length ``n_levels + 1``.
    level_groups:
        Per level, ``(cell_name, local_gate_indices)`` pairs grouping the
        level's gates by cell type -- ``local_gate_indices`` index into the
        level's slice.  One batched timing query is issued per pair.
    driver_gate:
        Driving gate per net index (-1 for primary inputs).
    external_loads:
        External load capacitance per net index, farads.
    load_nets, load_pin_gate:
        Flattened (net, consumer gate) pin pairs for load accumulation,
        de-duplicated per gate (a gate tying one net to several of its pins
        presents its pin capacitance once, matching the loop engines).
    primary_input_nets, primary_output_nets:
        Net indices of the primary inputs / outputs, in declaration order.
    """

    netlist: Netlist
    net_names: Tuple[str, ...]
    gate_names: Tuple[str, ...]
    gate_cells: Tuple[str, ...]
    gate_output_net: np.ndarray
    gate_level: np.ndarray
    fanin_nets: np.ndarray
    fanin_ptr: np.ndarray
    level_starts: np.ndarray
    level_groups: Tuple[Tuple[Tuple[str, np.ndarray], ...], ...]
    driver_gate: np.ndarray
    external_loads: np.ndarray
    load_nets: np.ndarray
    load_pin_gate: np.ndarray
    primary_input_nets: np.ndarray
    primary_output_nets: np.ndarray

    @property
    def n_nets(self) -> int:
        """Number of nets."""
        return len(self.net_names)

    @property
    def n_gates(self) -> int:
        """Number of gates."""
        return len(self.gate_names)

    @property
    def n_levels(self) -> int:
        """Number of topological levels (excluding the primary-input level 0)."""
        return len(self.level_starts) - 1

    @property
    def nbytes(self) -> int:
        """Approximate footprint, sized without walking the object graph.

        The array buffers, one int64 per gate for ``level_groups`` (whose
        index arrays partition the gates), and flat per-gate and per-net
        allowances for the name tuples; the ``"netlist_compile"`` cache
        charges each entry this figure.
        """
        arrays = sum(value.nbytes for value in vars(self).values()
                     if isinstance(value, np.ndarray))
        return (arrays + self.n_gates * (8 + _GATE_NAME_BYTES)
                + self.n_nets * _NET_NAME_BYTES)

    def level_worst_fanins(self, level: int, arrival: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Segment-reduce each gate's fanin arrivals over one level.

        ``arrival`` is indexed by net -- shape ``(n_nets,)`` for
        deterministic STA or ``(n_nets, n_seeds)`` for SSTA.  Returns
        ``(nets, worst, first)``: the level's concatenated fanin net
        indices, the worst (latest) arrival per gate, and the local index
        into ``nets`` of the first pin attaining it (matching Python
        ``max`` / ``np.argmax`` tie-breaking, seed-wise in the 2-D case).
        """
        start = int(self.level_starts[level])
        stop = int(self.level_starts[level + 1])
        fanin_lo = int(self.fanin_ptr[start])
        fanin_hi = int(self.fanin_ptr[stop])
        nets = self.fanin_nets[fanin_lo:fanin_hi]
        pointers = self.fanin_ptr[start:stop] - fanin_lo
        values = arrival[nets]
        worst = np.maximum.reduceat(values, pointers, axis=0)
        counts = np.diff(np.append(pointers, nets.size))
        index = np.arange(nets.size).reshape((-1,) + (1,) * (values.ndim - 1))
        candidates = np.where(values == np.repeat(worst, counts, axis=0),
                              index, nets.size)
        first = np.minimum.reduceat(candidates, pointers, axis=0)
        # A NaN arrival matches nothing (NaN != NaN), leaving the sentinel;
        # clamp so the gather stays in bounds and the NaN propagates to the
        # gate's arrival exactly as in the loop engines.
        first = np.minimum(first, nets.size - 1)
        return nets, worst, first

    def net_loads(self, input_caps_f: Mapping[str, float]) -> np.ndarray:
        """Total capacitive load per net index, in farads.

        ``input_caps_f`` maps cell name to input-pin capacitance.  The load
        of a net is its external load plus one pin capacitance per consumer
        gate connected to it -- computed for every net in one scatter-add
        instead of the per-net fanout walk of the naive engines.
        """
        pin_caps = np.array([float(input_caps_f[self.gate_cells[g]])
                             for g in self.load_pin_gate])
        loads = self.external_loads.copy()
        np.add.at(loads, self.load_nets, pin_caps)
        return loads


def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    """Build the :class:`CompiledNetlist` array view of a netlist.

    Levelizes with Kahn's algorithm (detecting combinational loops and
    driverless nets along the way), orders gates level-major, and prepares
    the CSR fanin plus load-accumulation index arrays.
    """
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

    # Kahn levelization over gates: a gate's level is one more than the
    # worst level of its fanin nets; primary-input nets sit at level 0.
    gate_pos = {gate.name: index for index, gate in enumerate(gates)}
    driver_names = [netlist._driver_of.get(name) for name in net_index]
    driver_pos = [gate_pos[name] if name is not None else -1
                  for name in driver_names]
    net_of_gate = [net_index[gate.output_net] for gate in gates]
    indegree = np.zeros(len(gates), dtype=np.int64)
    consumer_lists: List[List[int]] = [[] for _ in gates]
    for position, gate in enumerate(gates):
        for net in gate.input_nets:
            driver = driver_pos[net_index[net]]
            if driver >= 0:
                indegree[position] += 1
                consumer_lists[driver].append(position)

    gate_level = np.zeros(len(gates), dtype=np.int64)
    ready = [position for position in range(len(gates)) if indegree[position] == 0]
    net_level = np.zeros(len(net_index), dtype=np.int64)
    processed = 0
    order: List[int] = []
    while ready:
        next_ready: List[int] = []
        for position in ready:
            gate = gates[position]
            level = 1 + max(net_level[net_index[net]] for net in gate.input_nets)
            gate_level[position] = level
            net_level[net_of_gate[position]] = level
            order.append(position)
            processed += 1
            for consumer in consumer_lists[position]:
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    next_ready.append(consumer)
        ready = next_ready
    if processed != len(gates):
        raise ValueError(f"netlist {netlist.name!r} contains a combinational loop")

    # Level-major compiled order, insertion order within a level.
    compiled_order = sorted(range(len(gates)),
                            key=lambda position: (gate_level[position], position))
    gate_names: List[str] = []
    gate_cells: List[str] = []
    output_net = np.empty(len(gates), dtype=np.int64)
    fanin_nets: List[int] = []
    fanin_ptr = np.zeros(len(gates) + 1, dtype=np.int64)
    load_nets: List[int] = []
    load_pin_gate: List[int] = []
    compiled_level = np.empty(len(gates), dtype=np.int64)
    for compiled_index, position in enumerate(compiled_order):
        gate = gates[position]
        gate_names.append(gate.name)
        gate_cells.append(gate.cell_name)
        output_net[compiled_index] = net_index[gate.output_net]
        compiled_level[compiled_index] = gate_level[position]
        fanin_nets.extend(net_index[net] for net in gate.input_nets)
        fanin_ptr[compiled_index + 1] = len(fanin_nets)
        for net in dict.fromkeys(gate.input_nets):
            load_nets.append(net_index[net])
            load_pin_gate.append(compiled_index)

    n_levels = int(compiled_level[-1]) if len(gates) else 0
    level_starts = np.searchsorted(compiled_level, np.arange(1, n_levels + 1))
    level_starts = np.append(level_starts, len(gates)).astype(np.int64)

    level_groups: List[Tuple[Tuple[str, np.ndarray], ...]] = []
    for level in range(n_levels):
        start, stop = int(level_starts[level]), int(level_starts[level + 1])
        by_cell: Dict[str, List[int]] = {}
        for local, compiled_index in enumerate(range(start, stop)):
            by_cell.setdefault(gate_cells[compiled_index], []).append(local)
        level_groups.append(tuple(
            (cell, np.asarray(indices, dtype=np.int64))
            for cell, indices in by_cell.items()))

    driver_gate = np.full(len(net_index), -1, dtype=np.int64)
    driver_gate[output_net] = np.arange(len(gates))
    external_loads = np.zeros(len(net_index))
    for net, capacitance in netlist._output_loads.items():
        if net in net_index:
            external_loads[net_index[net]] = capacitance

    return CompiledNetlist(
        netlist=netlist,
        net_names=tuple(net_index),
        gate_names=tuple(gate_names),
        gate_cells=tuple(gate_cells),
        gate_output_net=output_net,
        gate_level=compiled_level,
        fanin_nets=np.asarray(fanin_nets, dtype=np.int64),
        fanin_ptr=fanin_ptr,
        level_starts=level_starts,
        level_groups=tuple(level_groups),
        driver_gate=driver_gate,
        external_loads=external_loads,
        load_nets=np.asarray(load_nets, dtype=np.int64),
        load_pin_gate=np.asarray(load_pin_gate, dtype=np.int64),
        primary_input_nets=np.asarray([net_index[net] for net in pis],
                                      dtype=np.int64),
        primary_output_nets=np.asarray(
            [net_index[net] for net in netlist.primary_outputs], dtype=np.int64),
    )


# ----------------------------------------------------------------------
# Benchmark generators
# ----------------------------------------------------------------------
def inverter_chain(n_stages: int, cell_name: str = "INV_X1",
                   load_f: float = 2e-15) -> Netlist:
    """A chain of ``n_stages`` inverters from net ``in`` to net ``out``."""
    if n_stages < 1:
        raise ValueError("the chain needs at least one stage")
    netlist = Netlist("inv_chain", ["in"], ["out"])
    previous = "in"
    for stage in range(n_stages):
        output = "out" if stage == n_stages - 1 else f"n{stage + 1}"
        netlist.add_gate(Gate(name=f"u{stage + 1}", cell_name=cell_name,
                              input_nets=(previous,), output_net=output))
        previous = output
    netlist.set_output_load("out", load_f)
    netlist.validate()
    return netlist


def nand_nor_tree(n_leaves: int = 8, load_f: float = 2e-15) -> Netlist:
    """A balanced reduction tree alternating NAND2 and NOR2 levels."""
    if n_leaves < 2 or (n_leaves & (n_leaves - 1)) != 0:
        raise ValueError("n_leaves must be a power of two and at least 2")
    inputs = [f"in{i}" for i in range(n_leaves)]
    netlist = Netlist("nand_nor_tree", inputs, ["out"])
    level_nets = list(inputs)
    level = 0
    gate_index = 0
    while len(level_nets) > 1:
        cell = "NAND2_X1" if level % 2 == 0 else "NOR2_X1"
        next_nets = []
        for pair_start in range(0, len(level_nets), 2):
            gate_index += 1
            is_root = len(level_nets) == 2
            output = "out" if is_root else f"t{level}_{pair_start // 2}"
            netlist.add_gate(Gate(name=f"g{gate_index}", cell_name=cell,
                                  input_nets=(level_nets[pair_start],
                                              level_nets[pair_start + 1]),
                                  output_net=output))
            next_nets.append(output)
        level_nets = next_nets
        level += 1
    netlist.set_output_load("out", load_f)
    netlist.validate()
    return netlist


def c17_benchmark(load_f: float = 2e-15) -> Netlist:
    """The ISCAS-85 C17 benchmark (six NAND2 gates, five inputs, two outputs)."""
    netlist = Netlist("c17", ["N1", "N2", "N3", "N6", "N7"], ["N22", "N23"])
    connections = [
        ("g10", ("N1", "N3"), "N10"),
        ("g11", ("N3", "N6"), "N11"),
        ("g16", ("N2", "N11"), "N16"),
        ("g19", ("N11", "N7"), "N19"),
        ("g22", ("N10", "N16"), "N22"),
        ("g23", ("N16", "N19"), "N23"),
    ]
    for name, inputs, output in connections:
        netlist.add_gate(Gate(name=name, cell_name="NAND2_X1",
                              input_nets=inputs, output_net=output))
    netlist.set_output_load("N22", load_f)
    netlist.set_output_load("N23", load_f)
    netlist.validate()
    return netlist

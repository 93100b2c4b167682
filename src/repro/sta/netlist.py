"""Gate-level netlists, their compiled form, and benchmark circuit generators.

A netlist is a directed acyclic graph of gate instances connected by named
nets.  Every net has at most one driver (a gate output or a primary input),
which :meth:`Netlist.add_gate` enforces; undriven nets and combinational
loops are rejected by :meth:`Netlist.validate` / :meth:`Netlist.compile`,
not at construction.  Three generators
provide the circuits used by the examples and tests: an inverter chain (the
classic ring-oscillator-style delay line), a balanced NAND/NOR reduction
tree, and the ISCAS-85 C17 benchmark.

:class:`CompiledNetlist` is the array form the STA/SSTA analyzers run on:
nets and gates are integer-indexed, the DAG is levelized (gates stored
level-major so each level is a contiguous slice), each gate carries a cell
index and a row of the padded ``(n_gates, max_fanin)`` fanin matrix, and
every net's capacitive load reduces to one scatter-add over the fanin pins.
:func:`compile_netlist` builds it with array operations -- frontier
levelization over CSR consumer arrays and a stable argsort into level-major
order -- and its footprint (:attr:`CompiledNetlist.nbytes`) is sized from
the arrays without walking the object graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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

#: Name allowance of :attr:`CompiledNetlist.nbytes`: a gate's instance name
#: and a net's name, at about eight characters each.
_NAME_BYTES = 8


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

    def validate(self) -> None:
        """Check that every net read has a driver and the gates form a DAG.

        Runs :meth:`compile`, whose array levelization raises ``ValueError``
        for an undriven gate input or primary output and for a combinational
        loop.  The compilation is cached like any other :meth:`compile`
        call, so an analyzer built next on the unchanged netlist reuses it.
        """
        self.compile()


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
    gate_names:
        Instance name per compiled gate index.
    cell_names:
        The distinct cell names, in order of first use in the netlist.
    gate_cell:
        Index into ``cell_names`` per compiled gate.
    gate_output_net:
        Net index driven by each gate.
    gate_level:
        Topological level of each gate (primary-input nets are level 0).
    fanin_matrix:
        Padded ``(n_gates, max_fanin)`` fanin nets: row ``g`` holds the
        nets read by gate ``g`` in pin order, and its spare slots hold the
        sentinel net index ``n_nets``.  The analyzers keep one extra net row
        for the sentinel that always reads ``-inf``, so a spare slot never
        wins a worst-fanin search.
    level_starts:
        Compiled-gate index where each level begins, length ``n_levels + 1``.
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
    cell_names: Tuple[str, ...]
    gate_cell: np.ndarray
    gate_output_net: np.ndarray
    gate_level: np.ndarray
    fanin_matrix: np.ndarray
    level_starts: np.ndarray
    driver_gate: np.ndarray
    external_loads: np.ndarray
    load_nets: np.ndarray
    load_pin_gate: np.ndarray
    primary_input_nets: np.ndarray
    primary_output_nets: np.ndarray

    @property
    def n_nets(self) -> int:
        """Number of nets (the fanin sentinel excluded)."""
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

        The array buffers plus a flat allowance per gate and per net name;
        the ``"netlist_compile"`` cache charges each entry this figure.
        """
        arrays = sum(value.nbytes for value in vars(self).values()
                     if isinstance(value, np.ndarray))
        return arrays + (self.n_gates + self.n_nets) * _NAME_BYTES

    def level_worst_fanins(self, level: int, arrival: np.ndarray,
                           carried: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """Each gate's latest fanin arrival over one level, and its pin's value.

        ``arrival`` and ``carried`` are indexed by net, include the
        sentinel row and share one shape -- ``(n_nets + 1,)`` for
        deterministic STA or ``(n_nets + 1, n_seeds)`` for SSTA.  Returns
        ``(worst, picked)``: the worst (latest) arrival per gate, and
        ``carried`` at the first pin attaining it, seed-wise in the 2-D
        case.  A running maximum over the padded slots: a strict ``>``
        keeps the first pin on ties and on NaN, so the pick always comes
        from one of the gate's own pins, while ``np.maximum`` carries a NaN
        arrival through to the gate.
        """
        fanins = self.fanin_matrix[self.level_starts[level]:
                                   self.level_starts[level + 1]]
        worst = arrival[fanins[:, 0]]
        picked = carried[fanins[:, 0]]
        for slot in range(1, fanins.shape[1]):
            nets = fanins[:, slot]
            candidate = arrival[nets]
            picked = np.where(candidate > worst, carried[nets], picked)
            np.maximum(worst, candidate, out=worst)
        return worst, picked

    def net_loads(self, input_caps_f: Mapping[str, float]) -> np.ndarray:
        """Total capacitive load per net index, in farads.

        ``input_caps_f`` maps cell name to input-pin capacitance.  The load
        of a net is its external load plus one pin capacitance per consumer
        gate connected to it -- computed for every net in one scatter-add
        instead of the per-net fanout walk of the naive engines.
        """
        cell_caps = np.array([float(input_caps_f[cell])
                              for cell in self.cell_names])
        loads = self.external_loads.copy()
        np.add.at(loads, self.load_nets,
                  cell_caps[self.gate_cell[self.load_pin_gate]])
        return loads


def _frontier_levels(pin_gate: np.ndarray, pin_driver: np.ndarray,
                     n_gates: int) -> np.ndarray:
    """Topological level of every gate by frontier levelization.

    ``pin_gate`` and ``pin_driver`` give each fanin pin's consumer and
    driving gate (negative for a primary input).  Each round releases the
    gates whose last driven pin belongs to the previous round's frontier,
    walking CSR consumer arrays, so a gate's level is one more than the
    worst level of its fanin nets (primary inputs at level 0).  Gates on or
    behind a combinational loop are never released and keep level 0.
    """
    driven = pin_driver >= 0
    consumers = pin_gate[driven][np.argsort(pin_driver[driven], kind="stable")]
    consumer_ptr = np.zeros(n_gates + 1, dtype=np.int64)
    np.cumsum(np.bincount(pin_driver[driven], minlength=n_gates),
              out=consumer_ptr[1:])
    pending = np.bincount(pin_gate[driven], minlength=n_gates)
    level = np.zeros(n_gates, dtype=np.int64)
    frontier = np.flatnonzero(pending == 0)
    depth = 0
    while frontier.size:
        depth += 1
        level[frontier] = depth
        starts = consumer_ptr[frontier]
        lengths = consumer_ptr[frontier + 1] - starts
        ends = np.cumsum(lengths)
        released = consumers[np.repeat(starts - ends + lengths, lengths)
                             + np.arange(ends[-1])]
        candidates, hits = np.unique(released, return_counts=True)
        pending[candidates] -= hits
        frontier = candidates[pending[candidates] == 0]
    return level


def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    """Build the :class:`CompiledNetlist` array view of a netlist.

    Every step is an array operation over the flattened fanin pins:
    frontier levelization over CSR consumer arrays (which also detects
    combinational loops), a stable argsort into level-major order, and the
    padded fanin matrix plus the load-accumulation index arrays.  Only the
    name lookups walk the gates in Python.
    """
    gates = netlist.gates
    n_gates = len(gates)
    net_names = (*netlist.primary_inputs, *(gate.output_net for gate in gates))
    n_inputs, n_nets = len(netlist.primary_inputs), len(net_names)
    net_index = dict(zip(net_names, range(n_nets)))

    fanin_lists = [gate.input_nets for gate in gates]
    counts = np.fromiter(map(len, fanin_lists), dtype=np.int64, count=n_gates)
    pin_ptr = np.zeros(n_gates + 1, dtype=np.int64)
    np.cumsum(counts, out=pin_ptr[1:])
    pins = np.fromiter(map(net_index.get,
                           itertools.chain.from_iterable(fanin_lists),
                           itertools.repeat(-1)),
                       dtype=np.int64, count=int(pin_ptr[-1]))
    pin_gate = np.repeat(np.arange(n_gates), counts)
    if np.any(pins < 0):
        first = int(np.argmax(pins < 0))
        gate = int(pin_gate[first])
        net = fanin_lists[gate][first - pin_ptr[gate]]
        raise ValueError(
            f"net {net!r} (input of {gates[gate].name}) has no driver")
    for net in netlist.primary_outputs:
        if net not in net_index:
            raise ValueError(f"primary output {net!r} has no driver")

    # Gate outputs are nets n_inputs + position, so a pin's driving gate is
    # its net minus n_inputs.
    level = _frontier_levels(pin_gate, pins - n_inputs, n_gates)
    if np.any(level == 0):
        raise ValueError(f"netlist {netlist.name!r} contains a combinational loop")

    # Level-major compiled order, insertion order within a level.
    order = np.argsort(level, kind="stable")
    gate_level = level[order]
    n_levels = int(gate_level[-1]) if n_gates else 0
    level_starts = np.append(
        np.searchsorted(gate_level, np.arange(1, n_levels + 1)),
        n_gates).astype(np.int64)

    cells = [gate.cell_name for gate in gates]
    cell_names = tuple(dict.fromkeys(cells))
    cell_index = {cell: index for index, cell in enumerate(cell_names)}
    gate_cell = np.fromiter(map(cell_index.__getitem__, cells),
                            dtype=np.int64, count=n_gates)[order]

    fanin_matrix = np.full((n_gates, int(counts.max(initial=0))), n_nets,
                           dtype=np.int64)
    fanin_matrix[pin_gate, np.arange(pins.size) - pin_ptr[pin_gate]] = pins
    fanin_matrix = fanin_matrix[order]
    # A pin loads its net once per gate: the first slot carrying each net.
    first_use = fanin_matrix < n_nets
    for slot in range(1, fanin_matrix.shape[1]):
        first_use[:, slot] &= np.all(
            fanin_matrix[:, :slot] != fanin_matrix[:, slot:slot + 1], axis=1)
    load_pin_gate, load_slot = np.nonzero(first_use)

    gate_output_net = n_inputs + order
    driver_gate = np.full(n_nets, -1, dtype=np.int64)
    driver_gate[gate_output_net] = np.arange(n_gates)
    external_loads = np.zeros(n_nets)
    for net, capacitance in netlist._output_loads.items():
        if net in net_index:
            external_loads[net_index[net]] = capacitance

    names = [gate.name for gate in gates]
    return CompiledNetlist(
        netlist=netlist,
        net_names=net_names,
        gate_names=tuple(map(names.__getitem__, order.tolist())),
        cell_names=cell_names,
        gate_cell=gate_cell,
        gate_output_net=gate_output_net,
        gate_level=gate_level,
        fanin_matrix=fanin_matrix,
        level_starts=level_starts,
        driver_gate=driver_gate,
        external_loads=external_loads,
        load_nets=fanin_matrix[load_pin_gate, load_slot],
        load_pin_gate=load_pin_gate,
        primary_input_nets=np.arange(n_inputs, dtype=np.int64),
        primary_output_nets=np.array(
            [net_index[net] for net in netlist.primary_outputs],
            dtype=np.int64),
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

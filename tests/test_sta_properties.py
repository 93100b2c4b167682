"""Property tests of the array-built netlist compile and level propagation.

* The array compile (:func:`repro.sta.compile_netlist`) equals the per-gate
  Kahn oracle (:func:`oracles.sta.compile_loop`) field for field on random
  netlists: fanins of 1 to 4 pins, duplicate pins, gates added in any
  order -- and both reject combinational loops and driverless nets with the
  same message.
* Both analyzers give bit-identical reports on a table-backed view
  (:func:`repro.sta.timing_view_from_statistical`) and on callback-only
  views over the same characterizations, with and without a ``max_bytes``
  budget.
* The worst-fanin search picks the first pin among equal arrivals, and a
  gate's pick always comes from one of its own pins, NaN arrivals included.

Hypothesis runs derandomized with no example database, so Tier-1 stays
deterministic.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.sta import compile_loop

import repro.runtime as runtime
from repro import get_technology, make_cell
from repro.cells import reduce_cell_cached
from repro.characterization.input_space import InputCondition
from repro.core.statistical_flow import StatisticalCharacterization
from repro.sta import (
    CellTiming,
    MonteCarloSsta,
    StaticTimingAnalyzer,
    StatisticalTimingView,
    compile_netlist,
    timing_view_from_statistical,
)
from repro.sta.netlist import Gate, Netlist

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=40,
                    suppress_health_check=[HealthCheck.too_slow])

#: Input pins per cell: INV, NAND2, NAND3 and AOI22 shapes.
CELL_PINS = {"INV_X1": 1, "NAND2_X1": 2, "NAND3_X1": 3, "AOI22_X1": 4}
VDD = 0.9
N_SEEDS = 8


@st.composite
def netlists(draw, acyclic: bool = True) -> Netlist:
    """A random netlist over the four cell shapes, gates added in any order.

    With ``acyclic`` every gate reads primary inputs and earlier gates'
    outputs; otherwise a pin may read any other gate's output or a
    driverless net, so loops and missing drivers occur too.
    """
    inputs = [f"i{index}" for index in range(draw(st.integers(1, 4)))]
    n_gates = draw(st.integers(0, 14))
    outputs = [f"n{index}" for index in range(n_gates)]
    undriven = [] if acyclic else draw(st.sampled_from(
        [[], [], ["floating"]]))
    gates = []
    for index in range(n_gates):
        cell = draw(st.sampled_from(sorted(CELL_PINS)))
        pool = inputs + outputs[:index] if acyclic else (
            inputs + outputs[:index] + outputs[index + 1:] + undriven)
        pins = draw(st.lists(st.sampled_from(pool),
                             min_size=CELL_PINS[cell],
                             max_size=CELL_PINS[cell]))
        gates.append(Gate(f"g{index}", cell, tuple(pins), outputs[index]))
    primary_outputs = draw(st.lists(st.sampled_from(inputs + outputs
                                                    + undriven),
                                    min_size=1, max_size=4, unique=True))
    netlist = Netlist("prop", inputs, primary_outputs)
    for index in draw(st.permutations(range(n_gates))):
        netlist.add_gate(gates[index])
    for net in draw(st.lists(st.sampled_from(inputs + outputs), unique=True)):
        netlist.set_output_load(net, draw(st.floats(0.0, 5e-15)))
    return netlist


def assert_same_compile(actual, expected) -> None:
    for field in dataclasses.fields(expected):
        left = getattr(actual, field.name)
        right = getattr(expected, field.name)
        if isinstance(right, np.ndarray):
            assert left.dtype == right.dtype, field.name
            assert left.shape == right.shape, field.name
            np.testing.assert_array_equal(left, right, err_msg=field.name)
        else:
            assert left == right, field.name
    assert actual.nbytes == expected.nbytes


class TestArrayCompile:
    @PROPERTY
    @given(netlists())
    def test_equals_loop_oracle(self, netlist):
        assert_same_compile(compile_netlist(netlist), compile_loop(netlist))

    @PROPERTY
    @given(netlists(acyclic=False))
    def test_same_result_or_error_on_any_wiring(self, netlist):
        try:
            expected = compile_loop(netlist)
        except ValueError as error:
            with pytest.raises(ValueError) as caught:
                compile_netlist(netlist)
            assert str(caught.value) == str(error)
            return
        assert_same_compile(compile_netlist(netlist), expected)


# ----------------------------------------------------------------------
# Table-backed versus callback-only views
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def characterizations():
    technology = get_technology("n28_bulk")
    variation = technology.variation.sample(N_SEEDS, rng=5)
    rng = np.random.default_rng(11)
    base = np.array([0.45, 1.2, -0.2, 0.15])
    result = {}
    for cell_name in CELL_PINS:
        inverter = reduce_cell_cached(make_cell(cell_name), technology,
                                      variation=variation)
        result[cell_name] = StatisticalCharacterization(
            cell_name=cell_name, arc_name="prop_arc",
            delay_parameters=base + rng.normal(0.0, 0.03, (N_SEEDS, 4)),
            slew_parameters=base * 0.8 + rng.normal(0.0, 0.03, (N_SEEDS, 4)),
            inverter=inverter,
            fitting_conditions=(InputCondition(5e-12, 2e-15, VDD),),
            simulation_runs=0)
    return result


def callback_view(characterizations, batched: bool) -> StatisticalTimingView:
    """A view answering through per-cell callbacks only (no table)."""
    cells = {}
    for cell_name, char in characterizations.items():
        def callback(sin, cload, bound=char):
            condition = InputCondition(sin=sin, cload=cload, vdd=VDD)
            return bound.delay_samples(condition), bound.slew_samples(condition)

        def batch_callback(sins, cloads, bound=char):
            vdd = np.full(len(sins), VDD)
            return (bound.delay_samples_many(sins, cloads, vdd),
                    bound.slew_samples_many(sins, cloads, vdd))

        cells[cell_name] = CellTiming(
            cell_name=cell_name, input_cap_f=1.4e-15, callback=callback,
            batch_callback=batch_callback if batched else None)
    return StatisticalTimingView(vdd=VDD, cells=cells, n_seeds=N_SEEDS)


def assert_same_ssta(actual, expected) -> None:
    assert actual.critical_output == expected.critical_output
    np.testing.assert_array_equal(actual.delay_samples, expected.delay_samples)
    assert actual.criticality == expected.criticality
    assert actual.output_summaries.keys() == expected.output_summaries.keys()
    for net, summary in expected.output_summaries.items():
        for field in dataclasses.fields(summary):
            assert np.array_equal(
                np.asarray(getattr(actual.output_summaries[net], field.name)),
                np.asarray(getattr(summary, field.name)), equal_nan=True)


def assert_same_sta(actual, expected) -> None:
    assert actual.arrival_times == expected.arrival_times
    assert actual.transition_times == expected.transition_times
    assert actual.critical_output == expected.critical_output
    assert actual.critical_path == expected.critical_path


class TestViewParity:
    @PROPERTY
    @given(netlist=netlists(), budget=st.sampled_from([None, 1, 5000]),
           batched=st.booleans())
    def test_table_and_callback_views_agree(self, characterizations, netlist,
                                            budget, batched):
        table = timing_view_from_statistical(
            characterizations, {name: 1.4e-15 for name in CELL_PINS}, VDD)
        callbacks = callback_view(characterizations, batched)
        reference_ssta = MonteCarloSsta(netlist, callbacks).run()
        reference_sta = StaticTimingAnalyzer(netlist, callbacks).run()
        runtime.configure(max_bytes=budget)
        try:
            for view in (table, callbacks):
                assert_same_ssta(MonteCarloSsta(netlist, view).run(),
                                 reference_ssta)
                assert_same_sta(StaticTimingAnalyzer(netlist, view).run(),
                                reference_sta)
        finally:
            runtime.configure(max_bytes=None)


# ----------------------------------------------------------------------
# Worst-fanin search
# ----------------------------------------------------------------------
class TestWorstFanin:
    @PROPERTY
    @given(data=st.data(), n_seeds=st.sampled_from([0, 1, 5]))
    def test_first_pin_wins_and_pick_stays_in_gate(self, data, n_seeds):
        """One level of gates over the primary inputs, arrivals drawn from a
        few values (ties are common) plus NaN.  ``n_seeds == 0`` is the 1-D
        (deterministic STA) layout."""
        inputs = [f"i{index}" for index in range(4)]
        netlist = Netlist("level", inputs, ["n0"])
        for index in range(data.draw(st.integers(1, 8))):
            pins = data.draw(st.lists(st.sampled_from(inputs), min_size=1,
                                      max_size=4))
            netlist.add_gate(Gate(f"g{index}", "NAND2_X1", tuple(pins),
                                  f"n{index}"))
        compiled = netlist.compile()
        shape = (compiled.n_nets + 1,) + ((n_seeds,) if n_seeds else ())
        values = data.draw(st.lists(
            st.sampled_from([0.0, 1.0, 2.0, np.nan]),
            min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
        arrival = np.array(values).reshape(shape)
        arrival[compiled.n_nets] = -np.inf
        carried = np.arange(arrival.size).reshape(shape)

        worst, picked = compiled.level_worst_fanins(0, arrival, carried)
        for gate, fanins in enumerate(compiled.fanin_matrix):
            pins = fanins[fanins < compiled.n_nets]
            pin_arrivals = arrival[pins]             # (pins,) or (pins, S)
            np.testing.assert_array_equal(worst[gate],
                                          np.max(pin_arrivals, axis=0))
            first = np.argmax(pin_arrivals, axis=0)
            expected = carried[pins][first, ...] if not n_seeds else \
                carried[pins[first], np.arange(n_seeds)]
            finite = ~np.isnan(pin_arrivals).any(axis=0)
            # NaN-free: the first pin attaining the maximum (np.argmax).
            np.testing.assert_array_equal(picked[gate][finite],
                                          np.asarray(expected)[finite])
            # Always one of the gate's own pins, NaN arrivals included.
            assert np.all(np.isin(picked[gate], carried[pins]))

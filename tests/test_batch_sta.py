"""Batched-versus-loop equivalence suite for the STA/SSTA analyzers.

Property-style grid: every seeded synthetic topology (chain, balanced tree,
random layered DAGs across fanin windows) is analyzed by the level-batched
:class:`~repro.sta.analysis.StaticTimingAnalyzer` and
:class:`~repro.sta.ssta.MonteCarloSsta` and by the per-gate loop oracles
(:mod:`oracles.sta`), and the full reports -- arrivals, slews, critical
path, criticality, per-seed distributions -- must agree to
``rtol <= 1e-12``.  Also covers levelization correctness of
:class:`~repro.sta.netlist.CompiledNetlist`, the shared net-load vector, the
batched timing-view query paths, and the vectorized per-seed prediction of
:class:`~repro.core.statistical_flow.StatisticalCharacterization`.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles.sta import ssta_loop, sta_loop

from repro.characterization.input_space import InputCondition
from repro.cells import reduce_cell_cached
from repro.core.statistical_flow import StatisticalCharacterization
from repro.sta import (
    CellTiming,
    MonteCarloSsta,
    StaticTimingAnalyzer,
    StatisticalTimingView,
    TimingView,
    c17_benchmark,
    compile_netlist,
    inverter_chain,
    nand_nor_tree,
    random_layered_dag,
    timing_view_from_statistical,
)
from repro.sta.netlist import Gate, Netlist

RTOL = 1e-12

CELL_NAMES = ("INV_X1", "NAND2_X1", "NOR2_X1")

#: Per-cell slope structure so worst-input selection actually matters:
#: delay and slew both depend on input slew and load, differently per cell.
_CELL_GAIN = {"INV_X1": 1.0, "NAND2_X1": 1.35, "NOR2_X1": 1.7}


def _nominal(cell, input_slew_s, load_cap_f):
    gain = _CELL_GAIN[cell]
    delay = gain * (8e-12 + 2.2e3 * load_cap_f + 0.15 * input_slew_s)
    slew = gain * (3e-12 + 1.1e3 * load_cap_f + 0.08 * input_slew_s)
    return delay, slew


def make_nominal_view() -> TimingView:
    cells = {}
    for name in CELL_NAMES:
        def callback(input_slew_s, load_cap_f, cell=name):
            return _nominal(cell, input_slew_s, load_cap_f)
        cells[name] = CellTiming(cell_name=name, input_cap_f=1.2e-15,
                                 callback=callback)
    return TimingView(vdd=0.9, cells=cells)


def make_statistical_view(n_seeds: int, rng_seed: int = 7
                          ) -> StatisticalTimingView:
    """Per-seed view whose delay AND slew spreads differ per cell, so each
    seed's argmax input (and its slew) genuinely varies across seeds."""
    rng = np.random.default_rng(rng_seed)
    delay_offsets = {name: rng.normal(0.0, 1.5e-12, n_seeds)
                     for name in CELL_NAMES}
    slew_offsets = {name: rng.normal(0.0, 0.6e-12, n_seeds)
                    for name in CELL_NAMES}

    cells = {}
    for name in CELL_NAMES:
        def callback(input_slew_s, load_cap_f, cell=name):
            delay, slew = _nominal(cell, input_slew_s, load_cap_f)
            return delay + delay_offsets[cell], slew + slew_offsets[cell]
        cells[name] = CellTiming(cell_name=name, input_cap_f=1.2e-15,
                                 callback=callback)
    return StatisticalTimingView(vdd=0.9, cells=cells, n_seeds=n_seeds)


def equivalence_netlists():
    yield inverter_chain(12)
    yield nand_nor_tree(16)
    yield c17_benchmark()
    for seed in (1, 2):
        for window in (1, 3):
            yield random_layered_dag(width=7, depth=6, window=window,
                                     rng=seed, name=f"dag_s{seed}_w{window}")


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
class TestCompiledNetlist:
    @pytest.mark.parametrize("netlist", equivalence_netlists(),
                             ids=lambda n: n.name)
    def test_levelization(self, netlist):
        compiled = netlist.compile()
        # Levels partition the gates and are contiguous, in ascending order.
        assert compiled.level_starts[0] == 0
        assert compiled.level_starts[-1] == compiled.n_gates
        assert np.all(np.diff(compiled.gate_level) >= 0)
        # Every gate's level is exactly one more than its worst fanin net's
        # level (primary inputs at level 0).
        net_level = {name: 0 for name in netlist.primary_inputs}
        for index, name in enumerate(compiled.gate_names):
            gate = netlist.gate(name)
            level = 1 + max(net_level[net] for net in gate.input_nets)
            assert level == compiled.gate_level[index]
            net_level[gate.output_net] = level

    def test_compile_is_cached_and_invalidated(self):
        netlist = inverter_chain(3)
        first = netlist.compile()
        assert netlist.compile() is first
        netlist.set_output_load("out", 5e-15)
        assert netlist.compile() is not first

    def test_cache_entry_size_tracks_default_sizeof(self):
        """The compile cache sizes an entry from its arrays and counts
        (no object-graph walk), within 2x of the generic estimator."""
        from repro.runtime import clear_all_caches
        from repro.runtime.cache import default_sizeof
        from repro.sta.netlist import _COMPILE_CACHE

        netlist = random_layered_dag(100, 50, rng=3)
        clear_all_caches()
        compiled = netlist.compile()
        assert compiled.n_gates == 5000
        walked = default_sizeof(compiled)
        assert walked / 2 <= compiled.nbytes <= 2 * walked
        assert _COMPILE_CACHE.stats().current_bytes == compiled.nbytes
        clear_all_caches()

    def test_loop_detected(self):
        netlist = Netlist("loop", ["a"], ["z"])
        netlist.add_gate(Gate("g1", "NAND2_X1", ("a", "y"), "z"))
        netlist.add_gate(Gate("g2", "INV_X1", ("z",), "y"))
        with pytest.raises(ValueError, match="loop"):
            netlist.compile()

    def test_missing_driver_detected(self):
        netlist = Netlist("x", ["a"], ["z"])
        netlist.add_gate(Gate("g1", "INV_X1", ("floating",), "z"))
        with pytest.raises(ValueError, match="no driver"):
            netlist.compile()

    @pytest.mark.parametrize("netlist", equivalence_netlists(),
                             ids=lambda n: n.name)
    def test_net_loads_match_fanout_walk(self, netlist):
        view = make_nominal_view()
        compiled = netlist.compile()
        loads = compiled.net_loads({name: view.input_capacitance(name)
                                    for name in CELL_NAMES})
        for index, net in enumerate(compiled.net_names):
            expected = netlist.external_load(net) + sum(
                view.input_capacitance(gate.cell_name)
                for gate in netlist.fanout_gates(net))
            assert loads[index] == pytest.approx(expected, rel=1e-15)

    def test_duplicate_pin_counted_once(self):
        netlist = Netlist("dup", ["a"], ["z"])
        netlist.add_gate(Gate("g1", "NAND2_X1", ("a", "a"), "z"))
        compiled = netlist.compile()
        loads = compiled.net_loads({"NAND2_X1": 2e-15})
        assert loads[0] == pytest.approx(2e-15)


# ----------------------------------------------------------------------
# Engine equivalence
# ----------------------------------------------------------------------
def run_sta(netlist, view, **kwargs):
    return StaticTimingAnalyzer(netlist, view, **kwargs).run()


def run_ssta(netlist, view, **kwargs):
    return MonteCarloSsta(netlist, view, **kwargs).run()


class TestStaEquivalence:
    @pytest.mark.parametrize("netlist", equivalence_netlists(),
                             ids=lambda n: n.name)
    def test_reports_agree(self, netlist):
        view = make_nominal_view()
        loop = sta_loop(netlist, view)
        batched = StaticTimingAnalyzer(netlist, view).run()
        assert batched.critical_output == loop.critical_output
        assert batched.critical_path == loop.critical_path
        assert batched.critical_delay == pytest.approx(loop.critical_delay,
                                                       rel=RTOL)
        assert set(batched.arrival_times) == set(loop.arrival_times)
        for net, arrival in loop.arrival_times.items():
            assert batched.arrival_times[net] == pytest.approx(arrival, rel=RTOL)
            assert batched.transition_times[net] == pytest.approx(
                loop.transition_times[net], rel=RTOL)

    def test_primary_input_arrival_shifts_all_outputs(self):
        netlist = nand_nor_tree(8)
        view = make_nominal_view()
        for analyze in (sta_loop, run_sta):
            base = analyze(netlist, view)
            shifted = analyze(netlist, view, primary_input_arrival=7e-12)
            assert shifted.critical_delay == pytest.approx(
                base.critical_delay + 7e-12, rel=1e-12)
            assert shifted.critical_path == base.critical_path

    def test_nan_arrivals_keep_drive_pin_within_gate(self):
        """All-NaN arrivals tie every fanin, so each gate drives from its
        first pin -- never from a pin of another gate in its level."""
        netlist = random_layered_dag(6, 4, rng=3)
        view = make_nominal_view()
        loop = sta_loop(netlist, view, primary_input_arrival=np.nan)
        batched = run_sta(netlist, view, primary_input_arrival=np.nan)
        assert batched.transition_times == loop.transition_times
        assert batched.critical_path == loop.critical_path
        assert batched.critical_output == loop.critical_output
        assert all(np.isnan(arrival)
                   for arrival in batched.arrival_times.values())

    @pytest.mark.parametrize("analyzer", (StaticTimingAnalyzer, MonteCarloSsta))
    @pytest.mark.parametrize("slew", (np.nan, np.inf))
    def test_non_finite_input_slew_rejected(self, analyzer, slew):
        view = (make_nominal_view() if analyzer is StaticTimingAnalyzer
                else make_statistical_view(4))
        with pytest.raises(ValueError, match="finite"):
            analyzer(c17_benchmark(), view, primary_input_slew=slew)

    def test_invalid_engine_rejected(self):
        # One propagation path: the retired engine switch is not accepted.
        with pytest.raises(TypeError, match="engine"):
            StaticTimingAnalyzer(inverter_chain(2), make_nominal_view(),
                                 engine="loop")
        with pytest.raises(TypeError, match="engine"):
            MonteCarloSsta(inverter_chain(2), make_statistical_view(4),
                           engine="loop")

    def test_netlist_mutation_after_construction_is_seen(self):
        netlist = inverter_chain(3)
        view = make_nominal_view()
        analyzer = StaticTimingAnalyzer(netlist, view)
        before = analyzer.run().critical_delay
        netlist.set_output_load("out", 9e-15)
        after = analyzer.run().critical_delay
        fresh = StaticTimingAnalyzer(netlist, view).run()
        assert fresh.critical_delay == pytest.approx(
            sta_loop(netlist, view).critical_delay, rel=RTOL)
        assert after == fresh.critical_delay
        assert after > before
        assert analyzer.net_load("out") == pytest.approx(9e-15)

    def test_refresh_rechecks_view_coverage(self):
        netlist = inverter_chain(2)
        analyzer = StaticTimingAnalyzer(netlist, make_nominal_view())
        netlist.add_gate(Gate("gx", "XOR2_X1", ("out",), "uncovered"))
        with pytest.raises(KeyError, match="does not cover"):
            analyzer.run()

    def test_batched_on_statistical_view_matches_loop(self):
        netlist = c17_benchmark()
        view = make_statistical_view(n_seeds=32)
        loop = sta_loop(netlist, view)
        batched = StaticTimingAnalyzer(netlist, view).run()
        assert batched.critical_delay == pytest.approx(loop.critical_delay,
                                                       rel=RTOL)
        assert batched.critical_path == loop.critical_path


class TestSstaEquivalence:
    @pytest.mark.parametrize("netlist", equivalence_netlists(),
                             ids=lambda n: n.name)
    @pytest.mark.parametrize("n_seeds", (4, 32))
    def test_reports_agree(self, netlist, n_seeds):
        view = make_statistical_view(n_seeds=n_seeds)
        loop = ssta_loop(netlist, view)
        batched = MonteCarloSsta(netlist, view).run()
        assert batched.critical_output == loop.critical_output
        np.testing.assert_allclose(batched.delay_samples, loop.delay_samples,
                                   rtol=RTOL)
        assert batched.summary.mean == pytest.approx(loop.summary.mean, rel=RTOL)
        assert batched.summary.std == pytest.approx(loop.summary.std, rel=RTOL,
                                                    abs=1e-30)
        assert set(batched.output_summaries) == set(loop.output_summaries)
        for net, summary in loop.output_summaries.items():
            assert batched.output_summaries[net].mean == pytest.approx(
                summary.mean, rel=RTOL)
        assert batched.criticality == loop.criticality
        assert sum(loop.criticality.values()) == pytest.approx(1.0)

    def test_primary_input_arrival_threads_through_both_engines(self):
        # Both engines: the level-batched analyzer and the loop oracle.
        netlist = c17_benchmark()
        view = make_statistical_view(n_seeds=16)
        for analyze in (ssta_loop, run_ssta):
            base = analyze(netlist, view)
            shifted = analyze(netlist, view, primary_input_arrival=11e-12)
            np.testing.assert_allclose(shifted.delay_samples,
                                       base.delay_samples + 11e-12, rtol=1e-12)

    def test_per_seed_worst_input_slew_selection(self):
        """The driving slew must come from each seed's own argmax input.

        Two parallel chains with very different output slews converge on one
        NAND2; the per-seed offsets make either chain the latest input
        depending on the seed.  The legacy behaviour (one global worst index
        from mean arrivals for all seeds) produces a measurably different
        delay, so this guards the fix in both engines.
        """
        netlist = Netlist("select", ["a", "b"], ["z"])
        netlist.add_gate(Gate("u1", "INV_X1", ("a",), "p"))
        netlist.add_gate(Gate("u2", "NOR2_X1", ("b", "b"), "q"))
        netlist.add_gate(Gate("u3", "NAND2_X1", ("p", "q"), "z"))
        netlist.set_output_load("z", 2e-15)
        netlist.validate()

        n_seeds = 64
        rng = np.random.default_rng(42)
        # The INV chain gets a mean offset matching the NOR chain's larger
        # base delay, so the two inputs arrive in a dead heat on average and
        # per-seed noise flips the winner; their slews differ by the cell
        # gain (1.0 vs 1.7).
        inv_delay, _ = _nominal("INV_X1", 5e-12, 1.2e-15)
        nor_delay, _ = _nominal("NOR2_X1", 5e-12, 1.2e-15)
        offsets = {"INV_X1": rng.normal(nor_delay - inv_delay, 2e-12, n_seeds),
                   "NOR2_X1": rng.normal(0.0, 2e-12, n_seeds),
                   "NAND2_X1": np.zeros(n_seeds)}
        cells = {}
        for name in CELL_NAMES:
            def callback(input_slew_s, load_cap_f, cell=name):
                delay, slew = _nominal(cell, input_slew_s, load_cap_f)
                return delay + offsets[cell], np.full(n_seeds, slew)
            cells[name] = CellTiming(cell_name=name, input_cap_f=1.2e-15,
                                     callback=callback)
        view = StatisticalTimingView(vdd=0.9, cells=cells, n_seeds=n_seeds)

        loop = ssta_loop(netlist, view)
        batched = MonteCarloSsta(netlist, view).run()
        np.testing.assert_allclose(batched.delay_samples, loop.delay_samples,
                                   rtol=RTOL)

        # Reconstruct the legacy single-global-index behaviour by hand and
        # check the analyzer and the oracle deliberately deviate from it.
        analyzer = MonteCarloSsta(netlist, view)
        arrivals = {"a": np.zeros(n_seeds), "b": np.zeros(n_seeds)}
        slews = {"a": np.full(n_seeds, 5e-12), "b": np.full(n_seeds, 5e-12)}
        for gate_name in ("u1", "u2"):
            gate = netlist.gate(gate_name)
            load = max(analyzer.net_load(gate.output_net), 1e-17)
            delay, slew = view.gate_timing_samples(gate.cell_name,
                                                   slews[gate.input_nets[0]],
                                                   load)
            arrivals[gate.output_net] = arrivals[gate.input_nets[0]] + delay
            slews[gate.output_net] = slew
        stacked = np.stack([arrivals["p"], arrivals["q"]])
        global_index = int(np.argmax(stacked.mean(axis=1)))
        legacy_slew = slews[("p", "q")[global_index]]
        load = max(analyzer.net_load("z"), 1e-17)
        legacy_delay, _ = view.gate_timing_samples("NAND2_X1", legacy_slew, load)
        legacy = stacked.max(axis=0) + legacy_delay
        # Per-seed selection mixes both input slews, so the collapsed table
        # slew differs from the legacy single-input slew.
        assert not np.allclose(loop.delay_samples, legacy, rtol=1e-9, atol=0.0)


# ----------------------------------------------------------------------
# Batched view queries
# ----------------------------------------------------------------------
class TestBatchedViewQueries:
    def test_gate_timing_many_fallback_matches_scalar(self):
        view = make_nominal_view()
        slews = np.linspace(3e-12, 9e-12, 7)
        loads = np.linspace(1e-15, 6e-15, 7)
        delay, slew = view.gate_timing_many("NAND2_X1", slews, loads)
        for index in range(slews.size):
            d, s = view.gate_timing("NAND2_X1", float(slews[index]),
                                    float(loads[index]))
            assert delay[index] == d
            assert slew[index] == s

    def test_gate_timing_samples_many_fallback_matches_scalar(self):
        view = make_statistical_view(n_seeds=8)
        slews = np.linspace(3e-12, 9e-12, 5)
        loads = np.linspace(1e-15, 6e-15, 5)
        delay, slew = view.gate_timing_samples_many("NOR2_X1", slews, loads)
        assert delay.shape == (5, 8)
        for index in range(slews.size):
            d, s = view.gate_timing_samples("NOR2_X1", float(slews[index]),
                                            float(loads[index]))
            np.testing.assert_array_equal(delay[index], d)
            np.testing.assert_array_equal(slew[index], s)

    def test_samples_many_collapses_seedwise_slews(self):
        view = make_statistical_view(n_seeds=8)
        per_seed = np.linspace(3e-12, 9e-12, 3 * 8).reshape(3, 8)
        loads = np.full(3, 2e-15)
        delay, _ = view.gate_timing_samples_many("INV_X1", per_seed, loads)
        collapsed, _ = view.gate_timing_samples_many("INV_X1",
                                                     per_seed.mean(axis=1),
                                                     loads)
        np.testing.assert_allclose(delay, collapsed, rtol=1e-15)

    def test_length_mismatch_rejected(self):
        view = make_nominal_view()
        with pytest.raises(ValueError, match="match"):
            view.gate_timing_many("INV_X1", np.ones(3) * 1e-12, np.ones(2) * 1e-15)
        with pytest.raises(ValueError, match="match"):
            view.level_timing(np.zeros(3, dtype=np.int64), np.ones(2) * 1e-12,
                              np.ones(2) * 1e-15)

    def test_batch_callback_shape_checked(self):
        cells = {"INV_X1": CellTiming(
            "INV_X1", 1e-15, lambda s, c: (1e-12, 1e-12),
            batch_callback=lambda s, c: (np.ones(s.size + 1), np.ones(s.size + 1)))}
        view = TimingView(vdd=0.9, cells=cells)
        with pytest.raises(ValueError, match="expected"):
            view.gate_timing_many("INV_X1", np.ones(2) * 1e-12, np.ones(2) * 1e-15)


# ----------------------------------------------------------------------
# Vectorized statistical prediction (delay_samples_many / slew_samples_many)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def synthetic_characterization(tech28=None):
    from repro import get_technology, make_cell

    technology = get_technology("n28_bulk")
    cell = make_cell("NAND2_X1")
    variation = technology.variation.sample(24, rng=5)
    inverter = reduce_cell_cached(cell, technology, variation=variation)
    rng = np.random.default_rng(11)
    base = np.array([0.45, 1.2, -0.2, 0.15])
    delay_params = base + rng.normal(0.0, 0.02, (24, 4))
    slew_params = base * 0.8 + rng.normal(0.0, 0.02, (24, 4))
    return StatisticalCharacterization(
        cell_name=cell.name, arc_name="test_arc",
        delay_parameters=delay_params, slew_parameters=slew_params,
        inverter=inverter,
        fitting_conditions=(InputCondition(5e-12, 2e-15, 0.9),),
        simulation_runs=0)


class TestSamplesMany:
    def test_matches_per_condition_samples(self, synthetic_characterization):
        char = synthetic_characterization
        conditions = [InputCondition(sin, cload, vdd)
                      for sin in (3e-12, 8e-12)
                      for cload in (1e-15, 4e-15)
                      for vdd in (0.7, 0.9)]
        sin = np.array([c.sin for c in conditions])
        cload = np.array([c.cload for c in conditions])
        vdd = np.array([c.vdd for c in conditions])
        delay_many = char.delay_samples_many(sin, cload, vdd)
        slew_many = char.slew_samples_many(sin, cload, vdd)
        assert delay_many.shape == (len(conditions), char.n_seeds)
        for index, condition in enumerate(conditions):
            np.testing.assert_allclose(delay_many[index],
                                       char.delay_samples(condition),
                                       rtol=RTOL)
            np.testing.assert_allclose(slew_many[index],
                                       char.slew_samples(condition),
                                       rtol=RTOL)

    def test_length_mismatch_rejected(self, synthetic_characterization):
        with pytest.raises(ValueError, match="same length"):
            synthetic_characterization.delay_samples_many(
                np.ones(3) * 1e-12, np.ones(3) * 1e-15, np.ones(2))

    def test_statistical_factory_uses_vectorized_path(self,
                                                      synthetic_characterization):
        char = synthetic_characterization
        view = timing_view_from_statistical(
            {"NAND2_X1": char}, {"NAND2_X1": 1.5e-15}, vdd=0.9)
        slews = np.array([4e-12, 6e-12, 8e-12])
        loads = np.array([1e-15, 2e-15, 3e-15])
        delay, slew = view.gate_timing_samples_many("NAND2_X1", slews, loads)
        for index in range(slews.size):
            d, s = view.gate_timing_samples("NAND2_X1", float(slews[index]),
                                            float(loads[index]))
            np.testing.assert_allclose(delay[index], d, rtol=RTOL)
            np.testing.assert_allclose(slew[index], s, rtol=RTOL)

    def test_ssta_on_real_characterization_engines_agree(
            self, synthetic_characterization):
        char = synthetic_characterization
        view = timing_view_from_statistical(
            {name: char for name in CELL_NAMES},
            {name: 1.5e-15 for name in CELL_NAMES}, vdd=0.9)
        netlist = random_layered_dag(width=5, depth=4, rng=13)
        loop = ssta_loop(netlist, view)
        batched = MonteCarloSsta(netlist, view).run()
        np.testing.assert_allclose(batched.delay_samples, loop.delay_samples,
                                   rtol=1e-9)
        assert batched.criticality == loop.criticality


# ----------------------------------------------------------------------
# Vectorized report summaries
# ----------------------------------------------------------------------
class TestSummarizeMany:
    def test_matches_scalar_summarize(self):
        from repro.analysis.distributions import summarize, summarize_many

        rng = np.random.default_rng(3)
        matrix = 1e-11 + rng.lognormal(0.0, 0.4, (9, 128)) * 1e-12
        many = summarize_many(matrix)
        assert len(many) == 9
        for row, summary in enumerate(many):
            scalar = summarize(matrix[row])
            assert summary.mean == pytest.approx(scalar.mean, rel=1e-12)
            assert summary.std == pytest.approx(scalar.std, rel=1e-12)
            assert summary.skewness == pytest.approx(scalar.skewness, rel=1e-9)
            assert summary.excess_kurtosis == pytest.approx(
                scalar.excess_kurtosis, rel=1e-9)
            assert summary.quantiles == pytest.approx(scalar.quantiles,
                                                      rel=1e-12)
            assert summary.n_samples == scalar.n_samples

    def test_input_validation(self):
        from repro.analysis.distributions import summarize_many

        with pytest.raises(ValueError, match="n_samples"):
            summarize_many(np.ones((3, 1)))
        with pytest.raises(ValueError, match="finite"):
            summarize_many(np.full((2, 4), np.nan))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy on constants
    def test_degenerate_rows_match_scipy_nan(self):
        from repro.analysis.distributions import summarize, summarize_many

        summary = summarize_many(np.ones((1, 8)))[0]
        scalar = summarize(np.ones(8))
        assert summary.std == 0.0
        assert np.isnan(summary.skewness) and np.isnan(scalar.skewness)
        assert np.isnan(summary.excess_kurtosis) and np.isnan(
            scalar.excess_kurtosis)


# ----------------------------------------------------------------------
# Synthetic generators
# ----------------------------------------------------------------------
class TestSyntheticGenerators:
    def test_deterministic_in_seed(self):
        first = random_layered_dag(width=6, depth=5, rng=21)
        second = random_layered_dag(width=6, depth=5, rng=21)
        assert [g.name for g in first.gates] == [g.name for g in second.gates]
        assert [g.input_nets for g in first.gates] == \
            [g.input_nets for g in second.gates]
        different = random_layered_dag(width=6, depth=5, rng=22)
        assert [g.input_nets for g in different.gates] != \
            [g.input_nets for g in first.gates]

    def test_depth_equals_levels(self):
        netlist = random_layered_dag(width=4, depth=9, rng=3)
        compiled = netlist.compile()
        assert compiled.n_levels == 9
        assert compiled.n_gates == 36

    def test_outputs_are_unconsumed_nets(self):
        netlist = random_layered_dag(width=5, depth=4, rng=8)
        for net in netlist.primary_outputs:
            assert not netlist.fanout_gates(net)
            assert netlist.external_load(net) > 0

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="width and depth"):
            random_layered_dag(width=0, depth=3)
        with pytest.raises(ValueError, match="window"):
            random_layered_dag(width=3, depth=3, window=0)
        with pytest.raises(ValueError, match="cell mix"):
            random_layered_dag(width=3, depth=3, cells=())

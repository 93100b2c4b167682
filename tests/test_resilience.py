"""Tests of the fault-tolerant runtime: retries, fault injection, quarantine,
executor recovery, and graceful library degradation.

The overarching contract under test: with no injector active and default
switches (``strict=True``, no retry policy) every engine behaves exactly as
it did before the resilience layer existed -- clean runs are bit-identical
-- while under injected faults the non-strict flows complete with partial
results whose non-faulted units match a clean run bit for bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import get_technology, make_cell
from repro.analysis import format_ledger
from repro.bayes.gaussian import GaussianDensity
from repro.core.batch_map import (
    BatchMapObservations,
    map_estimate_batch,
    repair_batch_result,
)
from repro.core.library_flow import characterize_library
from repro.core.prior_learning import characterize_historical_library
from repro.runtime import RunLedger, clear_all_caches
from repro.runtime.executor import ProcessExecutor, get_executor
from repro.runtime.faultinject import (
    FaultInjector,
    FaultSpec,
    InjectedFault,
    InjectedTimeout,
    corrupt_rows,
    fault_sites,
    fire,
    induced_delay,
    inject,
)
from repro.runtime.resilience import (
    CircuitBreaker,
    FailureReport,
    RetryError,
    RetryPolicy,
    deterministic_uniform,
    resolve_strict,
    run_with_retry,
)
from repro.spice.batch import simulate_arc_transitions


# ---------------------------------------------------------------------------
# RetryPolicy / run_with_retry


class TestRetryPolicy:
    def test_default_is_noop(self):
        assert RetryPolicy().is_noop
        assert RetryPolicy().delays() == []
        assert not RetryPolicy(max_attempts=2).is_noop

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"backoff_s": -1.0},
        {"backoff_factor": 0.0},
        {"jitter": 1.5},
        {"deadline_s": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_delays_exponential_without_jitter(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.1, backoff_factor=2.0)
        assert policy.delays() == pytest.approx([0.1, 0.2, 0.4])

    def test_delays_deterministic_with_jitter(self):
        policy = RetryPolicy(max_attempts=5, backoff_s=0.5, jitter=0.5, seed=3)
        first = policy.delays()
        again = RetryPolicy(max_attempts=5, backoff_s=0.5, jitter=0.5,
                            seed=3).delays()
        assert first == again
        base = RetryPolicy(max_attempts=5, backoff_s=0.5).delays()
        for jittered, plain in zip(first, base):
            assert plain <= jittered <= 1.5 * plain

    def test_resolve_strict(self, monkeypatch):
        monkeypatch.delenv("REPRO_STRICT", raising=False)
        assert resolve_strict(None) is True
        assert resolve_strict(False) is False
        monkeypatch.setenv("REPRO_STRICT", "0")
        assert resolve_strict(None) is False
        assert resolve_strict(True) is True

    def test_empty_strict_variable_means_unset(self, monkeypatch):
        # Every REPRO_* variable reads an empty value as unset.
        for raw in ("", "  "):
            monkeypatch.setenv("REPRO_STRICT", raw)
            assert resolve_strict(None) is True
        monkeypatch.setenv("REPRO_STRICT", " Off ")
        assert resolve_strict(None) is False

    def test_deterministic_uniform_stable(self):
        value = deterministic_uniform(3, "site", 1)
        assert 0.0 <= value < 1.0
        assert value == deterministic_uniform(3, "site", 1)
        assert value != deterministic_uniform(4, "site", 1)


class TestRunWithRetry:
    def test_none_policy_runs_bare(self):
        calls = []

        def fn():
            calls.append(1)
            raise ValueError("boom")

        # The first failure propagates unchanged -- no RetryError wrapping.
        with pytest.raises(ValueError, match="boom"):
            run_with_retry(fn, None)
        assert len(calls) == 1

    def test_recovers_and_accounts(self):
        ledger = RunLedger()
        slept = []
        state = {"n": 0}

        def flaky():
            state["n"] += 1
            if state["n"] < 3:
                raise RuntimeError("transient")
            return "ok"

        policy = RetryPolicy(max_attempts=4, backoff_s=0.125)
        result = run_with_retry(flaky, policy, site="unit", ledger=ledger,
                                sleep=slept.append)
        assert result == "ok"
        assert slept == policy.delays()[:2]
        metrics = ledger.as_dict()["metrics"]
        assert metrics["retries"] == 2
        assert metrics["retries:unit"] == 2

    def test_exhaustion_raises_retry_error(self):
        def fail():
            raise KeyError("gone")

        with pytest.raises(RetryError) as info:
            run_with_retry(fail, RetryPolicy(max_attempts=3), site="unit",
                           sleep=lambda _: None)
        assert info.value.attempts == 3
        assert isinstance(info.value.__cause__, KeyError)

    def test_retry_on_filter(self):
        calls = []

        def fail():
            calls.append(1)
            raise KeyError("not retried")

        with pytest.raises(KeyError):
            run_with_retry(fail, RetryPolicy(max_attempts=3),
                           retry_on=(ValueError,), sleep=lambda _: None)
        assert len(calls) == 1

    def test_deadline_stops_retrying(self):
        clock = {"now": 0.0}

        def tick():
            clock["now"] += 10.0
            return clock["now"]

        def fail():
            raise RuntimeError("slow failure")

        # Each attempt appears to take 10 s against a 1 s deadline, so the
        # first failure exhausts the budget despite max_attempts=5.
        with pytest.raises(RetryError) as info:
            run_with_retry(fail, RetryPolicy(max_attempts=5, deadline_s=1.0),
                           sleep=lambda _: None, clock=tick)
        assert info.value.attempts == 1

    def test_deadline_is_end_to_end_across_attempts(self):
        """The budget covers the whole loop, not each attempt separately."""
        clock = {"now": 0.0}

        def tick():
            clock["now"] += 0.4
            return clock["now"]

        def fail():
            raise RuntimeError("fails every time")

        # Attempts appear to take 0.4 s each against a 1.0 s budget: the
        # per-attempt view would allow all five, the end-to-end view stops
        # after the budget is spent.
        with pytest.raises(RetryError) as info:
            run_with_retry(fail, RetryPolicy(max_attempts=5, deadline_s=1.0),
                           sleep=lambda _: None, clock=tick)
        assert info.value.attempts < 5

    def test_backoff_sleep_that_would_overrun_deadline_is_skipped(self):
        clock = {"now": 0.0}
        slept = []

        def tick():
            clock["now"] += 0.1
            return clock["now"]

        def fail():
            raise RuntimeError("fails every time")

        # The first backoff delay (1.0 s) alone would blow the 0.5 s
        # budget: fail immediately instead of sleeping past the deadline.
        with pytest.raises(RetryError) as info:
            run_with_retry(
                fail,
                RetryPolicy(max_attempts=3, backoff_s=1.0, deadline_s=0.5),
                sleep=slept.append, clock=tick)
        assert info.value.attempts == 1
        assert slept == []


class TestCircuitBreaker:
    def test_trips_after_threshold_and_cools_down_to_half_open(self):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=10.0,
                                 clock=lambda: clock["now"])
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"  # below threshold
        breaker.record_failure()
        assert breaker.state == "open" and breaker.trips == 1
        assert not breaker.allow()
        clock["now"] = 9.9
        assert not breaker.allow()  # still cooling down
        clock["now"] = 10.0
        assert breaker.allow()  # half-open probe admitted
        assert breaker.state == "half_open"

    def test_half_open_probe_success_closes_failure_reopens(self):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0,
                                 clock=lambda: clock["now"])
        breaker.record_failure()
        clock["now"] = 5.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.trips == 1
        # Trip again; a failed probe re-opens immediately (single strike).
        breaker.record_failure()
        clock["now"] = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and breaker.trips == 3

    def test_success_resets_consecutive_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # never two consecutive failures
        breaker.record_failure(n=2)  # a batch may observe several at once
        assert breaker.state == "open"

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=-1.0)


class TestSlowFaults:
    def test_induced_delay_reports_spec_delay_deterministically(self):
        site = "executor.job"  # any registered site works
        assert induced_delay(site) == 0.0  # no injector: clean identity
        with inject([FaultSpec(site=site, kind="slow", at_calls=(1,),
                               delay_s=0.25)]) as injector:
            assert induced_delay(site) == 0.0
            assert induced_delay(site) == 0.25
            assert induced_delay(site) == 0.0
        assert [(e.call, e.kind) for e in injector.events] == [(1, "slow")]

    def test_slow_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(site="executor.job", kind="slow", delay_s=-0.1)


class TestFailureReport:
    def test_round_trip(self):
        report = FailureReport(unit="INV:A->Z", stage="simulate",
                               error="bad row", error_type="ValueError",
                               attempts=2)
        assert FailureReport.from_dict(report.as_dict()) == report

    def test_from_exception_unwraps_retry_error(self):
        try:
            try:
                raise ValueError("root cause")
            except ValueError as error:
                raise RetryError("unit", 3, error) from error
        except RetryError as error:
            report = FailureReport.from_exception("INV:A->Z", "extract", error)
        assert report.error_type == "ValueError"
        assert report.error == "root cause"
        assert report.attempts == 3

    def test_describe_and_ledger_round_trip(self):
        ledger = RunLedger()
        report = FailureReport(unit="X", stage="simulate", error="e",
                               error_type="QuarantinedRows")
        ledger.add_failure(report)
        assert ledger.failures() == [report]
        assert "X" in report.describe()
        rendered = format_ledger(ledger)
        assert "failure" in rendered
        assert "QuarantinedRows: e" in rendered


# ---------------------------------------------------------------------------
# Fault-injection harness


class TestFaultInjection:
    def test_registry_covers_engine_sites(self):
        sites = fault_sites()
        for name in ("executor.process.map", "executor.job",
                     "transient.integrate", "transient.state",
                     "batch_map.result"):
            assert name in sites, name
        # The per-arc library job, and its site, are gone.
        assert "library.arc_job" not in sites

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultInjector(specs=[FaultSpec(site="no.such.site",
                                           kind="exception")])
        with pytest.raises(ValueError, match="unregistered fault site"):
            fire("no.such.site")
        with pytest.raises(ValueError, match="unregistered fault site"):
            corrupt_rows("no.such.site", np.zeros(3))

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(site="executor.job", kind="meltdown")
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(site="executor.job", kind="exception", rate=2.0)

    def test_exact_schedule(self):
        spec = FaultSpec(site="executor.job", kind="exception",
                         at_calls=(1, 3))
        with inject([spec], seed=0) as injector:
            for call in range(5):
                if call in (1, 3):
                    with pytest.raises(InjectedFault):
                        fire("executor.job")
                else:
                    fire("executor.job")
        assert [(e.site, e.call, e.kind) for e in injector.events] == [
            ("executor.job", 1, "exception"), ("executor.job", 3, "exception")]

    def test_rate_schedule_replays_deterministically(self):
        spec = FaultSpec(site="executor.job", kind="timeout", rate=0.4)

        def trace(seed):
            events = []
            with inject([spec], seed=seed) as injector:
                for _ in range(50):
                    try:
                        fire("executor.job")
                    except InjectedTimeout:
                        pass
                events = list(injector.events)
            return events

        first = trace(17)
        assert first, "a 0.4 rate over 50 calls should fire at least once"
        assert first == trace(17)
        assert first != trace(18)

    def test_nan_corruption_and_clean_identity(self):
        payload = np.arange(12.0).reshape(4, 3)
        # No injector: identity, same object.
        assert corrupt_rows("transient.state", payload) is payload
        spec = FaultSpec(site="transient.state", kind="nan", at_calls=(1,),
                         rows=(0, 2))
        with inject([spec], seed=0):
            # Call 0 does not fire: still the same object (bit-identity of
            # clean calls even while an injector is active).
            assert corrupt_rows("transient.state", payload) is payload
            poisoned = corrupt_rows("transient.state", payload)
        assert poisoned is not payload
        assert np.isnan(poisoned[[0, 2]]).all()
        assert np.array_equal(poisoned[[1, 3]], payload[[1, 3]])
        assert np.isfinite(payload).all()

    def test_nested_injection_rejected(self):
        with inject([], seed=0):
            with pytest.raises(RuntimeError, match="already active"):
                with inject([], seed=1):
                    pass  # pragma: no cover


# ---------------------------------------------------------------------------
# Executor recovery


def _square(value):
    return value * value


def _square_job(value):
    # map_accounted jobs return (result, RunLedger) pairs.
    return value * value, RunLedger()


def _flaky_square(value):
    fire("executor.job")
    return value * value


class TestExecutorRecovery:
    def test_max_workers_validated(self):
        with pytest.raises(ValueError, match="max_workers"):
            ProcessExecutor(max_workers=0)

    def test_serial_retry_recovers(self):
        policy = RetryPolicy(max_attempts=2)
        executor = get_executor("serial", retry_policy=policy)
        spec = FaultSpec(site="executor.job", kind="exception", at_calls=(1,))
        with inject([spec], seed=0):
            assert executor.map(_flaky_square, [1, 2, 3]) == [1, 4, 9]
        assert executor.last_retries == 1

    def test_serial_failure_without_policy_propagates(self):
        executor = get_executor("serial")
        spec = FaultSpec(site="executor.job", kind="exception", at_calls=(1,))
        with inject([spec], seed=0):
            with pytest.raises(InjectedFault):
                executor.map(_flaky_square, [1, 2, 3])

    def test_injected_pool_crash_falls_back_serially(self):
        executor = ProcessExecutor(max_workers=2)
        ledger = RunLedger()
        spec = FaultSpec(site="executor.process.map", kind="crash",
                         at_calls=(0,))
        with inject([spec], seed=0):
            results = executor.map_accounted(_square_job, [1, 2, 3],
                                             ledger=ledger)
        assert results == [1, 4, 9]
        assert executor.last_fallbacks == 3
        assert ledger.as_dict()["metrics"]["executor_fallbacks"] == 3

    def test_clean_run_records_no_resilience_metrics(self):
        executor = get_executor("serial")
        ledger = RunLedger()
        assert executor.map_accounted(_square_job, [2, 3],
                                      ledger=ledger) == [4, 9]
        metrics = ledger.as_dict()["metrics"]
        assert "executor_retries" not in metrics
        assert "executor_fallbacks" not in metrics


# ---------------------------------------------------------------------------
# Engine-level quarantine and repair


class TestTransientQuarantine:
    @pytest.fixture(scope="class")
    def inverter(self):
        from repro.cells.equivalent_inverter import reduce_cell
        return reduce_cell(make_cell("NAND2_X1"), get_technology("n28_bulk"))

    def test_non_finite_inputs_named(self, inverter):
        sin = np.array([1e-11, np.nan, 2e-11])
        cload = np.full(3, 1e-15)
        vdd = np.full(3, 0.9)
        with pytest.raises(ValueError, match="sin.*index 1"):
            simulate_arc_transitions(inverter, sin, cload, vdd)

    def test_quarantine_mode_clean_is_bit_identical(self, inverter):
        sin = np.array([1e-11, 2e-11, 4e-11])
        cload = np.full(3, 1e-15)
        vdd = np.full(3, 0.9)
        base = simulate_arc_transitions(inverter, sin, cload, vdd)
        guarded = simulate_arc_transitions(inverter, sin, cload, vdd,
                                           on_failure="quarantine")
        assert base.quarantined is None
        assert guarded.quarantined is not None
        assert not guarded.quarantined.any()
        assert guarded.quarantined_indices().tolist() == []
        assert np.array_equal(np.asarray(base.delay()),
                              np.asarray(guarded.delay()))
        assert np.array_equal(np.asarray(base.output_slew()),
                              np.asarray(guarded.output_slew()))

    def test_injected_nan_row_is_quarantined(self, inverter):
        sin = np.array([1e-11, 2e-11, 4e-11])
        cload = np.full(3, 1e-15)
        vdd = np.full(3, 0.9)
        base = simulate_arc_transitions(inverter, sin, cload, vdd)
        spec = FaultSpec(site="transient.state", kind="nan", at_calls=(0,),
                         rows=(1,))
        with inject([spec], seed=0):
            result = simulate_arc_transitions(inverter, sin, cload, vdd,
                                              on_failure="quarantine")
        assert result.quarantined_indices().tolist() == [1]
        delay = np.asarray(result.delay())
        assert np.isnan(delay[1]).all()
        for row in (0, 2):
            assert np.array_equal(np.asarray(base.delay())[row], delay[row])

    def test_strict_mode_raises_on_injected_fault(self, inverter):
        sin = np.array([1e-11, 2e-11, 4e-11])
        cload = np.full(3, 1e-15)
        vdd = np.full(3, 0.9)
        spec = FaultSpec(site="transient.state", kind="nan", at_calls=(0,),
                         rows=(1,))
        with inject([spec], seed=0):
            with pytest.raises(RuntimeError):
                simulate_arc_transitions(inverter, sin, cload, vdd)


class TestBatchMapRepair:
    @pytest.fixture(scope="class")
    def solved(self, delay_prior):
        observations = BatchMapObservations(
            sin=np.array([1e-11, 2e-11, 4e-11, 8e-11, 1.6e-10]),
            cload=np.full(5, 2e-15),
            vdd=np.full(5, 0.9),
            ieff=np.full(5, 2e-4),
            response=np.tile(np.array([4e-11, 5e-11, 7e-11, 1.1e-10,
                                       1.9e-10]), (4, 1)),
        )
        return observations, map_estimate_batch(delay_prior, observations)

    def test_non_finite_response_named(self):
        response = np.ones((2, 4)) * 1e-11
        response[0, 3] = np.nan
        with pytest.raises(ValueError, match="seed 0, observation 3"):
            BatchMapObservations(
                sin=np.full(4, 1e-11), cload=np.full(4, 1e-15),
                vdd=np.full(4, 0.9), ieff=np.full(4, 1e-4),
                response=response)

    def test_repair_is_identity_on_clean_result(self, solved, delay_prior):
        observations, result = solved
        assert repair_batch_result(result, observations, delay_prior) is result

    def test_repair_fixes_poisoned_rows(self, solved, delay_prior):
        observations, result = solved
        poisoned = result.parameters.copy()
        poisoned[2] = np.nan
        broken = dataclasses.replace(result, parameters=poisoned)
        ledger = RunLedger()
        repaired = repair_batch_result(broken, observations, delay_prior,
                                       ledger=ledger)
        assert np.isfinite(repaired.parameters).all()
        healthy = [0, 1, 3]
        assert np.array_equal(repaired.parameters[healthy],
                              result.parameters[healthy])
        metrics = ledger.as_dict()["metrics"]
        assert metrics.get("map_repaired_scipy", 0) \
            + metrics.get("map_repaired_prior", 0) == 1


class TestFactorGraphResilience:
    def test_evidence_validated_per_graph(self):
        from repro.bayes.factor_graph import BatchedFactorGraph
        good = GaussianDensity(np.zeros(2), np.eye(2))
        bad = GaussianDensity(np.array([np.nan, 0.0]), np.eye(2))
        drift = np.stack([np.eye(2)] * 2)
        with pytest.raises(ValueError, match="graph index 1"):
            BatchedFactorGraph.star("global", {"leaf": [good, bad]}, drift)

    def test_on_divergence_validation(self):
        from repro.bayes.factor_graph import BatchedFactorGraph
        good = GaussianDensity(np.zeros(2), np.eye(2))
        graph = BatchedFactorGraph.star(
            "global", {"leaf": [good, good]}, np.stack([np.eye(2)] * 2))
        with pytest.raises(ValueError, match="on_divergence"):
            graph.run_belief_propagation(on_divergence="ignore")


# ---------------------------------------------------------------------------
# Library-flow graceful degradation (small but real end-to-end runs)


@pytest.fixture(scope="module")
def small_cells():
    return [make_cell("INV_X1"), make_cell("NAND2_X1")]


def _run_library(delay_prior, slew_prior, cells, **kwargs):
    clear_all_caches()
    ledger = RunLedger()
    library = characterize_library(
        get_technology("n28_bulk"), cells, delay_prior, slew_prior,
        conditions=3, n_seeds=6, rng=11, ledger=ledger, **kwargs)
    return library, ledger


class TestLibraryResilience:
    def test_clean_non_strict_is_bit_identical(self, delay_prior, slew_prior,
                                               small_cells):
        strict, _ = _run_library(delay_prior, slew_prior, small_cells,
                                 strict=True)
        relaxed, _ = _run_library(delay_prior, slew_prior, small_cells,
                                  strict=False)
        assert relaxed.failures == ()
        assert len(strict.entries) == len(relaxed.entries)
        for lhs, rhs in zip(strict.entries, relaxed.entries):
            assert np.array_equal(lhs.statistical.delay_parameters,
                                  rhs.statistical.delay_parameters)
            assert np.array_equal(lhs.statistical.slew_parameters,
                                  rhs.statistical.slew_parameters)

    def test_quarantined_row_degrades_gracefully(self, delay_prior,
                                                 slew_prior, small_cells):
        clean, _ = _run_library(delay_prior, slew_prior, small_cells)
        clear_all_caches()
        ledger = RunLedger()
        spec = FaultSpec(site="transient.state", kind="nan", at_calls=(0,),
                         rows=(1,))
        with inject([spec], seed=3):
            library = characterize_library(
                get_technology("n28_bulk"), small_cells, delay_prior,
                slew_prior, conditions=3, n_seeds=6, rng=11, ledger=ledger,
                strict=False)
        assert library.failures
        report = library.failures[0]
        assert report.stage == "simulate"
        assert report.error_type == "QuarantinedRows"
        assert ledger.failures() == list(library.failures)
        assert "QuarantinedRows" in format_ledger(ledger)
        # Non-faulted arcs are bit-identical to the clean run.
        degraded = set(library.failed_units())
        assert degraded
        clean_by_unit = {f"{e.cell_name}:{e.arc.name}": e
                         for e in clean.entries}
        checked = 0
        for entry in library.entries:
            unit = f"{entry.cell_name}:{entry.arc.name}"
            if unit in degraded:
                continue
            reference = clean_by_unit[unit]
            assert np.array_equal(entry.statistical.delay_parameters,
                                  reference.statistical.delay_parameters)
            assert np.array_equal(entry.statistical.slew_parameters,
                                  reference.statistical.slew_parameters)
            checked += 1
        assert checked > 0

    def test_strict_mode_fails_fast(self, delay_prior, slew_prior,
                                    small_cells):
        clear_all_caches()
        spec = FaultSpec(site="transient.state", kind="nan", at_calls=(0,),
                         rows=(1,))
        with inject([spec], seed=3):
            with pytest.raises(RuntimeError):
                characterize_library(
                    get_technology("n28_bulk"), small_cells, delay_prior,
                    slew_prior, conditions=3, n_seeds=6, rng=11, strict=True)

    def test_strict_default_from_env(self, delay_prior, slew_prior,
                                     small_cells, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT", "0")
        clear_all_caches()
        spec = FaultSpec(site="transient.state", kind="nan", at_calls=(0,),
                         rows=(1,))
        with inject([spec], seed=3):
            library = characterize_library(
                get_technology("n28_bulk"), small_cells, delay_prior,
                slew_prior, conditions=3, n_seeds=6, rng=11)
        assert library.failures

    def test_corrupted_solve_is_repaired(self, delay_prior, slew_prior,
                                         small_cells):
        ledger = RunLedger()
        clear_all_caches()
        spec = FaultSpec(site="batch_map.result", kind="nan", at_calls=(0,),
                         rows=(2,))
        with inject([spec], seed=9):
            library = characterize_library(
                get_technology("n28_bulk"), small_cells, delay_prior,
                slew_prior, conditions=3, n_seeds=6, rng=11, ledger=ledger,
                strict=False)
        assert any(report.error_type == "RepairedSolve"
                   for report in library.failures)
        assert len(library.entries) == 4
        for entry in library.entries:
            assert np.isfinite(entry.statistical.delay_parameters).all()
        metrics = ledger.as_dict()["metrics"]
        assert metrics.get("map_repaired_scipy", 0) \
            + metrics.get("map_repaired_prior", 0) >= 1

    def test_tile_retry_recovers(self, delay_prior, slew_prior, small_cells):
        """A failed simulation tile is retried at the executor."""
        clean, _ = _run_library(delay_prior, slew_prior, small_cells)
        clear_all_caches()
        ledger = RunLedger()
        spec = FaultSpec(site="executor.job", kind="exception", at_calls=(0,))
        with inject([spec], seed=5) as injector:
            library = characterize_library(
                get_technology("n28_bulk"), small_cells, delay_prior,
                slew_prior, conditions=3, n_seeds=6, rng=11, ledger=ledger,
                strict=False, retry_policy=RetryPolicy(max_attempts=2))
        assert [event.kind for event in injector.events] == ["exception"]
        assert library.failures == ()
        assert len(library.entries) == len(clean.entries)
        for lhs, rhs in zip(clean.entries, library.entries):
            assert np.array_equal(lhs.statistical.delay_parameters,
                                  rhs.statistical.delay_parameters)
            assert np.array_equal(lhs.statistical.slew_parameters,
                                  rhs.statistical.slew_parameters)
        assert ledger.metrics()["executor_retries"] >= 1


class TestHistoricalResilience:
    def test_quarantined_reference_condition(self, reference_conditions,
                                             inv_cell, nor2_cell):
        from repro.cells.library import Transition
        clear_all_caches()
        ledger = RunLedger()
        spec = FaultSpec(site="transient.state", kind="nan", at_calls=(0,),
                         rows=(0,))
        with inject([spec], seed=11):
            data = characterize_historical_library(
                get_technology("n45_bulk"), [inv_cell, nor2_cell],
                unit_conditions=reference_conditions,
                transitions=(Transition.FALL,), ledger=ledger, strict=False)
        assert data.failures
        assert data.failures[0].error_type == "QuarantinedRows"
        assert np.isfinite(data.delay_residuals).all()
        assert np.isfinite(data.slew_residuals).all()
        assert len(data.arc_fits) == 2
        assert ledger.failures() == list(data.failures)

    def test_strict_fails_fast(self, reference_conditions, inv_cell,
                               nor2_cell):
        from repro.cells.library import Transition
        clear_all_caches()
        spec = FaultSpec(site="transient.state", kind="nan", at_calls=(0,),
                         rows=(0,))
        with inject([spec], seed=11):
            with pytest.raises(RuntimeError):
                characterize_historical_library(
                    get_technology("n45_bulk"), [inv_cell, nor2_cell],
                    unit_conditions=reference_conditions,
                    transitions=(Transition.FALL,), strict=True)

"""Tests for the characterization serving front door.

Covers the four serving disciplines of
:class:`repro.runtime.service.CharacterizationService` -- single-flight
coalescing, cooperative deadlines, admission control / load-shedding, and
the disk circuit breaker -- plus the issue's acceptance scenario: slow
worker, ENOSPC disk and one stuck request, with concurrent clients all
completing and coalesced results bit-identical to solo runs.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

import repro.runtime as runtime
from repro import get_technology
from repro.cells.library import Transition
from repro.characterization.input_space import InputSpace
from repro.core.library_flow import characterize_fused_jobs, characterize_library
from repro.runtime import FaultSpec, clear_all_caches, inject
from repro.runtime.accounting import RunLedger
from repro.runtime.executor import get_executor
from repro.runtime.persist import DiskStore
from repro.runtime.resilience import CircuitBreaker, DeadlineExceeded
from repro.runtime.service import (
    CharacterizationService,
    ServiceClosed,
    ServiceOverloaded,
)
from repro.spice.testbench import get_simulation_cache
from repro.utils.rng import ensure_rng


@pytest.fixture(scope="module")
def context(delay_prior, slew_prior):
    """Shared serving context: technology, priors, seeds, conditions."""
    technology = get_technology("n28_bulk")
    variation = technology.variation.sample(3, ensure_rng(11))
    conditions = tuple(InputSpace(technology).sample_lhs(2, ensure_rng(5)))
    return technology, delay_prior, slew_prior, variation, conditions


def make_service(context, **kwargs):
    technology, delay_prior, slew_prior, variation, _ = context
    kwargs.setdefault("batch_window_s", 0.02)
    return CharacterizationService(technology, delay_prior, slew_prior,
                                   variation, **kwargs)


def inv_arcs(inv_cell):
    pin = inv_cell.input_pins[0]
    return (inv_cell.arc(pin, Transition.FALL),
            inv_cell.arc(pin, Transition.RISE))


def solo_reference(context, cell, arcs):
    """The solo-run ground truth: one direct fused pass per the whole job
    list, computed on a cold cache and followed by another cold start so
    the service recomputes rather than replays."""
    technology, delay_prior, slew_prior, variation, conditions = context
    clear_all_caches()
    results, failures = characterize_fused_jobs(
        technology, [(cell, arc) for arc in arcs],
        [list(conditions) for _ in arcs], delay_prior, slew_prior,
        variation, "batched", get_executor("serial"), RunLedger(), None)
    assert not failures
    clear_all_caches()
    return {arc.name: result for arc, result in zip(arcs, results)}


def assert_same_characterization(got, expected):
    assert got is not None
    np.testing.assert_array_equal(got.delay_parameters,
                                  expected.delay_parameters)
    np.testing.assert_array_equal(got.slew_parameters,
                                  expected.slew_parameters)


class TestBasics:
    def test_solo_parity_bit_identical(self, context, inv_cell):
        arcs = inv_arcs(inv_cell)
        expected = solo_reference(context, inv_cell, arcs)
        conditions = context[-1]
        with make_service(context) as service:
            result = service.request(inv_cell, arcs, conditions)
        assert result.complete and not result.degraded
        for arc in arcs:
            assert_same_characterization(result.characterizations[arc.name],
                                         expected[arc.name])

    def test_single_flight_coalesces_identical_requests(self, context,
                                                        inv_cell):
        arcs = inv_arcs(inv_cell)
        conditions = context[-1]
        clear_all_caches()
        service = make_service(context, start=False)
        tickets = [service.submit(inv_cell, arcs, conditions)
                   for _ in range(4)]
        service.start()
        results = [ticket.result(timeout=60) for ticket in tickets]
        service.close()
        # One fused pass served all four: one batch, three coalesced
        # requests, and every result is the same solved model.
        stats = service.stats()
        assert stats.batches == 1
        assert stats.coalesced_arcs == 3 * len(arcs)
        assert sum(result.coalesced for result in results) == 3
        reference = results[0].characterizations
        for result in results[1:]:
            for arc in arcs:
                assert_same_characterization(
                    result.characterizations[arc.name], reference[arc.name])
        metrics = service.ledger.metrics()
        assert metrics["service_requests"] == 4
        assert metrics["service_batches"] == 1

    def test_repeat_request_is_served_from_solved_cache(self, context,
                                                        inv_cell):
        arcs = inv_arcs(inv_cell)
        conditions = context[-1]
        with make_service(context) as service:
            first = service.request(inv_cell, arcs, conditions)
            before = service.ledger.metrics().get("fused_rows_total", 0)
            second = service.request(inv_cell, arcs, conditions)
            after = service.ledger.metrics().get("fused_rows_total", 0)
        assert not first.coalesced and second.coalesced
        assert after == before  # no new pipeline rows for the repeat
        for arc in arcs:
            assert (second.characterizations[arc.name]
                    is first.characterizations[arc.name])

    def test_validation_and_lifecycle(self, context, inv_cell):
        arcs = inv_arcs(inv_cell)
        conditions = context[-1]
        with pytest.raises(ValueError):
            make_service(context, queue_depth=0)
        with pytest.raises(ValueError):
            make_service(context, shed_policy="panic")
        # One extraction solver: the retired solver switch is not accepted.
        with pytest.raises(TypeError, match="solver"):
            make_service(context, solver="batched")
        service = make_service(context, start=False)
        assert service.solver == "batched"
        with pytest.raises(ValueError):
            service.submit(inv_cell, (), conditions)
        with pytest.raises(ValueError):
            service.submit(inv_cell, arcs, ())
        with pytest.raises(ValueError):
            service.submit(inv_cell, arcs, conditions, deadline_s=0.0)
        service.start()
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(inv_cell, arcs, conditions)


class TestTransientEngine:
    """A default-constructed service integrates on the configured engine."""

    @pytest.fixture(scope="class")
    def library_models(self, context, inv_cell):
        """``characterize_library`` models per engine on the service's
        cell, grid and process samples."""
        technology, delay_prior, slew_prior, variation, conditions = context
        models = {}
        for engine in ("batched", "adaptive"):
            clear_all_caches()
            library = characterize_library(
                technology, [inv_cell], delay_prior, slew_prior,
                conditions=list(conditions), variation=variation,
                transient_engine=engine)
            models[engine] = {entry.arc.name: entry.statistical
                              for entry in library.entries}
        clear_all_caches()
        return models

    @pytest.fixture
    def adaptive_config(self):
        saved = runtime.runtime_config().transient_engine
        runtime.configure(transient_engine="adaptive")
        yield
        runtime.configure(transient_engine=saved)

    def test_default_stepper_follows_configured_engine(
            self, context, inv_cell, library_models, adaptive_config):
        arcs = inv_arcs(inv_cell)
        with make_service(context) as service:
            result = service.request(inv_cell, arcs, context[-1])
        assert service.stepper is None  # kept exactly as passed
        for arc in arcs:
            got = result.characterizations[arc.name]
            assert_same_characterization(got, library_models["adaptive"][arc.name])
            # The engines disagree, so RK4 output would fail the check above.
            assert not np.array_equal(
                got.delay_parameters,
                library_models["batched"][arc.name].delay_parameters)

    def test_reconfiguring_after_construction_changes_nothing(
            self, context, inv_cell, library_models, adaptive_config):
        arcs = inv_arcs(inv_cell)
        clear_all_caches()
        service = make_service(context)
        runtime.configure(transient_engine="batched")
        with service:
            result = service.request(inv_cell, arcs, context[-1])
        for arc in arcs:
            assert_same_characterization(result.characterizations[arc.name],
                                         library_models["adaptive"][arc.name])


class TestDegradedArcs:
    def test_degraded_arc_is_reported_and_never_cached(self, context,
                                                       inv_cell):
        arcs = inv_arcs(inv_cell)
        fall, rise = (arc.name for arc in arcs)
        conditions = context[-1]
        expected = solo_reference(context, inv_cell, arcs)
        # One NaN row in the first integration: the fall arc fits on the
        # one condition that survives, the rise arc is clean.
        spec = FaultSpec(site="transient.state", kind="nan", at_calls=(0,),
                         rows=(1,))
        with make_service(context) as service:
            with inject([spec], seed=3):
                first = service.request(inv_cell, arcs, conditions)
            misses = service.stats().solved_misses
            repeat = service.request(inv_cell, arcs, conditions)
            repeat_misses = service.stats().solved_misses - misses

        assert first.degraded
        assert [(report.unit, report.error_type)
                for report in first.failures] == [
            (f"{inv_cell.name}:{fall}", "QuarantinedRows")]
        assert len(first.characterizations[fall].fitting_conditions) == 1

        # The degraded fall model never entered the solved-model cache: the
        # repeat recomputes it (one miss) while the clean rise model is the
        # cached one.
        assert not repeat.degraded and repeat.failures == ()
        assert repeat_misses == 1
        assert repeat.characterizations[fall] is not first.characterizations[fall]
        assert repeat.characterizations[rise] is first.characterizations[rise]
        for arc in arcs:
            assert_same_characterization(repeat.characterizations[arc.name],
                                         expected[arc.name])


class TestDeadlines:
    def test_expired_in_queue_fails_fast(self, context, inv_cell):
        arcs = inv_arcs(inv_cell)
        conditions = context[-1]
        service = make_service(context, start=False)
        ticket = service.submit(inv_cell, arcs, conditions, deadline_s=0.01)
        time.sleep(0.05)
        service.start()
        with pytest.raises(DeadlineExceeded):
            ticket.result(timeout=30)
        service.close()
        assert service.stats().deadline_misses == 1

    def test_slow_batch_misses_deadline_without_poisoning_peers(
            self, context, inv_cell):
        arcs = inv_arcs(inv_cell)
        conditions = context[-1]
        clear_all_caches()
        expected = solo_reference(context, inv_cell, arcs)
        with inject([FaultSpec(site="service.slow_worker", kind="slow",
                               at_calls=(0,), delay_s=0.3)]):
            service = make_service(context, start=False)
            impatient = service.submit(inv_cell, arcs, conditions,
                                       deadline_s=0.1)
            patient = service.submit(inv_cell, arcs, conditions)
            service.start()
            with pytest.raises(DeadlineExceeded):
                impatient.result(timeout=60)
            result = patient.result(timeout=60)
            # The expired request did not poison the shared batch, and the
            # batch's rows landed in the caches despite the miss: a repeat
            # request is served from the solved-model cache.
            for arc in arcs:
                assert_same_characterization(
                    result.characterizations[arc.name], expected[arc.name])
            retry = service.request(inv_cell, arcs, conditions)
            service.close()
        assert retry.coalesced
        assert service.stats().deadline_misses == 1


class TestAdmission:
    def test_reject_policy_sheds_beyond_queue_depth(self, context, inv_cell):
        arcs = inv_arcs(inv_cell)
        conditions = context[-1]
        service = make_service(context, queue_depth=2, start=False)
        tickets = [service.submit(inv_cell, arcs, conditions)
                   for _ in range(2)]
        with pytest.raises(ServiceOverloaded):
            service.submit(inv_cell, arcs, conditions)
        service.start()
        for ticket in tickets:
            assert ticket.result(timeout=60).complete
        service.close()
        stats = service.stats()
        assert stats.shed == 1
        assert stats.queue_peak <= 2

    def test_degrade_policy_serves_cache_only_partial(self, context,
                                                      inv_cell, nand2_cell):
        arcs = inv_arcs(inv_cell)
        conditions = context[-1]
        with make_service(context, shed_policy="degrade") as service:
            full = service.request(inv_cell, arcs, conditions)  # warm LRU
            # Force the admission check to see a full queue for the next
            # two submits: the warmed cell degrades to its cached models,
            # the cold cell to an all-None partial result.
            with inject([FaultSpec(site="service.queue_full",
                                   kind="exception", at_calls=(0, 1))]):
                warm = service.submit(inv_cell, arcs, conditions)
                cold = service.submit(nand2_cell, inv_arcs(nand2_cell),
                                      conditions)
        warm_result = warm.result(timeout=60)
        assert warm_result.degraded and warm_result.coalesced
        assert warm_result.complete  # every arc came from the solved LRU
        for arc in arcs:
            assert (warm_result.characterizations[arc.name]
                    is full.characterizations[arc.name])
        cold_result = cold.result(timeout=60)
        assert cold_result.degraded and not cold_result.complete
        assert all(value is None
                   for value in cold_result.characterizations.values())
        assert len(cold_result.failures) == 2
        assert service.stats().shed == 2

    def test_queue_full_fault_forces_shedding(self, context, inv_cell):
        arcs = inv_arcs(inv_cell)
        conditions = context[-1]
        with inject([FaultSpec(site="service.queue_full", kind="exception",
                               at_calls=(0,))]):
            service = make_service(context, start=False)
            with pytest.raises(ServiceOverloaded):
                service.submit(inv_cell, arcs, conditions)
            ticket = service.submit(inv_cell, arcs, conditions)
            service.start()
            assert ticket.result(timeout=60).complete
            service.close()
        assert service.stats().shed == 1


class TestDiskBreaker:
    def test_enospc_storm_trips_breaker_and_degrades_to_memory(
            self, context, inv_cell, tmp_path):
        arcs = inv_arcs(inv_cell)
        conditions = context[-1]
        clear_all_caches()
        sim_cache = get_simulation_cache()
        store = DiskStore(tmp_path / "disk", name="simulation")
        sim_cache.attach_disk_store(store)
        try:
            breaker = CircuitBreaker(failure_threshold=1, cooldown_s=30.0)
            with inject([FaultSpec(site="persist.write", kind="enospc",
                                   rate=1.0)]):
                with make_service(context, breaker=breaker) as service:
                    result = service.request(inv_cell, arcs, conditions)
                    assert result.complete  # served despite the dead disk
            assert breaker.state == "open"
            assert breaker.trips == 1
            assert sim_cache.disk_store is None  # degraded to memory-only
            assert service.ledger.metrics()["service_disk_errors"] > 0
        finally:
            sim_cache.detach_disk_store()
            clear_all_caches()

    def test_half_open_probe_reattaches_after_cooldown(self, context,
                                                       inv_cell, nand2_cell,
                                                       tmp_path):
        arcs = inv_arcs(inv_cell)
        conditions = context[-1]
        clear_all_caches()
        sim_cache = get_simulation_cache()
        store = DiskStore(tmp_path / "disk", name="simulation")
        sim_cache.attach_disk_store(store)
        try:
            breaker = CircuitBreaker(failure_threshold=1, cooldown_s=0.0)
            with make_service(context, breaker=breaker) as service:
                with inject([FaultSpec(site="persist.write", kind="enospc",
                                       rate=1.0)]):
                    service.request(inv_cell, arcs, conditions)
                assert sim_cache.disk_store is None
                # Zero cooldown: the next batch with fresh rows re-attaches
                # the store as the half-open probe; the disk is healthy
                # again, so the probe closes the breaker.
                service.request(nand2_cell, inv_arcs(nand2_cell), conditions)
                service.request(inv_cell, arcs,
                                tuple(InputSpace(context[0])
                                      .sample_lhs(1, ensure_rng(99))))
            assert sim_cache.disk_store is store
            assert breaker.state == "closed"
            assert store.stats().writes > 0
        finally:
            sim_cache.detach_disk_store()
            clear_all_caches()


class TestConcurrentClients:
    def test_many_threads_submit_and_all_complete(self, context, inv_cell,
                                                  nand2_cell):
        conditions = context[-1]
        cells = [inv_cell, nand2_cell]
        results = {}
        errors = []

        def client(index):
            cell = cells[index % len(cells)]
            try:
                results[index] = service.request(cell, inv_arcs(cell),
                                                 conditions, deadline_s=60.0)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        clear_all_caches()
        with make_service(context, queue_depth=32) as service:
            threads = [threading.Thread(target=client, args=(index,))
                       for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not errors
        assert len(results) == 8
        assert all(result.complete for result in results.values())
        stats = service.stats()
        assert stats.completed == 8
        assert stats.deadline_misses == 0  # nominal load: no misses
        # 8 requests over 2 distinct cells: at least 6 were coalesced.
        assert stats.coalesced_arcs >= 6

    def test_acceptance_slow_worker_enospc_and_stuck_request(
            self, context, inv_cell, nand2_cell, tmp_path):
        """The issue's deterministic fault scenario: slow worker + ENOSPC
        disk + one stuck request, N concurrent clients all completing."""
        arcs = inv_arcs(inv_cell)
        conditions = context[-1]
        expected = solo_reference(context, inv_cell, arcs)
        expected_nand = solo_reference(context, nand2_cell,
                                       inv_arcs(nand2_cell))
        clear_all_caches()
        sim_cache = get_simulation_cache()
        store = DiskStore(tmp_path / "disk", name="simulation")
        sim_cache.attach_disk_store(store)
        faults = [
            FaultSpec(site="service.slow_worker", kind="slow",
                      at_calls=(0,), delay_s=0.25),
            FaultSpec(site="service.stuck_request", kind="slow",
                      at_calls=(1,), delay_s=0.4),
            FaultSpec(site="persist.write", kind="enospc", rate=1.0),
        ]
        try:
            breaker = CircuitBreaker(failure_threshold=1, cooldown_s=30.0)
            with inject(faults, seed=13) as injector:
                service = make_service(context, breaker=breaker,
                                       queue_depth=8, start=False)
                # Deterministic submission order; the waiting clients are
                # genuinely concurrent threads.
                impatient = service.submit(inv_cell, arcs, conditions,
                                           deadline_s=0.05)
                stuck = service.submit(inv_cell, arcs, conditions)
                peers = [service.submit(
                    [inv_cell, nand2_cell][index % 2],
                    inv_arcs([inv_cell, nand2_cell][index % 2]), conditions)
                    for index in range(4)]
                outcomes = {}

                def wait(name, ticket):
                    try:
                        outcomes[name] = ticket.result(timeout=120)
                    except BaseException as error:
                        outcomes[name] = error

                waiters = [threading.Thread(target=wait, args=pair)
                           for pair in ([("impatient", impatient),
                                         ("stuck", stuck)]
                                        + [(f"peer{i}", t)
                                           for i, t in enumerate(peers)])]
                for thread in waiters:
                    thread.start()
                service.start()
                for thread in waiters:
                    thread.join(timeout=120)
                service.close()
                fired = {event.site for event in injector.events}
            # Every client completed: the slow batch cost the impatient
            # client its deadline, everyone else got full results.
            assert len(outcomes) == 6
            assert isinstance(outcomes["impatient"], DeadlineExceeded)
            for name, outcome in outcomes.items():
                if name == "impatient":
                    continue
                assert not isinstance(outcome, BaseException), (name, outcome)
                assert outcome.complete
                reference = (expected if "INV" in
                             next(iter(outcome.characterizations))
                             else expected_nand)
                for arc_name, got in outcome.characterizations.items():
                    assert_same_characterization(got, reference[arc_name])
            # The stuck request was held out of the first batch yet still
            # completed -- served by its peers' coalesced batch.
            assert outcomes["stuck"].coalesced
            # The dead disk tripped the breaker; service stayed up.
            assert {"service.slow_worker", "service.stuck_request",
                    "persist.write"} <= fired
            assert breaker.state == "open"
            assert sim_cache.disk_store is None
            stats = service.stats()
            assert stats.completed == 6
            assert stats.deadline_misses == 1
            assert stats.queue_peak <= 8
            assert service.ledger.metrics()["service_rows_shared"] >= 0
        finally:
            sim_cache.detach_disk_store()
            clear_all_caches()


class TestAdmissionFastPath:
    """Fully cached requests complete at admission, on the caller's thread."""

    def test_repeat_skips_the_window_and_the_batch(self, context, inv_cell):
        arcs = inv_arcs(inv_cell)
        conditions = context[-1]
        clear_all_caches()
        with make_service(context, batch_window_s=2.0) as service:
            first = service.request(inv_cell, arcs, conditions)
            batches = service.stats().batches
            start = time.monotonic()
            repeat = service.submit(inv_cell, arcs, conditions).result(
                timeout=30)
            elapsed = time.monotonic() - start
            stats = service.stats()
        assert elapsed < 0.5  # far below the 2 s coalescing window
        assert stats.batches == batches
        assert stats.admission_hits == 1
        assert stats.submitted == stats.completed == 2
        assert repeat.coalesced and repeat.complete and not repeat.degraded
        for arc in arcs:
            assert (repeat.characterizations[arc.name]
                    is first.characterizations[arc.name])

    def test_partial_hit_goes_to_the_queue(self, context, inv_cell):
        fall, rise = inv_arcs(inv_cell)
        conditions = context[-1]
        clear_all_caches()
        with make_service(context) as service:
            first = service.request(inv_cell, (fall,), conditions)
            both = service.request(inv_cell, (fall, rise), conditions)
            stats = service.stats()
        # The peek found rise missing, so the batch did the lookups: one
        # hit (fall) and one miss (rise) beside the first request's miss.
        assert stats.admission_hits == 0
        assert stats.batches == 2
        assert (stats.solved_hits, stats.solved_misses) == (1, 2)
        assert both.coalesced and both.complete
        assert (both.characterizations[fall.name]
                is first.characterizations[fall.name])

    def test_stuck_request_is_not_served_at_admission(self, context,
                                                      inv_cell):
        arcs = inv_arcs(inv_cell)
        conditions = context[-1]
        clear_all_caches()
        with make_service(context) as service:
            first = service.request(inv_cell, arcs, conditions)
            with inject([FaultSpec(site="service.stuck_request", kind="slow",
                                   at_calls=(0,), delay_s=0.2)]):
                ticket = service.submit(inv_cell, arcs, conditions)
            assert not ticket.done()  # held out, like any stuck request
            repeat = ticket.result(timeout=30)
            stats = service.stats()
        assert stats.admission_hits == 0 and stats.batches == 2
        assert repeat.coalesced and repeat.wall_s >= 0.2
        for arc in arcs:
            assert (repeat.characterizations[arc.name]
                    is first.characterizations[arc.name])

    def test_contending_submitters_mix_hits_and_batches(
            self, context, inv_cell, nand2_cell):
        """More submitter threads than cores, a short switch interval and
        a seeded mix of warmed, partially warmed and cold requests: every
        ticket completes, the counters add up, every hit hands out the
        LRU's own object, and every result equals its solo run."""
        fall, rise = inv_arcs(inv_cell)
        conditions = context[-1]
        expected = {inv_cell.name: solo_reference(context, inv_cell,
                                                  (fall, rise)),
                    nand2_cell.name: solo_reference(
                        context, nand2_cell, inv_arcs(nand2_cell))}
        kinds = [(inv_cell, (fall,)),                   # warmed
                 (inv_cell, (fall, rise)),              # partial hit
                 (nand2_cell, inv_arcs(nand2_cell))]    # cold
        n_threads, per_thread = 8, 6
        outcomes = {}
        errors = []

        def submitter(index):
            rng = np.random.default_rng([23, index])
            try:
                for position in range(per_thread):
                    cell, arcs = kinds[int(rng.integers(len(kinds)))]
                    ticket = service.submit(cell, arcs, conditions)
                    outcomes[index, position] = (cell, arcs, ticket)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        clear_all_caches()
        interval = sys.getswitchinterval()
        service = make_service(context, queue_depth=64)
        try:
            service.request(inv_cell, (fall,), conditions)  # warm fall
            sys.setswitchinterval(1e-5)
            threads = [threading.Thread(target=submitter, args=(index,))
                       for index in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            results = {slot: ticket.result(timeout=60)
                       for slot, (_, _, ticket) in outcomes.items()}
        finally:
            sys.setswitchinterval(interval)
            service.close()
        assert not errors
        assert len(results) == n_threads * per_thread
        stats = service.stats()
        assert stats.submitted == stats.completed == n_threads * per_thread + 1
        assert stats.admission_hits > 0
        assert (stats.admission_hits
                + service.ledger.metrics()["service_requests"]
                == stats.completed)
        for slot, (cell, arcs, _) in outcomes.items():
            result = results[slot]
            assert result.complete and not result.degraded
            for arc in arcs:
                model = result.characterizations[arc.name]
                assert model is service._solved.get(
                    service.job_key(cell, arc, conditions))
                assert_same_characterization(model,
                                             expected[cell.name][arc.name])


class TestSchedulerResilience:
    def test_arc_of_another_cell_is_rejected_at_submit(
            self, context, inv_cell, nand2_cell):
        conditions = context[-1]
        with make_service(context) as service:
            # A pin the cell lacks used to kill the scheduler; a pin it has
            # served the cell's own model under the other cell's arc name.
            for pin in ("B", "A"):
                with pytest.raises(ValueError, match="not an arc of cell"):
                    service.submit(inv_cell,
                                   (nand2_cell.arc(pin, Transition.FALL),),
                                   conditions)
            result = service.submit(inv_cell, inv_arcs(inv_cell),
                                    conditions).result(timeout=20)
        assert result.complete
        assert service.stats().submitted == 1

    def test_raising_batch_fails_its_tickets_and_the_scheduler_lives_on(
            self, context, inv_cell, nand2_cell, monkeypatch):
        conditions = context[-1]
        clear_all_caches()
        service = make_service(context, start=False)
        fused = service._characterize
        calls = []

        def raise_once(*args):
            calls.append(len(calls))
            if len(calls) == 1:
                raise RuntimeError("fused pass blew up")
            return fused(*args)

        monkeypatch.setattr(service, "_characterize", raise_once)
        with service:
            doomed = service.submit(inv_cell, inv_arcs(inv_cell), conditions)
            with pytest.raises(RuntimeError, match="fused pass blew up"):
                doomed.result(timeout=20)
            later = service.submit(nand2_cell, inv_arcs(nand2_cell),
                                   conditions).result(timeout=20)
            assert service._thread.is_alive()
        assert later.complete and not later.degraded
        stats = service.stats()
        assert stats.submitted == stats.completed == 2
        assert stats.batches == 1  # only the delivered batch
        assert service.ledger.metrics()["service_batch_errors"] == 1

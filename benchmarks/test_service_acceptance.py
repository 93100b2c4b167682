"""Serving front-door acceptance run: coalescing beats per-client serial.

The robustness counterpart of the fused-library benchmark, one layer up:
``REPRO_BENCH_SERVICE_CLIENTS`` concurrent clients all want the same small
cell library (fully overlapping requests -- the worst case for naive
serving, the best case for single-flight coalescing).  The naive baseline
characterizes the library once per client, serially, with every cache
cleared in between (what N independent processes would each pay).  The
service run submits all N requests concurrently to one
:class:`~repro.runtime.service.CharacterizationService`, which folds them
into one fused pass.  The benchmark times ``PAIRS`` naive/service pairs,
one after the other, and every pair must meet the contracts below.

Contracts asserted:

* coalescing is exact: across the N clients the service simulates each
  distinct row once, so its total ``fused_rows_simulated`` equals one naive
  client's.  That count does not depend on how requests land in batches:
  one more service run, with one client submitting a batch window late,
  must read it too,
* every client's result is bit-identical to a solo cold run,
* zero deadline misses under nominal load (generous deadlines),
* overload sheds gracefully: with a shrunken queue the excess submits get
  :class:`~repro.runtime.service.ServiceOverloaded` immediately while every
  admitted request still completes.

The coalesced/naive wall-clock ratio of every pair and their median are
printed and recorded, not gated: it is about 6S / (2 x 0.05 s + S) with S
one client's two fused passes, so it falls as integration gets cheaper.
The record, every pair included, lands in ``BENCH_service.json``.  Knobs:

``REPRO_BENCH_SERVICE_CLIENTS``      concurrent clients (6)
``REPRO_BENCH_SERVICE_SEEDS``        Monte Carlo seeds (8)
``REPRO_BENCH_SERVICE_CONDITIONS``   fitting conditions per arc (2)
"""

from __future__ import annotations

import platform
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from bench_utils import env_int, write_json_result  # noqa: E402

from repro import get_technology, make_cell
from repro.cells.library import Transition
from repro.characterization.input_space import InputSpace
from repro.core.library_flow import characterize_fused_jobs
from repro.core.prior_learning import (
    characterize_historical_library,
    learn_prior,
)
from repro.runtime import RunLedger, clear_all_caches
from repro.runtime.executor import get_executor
from repro.runtime.service import CharacterizationService, ServiceOverloaded
from repro.utils.rng import ensure_rng

#: Naive/service pairs timed; the record keeps their median ratio.
PAIRS = 3
#: Coalescing window of the service runs (seconds).
BATCH_WINDOW_S = 0.05


def _arcs_of(cell):
    return tuple(cell.arc(pin, transition)
                 for pin in cell.input_pins
                 for transition in (Transition.FALL, Transition.RISE))


def test_service_acceptance(results_dir):
    n_clients = env_int("REPRO_BENCH_SERVICE_CLIENTS", 6)
    n_seeds = env_int("REPRO_BENCH_SERVICE_SEEDS", 8)
    n_conditions = env_int("REPRO_BENCH_SERVICE_CONDITIONS", 2)

    technology = get_technology("n28_bulk")
    historical = [characterize_historical_library(
        get_technology("n45_bulk"),
        [make_cell(name) for name in ("INV_X1", "NAND2_X1", "NOR2_X1")])]
    delay_prior = learn_prior(historical, response="delay")
    slew_prior = learn_prior(historical, response="slew")
    variation = technology.variation.sample(n_seeds, ensure_rng(11))
    conditions = tuple(InputSpace(technology).sample_lhs(
        n_conditions, ensure_rng(5)))

    # Every client wants the same two cells -- fully overlapping libraries.
    cells = [make_cell("INV_X1"), make_cell("NAND2_X1")]
    requests = [(cell, _arcs_of(cell)) for cell in cells]
    n_arcs = sum(len(arcs) for _, arcs in requests)

    def serve_one_client(ledger):
        """One client's work, served naively: a direct fused pass."""
        results = {}
        for cell, arcs in requests:
            models, failures = characterize_fused_jobs(
                technology, [(cell, arc) for arc in arcs],
                [list(conditions) for _ in arcs], delay_prior, slew_prior,
                variation, "batched", get_executor("serial"),
                ledger, None)
            assert not failures
            results.update({f"{cell.name}:{arc.name}": model
                            for arc, model in zip(arcs, models)})
        return results

    def serve_naively():
        """Naive baseline: per-client serial, no sharing of any kind.

        Returns the last client's results, the wall time and the rows one
        client simulates (every client simulates the same rows).
        """
        start = time.perf_counter()
        for _ in range(n_clients):
            clear_all_caches()
            ledger = RunLedger()
            results = serve_one_client(ledger)
        seconds = time.perf_counter() - start
        clear_all_caches()
        return results, seconds, ledger.metrics()["fused_rows_simulated"]

    def serve_coalesced(late_slot=None):
        """N concurrent clients against one front door.

        Client ``late_slot`` (if any) submits one batch window after the
        others.  Returns the outcomes, the wall time, the service's stats
        and the rows it simulated.
        """
        outcomes = [None] * n_clients
        errors = []

        def client(slot, service, barrier):
            try:
                barrier.wait()
                if slot == late_slot:
                    time.sleep(BATCH_WINDOW_S)
                got = {}
                for cell, arcs in requests:
                    result = service.request(cell, arcs, conditions,
                                             deadline_s=120.0)
                    assert result.complete, \
                        f"client {slot} got a partial result"
                    got.update({f"{cell.name}:{name}": model
                                for name, model
                                in result.characterizations.items()})
                outcomes[slot] = got
            except Exception as error:  # pragma: no cover - failure path
                errors.append((slot, error))

        with CharacterizationService(technology, delay_prior, slew_prior,
                                     variation,
                                     batch_window_s=BATCH_WINDOW_S) as service:
            barrier = threading.Barrier(n_clients + 1)
            threads = [threading.Thread(target=client,
                                        args=(slot, service, barrier))
                       for slot in range(n_clients)]
            for thread in threads:
                thread.start()
            barrier.wait()
            start = time.perf_counter()
            for thread in threads:
                thread.join(timeout=300)
            seconds = time.perf_counter() - start
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, f"client failures: {errors}"
        stats = service.stats()
        rows = service.ledger.metrics().get("fused_rows_simulated", 0)
        return outcomes, seconds, stats, rows

    def check_served(outcomes, stats):
        """Bit-identical to the naive runs, no nominal deadline misses,
        nothing shed, and the overlap coalesced."""
        for got in outcomes:
            assert got is not None
            assert set(got) == set(reference)
            for unit, model in got.items():
                np.testing.assert_array_equal(
                    model.delay_parameters, reference[unit].delay_parameters)
                np.testing.assert_array_equal(
                    model.slew_parameters, reference[unit].slew_parameters)
        assert stats.deadline_misses == 0
        assert stats.shed == 0
        assert stats.coalesced_arcs > 0

    pairs, ratios, reference = [], [], None
    for _ in range(PAIRS):
        naive_results, naive_seconds, naive_rows = serve_naively()
        if reference is None:
            reference = naive_results
        outcomes, service_seconds, stats, service_rows = serve_coalesced()
        check_served([naive_results] + outcomes, stats)
        # Coalescing is exact: N clients cost the rows of one.
        assert service_rows == naive_rows, (
            f"the service simulated {service_rows} rows for {n_clients} "
            f"clients; one naive client simulates {naive_rows}")

        ratios.append(naive_seconds / service_seconds)
        pairs.append({"naive_seconds": round(naive_seconds, 4),
                      "service_seconds": round(service_seconds, 4),
                      "speedup": round(ratios[-1], 2),
                      "naive_rows_per_client": int(naive_rows),
                      "service_rows": int(service_rows),
                      "batches": int(stats.batches),
                      "coalesced_arcs": int(stats.coalesced_arcs)})
    speedup = statistics.median(ratios)

    # ----------------------------------------------------------------------
    # The count does not depend on batching: one client submits a window
    # late, so its requests land in later batches (or hit the solved-model
    # cache at admission), and the service still simulates each row once.
    # ----------------------------------------------------------------------
    clear_all_caches()
    outcomes, _, late_stats, late_rows = serve_coalesced(
        late_slot=n_clients - 1)
    check_served(outcomes, late_stats)
    assert late_rows == naive_rows, (
        f"with one client a window late the service simulated {late_rows} "
        f"rows; one naive client simulates {naive_rows}")

    # ----------------------------------------------------------------------
    # Overload: a shrunken queue sheds the excess, serves the admitted.
    # ----------------------------------------------------------------------
    clear_all_caches()
    shed_service = CharacterizationService(
        technology, delay_prior, slew_prior, variation,
        queue_depth=2, batch_window_s=0.02, shed_policy="reject",
        start=False)
    admitted, shed = [], 0
    for _ in range(n_clients):
        try:
            admitted.append(shed_service.submit(
                requests[0][0], requests[0][1], conditions))
        except ServiceOverloaded:
            shed += 1
    shed_service.start()
    shed_results = [ticket.result(timeout=300) for ticket in admitted]
    shed_service.close()
    assert shed == max(0, n_clients - 2)
    assert all(result.complete for result in shed_results)
    assert shed_service.stats().shed == shed

    print(f"\nService acceptance: {n_clients} clients x {n_arcs} arcs x "
          f"{n_seeds} seeds x {n_conditions} conditions")
    for index, pair in enumerate(pairs):
        print(f"pair {index}: naive per-client serial "
              f"{pair['naive_seconds']:.3f} s, coalesced service "
              f"{pair['service_seconds']:.3f} s ({pair['speedup']:.2f}x)")
    print(f"median speedup: {speedup:.2f}x")
    print(f"rows simulated: {naive_rows} per naive client, {service_rows} "
          f"by the service for {n_clients} clients, {late_rows} with one "
          f"client a window late ({late_stats.batches} batches)")
    print(f"last pair: batches {stats.batches}, coalesced arcs "
          f"{stats.coalesced_arcs}, deadline misses {stats.deadline_misses}; "
          f"overload shed {shed}/{n_clients}")

    payload = {
        "benchmark": "service_acceptance",
        "host": platform.node(),
        "n_clients": n_clients,
        "n_seeds": n_seeds,
        "n_conditions": n_conditions,
        "n_arcs": n_arcs,
        "naive_seconds": statistics.median(
            pair["naive_seconds"] for pair in pairs),
        "service_seconds": statistics.median(
            pair["service_seconds"] for pair in pairs),
        "coalescing_speedup": round(speedup, 2),
        "pairs": pairs,
        "naive_rows_per_client": int(naive_rows),
        "service_rows": int(service_rows),
        "late_client_rows": int(late_rows),
        "late_client_batches": int(late_stats.batches),
        "batches": int(stats.batches),
        "coalesced_arcs": int(stats.coalesced_arcs),
        "deadline_misses": int(stats.deadline_misses),
        "queue_peak": int(stats.queue_peak),
        "overload_shed": int(shed),
        "overload_served": len(shed_results),
    }
    write_json_result(results_dir / "BENCH_service.json", payload)

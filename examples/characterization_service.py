"""The characterization serving front door, exercised end to end.

Characterization as a long-lived *service* rather than a batch script:
many concurrent clients submit overlapping (cell, arcs, conditions)
requests to one :class:`repro.runtime.service.CharacterizationService`,
which folds them into shared fused-pipeline passes.  The demo walks the
four serving disciplines:

1. **Single-flight coalescing** -- eight clients wanting the same two
   cells are served by one fused pass; the stats show one or two batches
   and dozens of coalesced arcs instead of eight recomputations.  A
   client that arrives after the pass is answered at admission from the
   solved-model cache (``admission hits``), without waiting for a batch.
2. **Cooperative deadlines** -- an impatient client (tight ``deadline_s``)
   submits alongside a deliberately slowed batch (the
   ``service.slow_worker`` fault); it gets ``DeadlineExceeded`` promptly
   while a patient peer still receives the full, bit-exact result.
3. **Admission control / load-shedding** -- a shrunken queue under the
   ``reject`` policy turns excess submits into ``ServiceOverloaded``
   instead of unbounded backlog; the admitted requests all complete.
4. **Disk circuit breaker** -- an injected ENOSPC storm on the durable
   tier (``persist.write``) trips the breaker, detaches the disk store,
   and the service keeps answering from memory.

Run with::

    python examples/characterization_service.py

The service is tuned by its constructor arguments only (``queue_depth``,
``batch_window_s``, ``shed_policy``, ``breaker``; see
``repro.runtime.service``); each scenario below sets the ones it exercises.
"""

from __future__ import annotations

import tempfile
import threading
import time

from repro import (
    characterize_historical_library,
    get_technology,
    learn_prior,
    make_cell,
)
from repro.cells import Transition
from repro.characterization.input_space import InputSpace
from repro.runtime import FaultSpec, clear_all_caches, inject
from repro.runtime.persist import DiskStore
from repro.runtime.resilience import CircuitBreaker, DeadlineExceeded
from repro.runtime.service import CharacterizationService, ServiceOverloaded
from repro.spice.testbench import get_simulation_cache
from repro.utils.rng import ensure_rng


def arcs_of(cell):
    return tuple(cell.arc(pin, transition)
                 for pin in cell.input_pins
                 for transition in (Transition.FALL, Transition.RISE))


def show(stats) -> None:
    print(f"  submitted {stats.submitted}, completed {stats.completed}, "
          f"batches {stats.batches}, admission hits {stats.admission_hits}, "
          f"coalesced arcs {stats.coalesced_arcs}")
    print(f"  deadline misses {stats.deadline_misses}, shed {stats.shed}, "
          f"queue peak {stats.queue_peak}, breaker {stats.breaker_state} "
          f"(trips {stats.breaker_trips})")


def main() -> None:
    technology = get_technology("n28_bulk")
    historical = [characterize_historical_library(
        get_technology("n45_bulk"),
        [make_cell(name) for name in ("INV_X1", "NAND2_X1", "NOR2_X1")])]
    delay_prior = learn_prior(historical, response="delay")
    slew_prior = learn_prior(historical, response="slew")
    variation = technology.variation.sample(8, ensure_rng(11))
    conditions = tuple(InputSpace(technology).sample_lhs(2, ensure_rng(5)))
    cells = [make_cell("INV_X1"), make_cell("NAND2_X1")]

    def build(**kwargs):
        return CharacterizationService(technology, delay_prior, slew_prior,
                                       variation, **kwargs)

    # ------------------------------------------------------------------
    # 1. Single-flight coalescing: 8 clients, fully overlapping wants.
    # ------------------------------------------------------------------
    print("1. Single-flight coalescing -- 8 concurrent clients, 2 cells")
    clear_all_caches()
    results = {}
    with build(batch_window_s=0.05) as service:
        def client(slot):
            cell = cells[slot % len(cells)]
            results[slot] = service.request(cell, arcs_of(cell), conditions,
                                            deadline_s=120.0)
        start = time.perf_counter()
        threads = [threading.Thread(target=client, args=(slot,))
                   for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        # A late client asks again: the solved-model cache answers it at
        # admission, without a batch.
        late = service.request(cells[0], arcs_of(cells[0]), conditions)
        stats = service.stats()
    assert all(result.complete for result in results.values())
    print(f"  8 clients served in {wall:.2f} s "
          f"({sum(r.coalesced for r in results.values())} rode shared work)")
    print(f"  a late repeat came back in {1e3 * late.wall_s:.2f} ms")
    show(stats)

    # ------------------------------------------------------------------
    # 2. Deadlines: an impatient client against a slowed worker.
    # ------------------------------------------------------------------
    print("\n2. Cooperative deadlines -- slow worker, one impatient client")
    clear_all_caches()
    with inject([FaultSpec(site="service.slow_worker", kind="slow",
                           delay_s=0.5, at_calls=(0,))]):
        with build(batch_window_s=0.05) as service:
            impatient = service.submit(cells[0], arcs_of(cells[0]),
                                       conditions, deadline_s=0.1)
            patient = service.submit(cells[0], arcs_of(cells[0]),
                                     conditions, deadline_s=120.0)
            try:
                impatient.result(timeout=60)
                print("  impatient client: unexpectedly served")
            except DeadlineExceeded as error:
                print(f"  impatient client: {error}")
            result = patient.result(timeout=60)
            assert result.complete
            print("  patient client  : complete result, "
                  f"coalesced={result.coalesced}, wall {result.wall_s:.2f} s")
            show(service.stats())

    # ------------------------------------------------------------------
    # 3. Admission control: queue depth 2, reject policy.
    # ------------------------------------------------------------------
    print("\n3. Load-shedding -- queue depth 2, 6 submits, reject policy")
    clear_all_caches()
    service = build(queue_depth=2, batch_window_s=0.05, shed_policy="reject",
                    start=False)
    admitted, shed = [], 0
    for _ in range(6):
        try:
            admitted.append(service.submit(cells[0], arcs_of(cells[0]),
                                           conditions))
        except ServiceOverloaded:
            shed += 1
    service.start()
    served = [ticket.result(timeout=120) for ticket in admitted]
    assert all(result.complete for result in served)
    print(f"  admitted {len(admitted)}, shed {shed}; "
          "every admitted request completed")
    show(service.stats())
    service.close()

    # ------------------------------------------------------------------
    # 4. Disk circuit breaker: ENOSPC storm on the durable tier.
    # ------------------------------------------------------------------
    print("\n4. Circuit breaker -- ENOSPC storm on the disk tier")
    clear_all_caches()
    with tempfile.TemporaryDirectory(prefix="repro_service_demo_") as root:
        sim_cache = get_simulation_cache()
        sim_cache.attach_disk_store(DiskStore(root))
        try:
            with inject([FaultSpec(site="persist.write", kind="enospc",
                                   rate=1.0)]):
                with build(batch_window_s=0.05,
                           breaker=CircuitBreaker(failure_threshold=1,
                                                  cooldown_s=30.0)) as service:
                    result = service.request(cells[0], arcs_of(cells[0]),
                                             conditions, deadline_s=120.0)
                    assert result.complete
                    stats = service.stats()
            print("  request served from memory despite a failing disk tier")
            print(f"  breaker {stats.breaker_state}, trips "
                  f"{stats.breaker_trips}, disk detached: "
                  f"{sim_cache.disk_store is None}")
            show(stats)
        finally:
            if sim_cache.disk_store is not None:
                sim_cache.detach_disk_store()
    clear_all_caches()


if __name__ == "__main__":
    main()

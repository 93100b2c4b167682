"""Characterization test benches.

These helpers wrap the equivalent-inverter reduction and the transient solver
into the measurements library characterization actually consumes: the
propagation delay ``Td`` and output transition time ``Sout`` of one timing
arc at one ``(Sin, Cload, Vdd)`` operating point, optionally vectorized over
a batch of Monte Carlo process seeds.

The module also provides :class:`SimulationCounter`, the bookkeeping object
behind every speedup number reported by the benchmark harness: each call that
performs a transient integration charges ``n_seeds`` "SPICE runs" to the
counter, mirroring how the paper counts simulator invocations, and
:class:`SimulationCache`, a memoized store of per-condition delay/slew
results keyed on ``(cell, arc, variation fingerprint, condition, n_steps)``
so the baseline and proposed flows stop re-simulating identical operating
points.  Counters are charged whether or not the cache hits: they account
for the simulation runs a flow *requires* (the quantity the paper's speedup
claims are about), while the cache only shortens wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells.equivalent_inverter import arc_identity_key
from repro.cells.library import Cell, TimingArc
from repro.runtime import register_runtime_cache
from repro.runtime.cache import LruCache
from repro.spice.transient import DEFAULT_STEPS
from repro.technology.node import TechnologyNode
from repro.technology.variation import VariationSample


class SimulationCounter:
    """Counts transient-simulation invocations ("SPICE runs").

    The paper's efficiency claims are expressed in numbers of simulation runs
    (``O(k * Nsample)`` for the proposed flow versus ``O(N_LUT * Nsample)``
    for the look-up-table flow).  All characterization flows in this library
    accept an optional counter and charge one run per seed per input
    condition, so those complexities can be measured rather than asserted.
    """

    def __init__(self) -> None:
        self._total = 0
        self._by_label: Dict[str, int] = {}

    @property
    def total(self) -> int:
        """Total number of simulation runs charged so far."""
        return self._total

    def by_label(self) -> Dict[str, int]:
        """Breakdown of runs by label (flow name, cell name, ...)."""
        return dict(self._by_label)

    def add(self, runs: int, label: str = "unlabelled") -> None:
        """Charge ``runs`` simulation runs under ``label``."""
        if runs < 0:
            raise ValueError("runs must be non-negative")
        self._total += int(runs)
        self._by_label[label] = self._by_label.get(label, 0) + int(runs)

    def reset(self) -> None:
        """Reset all counts to zero."""
        self._total = 0
        self._by_label.clear()


#: Default byte bound of the global simulation cache (256 MiB).  Before the
#: runtime substrate the cache was bounded only by entry count, so a
#: many-seed workload could hold gigabytes of per-condition arrays.
DEFAULT_SIM_CACHE_BYTES = 256 * 2**20


class SimulationCache(LruCache):
    """LRU memoization of per-condition transient results.

    A :class:`~repro.runtime.cache.LruCache` specialization: bounded both by
    entry count and by payload bytes, with hit/miss/eviction statistics
    reported through ``repro.runtime.cache_stats()`` for the registered
    global instance.

    Keys identify the operating point: cell name and unit device widths,
    technology name plus content fingerprint, timing arc, the content
    fingerprint of the Monte Carlo seed batch (or ``"nominal"``), the
    ``(sin, cload, vdd)`` condition, and the full stepper signature
    (scheme, step count or tolerances/controller constants) -- built as
    :meth:`arc_prefix` (one per swept arc; exact guarantees documented
    there) plus a :meth:`condition_key` tail per operating point.  Values
    are the measured per-seed delay and slew arrays; copies are stored and
    returned so callers can never corrupt the cache.

    The global instance (:func:`get_simulation_cache`) is keyed, consulted
    and filled only by :class:`~repro.core.simulation_plan.SimulationPlan`,
    the one simulation path that :func:`repro.spice.sweep.sweep_conditions`
    and the fused library, historical and service flows all run.  It holds
    at most 4096 conditions and 256 MiB by default;
    ``repro.runtime.configure(cache_bytes=...)`` or :meth:`set_bounds`
    re-bounds it, and ``get_simulation_cache().disable()`` turns caching
    off process-wide (``sweep_conditions(cache=False)`` skips it for one
    sweep).
    """

    def __init__(self, max_entries: int = 4096,
                 max_bytes: Optional[int] = DEFAULT_SIM_CACHE_BYTES,
                 name: str = "simulation"):
        # durable: keys are stable digests/values are plain arrays, so
        # entries are valid across processes and may live on disk.
        super().__init__(name=name, max_entries=max_entries,
                         max_bytes=max_bytes, durable=True)

    # ------------------------------------------------------------------
    # Keying and access
    # ------------------------------------------------------------------
    @staticmethod
    def arc_prefix(cell: Cell, technology: TechnologyNode, arc: TimingArc,
                   variation_fingerprint: str) -> tuple:
        """The arc-identity prefix shared by every key of one bound arc.

        Sweeps and the fused library planner build this once per arc and
        append per-condition tails with :meth:`condition_key`, instead of
        re-deriving the cell/technology identity for every operating point.
        The exact identity guarantees are those of the shared
        :func:`repro.cells.equivalent_inverter.arc_identity_key`.
        """
        return arc_identity_key(cell, technology, arc, variation_fingerprint)

    @staticmethod
    def condition_key(prefix: tuple, sin: float, cload: float, vdd: float,
                      stepper) -> tuple:
        """Append one operating point and stepper identity to an arc prefix.

        ``stepper`` is the numerical-scheme identity: a
        :class:`~repro.spice.stepper.StepperSpec` (its
        :meth:`~repro.spice.stepper.StepperSpec.signature` is embedded), a
        plain ``int`` step count (historical callers; normalized to the
        equivalent fixed-step ``("rk4", n_steps)`` signature), or an
        already-built signature tuple.  Results produced by different
        schemes or tolerances therefore can never collide.  Disk-tier
        entries written before signature keying hash differently and are
        simply re-simulated on first use.
        """
        if isinstance(stepper, tuple):
            signature = stepper
        elif isinstance(stepper, int):
            signature = ("rk4", int(stepper))
        else:
            signature = stepper.signature()
        return prefix + (float(sin), float(cload), float(vdd)) + signature

    def get(self, key: tuple) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Return ``(delay, slew)`` copies for ``key``, or ``None`` on a miss."""
        entry = super().get(key)
        if entry is None:
            return None
        return entry[0].copy(), entry[1].copy()

    def put(self, key: tuple, delay: np.ndarray, slew: np.ndarray) -> None:
        """Store ``(delay, slew)`` for ``key`` (no-op while disabled)."""
        delay = np.array(delay, dtype=float, copy=True)
        slew = np.array(slew, dtype=float, copy=True)
        super().put(key, (delay, slew), nbytes=delay.nbytes + slew.nbytes)


_SIMULATION_CACHE: Optional[SimulationCache] = None


def get_simulation_cache() -> SimulationCache:
    """The process-wide :class:`SimulationCache` (lazily constructed).

    Built with the :class:`SimulationCache` defaults and registered in the
    runtime cache registry under the name ``"simulation"``, so its
    statistics appear in ``repro.runtime.cache_stats()``,
    ``configure(cache_bytes=...)`` re-bounds it and a configured disk tier
    attaches to it.
    """
    global _SIMULATION_CACHE
    if _SIMULATION_CACHE is None:
        _SIMULATION_CACHE = register_runtime_cache(SimulationCache())
    return _SIMULATION_CACHE


@dataclass(frozen=True)
class TimingMeasurement:
    """Delay and output slew of one arc at one operating point.

    ``delay`` and ``output_slew`` are arrays over Monte Carlo seeds (length 1
    for nominal characterization).
    """

    cell_name: str
    arc: TimingArc
    sin: float
    cload: float
    vdd: float
    delay: np.ndarray
    output_slew: np.ndarray

    @property
    def n_seeds(self) -> int:
        """Number of process seeds in this measurement."""
        return int(np.asarray(self.delay).size)

    def nominal_delay(self) -> float:
        """Delay of the first (nominal) seed."""
        return float(np.asarray(self.delay).reshape(-1)[0])

    def nominal_slew(self) -> float:
        """Output slew of the first (nominal) seed."""
        return float(np.asarray(self.output_slew).reshape(-1)[0])

    def delay_statistics(self) -> Dict[str, float]:
        """Mean / standard deviation / skewness of the delay ensemble."""
        return _ensemble_statistics(np.asarray(self.delay, dtype=float))

    def slew_statistics(self) -> Dict[str, float]:
        """Mean / standard deviation / skewness of the slew ensemble."""
        return _ensemble_statistics(np.asarray(self.output_slew, dtype=float))


def _ensemble_statistics(values: np.ndarray) -> Dict[str, float]:
    values = values.reshape(-1)
    mean = float(np.mean(values))
    std = float(np.std(values))
    if std > 0.0 and values.size > 2:
        skew = float(np.mean(((values - mean) / std) ** 3))
    else:
        skew = 0.0
    return {"mean": mean, "std": std, "skew": skew}


def characterize_arc(
    cell: Cell,
    technology: TechnologyNode,
    sin: float,
    cload: float,
    vdd: float,
    arc: Optional[TimingArc] = None,
    variation: Optional[VariationSample] = None,
    n_steps: int = DEFAULT_STEPS,
    counter: Optional[SimulationCounter] = None,
    counter_label: str = "characterize_arc",
) -> TimingMeasurement:
    """Measure ``Td`` and ``Sout`` of one cell arc at one operating point.

    Parameters
    ----------
    cell, technology:
        The cell and the technology node to bind it to.
    sin, cload, vdd:
        Input slew (seconds), load capacitance (farads), supply (volts).
    arc:
        Timing arc; defaults to the first input pin, falling output.
    variation:
        Optional batch of process seeds (vectorized simulation).
    n_steps:
        RK4 steps for the transient solver.
    counter:
        Optional :class:`SimulationCounter` charged with one run per seed.
    counter_label:
        Label under which runs are charged.
    """
    from repro.spice.sweep import sweep_conditions  # deferred: avoids cycle

    return sweep_conditions(
        cell, technology, [(sin, cload, vdd)], arc=arc, variation=variation,
        n_steps=n_steps, counter=counter, counter_label=counter_label,
    )[0]


def characterize_cell_nominal(
    cell: Cell,
    technology: TechnologyNode,
    conditions: Sequence[Sequence[float]],
    arc: Optional[TimingArc] = None,
    n_steps: int = DEFAULT_STEPS,
    counter: Optional[SimulationCounter] = None,
) -> List[TimingMeasurement]:
    """Nominal characterization of one arc over a list of operating points.

    ``conditions`` is a sequence of ``(sin, cload, vdd)`` triples, all
    simulated by one :func:`~repro.spice.sweep.sweep_conditions` call.
    """
    from repro.spice.sweep import sweep_conditions  # deferred: avoids cycle

    return sweep_conditions(
        cell, technology, conditions, arc=arc, n_steps=n_steps,
        counter=counter, counter_label=f"nominal:{cell.name}",
    )

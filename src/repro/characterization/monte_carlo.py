"""Brute-force baseline characterization.

The accuracy reference ("baseline characterization") of the paper is direct
simulation at every validation input condition: nominal SPICE runs for the
nominal experiments, and full Monte Carlo over process seeds for the
statistical experiments.  These functions provide exactly that, with
simulation-run accounting so speedups can be computed against them.

Both baselines run on the batched transient engine through
:func:`repro.spice.sweep.sweep_conditions`: the requested conditions are
integrated as ``(n_rows, n_seeds)`` passes tiled at the memory budget, and
previously simulated operating points are served from the global
simulation cache.  The
simulation-run counters are unaffected by either optimization -- they keep
counting the runs the flow *requires*, as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.cells.equivalent_inverter import default_arc
from repro.cells.library import Cell, TimingArc
from repro.characterization.input_space import InputCondition
from repro.spice.sweep import sweep_conditions
from repro.spice.testbench import SimulationCounter
from repro.technology.node import TechnologyNode
from repro.technology.variation import VariationSample


@dataclass(frozen=True)
class BaselineCharacterization:
    """Nominal baseline: directly simulated delay/slew at every condition."""

    cell_name: str
    arc_name: str
    conditions: Tuple[InputCondition, ...]
    delay: np.ndarray
    slew: np.ndarray
    simulation_runs: int

    @property
    def n_conditions(self) -> int:
        """Number of validation conditions."""
        return len(self.conditions)


@dataclass(frozen=True)
class StatisticalBaseline:
    """Statistical baseline: per-condition Monte Carlo delay/slew ensembles."""

    cell_name: str
    arc_name: str
    conditions: Tuple[InputCondition, ...]
    delay_samples: np.ndarray
    slew_samples: np.ndarray
    simulation_runs: int

    @property
    def n_conditions(self) -> int:
        """Number of validation conditions."""
        return len(self.conditions)

    @property
    def n_seeds(self) -> int:
        """Number of Monte Carlo seeds per condition."""
        return int(self.delay_samples.shape[1])

    def statistics(self) -> Dict[str, np.ndarray]:
        """Per-condition mean and standard deviation of delay and slew."""
        return {
            "mu_delay": self.delay_samples.mean(axis=1),
            "sigma_delay": self.delay_samples.std(axis=1),
            "mu_slew": self.slew_samples.mean(axis=1),
            "sigma_slew": self.slew_samples.std(axis=1),
        }


def nominal_baseline(
    cell: Cell,
    technology: TechnologyNode,
    conditions: Sequence[InputCondition],
    arc: Optional[TimingArc] = None,
    counter: Optional[SimulationCounter] = None,
) -> BaselineCharacterization:
    """Directly simulate every condition once (nominal process)."""
    conditions = tuple(conditions)
    if not conditions:
        raise ValueError("at least one condition is required")
    arc = arc if arc is not None else default_arc(cell)
    measurements = sweep_conditions(
        cell, technology, [c.as_tuple() for c in conditions], arc=arc,
        counter=counter, counter_label=f"baseline_nominal:{cell.name}")
    return BaselineCharacterization(
        cell_name=cell.name,
        arc_name=arc.name,
        conditions=conditions,
        delay=np.array([m.nominal_delay() for m in measurements]),
        slew=np.array([m.nominal_slew() for m in measurements]),
        simulation_runs=len(conditions),
    )


def statistical_baseline(
    cell: Cell,
    technology: TechnologyNode,
    conditions: Sequence[InputCondition],
    variation: VariationSample,
    arc: Optional[TimingArc] = None,
    counter: Optional[SimulationCounter] = None,
) -> StatisticalBaseline:
    """Simulate every condition for every Monte Carlo seed (the costly flow)."""
    conditions = tuple(conditions)
    if not conditions:
        raise ValueError("at least one condition is required")
    if variation.n_seeds < 2:
        raise ValueError("statistical baseline needs at least 2 seeds")
    arc = arc if arc is not None else default_arc(cell)
    measurements = sweep_conditions(
        cell, technology, [c.as_tuple() for c in conditions], arc=arc,
        variation=variation, counter=counter,
        counter_label=f"baseline_statistical:{cell.name}")
    delay_samples = np.stack([np.asarray(m.delay).reshape(-1) for m in measurements],
                             axis=0)
    slew_samples = np.stack([np.asarray(m.output_slew).reshape(-1)
                             for m in measurements], axis=0)
    return StatisticalBaseline(
        cell_name=cell.name,
        arc_name=arc.name,
        conditions=conditions,
        delay_samples=delay_samples,
        slew_samples=slew_samples,
        simulation_runs=len(conditions) * variation.n_seeds,
    )

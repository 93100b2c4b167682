"""Monte Carlo statistical static timing analysis (SSTA).

The statistical analogue of :mod:`repro.sta.analysis`: arrival times are
vectors over the Monte Carlo process seeds carried by a
:class:`~repro.sta.timing_view.StatisticalTimingView`, maxima are taken
seed-wise, and the result is the full distribution of the critical-path
delay -- mean, sigma, and the high quantiles that statistical sign-off uses.
This is the downstream consumer the paper's statistical library
characterization exists to serve.

As in the deterministic analyzer, each topological level is one array
pass: arrivals live in one ``(n_nets + 1, n_seeds)`` array (the last row is
the ``-inf`` sentinel that spare fanin slots read), every level finds its
seed-wise worst fanins with a running maximum over the padded fanin matrix,
and the whole level is one ``(gates x seeds)`` timing-view query
(:meth:`~repro.sta.timing_view.StatisticalTimingView.level_timing_samples`),
whatever its mix of cell types.  Each gate's driving slew is selected **per
seed** from that seed's worst (latest-arriving) input -- not from one
globally worst input -- and a ``primary_input_arrival`` is accepted,
mirroring the deterministic analyzer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.analysis.distributions import DistributionSummary, summarize_many
from repro.sta.analysis import MIN_LOAD_F, TimingGraphAnalyzer


@dataclass(frozen=True)
class SstaReport:
    """Result of a Monte Carlo SSTA run.

    Attributes
    ----------
    critical_output:
        Primary output with the largest mean arrival time.
    delay_samples:
        Per-seed critical delays of that output, in seconds.
    summary:
        Moments and quantiles of the critical-delay distribution.
    output_summaries:
        Distribution summary per primary output.
    criticality:
        Per primary output, the fraction of seeds for which that output has
        the latest arrival -- the Monte Carlo criticality probability that
        statistical sign-off ranks endpoints by.
    """

    critical_output: str
    delay_samples: np.ndarray
    summary: DistributionSummary
    output_summaries: Dict[str, DistributionSummary]
    criticality: Dict[str, float]


def _criticality(names, samples: np.ndarray) -> Dict[str, float]:
    """Fraction of seeds each output is the (first) latest arrival."""
    winners = np.argmax(samples, axis=0)
    n_seeds = samples.shape[1]
    return {name: float(np.count_nonzero(winners == index) / n_seeds)
            for index, name in enumerate(names)}


class MonteCarloSsta(TimingGraphAnalyzer):
    """Seed-vectorized SSTA over a :class:`StatisticalTimingView`.

    Construction, net-load precomputation and post-mutation refresh are
    shared with the deterministic analyzer
    (:class:`~repro.sta.analysis.TimingGraphAnalyzer`); :meth:`run` returns
    an :class:`SstaReport` with the critical-delay distribution.
    """

    _ledger_stage = "ssta"

    def _report(self, po_names, po_samples: np.ndarray) -> SstaReport:
        output_summaries = dict(zip(po_names, summarize_many(po_samples)))
        critical_output = max(output_summaries,
                              key=lambda net: output_summaries[net].mean)
        critical_index = list(po_names).index(critical_output)
        return SstaReport(
            critical_output=critical_output,
            delay_samples=po_samples[critical_index].copy(),
            summary=output_summaries[critical_output],
            output_summaries=output_summaries,
            criticality=_criticality(po_names, po_samples),
        )

    def _propagate(self) -> SstaReport:
        compiled = self._compiled
        n_seeds = self._view.n_seeds
        arrival = np.full((compiled.n_nets + 1, n_seeds), -np.inf)
        slew = np.zeros((compiled.n_nets + 1, n_seeds))
        arrival[compiled.primary_input_nets] = self._input_arrival
        slew[compiled.primary_input_nets] = self._input_slew
        loads = np.maximum(self._loads, MIN_LOAD_F)

        starts = compiled.level_starts.tolist()
        for level in range(compiled.n_levels):
            gates = slice(starts[level], starts[level + 1])
            # worst: (G, S) seed-wise latest fanin arrival; input_slews: the
            # slew of the first pin attaining it, seed-wise.
            worst, input_slews = compiled.level_worst_fanins(level, arrival,
                                                             slew)
            out_nets = compiled.gate_output_net[gates]
            delay, out_slew = self._view.level_timing_samples(
                self._gate_rows[gates], input_slews, loads[out_nets])
            arrival[out_nets] = np.add(worst, delay, out=worst)
            slew[out_nets] = out_slew

        po_names = [compiled.net_names[index]
                    for index in compiled.primary_output_nets]
        po_samples = arrival[compiled.primary_output_nets]
        return self._report(po_names, po_samples)

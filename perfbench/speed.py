"""Host-speed calibration of compute-bound timings.

On a shared host the machine's own speed drifts.  On the 2-vCPU Xeon VM
this benchmark was tuned on, a fixed NumPy kernel took anywhere from 57 to
84 ms from one second to the next, and the drift outlasts a run: medians of
identical 20 s windows spread by 20%, with the process's CPU time tracking
its wall time (no steal).  A run cannot average that away.

:class:`SpeedProbe` times a fixed kernel of elementwise array arithmetic,
like the transient engines' inner loop, between the steps of each flow
iteration, around each set-up pass and around ``serve_closed``'s window.
(A batched LAPACK solve was tried in the kernel and dropped: its own time
jittered by a factor of two from call to call.)  A calibrated time is a
wall time scaled by ``NOMINAL_S`` over the probe's mean, which is the wall
time it would take on a host running the kernel in ``NOMINAL_S``.  A change
to the library moves the operation and not the kernel, so it shows in
full.  In the same probes, calibrated medians of 20 s windows spread by 9%
instead of 20%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe kernel time on an uncontended host of the tuning machine, seconds.
NOMINAL_S = 0.0065
_ROUNDS = 220


class SpeedProbe:
    """A fixed reference kernel, timed on demand."""

    def __init__(self) -> None:
        self._state = np.random.default_rng(0).random((40, 200))
        self.measure()  # first-call costs stay out of every reading

    def measure(self) -> float:
        """Seconds the kernel takes right now (median of three runs)."""
        return statistics.median(self._kernel() for _ in range(3))

    def _kernel(self) -> float:
        start = time.perf_counter()
        state = self._state.copy()
        for _ in range(_ROUNDS):
            state = np.clip(state * 1.0001 + 0.5 * np.sqrt(np.abs(state))
                            - 0.3, -5.0, 5.0)
        return time.perf_counter() - start

    def scale(self, before: float, after: float) -> float:
        """Factor from wall time to calibrated time, given two readings."""
        return NOMINAL_S / (0.5 * (before + after))

"""Condition-by-condition transient integration.

The reference for the batched engines behind
:func:`repro.spice.sweep_conditions` and the fused simulation plan: every
``(sin, cload, vdd)`` condition is integrated on its own through the
single-condition engine :func:`repro.spice.simulate_arc_transition`.  The
batched fixed-step engine must agree at ``rtol 1e-9``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.cells.equivalent_inverter import default_arc, reduce_cell
from repro.spice.transient import DEFAULT_STEPS, simulate_arc_transition


def serial_transitions(inverter, conditions: Sequence[Sequence[float]],
                       n_steps: int = DEFAULT_STEPS
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-condition delays and slews of one equivalent inverter.

    Returns two ``(n_conditions, n_seeds)`` arrays (``n_seeds`` is 1 for a
    nominal inverter).
    """
    delays, slews = [], []
    for sin, cload, vdd in conditions:
        result = simulate_arc_transition(inverter, sin=sin, cload=cload,
                                         vdd=vdd, n_steps=n_steps)
        delays.append(np.asarray(result.delay(), dtype=float).reshape(-1))
        slews.append(np.asarray(result.output_slew(), dtype=float).reshape(-1))
    return np.stack(delays), np.stack(slews)


def serial_sweep(cell, technology, conditions, arc=None, variation=None,
                 n_steps: int = DEFAULT_STEPS) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`serial_transitions` of one cell arc (no simulation cache)."""
    inverter = reduce_cell(cell, technology,
                           arc=arc if arc is not None else default_arc(cell),
                           variation=variation)
    return serial_transitions(inverter, conditions, n_steps=n_steps)

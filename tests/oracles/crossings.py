"""Reference threshold-crossing extraction on stored waveforms.

:func:`crossing_time` is the straight-line measurement that
:meth:`repro.spice.waveform.WaveformBatch.crossing_time` must equal bit for
bit: both comparisons evaluated for every trace and blended by direction,
first crossing by ``any``/``argmax`` over the masked comparison, chord
interpolation, and -- with dense-output derivatives -- a bisection that
keeps both ends of its bracket and evaluates the Hermite cubic basis
term by term.  :func:`delay_and_slew` applies it to an input and an output
batch the way the engines report their measurements.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.spice.waveform import (
    DELAY_THRESHOLD,
    SLEW_DERATE,
    SLEW_HIGH_THRESHOLD,
    SLEW_LOW_THRESHOLD,
)

BISECTIONS = 52


def _hermite(s, v0, v1, d0, d1, dt):
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    return h00 * v0 + h10 * dt * d0 + h01 * v1 + h11 * dt * d1


def crossing_time(time: np.ndarray, voltage: np.ndarray,
                  valid_len: np.ndarray, thresholds,
                  rising: Optional[bool] = None,
                  derivative: Optional[np.ndarray] = None) -> np.ndarray:
    """First crossing of per-condition ``thresholds``, ``(n_cond, n_seeds)``.

    ``time`` is ``(n_cond, n_time)``, ``voltage`` (and ``derivative``)
    ``(n_cond, n_time, n_seeds)``; samples at or past ``valid_len`` are
    padding.
    """
    n_conditions, n_time = time.shape
    n_seeds = voltage.shape[2]
    thresholds = np.broadcast_to(np.asarray(thresholds, dtype=float),
                                 (n_conditions,))
    thr = thresholds[:, np.newaxis, np.newaxis]
    if rising is None:
        direction = voltage[:, -1, :] >= voltage[:, 0, :]
    else:
        direction = np.full((n_conditions, n_seeds), bool(rising))
    above = np.where(direction[:, np.newaxis, :], voltage >= thr,
                     voltage <= thr)
    above &= (np.arange(n_time)[np.newaxis, :]
              < valid_len[:, np.newaxis])[:, :, np.newaxis]

    any_above = above.any(axis=1)
    at_start = above[:, 0, :]
    hit = np.maximum(np.argmax(above, axis=1), 1)
    rows = np.arange(n_conditions)[:, np.newaxis]
    cols = np.arange(n_seeds)[np.newaxis, :]
    v0 = voltage[rows, hit - 1, cols]
    v1 = voltage[rows, hit, cols]
    t0 = time[rows, hit - 1]
    t1 = time[rows, hit]
    span = v1 - v0
    fraction = (thresholds[:, np.newaxis] - v0) / np.where(span == 0.0, 1.0,
                                                           span)
    crossings = np.where(span == 0.0, t1, t0 + fraction * (t1 - t0))
    if derivative is not None:
        d0 = derivative[rows, hit - 1, cols]
        d1 = derivative[rows, hit, cols]
        thr2 = thresholds[:, np.newaxis]
        refine = ((span != 0.0) & ~at_start
                  & np.isfinite(d0) & np.isfinite(d1))
        dt = t1 - t0
        f0_positive = (v0 - thr2) > 0.0
        lo = np.zeros_like(v0)
        hi = np.ones_like(v0)
        for _ in range(BISECTIONS):
            mid = 0.5 * (lo + hi)
            fm = _hermite(mid, v0, v1, d0, d1, dt) - thr2
            same_side = (fm > 0.0) == f0_positive
            lo = np.where(same_side, mid, lo)
            hi = np.where(same_side, hi, mid)
        refined = t0 + 0.5 * (lo + hi) * dt
        crossings = np.where(refine, refined, crossings)
    crossings = np.where(at_start, time[:, :1], crossings)
    return np.where(any_above, crossings, np.nan)


def delay_and_slew(input_batch, output_batch, vdd) -> tuple:
    """``(delay, slew)`` of output waveforms against their input ramps.

    Both arguments are :class:`~repro.spice.waveform.WaveformBatch`
    objects; the measurement is the engines' 50 %-to-50 % delay and derated
    20 %-80 % slew, extracted with :func:`crossing_time`.
    """
    vdd = np.asarray(vdd, dtype=float)

    def cross(batch, fraction):
        return crossing_time(batch.time, batch.voltage, batch.valid_len,
                             fraction * vdd, derivative=batch.derivative)

    delay = (cross(output_batch, DELAY_THRESHOLD)
             - cross(input_batch, DELAY_THRESHOLD))
    low = cross(output_batch, SLEW_LOW_THRESHOLD)
    high = cross(output_batch, SLEW_HIGH_THRESHOLD)
    return delay, np.abs(high - low) / SLEW_DERATE

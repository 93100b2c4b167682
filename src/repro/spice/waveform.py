"""Waveforms and timing measurements.

A :class:`Waveform` stores a shared time axis and per-seed voltage samples
(shape ``(n_time,)`` or ``(n_time, n_seeds)``) and provides the measurements
library characterization needs:

* threshold-crossing times with linear interpolation between samples (or
  cubic Hermite interpolation when the waveform carries dense-output
  derivatives; see below),
* propagation delay relative to an input waveform (50 %-to-50 %), and
* transition time (slew), measured between the 20 % and 80 % points and
  rescaled by the usual 0.6 derate so the reported value approximates the
  full-swing transition time.  The same convention is applied to input ramps,
  keeping ``Sin`` and ``Sout`` directly comparable.

All measurements are vectorized: a :class:`Waveform` measures every seed in
one array pass, and a :class:`WaveformBatch` measures a whole
``(n_conditions, n_seeds)`` sweep at once (the extraction side of the
adaptive engine in :mod:`repro.spice.adaptive`; the fixed-step engine in
:mod:`repro.spice.batch` applies the same chord interpolation,
:func:`_interpolate_crossing`, inside its step loop and stores no
waveform).

**Dense output.**  The adaptive engine (:mod:`repro.spice.adaptive`) samples
each condition on its own *non-uniform* grid whose spacing tracks the local
error, so chord interpolation between samples would lose accuracy exactly
where the steps are widest.  Both waveform classes therefore accept an
optional ``derivative`` array (``dV/dt`` at every sample -- the stepper's
FSAL stage, free of extra evaluations); when present, ``value_at`` and
``crossing_time`` evaluate the C1 cubic Hermite interpolant through each
bracketing segment (crossings are refined by bisection on the cubic), which
matches the integrator's own order on coarse steps.  Without derivatives the
historical linear path is taken, bit-for-bit unchanged.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Delay measurement threshold as a fraction of the supply.
DELAY_THRESHOLD = 0.5
#: Lower / upper slew measurement thresholds as fractions of the supply.
SLEW_LOW_THRESHOLD = 0.2
SLEW_HIGH_THRESHOLD = 0.8
#: Fraction of the full swing covered between the slew thresholds.
SLEW_DERATE = SLEW_HIGH_THRESHOLD - SLEW_LOW_THRESHOLD

#: Bisection iterations used to solve the Hermite cubic for a crossing time.
#: Each halves the bracket, so 52 reaches double-precision resolution of the
#: sample interval from any starting bracket.
_HERMITE_BISECTIONS = 52


def _interpolate_crossing(level, v0, v1, t0, t1):
    """Linear crossing time of ``level`` between samples ``(t0, v0)``, ``(t1, v1)``.

    The one chord interpolation of every crossing measurement: a flat
    segment (``v1 == v0``) reads as crossing at ``t1``.  All arguments
    broadcast.
    """
    span = v1 - v0
    fraction = (level - v0) / np.where(span == 0.0, 1.0, span)
    return np.where(span == 0.0, t1, t0 + fraction * (t1 - t0))


def _hermite_eval(s: np.ndarray, v0: np.ndarray, v1: np.ndarray,
                  d0: np.ndarray, d1: np.ndarray, dt: np.ndarray
                  ) -> np.ndarray:
    """Cubic Hermite interpolant at normalized position ``s`` in ``[0, 1]``.

    ``v0/v1`` are the segment endpoint values, ``d0/d1`` the endpoint time
    derivatives and ``dt`` the segment duration; all arguments broadcast.
    ``h00`` is formed as ``1 - h01``: negation is exact, so this is the
    rounded value of ``2 s^3 - 3 s^2 + 1`` evaluated left to right.
    """
    s2 = s * s
    s3 = s2 * s
    h01 = 3.0 * s2 - 2.0 * s3
    h00 = 1.0 - h01
    h10 = s3 - 2.0 * s2 + s
    h11 = s3 - s2
    return h00 * v0 + h10 * dt * d0 + h01 * v1 + h11 * dt * d1


class Waveform:
    """Sampled voltage waveform(s) on a common time axis."""

    def __init__(self, time: np.ndarray, voltage: np.ndarray,
                 derivative: Optional[np.ndarray] = None):
        time = np.asarray(time, dtype=float)
        voltage = np.asarray(voltage, dtype=float)
        if time.ndim != 1:
            raise ValueError("time must be a 1-D array")
        if time.size < 2:
            raise ValueError("waveforms need at least two samples")
        if np.any(np.diff(time) <= 0.0):
            raise ValueError("time samples must be strictly increasing")
        if voltage.ndim == 1:
            voltage = voltage[:, np.newaxis]
        if voltage.ndim != 2 or voltage.shape[0] != time.size:
            raise ValueError(
                f"voltage must have shape (n_time,) or (n_time, n_seeds); "
                f"got {voltage.shape} for {time.size} time points"
            )
        if derivative is not None:
            derivative = np.asarray(derivative, dtype=float)
            if derivative.ndim == 1:
                derivative = derivative[:, np.newaxis]
            if derivative.shape != voltage.shape:
                raise ValueError(
                    f"derivative must match the voltage shape "
                    f"{voltage.shape}; got {derivative.shape}"
                )
        self._time = time
        self._voltage = voltage
        self._derivative = derivative

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def time(self) -> np.ndarray:
        """Time samples in seconds, shape ``(n_time,)``."""
        return self._time

    @property
    def voltage(self) -> np.ndarray:
        """Voltage samples in volts, shape ``(n_time, n_seeds)``."""
        return self._voltage

    @property
    def n_seeds(self) -> int:
        """Number of per-seed traces stored in this waveform."""
        return self._voltage.shape[1]

    @property
    def derivative(self) -> Optional[np.ndarray]:
        """Dense-output ``dV/dt`` samples (same shape as voltage), or ``None``."""
        return self._derivative

    def seed(self, index: int) -> "Waveform":
        """Extract the waveform of a single seed."""
        deriv = (None if self._derivative is None
                 else self._derivative[:, index])
        return Waveform(self._time, self._voltage[:, index], derivative=deriv)

    def value_at(self, when: float) -> np.ndarray:
        """Interpolated voltage at time ``when`` for every seed.

        One vectorized pass over all seeds (``searchsorted`` + gather) rather
        than a per-seed ``np.interp`` loop.  With dense-output derivatives
        the bracketing segment is evaluated through its cubic Hermite
        interpolant; otherwise linearly (the historical behaviour).
        """
        when = float(when)
        time = self._time
        if when <= time[0]:
            return self._voltage[0, :].copy()
        if when >= time[-1]:
            return self._voltage[-1, :].copy()
        high = int(np.searchsorted(time, when))
        high = min(max(high, 1), time.size - 1)
        low = high - 1
        span = time[high] - time[low]
        fraction = (when - time[low]) / span
        v0 = self._voltage[low, :]
        v1 = self._voltage[high, :]
        if self._derivative is not None:
            d0 = self._derivative[low, :]
            d1 = self._derivative[high, :]
            hermite_ok = np.isfinite(d0) & np.isfinite(d1)
            hermite = _hermite_eval(fraction, v0, v1, d0, d1, span)
            return np.where(hermite_ok, hermite, v0 + fraction * (v1 - v0))
        return v0 + fraction * (v1 - v0)

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def crossing_time(self, threshold: float, rising: Optional[bool] = None
                      ) -> np.ndarray:
        """First time each seed crosses ``threshold`` (volts).

        Parameters
        ----------
        threshold:
            Voltage level to detect.
        rising:
            If ``True`` only upward crossings are considered, if ``False``
            only downward crossings, if ``None`` the overall waveform
            direction (last minus first sample) decides per seed.

        Returns
        -------
        numpy.ndarray
            Crossing times per seed; ``numpy.nan`` where the waveform never
            crosses the threshold.
        """
        # One waveform is the single-condition special case of a batch; the
        # interpolation/direction/edge-case logic lives only there.
        deriv = (None if self._derivative is None
                 else self._derivative[np.newaxis, :, :])
        batch = WaveformBatch(self._time[np.newaxis, :],
                              self._voltage[np.newaxis, :, :],
                              derivative=deriv)
        return batch.crossing_time(float(threshold), rising)[0]

    def transition_time(self, vdd: float, rising: Optional[bool] = None) -> np.ndarray:
        """Slew (transition time) per seed, derated to full swing.

        Measures the time between the 20 % and 80 % supply crossings and
        divides by 0.6 so the result approximates the 0-to-100 % transition
        time of an equivalent linear ramp.
        """
        if vdd <= 0.0:
            raise ValueError("vdd must be positive")
        low = self.crossing_time(SLEW_LOW_THRESHOLD * vdd, rising)
        high = self.crossing_time(SLEW_HIGH_THRESHOLD * vdd, rising)
        return np.abs(high - low) / SLEW_DERATE

    def propagation_delay(self, reference: "Waveform", vdd: float) -> np.ndarray:
        """50 %-to-50 % propagation delay relative to ``reference`` (the input)."""
        if vdd <= 0.0:
            raise ValueError("vdd must be positive")
        input_cross = reference.crossing_time(DELAY_THRESHOLD * vdd)
        output_cross = self.crossing_time(DELAY_THRESHOLD * vdd)
        if input_cross.size == 1 and output_cross.size > 1:
            input_cross = np.broadcast_to(input_cross, output_cross.shape)
        return output_cross - input_cross

    def final_value(self) -> np.ndarray:
        """Voltage at the last time sample, per seed."""
        return self._voltage[-1, :].copy()

    def settled(self, target: float, tolerance: float) -> np.ndarray:
        """Boolean per seed: has the waveform settled within ``tolerance`` of ``target``?"""
        return np.abs(self.final_value() - target) <= tolerance


class WaveformBatch:
    """A batch of waveforms over ``(n_conditions, n_time, n_seeds)``.

    Each condition keeps its own time axis (conditions have different ramp
    durations and simulation windows), stored as the rows of a shared 2-D
    ``time`` matrix.  Conditions that finish early are padded by holding their
    last sample; ``valid_len`` records how many samples of each row are real.
    All measurements are single array passes over the whole batch -- this is
    what makes delay/slew extraction of a multi-condition sweep one
    vectorized operation instead of ``n_conditions * n_seeds`` scalar loops.
    """

    def __init__(self, time: np.ndarray, voltage: np.ndarray,
                 valid_len: Optional[np.ndarray] = None,
                 derivative: Optional[np.ndarray] = None):
        time = np.asarray(time, dtype=float)
        voltage = np.asarray(voltage, dtype=float)
        if time.ndim != 2:
            raise ValueError("time must have shape (n_conditions, n_time)")
        if time.shape[1] < 2:
            raise ValueError("waveforms need at least two samples")
        if voltage.ndim == 2:
            voltage = voltage[:, :, np.newaxis]
        if voltage.ndim != 3 or voltage.shape[:2] != time.shape:
            raise ValueError(
                f"voltage must have shape (n_conditions, n_time[, n_seeds]); "
                f"got {voltage.shape} for time shape {time.shape}"
            )
        if valid_len is None:
            valid_len = np.full(time.shape[0], time.shape[1], dtype=int)
        valid_len = np.asarray(valid_len, dtype=int)
        if valid_len.shape != (time.shape[0],):
            raise ValueError("valid_len must have one entry per condition")
        if np.any(valid_len < 2) or np.any(valid_len > time.shape[1]):
            raise ValueError("valid_len entries must be in [2, n_time]")
        if derivative is not None:
            derivative = np.asarray(derivative, dtype=float)
            if derivative.ndim == 2:
                derivative = derivative[:, :, np.newaxis]
            if derivative.shape != voltage.shape:
                raise ValueError(
                    f"derivative must match the voltage shape "
                    f"{voltage.shape}; got {derivative.shape}"
                )
        self._time = time
        self._voltage = voltage
        self._valid_len = valid_len
        self._derivative = derivative

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def time(self) -> np.ndarray:
        """Per-condition time axes, shape ``(n_conditions, n_time)``."""
        return self._time

    @property
    def voltage(self) -> np.ndarray:
        """Voltage samples, shape ``(n_conditions, n_time, n_seeds)``."""
        return self._voltage

    @property
    def valid_len(self) -> np.ndarray:
        """Number of real (non-padding) samples per condition."""
        return self._valid_len

    @property
    def n_conditions(self) -> int:
        """Number of conditions in this batch."""
        return self._time.shape[0]

    @property
    def n_seeds(self) -> int:
        """Number of per-seed traces per condition."""
        return self._voltage.shape[2]

    @property
    def derivative(self) -> Optional[np.ndarray]:
        """Dense-output ``dV/dt`` samples (same shape as voltage), or ``None``."""
        return self._derivative

    def condition(self, index: int) -> Waveform:
        """Extract one condition as a plain :class:`Waveform` (padding trimmed)."""
        length = int(self._valid_len[index])
        deriv = (None if self._derivative is None
                 else self._derivative[index, :length, :])
        return Waveform(self._time[index, :length],
                        self._voltage[index, :length, :],
                        derivative=deriv)

    # ------------------------------------------------------------------
    # Measurements (vectorized over conditions x seeds)
    # ------------------------------------------------------------------
    def crossing_time(self, thresholds, rising: Optional[bool] = None
                      ) -> np.ndarray:
        """First crossing time of per-condition thresholds, one array pass.

        Parameters
        ----------
        thresholds:
            Scalar or array of shape ``(n_conditions,)`` -- the voltage level
            to detect in each condition's traces.
        rising:
            As in :meth:`Waveform.crossing_time`; ``None`` derives the
            direction per (condition, seed) trace.

        Returns
        -------
        numpy.ndarray
            Crossing times of shape ``(n_conditions, n_seeds)``; ``nan``
            where a trace never crosses its threshold.
        """
        n_conditions, n_time = self._time.shape
        n_seeds = self.n_seeds
        thresholds = np.broadcast_to(np.asarray(thresholds, dtype=float),
                                     (n_conditions,))
        time = self._time
        volts = self._voltage
        thr = thresholds[:, np.newaxis, np.newaxis]

        if rising is None:
            # Padding holds the last valid sample, so the final sample is the
            # last real one and the per-trace direction matches the trimmed
            # waveform's ``trace[-1] >= trace[0]`` convention.
            direction = volts[:, -1, :] >= volts[:, 0, :]
        else:
            direction = np.full((n_conditions, n_seeds), bool(rising))
        # One comparison when every trace runs the same way (the usual case).
        if direction.all():
            above = volts >= thr
        elif not direction.any():
            above = volts <= thr
        else:
            above = np.where(direction[:, np.newaxis, :], volts >= thr,
                             volts <= thr)
        # Ignore padded samples so they can never be the "first" crossing.
        above &= (np.arange(n_time)[np.newaxis, :]
                  < self._valid_len[:, np.newaxis])[:, :, np.newaxis]

        first = np.argmax(above, axis=1)
        rows = np.arange(n_conditions)[:, np.newaxis]
        cols = np.arange(n_seeds)[np.newaxis, :]
        # argmax reads 0 when a trace never crosses, so the sample it
        # points at says whether any does.
        any_above = above[rows, first, cols]
        at_start = above[:, 0, :]
        hit = np.maximum(first, 1)
        v0 = volts[rows, hit - 1, cols]
        v1 = volts[rows, hit, cols]
        t0 = time[rows, hit - 1]
        t1 = time[rows, hit]
        span = v1 - v0
        crossings = _interpolate_crossing(thresholds[:, np.newaxis], v0, v1,
                                          t0, t1)
        if self._derivative is not None:
            # Dense output: solve the bracketing segment's cubic Hermite
            # interpolant for the threshold by bisection.  The linear
            # detection already guarantees a sign change across the
            # bracket, so bisection always converges; segments without a
            # usable bracket (zero span, crossing at the first sample, or
            # non-finite derivatives) keep the linear answer.
            d0 = self._derivative[rows, hit - 1, cols]
            d1 = self._derivative[rows, hit, cols]
            thr2 = thresholds[:, np.newaxis]
            refine = ((span != 0.0) & ~at_start
                      & np.isfinite(d0) & np.isfinite(d1))
            dt = t1 - t0
            # The bracket starts at [0, 1] and halves every pass, so its ends
            # are exact dyadic fractions: the midpoint 0.5 * (lo + hi) is
            # exactly lo plus the halved width, and only lo needs keeping.
            # ``a - b > 0`` is ``a > b`` in IEEE arithmetic, so the sign
            # tests compare directly.
            f0_positive = v0 > thr2
            lo = np.zeros_like(v0)
            width = 1.0
            for _ in range(_HERMITE_BISECTIONS):
                width *= 0.5
                mid = lo + width
                same_side = ((_hermite_eval(mid, v0, v1, d0, d1, dt) > thr2)
                             == f0_positive)
                lo = np.where(same_side, mid, lo)
            refined = t0 + (lo + 0.5 * width) * dt
            crossings = np.where(refine, refined, crossings)
        crossings = np.where(at_start, time[:, :1], crossings)
        return np.where(any_above, crossings, np.nan)

    def transition_time(self, vdd, rising: Optional[bool] = None) -> np.ndarray:
        """Derated 20 %-80 % slew per (condition, seed), one array pass."""
        vdd = np.broadcast_to(np.asarray(vdd, dtype=float), (self.n_conditions,))
        if np.any(vdd <= 0.0):
            raise ValueError("vdd must be positive")
        low = self.crossing_time(SLEW_LOW_THRESHOLD * vdd, rising)
        high = self.crossing_time(SLEW_HIGH_THRESHOLD * vdd, rising)
        return np.abs(high - low) / SLEW_DERATE

    def propagation_delay(self, reference: "WaveformBatch", vdd) -> np.ndarray:
        """50 %-to-50 % delay against a reference batch (the input ramps)."""
        vdd = np.broadcast_to(np.asarray(vdd, dtype=float), (self.n_conditions,))
        if np.any(vdd <= 0.0):
            raise ValueError("vdd must be positive")
        if reference.n_conditions != self.n_conditions:
            raise ValueError("reference batch must have the same conditions")
        input_cross = reference.crossing_time(DELAY_THRESHOLD * vdd)
        output_cross = self.crossing_time(DELAY_THRESHOLD * vdd)
        return output_cross - input_cross

    def final_value(self) -> np.ndarray:
        """Voltage at each condition's last valid sample, per seed."""
        rows = np.arange(self.n_conditions)
        return self._voltage[rows, self._valid_len - 1, :].copy()

"""Batched multi-condition transient engine over a flat row table.

The serial engine (:mod:`repro.spice.transient`) integrates one
``(Sin, Cload, Vdd)`` condition at a time, so a sweep of ``n`` conditions pays
the Python-level RK4 loop ``n`` times over.  This module integrates *all*
rows of a pass at once in a single 2-D state array of shape
``(n_rows, n_seeds)`` -- the software analogue of batching SPICE runs with
``.ALTER`` statements, applied across operating points, process seeds and
cells alike -- and returns each row's delay and slew, not its waveforms.

Design notes:

* **The row table.**  A pass is either one equivalent inverter driven at
  every row (the single-arc call) or one reduction *per row*, so rows of
  different cells and output polarities share one pass.  Device
  parameters, capacitances, post-ramp windows and output polarity are then
  carried per row; values every reduction agrees on keep their shared
  shape (scalars or ``(n_seeds,)`` vectors, notably the ``pow`` exponent),
  and only values that differ become ``(n_rows, n_seeds)`` / ``(n_rows, 1)``
  arrays.  Each row therefore computes exactly what a pass over its own
  reduction computes, bit for bit, while the interpreted loop is paid once
  for the whole table.  :class:`~repro.core.simulation_plan.SimulationPlan`
  builds these tables from a workload's cache-missing rows; it is the one
  caller in the library, sweeps included.
* **Per-condition time normalization.**  Every row keeps its own ramp
  duration and its own post-ramp window, but all rows advance through a
  shared *normalized step index*: step ``i`` of the batch integrates step
  ``i`` of every row with that row's own ``dt``.  The per-step NumPy work
  therefore grows from ``(n_seeds,)`` arrays to ``(n_rows, n_seeds)`` arrays
  while the interpreted loop overhead is paid once, which is where the
  speedup comes from.
* **Phase handling.**  The ramp/tail chunk boundaries and step counts are the
  exact ones of the serial engine (shared via
  :func:`repro.spice.transient._phase_steps`), and every arithmetic operation
  is the elementwise-identical broadcast of the serial engine's scalar
  expression.  The two engines therefore agree to floating-point noise
  (equivalence is enforced at ``rtol <= 1e-9`` by the test suite).  Every
  stage strictly after a row's ramp sees a constant input, so tail chunks
  form the input level, its complement and each device's gate term once
  per chunk and skip the ramp fraction, slope and Miller work; the one
  stage at ``t = sin`` still adds the Miller term.
* **Crossings inside the step loop.**  No waveform is stored.  After every
  step, each trace's next output threshold (80/50/20 % of the supply for a
  falling output, 20/50/80 % for a rising one) is tested against the new
  sample; a trace that reaches it records the crossing time from the two
  consecutive samples with the chord interpolation
  :meth:`~repro.spice.waveform.WaveformBatch.crossing_time` applies to a
  stored waveform (one shared helper,
  :func:`~repro.spice.waveform._interpolate_crossing`).  The 50 % input
  crossing comes from the ramp chunk's samples, so delays and slews equal
  a post-hoc measurement of the full waveforms bit for bit
  (``tests/oracles/transient.py`` keeps that recording engine as the
  reference).  Memory per row is a few ``(n_seeds,)`` buffers instead of
  one per step (:func:`transient_item_bytes`).
* **Active-set retirement.**  Each tail chunk tests every row's completion
  (:func:`_transition_complete`: every seed past the far slew threshold,
  so all three output crossings are recorded) every :data:`RETIRE_EVERY`
  steps, and the rows that pass leave the active set there: the rest go on
  over their own time samples with the chunk's own ``dt``, their operands
  gathered again for the smaller set.  A row therefore stops a few checks
  after it completes instead of running to the end of its post-ramp
  window (``0.5 * sin + 8x`` its intrinsic delay), and delays, slews and
  quarantine masks are unchanged; only :class:`IntegrationStats` falls.
  Rows still running at a chunk's end are tested once more, and the
  geometric window extension continues only for the stragglers, so one
  slow low-Vdd corner forces no extra integration work on the whole batch.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cells.equivalent_inverter import EquivalentInverter
from repro.cells.library import Transition
from repro.devices import AlphaPowerMOSFET, MOSFET
from repro.runtime import faultinject
from repro.spice import transient as _serial
from repro.spice.stepper import IntegrationStats
from repro.spice.transient import DEFAULT_STEPS, _extension_steps, _phase_steps
from repro.spice.waveform import (
    DELAY_THRESHOLD,
    SLEW_DERATE,
    SLEW_HIGH_THRESHOLD,
    SLEW_LOW_THRESHOLD,
    WaveformBatch,
    _interpolate_crossing,
)

SITE_INTEGRATE = faultinject.register_fault_site(
    "transient.integrate",
    "one batched transient call about to integrate (exception faults)")
SITE_STATE = faultinject.register_fault_site(
    "transient.state",
    "post-ramp RK4 state of a batched transient call (NaN row faults)")

#: Steps between two completion checks inside a tail chunk: rows whose
#: every seed has completed its transition retire at the next check.
RETIRE_EVERY = 8


@dataclass(frozen=True)
class BatchTransientResult:
    """Delays and slews of a batched multi-condition arc simulation.

    :meth:`delay` and :meth:`output_slew` return the measurements, each of
    shape ``(n_conditions, n_seeds)``, in seconds (NaN on quarantined rows).

    Attributes
    ----------
    sin, cload, vdd:
        The simulated conditions, each of shape ``(n_conditions,)``.
    """

    sin: np.ndarray
    cload: np.ndarray
    vdd: np.ndarray
    _delays: np.ndarray
    _slews: np.ndarray
    #: Boolean mask of shape ``(n_conditions,)`` marking rows retired by
    #: per-row quarantine (``on_failure="quarantine"``): their integration
    #: went non-finite or never completed, and their delay/slew values are
    #: NaN.  ``None`` when the simulation ran fail-fast (the default).
    quarantined: Optional[np.ndarray] = None
    #: Integration-cost accounting of this batch (steps taken/rejected and
    #: scalar RHS evaluations); ``None`` on results restored from caches
    #: predating the stepper signature.
    stats: Optional[IntegrationStats] = None

    @property
    def n_conditions(self) -> int:
        """Number of simulated conditions."""
        return self.sin.size

    @property
    def n_seeds(self) -> int:
        """Number of Monte Carlo seeds per condition."""
        return self._delays.shape[1]

    def quarantined_indices(self) -> np.ndarray:
        """Condition indices retired by quarantine (empty when none were)."""
        if self.quarantined is None:
            return np.empty(0, dtype=int)
        return np.nonzero(self.quarantined)[0]

    def delay(self) -> np.ndarray:
        """Propagation delay, shape ``(n_conditions, n_seeds)``, in seconds."""
        return self._delays

    def output_slew(self) -> np.ndarray:
        """Output transition time, shape ``(n_conditions, n_seeds)``, in seconds."""
        return self._slews


def transient_item_bytes(n_seeds: int, n_steps: int = DEFAULT_STEPS) -> int:
    """Peak bytes one condition row costs inside the fixed-step engine.

    The engine stores no waveform, so a row costs what is live in one RK4
    stage: about 36 seed-wide float arrays (the state and its successor,
    the stage and four derivative buffers, the device kernel's
    temporaries, the three crossing records) plus four arrays of the tail
    chunk's length (its time samples, and the ramp samples measured for
    the 50 % input crossing).  This covers the measured tracemalloc peak of
    a mixed row table at 1, 32 and 200 seeds within a factor of two
    (``tests/test_batch_transient.py``): at 200 seeds and the default 400
    steps a row costs 66 kB, so a 64 MiB tile holds about 1,000 rows.
    :class:`~repro.core.simulation_plan.SimulationPlan` -- the one
    simulation path, which :func:`repro.spice.sweep.sweep_conditions` also
    runs -- sizes every fixed-step tile from this estimate at its stepper's
    step count, so a ``runtime.configure(max_bytes=...)`` budget means the
    same thing for every flow.
    """
    _ramp_steps, tail_steps = _phase_steps(n_steps)
    return 8 * (36 * max(int(n_seeds), 1) + 4 * (tail_steps + 1))


def _scalarize(value) -> object:
    """Collapse size-1 parameter arrays to Python floats.

    Scalar operands keep NumPy on its fast ufunc paths (notably ``pow`` with
    a scalar exponent) and skip broadcasting machinery in the hot loop.
    """
    array = np.asarray(value, dtype=float)
    return float(array.reshape(-1)[0]) if array.size == 1 else array


def _take(value, index):
    """Rows ``index`` of a per-row value; shared values pass through.

    Per-row values are exactly the 2-D ones: shared parameters are scalars
    or ``(n_seeds,)`` vectors (see :class:`_RowTable`).
    """
    return value[index] if np.ndim(value) == 2 else value


def _take_params(params: dict, index) -> dict:
    """A prepared kernel-parameter dict restricted to rows ``index``."""
    return {key: _take(value, index) for key, value in params.items()}


def _take_device(device: MOSFET, index) -> MOSFET:
    """``device`` restricted to rows ``index`` (itself if none is per-row)."""
    params = device.params
    changes = {field.name: getattr(params, field.name)[index]
               for field in dataclasses.fields(params)
               if np.ndim(getattr(params, field.name)) == 2}
    return type(device)(params.replace(**changes)) if changes else device


def _row_values(values: Sequence, row_of: np.ndarray):
    """One pass-wide parameter from its value on each distinct reduction.

    Values that agree bit for bit stay exactly as they are -- scalars or
    ``(n_seeds,)`` vectors -- so the hot loop keeps its shared operands;
    values that differ become one row per simulated condition,
    ``(n_rows, n_seeds)`` or ``(n_rows, 1)``.
    """
    first = values[0]
    if all(value is first or (np.shape(value) == np.shape(first)
                              and np.array_equal(value, first))
           for value in values[1:]):
        return first
    flat = [np.asarray(value, dtype=float).reshape(-1) for value in values]
    width = max(value.size for value in flat)
    stacked = np.stack([np.broadcast_to(value, (width,)) for value in flat])
    return stacked[row_of]


def _row_device(devices: Sequence[MOSFET], row_of: np.ndarray) -> MOSFET:
    """One device for the pass, per-row only where the reductions differ."""
    first = devices[0]
    if all(device is first for device in devices[1:]):
        return first
    if any(type(device) is not type(first) for device in devices):
        raise ValueError("every row of one pass must use one device model")
    changes = {}
    for field in dataclasses.fields(first.params):
        values = [getattr(device.params, field.name) for device in devices]
        if np.asarray(values[0]).dtype.kind not in "fiub":
            continue  # the polarity tag; currents never read it
        merged = _row_values(values, row_of)
        if merged is not values[0]:
            changes[field.name] = merged
    return type(first)(first.params.replace(**changes)) if changes else first


@dataclass(frozen=True)
class _RowTable:
    """What the engines read from the equivalent inverters, per row.

    Built from one :class:`EquivalentInverter` (every row shares it) or one
    reduction per row.  Shared values keep the single-inverter shapes;
    values that differ between the pass's reductions are per-row 2-D arrays
    (:func:`_row_values`).  ``falling`` is a plain bool when every row has
    the same output polarity and a ``(n_rows,)`` mask otherwise.
    """

    reductions: Tuple[EquivalentInverter, ...]
    #: Index into ``reductions`` of every row.
    row_of: np.ndarray
    n_seeds: int
    falling: object
    parasitic: np.ndarray
    miller: np.ndarray
    nmos: MOSFET
    pmos: MOSFET

    @classmethod
    def build(cls, inverter, n_rows: int) -> "_RowTable":
        if isinstance(inverter, EquivalentInverter):
            reductions = [inverter]
            row_of = np.zeros(n_rows, dtype=int)
        else:
            rows = list(inverter)
            if len(rows) != n_rows:
                raise ValueError(f"expected one equivalent inverter per "
                                 f"condition ({n_rows}), got {len(rows)}")
            slots: Dict[int, int] = {}
            reductions = []
            row_of = np.empty(n_rows, dtype=int)
            for row, reduction in enumerate(rows):
                slot = slots.get(id(reduction))
                if slot is None:
                    slot = slots[id(reduction)] = len(reductions)
                    reductions.append(reduction)
                row_of[row] = slot
        n_seeds = max(max(np.size(reduction.parasitic_cap),
                          np.size(reduction.miller_cap), 1)
                      for reduction in reductions)
        flags = [reduction.arc.output_transition is Transition.FALL
                 for reduction in reductions]
        falling = (flags[0] if all(flag == flags[0] for flag in flags)
                   else np.array(flags)[row_of])

        def caps(name):
            return _row_values(
                [np.broadcast_to(np.asarray(getattr(reduction, name),
                                            dtype=float), (n_seeds,))
                 for reduction in reductions], row_of)

        return cls(reductions=tuple(reductions), row_of=row_of,
                   n_seeds=n_seeds, falling=falling,
                   parasitic=caps("parasitic_cap"), miller=caps("miller_cap"),
                   nmos=_row_device([r.nmos for r in reductions], row_of),
                   pmos=_row_device([r.pmos for r in reductions], row_of))

    def falling_at(self, index):
        """Output polarity of rows ``index`` (the shared bool when uniform)."""
        return (self.falling if isinstance(self.falling, bool)
                else self.falling[index])

    def cell_name(self, row: int) -> str:
        return self.reductions[self.row_of[row]].cell_name

    def windows(self, sin: np.ndarray, cload: np.ndarray,
                vdd: np.ndarray) -> np.ndarray:
        """Per-row post-ramp window, each from its own reduction."""
        if len(self.reductions) == 1:
            return _estimate_windows(self.reductions[0], sin, cload, vdd)
        window = np.empty(sin.size)
        for slot, reduction in enumerate(self.reductions):
            rows = np.nonzero(self.row_of == slot)[0]
            window[rows] = _estimate_windows(reduction, sin[rows], cload[rows],
                                             vdd[rows])
        return window


def _input_level(fraction, falling):
    """Input voltage over supply; a rising ramp drives a falling output."""
    if falling is True:
        return fraction
    if falling is False:
        return 1.0 - fraction
    mask = falling.reshape(falling.shape + (1,) * (np.ndim(fraction) - 1))
    return np.where(mask, fraction, 1.0 - fraction)


def _past_ramp_input(supply: np.ndarray, falling) -> np.ndarray:
    """Input voltage of rows past their ramps, shape ``(n_rows,)``.

    The per-stage expression with the ramp fraction at 1, which is what
    ``clip(t / sin, 0, 1)`` gives at any ``t >= sin``; both engines form it
    once instead of on every stage past the ramp.
    """
    return supply * _input_level(np.ones(supply.size), falling)


def _signed_slope(supply: np.ndarray, ramp: np.ndarray, falling) -> np.ndarray:
    """Input ramp slope per row, positive for a rising input."""
    slope = supply / ramp
    if falling is True:
        return slope
    if falling is False:
        return -slope
    return np.where(falling, slope, -slope)


def _transition_complete(state: np.ndarray, supply_col: np.ndarray,
                         falling) -> np.ndarray:
    """Rows whose every seed is past the far slew threshold (both engines)."""
    if falling is not False:
        fell = np.all(state <= 0.5 * SLEW_LOW_THRESHOLD * supply_col, axis=1)
        if falling is True:
            return fell
    rose = np.all(state >= supply_col - 0.5 * (1.0 - SLEW_HIGH_THRESHOLD)
                  * supply_col, axis=1)
    if falling is False:
        return rose
    return np.where(falling, fell, rose)


def _alpha_power_params(device) -> dict:
    """Pre-combined alpha-power parameters for the fused hot-loop kernels.

    Shared by the fixed engine's :func:`_alpha_power_kernel` and the
    adaptive engine's workspace kernel: device parameters are folded once
    per simulation (``k_drive * width`` into one gain, the subthreshold
    swing into the softplus smoothing and its negated reciprocal, ``alpha``
    into the half exponent) and size-1 arrays collapse to Python scalars so
    the elementwise chains stay on NumPy's fast scalar-operand paths.
    Parameters that are per-row in a row table stay 2-D here.
    """
    p = device.params
    smoothing = _scalarize(np.asarray(p.subthreshold_swing, dtype=float) / 2.3)
    return {
        "vth0": _scalarize(p.vth0),
        "dibl": _scalarize(p.dibl),
        "kw": _scalarize(np.asarray(p.k_drive, dtype=float)
                         * np.asarray(p.width_um, dtype=float)),
        "lam": _scalarize(p.lambda_clm),
        "coeff": _scalarize(p.vdsat_coeff),
        "alpha_half": _scalarize(np.asarray(p.alpha, dtype=float) * 0.5),
        "smoothing": smoothing,
        "neg_inv_smoothing": -1.0 / smoothing,
    }


def _fused_params(nmos: MOSFET, pmos: MOSFET) -> Optional[tuple]:
    """Prepared ``(nmos, pmos)`` kernel parameters (``None``: generic path).

    ``None`` unless both devices are :class:`AlphaPowerMOSFET` instances;
    the engines then fall back to the generic per-device calls (e.g. for
    the virtual-source FinFET model).
    """
    if type(nmos) is not AlphaPowerMOSFET or type(pmos) is not AlphaPowerMOSFET:
        return None
    return (_alpha_power_params(nmos), _alpha_power_params(pmos))


def _alpha_power_kernel(prepared: tuple):
    """Fused alpha-power drain-current evaluation for the batched hot loop.

    Computes the same smooth alpha-power model as
    :meth:`repro.devices.alpha_power.AlphaPowerMOSFET.current` (softplus
    overdrive, one half-exponent pow, tanh saturation) but restructured for
    throughput: device parameters are pre-combined once per simulation
    (``prepared``, from :func:`_fused_params`), size-1 parameters collapse
    to Python scalars, and the elementwise chain reuses buffers with
    ``out=`` instead of allocating a temporary per operation.  The
    reassociated arithmetic differs from the reference implementation only
    at the last-ulp level, far inside the engine's ``rtol <= 1e-9``
    equivalence budget (enforced by the test suite).

    Returns ``(gates, kernel)``: ``gates(vgs_n, vgs_p)`` forms each
    device's gate term ``vgs - vth0`` and ``kernel(gate_n, gate_p, vds_n,
    vds_p)`` the pull-down and pull-up currents from them, so a caller
    whose input is constant forms the gate terms once.
    """

    def gates(vgs_n, vgs_p):
        return vgs_n - prepared[0]["vth0"], vgs_p - prepared[1]["vth0"]

    def one_device(p, gate, vds_raw):
        vds = np.maximum(vds_raw, 0.0)
        x = p["dibl"] * vds
        x += gate
        # softplus(x, smoothing) in the stable form, with buffer reuse
        t = np.abs(x)
        t *= p["neg_inv_smoothing"]
        np.exp(t, out=t)
        np.log1p(t, out=t)
        t *= p["smoothing"]
        overdrive = np.maximum(x, 0.0)
        overdrive += t
        half_power = np.power(overdrive, p["alpha_half"])
        current = half_power * half_power
        current *= p["kw"]
        gain = p["lam"] * vds
        gain += 1.0
        current *= gain
        vdsat = p["coeff"] * half_power
        np.maximum(vdsat, 1e-3, out=vdsat)
        np.divide(vds, vdsat, out=vdsat)
        np.tanh(vdsat, out=vdsat)
        current *= vdsat
        return current

    def kernel(gate_n, gate_p, vds_n, vds_p):
        return (one_device(prepared[0], gate_n, vds_n),
                one_device(prepared[1], gate_p, vds_p))

    return gates, kernel


def _estimate_windows(inverter: EquivalentInverter, sin: np.ndarray,
                      cload: np.ndarray, vdd: np.ndarray) -> np.ndarray:
    """Vectorized per-condition post-ramp window (mirrors ``_estimate_window``)."""
    ieff = np.atleast_2d(np.asarray(inverter.effective_current(vdd[:, np.newaxis]),
                                    dtype=float))
    ieff_floor = np.maximum(np.min(ieff, axis=1), 1e-9)
    total_cap = cload + float(np.max(np.asarray(inverter.parasitic_cap)))
    intrinsic = total_cap * vdd / ieff_floor
    # The margin is read from the serial module at call time so both engines
    # always share one window policy (tests monkeypatch it there).
    return 0.5 * sin + _serial._WINDOW_MARGIN * np.maximum(intrinsic, 1e-13)


def _validated_conditions(sin, cload, vdd, on_failure: str) -> tuple:
    """The condition arrays as 1-D floats, checked for both engines."""
    if on_failure not in ("raise", "quarantine"):
        raise ValueError(f"on_failure must be 'raise' or 'quarantine', "
                         f"got {on_failure!r}")
    sin = np.atleast_1d(np.asarray(sin, dtype=float))
    cload = np.atleast_1d(np.asarray(cload, dtype=float))
    vdd = np.atleast_1d(np.asarray(vdd, dtype=float))
    if not (sin.shape == cload.shape == vdd.shape) or sin.ndim != 1:
        raise ValueError("sin, cload and vdd must be 1-D arrays of equal length")
    if sin.size == 0:
        raise ValueError("at least one condition is required")
    for name, values in (("sin", sin), ("cload", cload), ("vdd", vdd)):
        bad = np.nonzero(~np.isfinite(values))[0]
        if bad.size:
            raise ValueError(
                f"{name} contains a non-finite value at condition index "
                f"{int(bad[0])} ({bad.size} of {values.size} non-finite)")
    if np.any(sin <= 0.0) or np.any(cload <= 0.0) or np.any(vdd <= 0.0):
        raise ValueError("sin, cload and vdd must all be positive")
    return sin, cload, vdd


class _Crossings:
    """First threshold crossings of every output trace, recorded step by step.

    A falling output that has reached 20 % of its supply has passed 50 % and
    80 % too, and a rising one the reverse, so each trace waits on one
    threshold at a time: 80/50/20 % of the supply in turn when falling,
    20/50/80 % when rising.  ``times[k]`` holds every trace's ``k``-th
    crossing of that order (NaN until it happens).  Each crossing is
    interpolated from the two consecutive samples bracketing it with
    :func:`~repro.spice.waveform._interpolate_crossing`, as
    :meth:`~repro.spice.waveform.WaveformBatch.crossing_time` does on a
    stored waveform, so it equals the first crossing measured there.

    Comparisons run on sign-flipped samples: a falling row's samples and
    thresholds are negated, which is exact, so ``-v >= -u`` tests
    ``v <= u`` and one comparison serves both polarities.  The sign is a
    scalar when every row has the same polarity.  :meth:`watch` gathers a
    chunk's active rows and each trace's pending (signed) threshold once;
    :meth:`step` then costs one multiply, one comparison and one ``any``
    per step.
    """

    def __init__(self, vdd: np.ndarray, falling, n_seeds: int):
        n_rows = vdd.size
        # The thresholds WaveformBatch.crossing_time would be given; the
        # NaN fourth level is never passed, so a finished trace stops.
        low = SLEW_LOW_THRESHOLD * vdd
        mid = DELAY_THRESHOLD * vdd
        high = SLEW_HIGH_THRESHOLD * vdd
        done = np.full(n_rows, np.nan)
        down = np.stack([high, mid, low, done], axis=1)
        up = np.stack([low, mid, high, done], axis=1)
        if isinstance(falling, bool):
            self.levels = down if falling else up
            self.signs = -1.0 if falling else 1.0
        else:
            self.levels = np.where(falling[:, np.newaxis], down, up)
            self.signs = np.where(falling, -1.0, 1.0)
        self.falling = falling
        self.level = np.zeros((n_rows, n_seeds), dtype=np.int8)
        self.times = np.full((3, n_rows, n_seeds), np.nan)
        # The watched chunk: its rows, their sign (a scalar or a column),
        # each trace's signed pending threshold, and step scratch.
        self.rows = self.sign = self.pending = self.scratch = None

    def _sign_of(self, rows: np.ndarray):
        """The sign of rows ``rows``: the shared scalar, or one per row."""
        return self.signs if isinstance(self.signs, float) else self.signs[rows]

    def watch(self, idx: np.ndarray) -> None:
        """Start a chunk over the active rows ``idx``."""
        self.rows = idx
        sign = self._sign_of(idx)
        self.sign = sign if np.ndim(sign) == 0 else sign[:, np.newaxis]
        self.pending = np.take_along_axis(self.levels[idx], self.level[idx],
                                          axis=1) * self.sign
        self.scratch = (np.empty(self.pending.shape),
                        np.empty(self.pending.shape, dtype=bool))

    def step(self, old: np.ndarray, new: np.ndarray, t_old: np.ndarray,
             t_new: np.ndarray) -> None:
        """Record every crossing between consecutive samples ``old``, ``new``."""
        flipped, flag = self.scratch
        np.multiply(new, self.sign, out=flipped)
        np.greater_equal(flipped, self.pending, out=flag)
        if not flag.any():
            return
        r, s = np.nonzero(flag)
        rows = self.rows[r]
        sign = self._sign_of(rows)
        v0 = old[r, s]
        v1 = new[r, s]
        t0 = t_old[r]
        t1 = t_new[r]
        level = self.level[rows, s]
        while True:
            self.times[level, rows, s] = _interpolate_crossing(
                self.levels[rows, level], v0, v1, t0, t1)
            level = level + 1
            self.level[rows, s] = level
            following = self.levels[rows, level] * sign
            self.pending[r, s] = following
            # The same sample may pass the next threshold as well.
            more = v1 * sign >= following
            if not more.any():
                return
            r, s, rows, v0, v1, t0, t1, level = (
                value[more] for value in (r, s, rows, v0, v1, t0, t1, level))
            sign = sign if np.ndim(sign) == 0 else sign[more]

    def timing(self, input_crossing: np.ndarray) -> tuple:
        """``(delay, slew)`` per trace against the input's 50 % crossing."""
        first, middle, last = self.times
        falling = self.falling
        if isinstance(falling, bool):
            low, high = (last, first) if falling else (first, last)
        else:
            column = falling[:, np.newaxis]
            low = np.where(column, last, first)
            high = np.where(column, first, last)
        return middle - input_crossing, np.abs(high - low) / SLEW_DERATE


def _input_crossings(sin: np.ndarray, vdd: np.ndarray, falling,
                     ramp_steps: int) -> np.ndarray:
    """50 % crossing of every row's input ramp, shape ``(n_rows, 1)``.

    The input reaches its far rail at ``t = sin``, so its first crossing
    lies among the ramp chunk's samples: those samples, with the
    expression of :meth:`~repro.spice.stimulus.RampStimulus.voltage`,
    measured by :meth:`~repro.spice.waveform.WaveformBatch.crossing_time`.
    """
    times = np.linspace(np.zeros(sin.size), sin, ramp_steps + 1, axis=1)
    fraction = np.clip(times / sin[:, np.newaxis], 0.0, 1.0)
    vin = vdd[:, np.newaxis] * _input_level(fraction, falling)
    return WaveformBatch(times, vin).crossing_time(DELAY_THRESHOLD * vdd)


def simulate_arc_transitions(
    inverter: Union[EquivalentInverter, Sequence[EquivalentInverter]],
    sin,
    cload,
    vdd,
    n_steps: int = DEFAULT_STEPS,
    on_failure: str = "raise",
) -> BatchTransientResult:
    """Simulate every requested condition row in a single batch.

    Parameters
    ----------
    inverter:
        Equivalent inverter produced by :func:`repro.cells.reduce_cell`
        (possibly carrying per-seed parameter arrays) driven at every row,
        or a sequence with one reduction per row -- the row table of a
        multi-cell pass, whose rows may mix cells and output polarities
        (every reduction must share the seed count and device model).
    sin, cload, vdd:
        Input transition times (seconds), load capacitances (farads) and
        supply voltages (volts); arrays or sequences of equal length.
    n_steps:
        Number of RK4 steps in each condition's initial window.
    on_failure:
        ``"raise"`` (default) aborts the whole batch when a condition's
        integration goes non-finite or exhausts its window extensions --
        the historical fail-fast semantics.  ``"quarantine"`` instead
        retires such conditions per row: after each tail chunk, rows with
        non-finite RK4 state (and, at exhaustion, rows that never
        completed) are marked in ``BatchTransientResult.quarantined`` and
        dropped from further integration; their delay/slew are NaN while
        every healthy row is computed bit-identically to a fail-fast run.

    Returns
    -------
    BatchTransientResult
        Delays and slews of every ``(condition, seed)``; per-condition
        waveforms come from :func:`repro.spice.simulate_arc_transition`.

    Raises
    ------
    ValueError
        For empty, mismatched, non-finite or non-positive condition
        arrays, a row table of the wrong length, ``n_steps < 16``, or an
        unknown ``on_failure``.
    RuntimeError
        Only with ``on_failure="raise"``: if any condition's output fails
        to complete its transition after the maximum number of window
        extensions (same semantics as the serial engine).
    """
    sin, cload, vdd = _validated_conditions(sin, cload, vdd, on_failure)
    if n_steps < 16:
        raise ValueError("n_steps must be at least 16")
    n_cond = sin.size
    table = _RowTable.build(inverter, n_cond)
    faultinject.fire(SITE_INTEGRATE)

    n_seeds = table.n_seeds
    total_cap = cload[:, np.newaxis] + table.parasitic
    fused = _fused_params(table.nmos, table.pmos)
    stats = IntegrationStats(method="rk4")
    crossings = _Crossings(vdd, table.falling, n_seeds)

    def charge(steps: int, n_rows: int) -> None:
        """Fixed-step accounting: every step is "accepted" and costs four
        RK4 stage evaluations per (condition, seed)."""
        stats.steps_taken += steps * n_rows
        stats.rhs_evals += 4 * steps * n_rows * n_seeds

    def integrate_chunk(t_begin: np.ndarray, t_end: np.ndarray, steps: int,
                        state: np.ndarray, idx: np.ndarray, on_ramp: bool,
                        ramp_end: bool = False) -> tuple:
        """Lockstep RK4 over per-condition intervals ``[t_begin, t_end]``.

        Everything that is constant across the chunk -- the active rows of
        the condition arrays and of the row table, the clamp bounds, the
        signed ramp slopes -- is gathered once per active set rather than
        on every RK4 stage evaluation, and the RK4 combination runs in
        place on the stage buffers.  ``on_ramp`` marks the ramp chunk,
        whose stages follow the input ramp; every other chunk lies past its
        rows' ramps and forms the constant input terms once.  ``ramp_end``
        marks the first tail chunk, whose first stage sits at ``t = sin``
        and still adds the Miller term.  Each step's crossings go to
        ``crossings``.

        A tail chunk tests :func:`_transition_complete` every
        :data:`RETIRE_EVERY` steps; rows that pass leave the active set and
        the rest go on over their own samples of ``times`` with the
        chunk's own ``dt`` (re-deriving the step from the remaining samples
        could change its last bit), their operands gathered anew.  Returns
        ``(state, idx)``: the final state of the rows still active at the
        chunk's end, and those rows.
        """
        times = np.linspace(t_begin, t_end, steps + 1, axis=1)
        dt = times[:, 1] - times[:, 0]
        begin = 0
        while True:
            ramp = sin[idx]
            supply = vdd[idx]
            supply_col = supply[:, np.newaxis]
            clamp_low = -0.2 * supply_col
            clamp_high = 1.2 * supply_col
            falling = table.falling_at(idx)
            slope = _signed_slope(supply, ramp, falling)
            cap = total_cap[idx]
            miller = _take(table.miller, idx)
            if fused is not None:
                gates, kernel = _alpha_power_kernel(
                    tuple(_take_params(params, idx) for params in fused))
            else:
                nmos = _take_device(table.nmos, idx)
                pmos = _take_device(table.pmos, idx)

            def input_terms(vin):
                """What the devices take of the ``(n_active, 1)`` input level."""
                vin_p = supply_col - vin
                return gates(vin, vin_p) if fused is not None else (vin, vin_p)

            def ramp_input(t):
                fraction = np.clip(t / ramp, 0.0, 1.0)
                dvin = np.where((t >= 0.0) & (t <= ramp), slope, 0.0)
                vin = supply * _input_level(fraction, falling)
                # Adding an all-zero Miller term is exact, so it is skipped.
                kick = miller * dvin[:, np.newaxis] if np.any(dvin) else None
                return input_terms(vin[:, np.newaxis]), kick

            def derivative(inputs, vout: np.ndarray) -> np.ndarray:
                terms, kick = inputs
                vout_clamped = np.minimum(np.maximum(vout, clamp_low),
                                          clamp_high)
                if fused is not None:
                    pull_down, pull_up = kernel(terms[0], terms[1],
                                                vout_clamped,
                                                supply_col - vout_clamped)
                    out = pull_up
                    out -= pull_down
                else:
                    pull_down = nmos.current(terms[0], vout_clamped)
                    pull_up = pmos.current(terms[1],
                                           supply_col - vout_clamped)
                    out = pull_up - pull_down
                if kick is not None:
                    out += kick
                out /= cap
                return out

            half = dt / 2.0
            if on_ramp:
                def stage_inputs(index):
                    t = times[:, index]
                    return (ramp_input(t), ramp_input(t + half),
                            ramp_input(t + dt))
            else:
                # Past the ramp the input level is its end value (the ramp
                # fraction clips to 1) and its slope is zero.
                steady = (input_terms(
                    _past_ramp_input(supply, falling)[:, np.newaxis]), None)
                opening = ((steady[0], miller * slope[:, np.newaxis])
                           if ramp_end else steady)

                def stage_inputs(index):
                    return opening if index == 0 else steady, steady, steady

            half_col = half[:, np.newaxis]
            dt_col = dt[:, np.newaxis]
            sixth_col = (dt / 6.0)[:, np.newaxis]
            stage = np.empty((idx.size, n_seeds))
            following = np.empty((idx.size, n_seeds))
            crossings.watch(idx)
            for index in range(begin, steps):
                start, middle, end = stage_inputs(index)
                k1 = derivative(start, state)
                np.multiply(half_col, k1, out=stage)
                stage += state
                k2 = derivative(middle, stage)
                np.multiply(half_col, k2, out=stage)
                stage += state
                k3 = derivative(middle, stage)
                np.multiply(dt_col, k3, out=stage)
                stage += state
                k4 = derivative(end, stage)
                # state + dt/6 * (k1 + 2*k2 + 2*k3 + k4), accumulated in k1.
                k2 *= 2.0
                k1 += k2
                k3 *= 2.0
                k1 += k3
                k1 += k4
                k1 *= sixth_col
                np.add(state, k1, out=following)
                crossings.step(state, following, times[:, index],
                               times[:, index + 1])
                state, following = following, state
                if (not on_ramp and (index + 1) % RETIRE_EVERY == 0
                        and index + 1 < steps):
                    done = _transition_complete(state, supply_col, falling)
                    if done.any():
                        break
            else:
                charge(steps - begin, idx.size)
                return state, idx
            charge(index + 1 - begin, idx.size)
            keep = ~done
            idx, state, times, dt = idx[keep], state[keep], times[keep], dt[keep]
            if idx.size == 0:
                return state, idx
            begin = index + 1

    initial_value = np.where(table.falling, vdd, 0.0)[:, np.newaxis]
    state = np.broadcast_to(initial_value, (n_cond, n_seeds)).copy()

    # Phase A: the input ramps.  All conditions are active; chunk boundaries
    # align with each condition's own ramp end (see the serial engine).
    ramp_steps, tail_steps = _phase_steps(n_steps)
    active = np.arange(n_cond)
    state, _ = integrate_chunk(np.zeros(n_cond), sin, ramp_steps, state,
                               active, on_ramp=True)
    # Identity without an active injector; under injection, NaN-poisoned
    # rows flow into phase B and are caught by the quarantine check below.
    state = faultinject.corrupt_rows(SITE_STATE, state)

    # Phase B: per-condition tail windows with geometric extension.  Rows
    # retire inside a chunk as they complete; stragglers keep extending.
    window = table.windows(sin, cload, vdd)
    t_start = sin.copy()
    quarantined = np.zeros(n_cond, dtype=bool)
    for extension in range(_serial._MAX_EXTENSIONS):
        chunk_steps = (tail_steps if extension == 0
                       else _extension_steps(tail_steps))
        t_end = t_start[active] + window[active]
        state, running = integrate_chunk(t_start[active], t_end,
                                         chunk_steps, state, active,
                                         on_ramp=False,
                                         ramp_end=extension == 0)
        t_start[active] = t_end

        done = _transition_complete(state, vdd[running, np.newaxis],
                                    table.falling_at(running))
        if on_failure == "quarantine":
            # A non-finite state row can never satisfy the completion
            # thresholds (NaN comparisons are False), so without quarantine
            # it would extend to exhaustion and abort the batch.  Retire it
            # now; its delay/slew are set to NaN below.
            broken = ~np.all(np.isfinite(state), axis=1)
            if np.any(broken):
                quarantined[running[broken]] = True
                done = done | broken
        active = running[~done]
        if active.size == 0:
            break
        state = state[~done]
        window[active] *= 1.8
    else:
        if on_failure == "quarantine":
            # Window extensions exhausted: quarantine the stragglers
            # instead of aborting every healthy condition with them.
            quarantined[active] = True
        else:
            first = int(active[0])
            raise RuntimeError(
                f"output of {table.cell_name(first)} did not complete its "
                f"transition (sin={sin[first]:.3g}s, cload={cload[first]:.3g}F, "
                f"vdd={vdd[first]:.3g}V); the cell is likely non-functional at "
                f"this operating point ({active.size} of {n_cond} conditions "
                "incomplete)"
            )

    delays, slews = crossings.timing(
        _input_crossings(sin, vdd, table.falling, ramp_steps))
    # A quarantined row reads as "no measurement": an exhausted row may
    # still have crossed its thresholds, so every one is NaN.
    delays[quarantined] = np.nan
    slews[quarantined] = np.nan
    return BatchTransientResult(
        sin=sin,
        cload=cload,
        vdd=vdd,
        _delays=delays,
        _slews=slews,
        quarantined=quarantined if on_failure == "quarantine" else None,
        stats=stats,
    )

"""Adaptive error-controlled batched transient engine (Dormand-Prince RK45).

The fixed-step engines (:mod:`repro.spice.transient`,
:mod:`repro.spice.batch`) integrate every condition with the same number of
RK4 steps whatever the dynamics: the post-ramp window carries an 8x safety
margin, so most of the steps are spent long after the output has settled.
This module integrates the same single-node ODE with an embedded
Dormand-Prince 5(4) pair under proportional-integral (PI) step-size
control: each condition takes exactly the steps its own error budget
demands, retires from the batch the moment its transition completes, and
stores the derivative at every accepted sample so downstream measurements
interpolate the non-uniform grid with a cubic Hermite (dense output)
instead of chords.

Design notes:

* **Per-condition error norms, lockstep execution.**  Every condition has
  its own time, step size, PI controller memory and rejection counter, but
  all active conditions advance through one vectorized loop: each
  iteration attempts one step of every active row at that row's own ``h``.
  The error test is the RMS over seeds of the scaled error
  ``|y5 - y4| / (atol + rtol * max(|y|, |y_new|))`` -- one scalar per
  condition -- so a condition is accepted or rejected as a unit and each
  row's step sequence is independent of which other rows share the batch
  (chunked and one-pass sweeps are bit-identical).
* **FSAL.**  The pair's seventh stage is the derivative at the accepted
  point, so an accepted step costs six new RHS evaluations and the stored
  stage doubles as the dense-output derivative of the sample.
* **Phase boundary.**  The ramp-slope discontinuity at ``t = sin`` is kept
  off step interiors by clamping each on-ramp row's step to land exactly
  on its ramp end; the FSAL stage is then corrected by subtracting the
  Miller term (the two one-sided derivatives differ by exactly
  ``C_M dVin/dt / C_tot``), which keeps the controller blind to the kink.
* **Single-allocation workspace.**  All stage buffers and the
  clamp/current scratch of the fused alpha-power kernel are allocated once
  up front at ``(n_conditions, n_seeds)``; the hot loop runs entirely on
  ``[:n_active]`` views with ``out=`` ufuncs, compacting the prefix only
  when rows retire.  Accepted samples go to a log, one entry per
  iteration, that fills the padded result matrices once the longest row
  is known.  The supply, the clamp bounds and the kernel's array
  parameters are held as full ``(n_conditions, n_seeds)`` matrices too: a
  ufunc over operands of one shape runs one flat loop, where a per-row
  column or a per-seed vector costs one inner loop per row.
* **One Miller term per step.**  A step's on-ramp mask holds for all six
  of its stages, so the Miller term ``C_M dVin/dt`` is formed once per
  iteration and added at every stage.
* **Past the ramps.**  Once no active row is on its ramp, every stage sees
  each row's final input level and no Miller term, so the derivative takes
  input columns formed once (again after each compaction) and the loop
  skips the ramp-end clamp bookkeeping -- the fixed engine's tail-chunk
  shortcut, bit-identical to evaluating the ramp at every stage.
* **Failure semantics.**  A condition that reaches the fixed engines'
  maximum extended horizon without completing, underflows its step size,
  or rejects ``max_rejects`` consecutive attempts (a *rejection storm*,
  injectable at the ``adaptive.reject`` fault site) aborts the batch
  under ``on_failure="raise"`` or is quarantined per row under
  ``on_failure="quarantine"`` -- the same contract as the fixed batched
  engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.cells.equivalent_inverter import EquivalentInverter
from repro.runtime import faultinject
from repro.spice import transient as _serial
from repro.spice.batch import (
    BatchTransientResult,
    SITE_INTEGRATE,
    _RowTable,
    _fused_params,
    _input_level,
    _past_ramp_input,
    _signed_slope,
    _take,
    _take_device,
    _take_params,
    _transition_complete,
    _validated_conditions,
)
from repro.spice.stepper import IntegrationStats, StepperSpec
from repro.spice.transient import DEFAULT_STEPS, TransientResult, _phase_steps
from repro.spice.waveform import WaveformBatch

SITE_REJECT = faultinject.register_fault_site(
    "adaptive.reject",
    "per-iteration error norms of the adaptive stepper (NaN row faults "
    "force step rejections; a sustained schedule is a rejection storm)")

# Dormand-Prince 5(4) tableau.  _B is the fifth-order solution row (the
# seventh stage row of A, FSAL), _E = b5 - b4 weights the embedded error.
_C2, _C3, _C4, _C5, _C6 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0
_A = (
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
)
_B = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
      11.0 / 84.0)
_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
      -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)

#: Initial step: a fixed fraction of each condition's ramp, so adaptive
#: results do not depend on the fixed-step ``n_steps`` hint at all.
_H0_RAMP_FRACTION = 1.0 / 16.0
#: Error floor applied before controller exponentiation (an exactly-zero
#: error estimate must still produce a bounded growth factor).
_ERR_FLOOR = 1e-10
#: Step-size underflow threshold as a fraction of the condition's horizon.
_H_UNDERFLOW_FRACTION = 1e-14
#: Hard cap on controller iterations -- a backstop far above any real run
#: (per-row guards retire broken rows long before this fires).
_MAX_ITERATIONS = 1_000_000


@dataclass(frozen=True, kw_only=True)
class AdaptiveTransientResult(BatchTransientResult):
    """An adaptive batch's delays and slews plus the waveforms behind them.

    Attributes
    ----------
    input_waveforms, output_waveforms:
        Input ramps and output responses of every condition on its own
        non-uniform time grid, as
        :class:`~repro.spice.waveform.WaveformBatch` objects; the output
        batch carries the dense-output derivatives.
    """

    input_waveforms: WaveformBatch
    output_waveforms: WaveformBatch

    def condition(self, index: int) -> TransientResult:
        """Extract one condition as a serial-engine-compatible result."""
        return TransientResult(
            input_waveform=self.input_waveforms.condition(index),
            output_waveform=self.output_waveforms.condition(index),
            vdd=float(self.vdd[index]),
        )


def adaptive_item_bytes(n_seeds: int, n_steps: int = DEFAULT_STEPS) -> int:
    """Bytes one condition row is budgeted inside the adaptive engine.

    The adaptive engine logs every accepted sample -- its time, voltage
    and dense-output derivative -- and fills the result's padded matrices
    from the log.  A row is budgeted a recording of the fixed-step grid of
    ``n_steps``: ``ramp + tail + 1`` samples of one time column and four
    seed-wide arrays.  That is about four times the measured tracemalloc
    peak of a mixed row table at 60-110 accepted samples per row (0.61 MB
    per row against 2.57 MB at 200 seeds), so a tile keeps room for rows
    that need many more steps.
    """
    ramp_steps, tail_steps = _phase_steps(n_steps)
    return 8 * (ramp_steps + 1 + tail_steps) * (4 * max(int(n_seeds), 1) + 2)


class _AlphaPowerWorkspace:
    """Fused alpha-power currents evaluated entirely in preallocated buffers.

    The same pre-combined model as :func:`repro.spice.batch._alpha_power_kernel`
    (softplus overdrive, one half-exponent pow, tanh saturation) but with
    every temporary -- the clamped ``vds``, the overdrive chain, the CLM
    gain, the saturation ratio -- living in three scratch matrices
    allocated once for the whole batch.  Each call operates on the
    ``[:n]`` prefix views, so the adaptive hot loop performs no
    per-evaluation array allocation.  Array parameters (``params`` from
    :func:`repro.spice.batch._fused_params`: per-seed vectors, or per-row
    values of a row table) are broadcast to full ``(n_cond, n_seeds)``
    matrices, which follow the active prefix through :meth:`compact`;
    scalar parameters stay scalars.
    """

    def __init__(self, params: tuple, n_cond: int, n_seeds: int):
        shape = (n_cond, n_seeds)
        self._params = tuple(
            {key: (value if np.ndim(value) == 0 or np.shape(value) == shape
                   else np.broadcast_to(value, shape).copy())
             for key, value in device.items()}
            for device in params)
        self._s1 = np.empty(shape)
        self._s2 = np.empty(shape)
        self._s3 = np.empty(shape)

    def compact(self, keep: np.ndarray) -> None:
        """Keep rows ``keep`` of the array parameters (prefix compaction)."""
        self._params = tuple(_take_params(device, keep)
                             for device in self._params)

    def currents(self, n: int, vgs_n, vds_n, vgs_p, vds_p,
                 out_down, out_up) -> None:
        """Pull-down and pull-up currents into ``out_down`` / ``out_up``."""
        self._one(self._params[0], n, vgs_n, vds_n, out_down)
        self._one(self._params[1], n, vgs_p, vds_p, out_up)

    def _one(self, p, n: int, vgs, vds_raw, out) -> None:
        vds = self._s1[:n]
        x = self._s2[:n]
        aux = self._s3[:n]
        np.maximum(vds_raw, 0.0, out=vds)
        np.multiply(vds, p["dibl"], out=x)
        x += vgs
        x -= p["vth0"]
        # softplus(x, smoothing) in the overflow-stable form
        np.abs(x, out=aux)
        aux *= p["neg_inv_smoothing"]
        np.exp(aux, out=aux)
        np.log1p(aux, out=aux)
        aux *= p["smoothing"]
        np.maximum(x, 0.0, out=x)
        x += aux                                   # overdrive
        np.power(x, p["alpha_half"], out=aux)      # half-power
        np.multiply(aux, aux, out=out)
        out *= p["kw"]
        np.multiply(vds, p["lam"], out=x)
        x += 1.0
        out *= x                                   # channel-length modulation
        np.multiply(aux, p["coeff"], out=x)
        np.maximum(x, 1e-3, out=x)
        np.divide(vds, x, out=x)
        np.tanh(x, out=x)
        out *= x                                   # saturation


def simulate_arc_transitions_adaptive(
    inverter: Union[EquivalentInverter, Sequence[EquivalentInverter]],
    sin,
    cload,
    vdd,
    stepper: Optional[StepperSpec] = None,
    on_failure: str = "raise",
) -> AdaptiveTransientResult:
    """Simulate every requested condition of one arc with the adaptive stepper.

    Parameters
    ----------
    inverter, sin, cload, vdd:
        As in :func:`repro.spice.batch.simulate_arc_transitions`.
    stepper:
        The :class:`~repro.spice.stepper.StepperSpec` (must have
        ``method="rk45"``); ``None`` uses the default adaptive spec.
    on_failure:
        ``"raise"`` (default) aborts the batch when any condition fails to
        complete within the fixed engines' maximum extended horizon,
        underflows its step size, or suffers a rejection storm;
        ``"quarantine"`` retires such conditions per row with NaN results,
        mirroring the fixed batched engine's contract.

    Returns
    -------
    AdaptiveTransientResult
        Delays and slews measured on per-condition *non-uniform* time
        grids, the waveform batches themselves (dense-output derivatives
        attached to the output waveforms) and an
        :class:`~repro.spice.stepper.IntegrationStats` record in
        ``result.stats``.
    """
    if stepper is None:
        stepper = StepperSpec(method="rk45")
    if stepper.method != "rk45":
        raise ValueError(f"the adaptive engine requires an rk45 stepper, "
                         f"got method={stepper.method!r}")
    sin, cload, vdd = _validated_conditions(sin, cload, vdd, on_failure)
    n_cond = sin.size
    table = _RowTable.build(inverter, n_cond)
    faultinject.fire(SITE_INTEGRATE)

    n_seeds = table.n_seeds
    # Per-row table entries below follow the active prefix as rows retire.
    falling = table.falling
    miller = table.miller
    nmos = table.nmos
    pmos = table.pmos
    fused = _fused_params(nmos, pmos)
    kernel = (_AlphaPowerWorkspace(fused, n_cond, n_seeds)
              if fused is not None else None)

    # The adaptive horizon equals the fixed engines' fully-extended window
    # (initial window plus every geometric extension), so the two engines
    # declare "non-functional at this operating point" at the same point.
    window = table.windows(sin, cload, vdd)
    growth = 1.8
    horizon = window * (growth ** _serial._MAX_EXTENSIONS - 1.0) / (growth - 1.0)

    # ------------------------------------------------------------------
    # Per-condition run state, compacted to the active prefix [:na].
    # ------------------------------------------------------------------
    shape = (n_cond, n_seeds)
    ids = np.arange(n_cond)
    ramp = sin.copy()
    supply = vdd.copy()
    slope_signed = _signed_slope(supply, ramp, falling)
    caps = cload[:, np.newaxis] + table.parasitic
    supply_full = np.broadcast_to(supply[:, np.newaxis], shape).copy()
    clamp_low = np.broadcast_to((-0.2 * supply)[:, np.newaxis], shape).copy()
    clamp_high = np.broadcast_to((1.2 * supply)[:, np.newaxis], shape).copy()
    tmax = sin + horizon
    atol = stepper.atol_frac * supply
    h_floor = _H_UNDERFLOW_FRACTION * tmax
    t = np.zeros(n_cond)
    h = ramp * _H0_RAMP_FRACTION
    errold = np.full(n_cond, 1e-4)
    rejects = np.zeros(n_cond, dtype=int)
    y = np.broadcast_to(np.where(falling, supply, 0.0)[:, np.newaxis],
                        (n_cond, n_seeds)).copy()

    # ------------------------------------------------------------------
    # Single-allocation workspace: stage buffers, scratch, the sample log.
    # ------------------------------------------------------------------
    k = [np.empty(shape) for _ in range(7)]
    ystage = np.empty(shape)
    ynew = np.empty(shape)
    vclamp = np.empty(shape)
    vds_p = np.empty(shape)
    pull_down = np.empty(shape)
    pull_up = np.empty(shape)
    tmp = np.empty(shape)
    kick = np.empty(shape)

    # Accepted samples, one entry per iteration: the rows' original
    # indices, their sample positions, times, voltages and dense-output
    # derivatives.  The result's padded matrices are filled from it once
    # the longest row is known.
    samples = []
    counts = np.ones(n_cond, dtype=int)
    quarantined = np.zeros(n_cond, dtype=bool)

    stats = IntegrationStats(method="rk45")

    def past_ramp_inputs(na: int) -> tuple:
        """The input columns ``(vin, vdd - vin)`` of a prefix past its ramps."""
        vin_col = _past_ramp_input(supply[:na], falling)[:, np.newaxis]
        return vin_col, supply[:na, np.newaxis] - vin_col

    def miller_term(na: int, on_ramp: np.ndarray) -> Optional[np.ndarray]:
        """The Miller term ``C_M dVin/dt`` of a step (``None`` when zero).

        ``on_ramp`` is the *step-level* mask: steps never straddle a ramp
        end, so one term covers every stage of the attempt.
        """
        dvin = np.where(on_ramp, slope_signed[:na], 0.0)
        # Adding an all-zero Miller term is exact, so it is skipped.
        if not np.any(dvin):
            return None
        term = kick[:na]
        np.multiply(miller, dvin[:, np.newaxis], out=term)
        return term

    def rhs(na: int, t_vec: np.ndarray, state: np.ndarray, out: np.ndarray,
            term: Optional[np.ndarray], past: Optional[tuple] = None
            ) -> np.ndarray:
        """Derivative of the active prefix into ``out`` (no allocation).

        ``term`` is the step's :func:`miller_term`.  ``past`` holds
        :func:`past_ramp_inputs` when no row is on its ramp: every stage
        then sees the constant input.
        """
        stats.rhs_evals += na * n_seeds
        if past is None:
            frac = np.clip(t_vec / ramp[:na], 0.0, 1.0)
            vin = supply[:na] * _input_level(frac, falling)
            vin_col = vin[:, np.newaxis]
            vin_p = supply[:na, np.newaxis] - vin_col
        else:
            vin_col, vin_p = past
        vc = vclamp[:na]
        # np.clip's elementwise result; its ufunc takes about twice as long
        # as these two passes.
        np.maximum(state, clamp_low[:na], out=vc)
        np.minimum(vc, clamp_high[:na], out=vc)
        vdp = vds_p[:na]
        np.subtract(supply_full[:na], vc, out=vdp)
        if kernel is not None:
            kernel.currents(na, vin_col, vc, vin_p, vdp,
                            pull_down[:na], pull_up[:na])
            np.subtract(pull_up[:na], pull_down[:na], out=out)
        else:
            down = nmos.current(vin_col, vc)
            up = pmos.current(vin_p, vdp)
            np.subtract(up, down, out=out)
        if term is not None:
            out += term
        out /= caps[:na]
        return out

    na = n_cond
    rhs(na, t[:na], y[:na], k[0][:na],
        miller_term(na, np.ones(na, dtype=bool)))
    samples.append((ids.copy(), np.zeros(n_cond, dtype=int), t.copy(),
                    y.copy(), k[0].copy()))

    first_failure = None  # (original index, reason) under on_failure="raise"
    past = None  # past_ramp_inputs(na) once every active row is past its ramp
    for _ in range(_MAX_ITERATIONS):
        if na == 0 or first_failure is not None:
            break
        if past is None:
            on_ramp = t[:na] < ramp[:na]
            if not on_ramp.any():
                past = past_ramp_inputs(na)
        if past is None:
            remaining = ramp[:na] - t[:na]
            hits_ramp_end = on_ramp & (h[:na] >= remaining)
            h_eff = np.where(on_ramp, np.minimum(h[:na], remaining), h[:na])
            term = miller_term(na, on_ramp)
        else:
            # Past every ramp no step is clamped to a ramp end (t only
            # grows, and retirement only removes rows).
            hits_ramp_end = term = None
            h_eff = h[:na].copy()
        h_col = h_eff[:, np.newaxis]

        # Stages 2..6 (k1 carried over by FSAL).
        for stage, (c_frac, row) in enumerate(
                zip((_C2, _C3, _C4, _C5, _C6), _A), start=1):
            acc = ystage[:na]
            np.multiply(k[0][:na], row[0], out=acc)
            for j in range(1, stage):
                if row[j] != 0.0:
                    np.multiply(k[j][:na], row[j], out=tmp[:na])
                    acc += tmp[:na]
            acc *= h_col
            acc += y[:na]
            rhs(na, t[:na] + c_frac * h_eff, acc, k[stage][:na], term, past)

        # Fifth-order solution and the FSAL stage at its endpoint.
        yn = ynew[:na]
        np.multiply(k[0][:na], _B[0], out=yn)
        for j in (2, 3, 4, 5):
            np.multiply(k[j][:na], _B[j], out=tmp[:na])
            yn += tmp[:na]
        yn *= h_col
        yn += y[:na]
        rhs(na, t[:na] + h_eff, yn, k[6][:na], term, past)

        # Scaled embedded error, RMS over seeds, one scalar per condition.
        ev = ystage[:na]
        np.multiply(k[0][:na], _E[0], out=ev)
        for j in (2, 3, 4, 5, 6):
            np.multiply(k[j][:na], _E[j], out=tmp[:na])
            ev += tmp[:na]
        ev *= h_col
        scale = tmp[:na]
        np.abs(yn, out=scale)
        np.maximum(scale, np.abs(y[:na]), out=scale)
        scale *= stepper.rtol
        scale += atol[:na, np.newaxis]
        ev /= scale
        np.square(ev, out=ev)
        err = np.sqrt(np.mean(ev, axis=1))
        # Identity without an active injector; under injection, poisoned
        # rows read as non-finite error -> forced rejection (storms).
        err = faultinject.corrupt_rows(SITE_REJECT, err)

        finite = np.isfinite(err)
        accept = finite & (err <= 1.0)
        stats.steps_taken += int(np.count_nonzero(accept))
        stats.steps_rejected += int(na - np.count_nonzero(accept))

        # PI controller: grow accepted steps from the error history, shrink
        # rejected ones from the current error alone (never above 1).
        err_fl = np.maximum(err, _ERR_FLOOR)
        factor = (stepper.safety * err_fl ** (-stepper.pi_alpha)
                  * np.maximum(errold[:na], _ERR_FLOOR) ** stepper.pi_beta)
        np.clip(factor, stepper.min_factor, stepper.max_factor, out=factor)
        shrink = np.clip(stepper.safety * err_fl ** -0.2,
                         stepper.min_factor, 1.0)
        factor = np.where(accept, factor, shrink)
        factor = np.where(finite, factor, stepper.min_factor)
        # A ramp-end clamp is not the controller's doing: accepted clamped
        # rows grow from the *unclamped* h so no memory is lost.
        if hits_ramp_end is None:
            base = h_eff
            t_next = t[:na] + h_eff
        else:
            base = np.where(hits_ramp_end & accept, h[:na], h_eff)
            t_next = np.where(hits_ramp_end, ramp[:na], t[:na] + h_eff)
        h[:na] = base * factor
        t[:na] = np.where(accept, t_next, t[:na])
        rejects[:na] = np.where(accept, 0, rejects[:na] + 1)
        errold[:na] = np.where(accept, np.maximum(err, 1e-4), errold[:na])

        acc_idx = np.nonzero(accept)[0]
        if acc_idx.size:
            y[acc_idx] = yn[acc_idx]
            k[0][acc_idx] = k[6][acc_idx]
            # Rows that just landed on their ramp end: the two one-sided
            # derivatives differ by exactly the Miller term, so the FSAL
            # stage is corrected in place of a fresh evaluation.  The
            # post-ramp value is also the dense-output derivative stored
            # for the boundary sample (crossings live in the tail).
            crossed_idx = (np.nonzero(accept & hits_ramp_end)[0]
                           if hits_ramp_end is not None else ())
            if len(crossed_idx):
                k[0][crossed_idx] -= (_take(miller, crossed_idx)
                                      * slope_signed[crossed_idx, np.newaxis]
                                      / caps[crossed_idx])
            # Commit samples under each row's original condition index.
            orig = ids[:na][acc_idx]
            pos = counts[orig]
            samples.append((orig, pos, t[:na][acc_idx], y[acc_idx],
                            k[0][acc_idx]))
            counts[orig] = pos + 1

        # Retirement: completed rows leave the batch; failed rows abort or
        # quarantine.  Completion uses the fixed engines' far-slew margins.
        complete = _transition_complete(y[:na], supply[:na, np.newaxis],
                                        falling)
        done = complete if past is not None else complete & (t[:na] >= ramp[:na])
        overran = (t[:na] >= tmax[:na]) & ~done
        storm = rejects[:na] >= stepper.max_rejects
        under = h[:na] < h_floor[:na]
        failed = (overran | storm | under) & ~done
        if np.any(failed):
            if on_failure == "quarantine":
                quarantined[ids[:na][failed]] = True
            else:
                first = int(np.nonzero(failed)[0][0])
                reason = ("rejection storm" if storm[first]
                          else "step-size underflow" if under[first]
                          else "window exhausted")
                first_failure = (int(ids[:na][first]), reason)
                break
        retire = done | failed
        if np.any(retire):
            kidx = np.nonzero(~retire)[0]
            new_na = kidx.size
            for arr in (ids, ramp, supply, slope_signed, tmax, atol, h_floor,
                        t, h, errold, rejects):
                arr[:new_na] = arr[:na][kidx]
            for mat in (y, caps, supply_full, clamp_low, clamp_high, k[0]):
                mat[:new_na] = mat[:na][kidx]
            if not isinstance(falling, bool):
                falling = falling[kidx]
            miller = _take(miller, kidx)
            if kernel is not None:
                kernel.compact(kidx)
            else:
                nmos = _take_device(nmos, kidx)
                pmos = _take_device(pmos, kidx)
            if past is not None:
                past = past_ramp_inputs(new_na)
            na = new_na
    else:
        raise RuntimeError("adaptive integration exceeded the iteration "
                           "backstop; this indicates a stepper bug")

    if first_failure is not None:
        index, reason = first_failure
        raise RuntimeError(
            f"output of {table.cell_name(index)} did not complete its "
            f"transition (sin={sin[index]:.3g}s, cload={cload[index]:.3g}F, "
            f"vdd={vdd[index]:.3g}V); the cell is likely non-functional at "
            f"this operating point (adaptive stepper: {reason})"
        )

    # ------------------------------------------------------------------
    # Assemble padded batch matrices (padding holds the last sample, the
    # fixed engines' convention, so direction/final-value logic carries).
    # ------------------------------------------------------------------
    lengths = np.maximum(counts, 2)
    n_max = int(lengths.max())
    time_matrix = np.zeros((n_cond, n_max))
    volt_matrix = np.empty((n_cond, n_max, n_seeds))
    deriv_matrix = np.empty((n_cond, n_max, n_seeds))
    for orig, pos, times, volts, derivs in samples:
        time_matrix[orig, pos] = times
        volt_matrix[orig, pos] = volts
        deriv_matrix[orig, pos] = derivs
    # Free the log before the measurements below allocate.
    del samples
    for index in range(n_cond):
        length = int(counts[index])
        if length < 2:
            # A row quarantined before its first accepted step still needs
            # two samples with distinct times; its values are NaN below.
            time_matrix[index, 1] = time_matrix[index, 0] + float(sin[index])
            length = 2
        if length < n_max:
            time_matrix[index, length:] = time_matrix[index, length - 1]
            volt_matrix[index, length:] = volt_matrix[index, length - 1]
            deriv_matrix[index, length:] = deriv_matrix[index, length - 1]

    if np.any(quarantined):
        volt_matrix[quarantined] = np.nan
        deriv_matrix[quarantined] = np.nan

    # Input ramps on the same non-uniform axes (exactly piecewise linear,
    # so the input batch needs no dense-output derivative).
    fraction = np.clip(time_matrix / sin[:, np.newaxis], 0.0, 1.0)
    vin_matrix = vdd[:, np.newaxis] * _input_level(fraction, table.falling)

    input_batch = WaveformBatch(time_matrix, vin_matrix, valid_len=lengths)
    output_batch = WaveformBatch(time_matrix, volt_matrix, valid_len=lengths,
                                 derivative=deriv_matrix)
    return AdaptiveTransientResult(
        sin=sin,
        cload=cload,
        vdd=vdd,
        _delays=output_batch.propagation_delay(input_batch, vdd),
        _slews=output_batch.transition_time(vdd),
        quarantined=quarantined if on_failure == "quarantine" else None,
        stats=stats,
        input_waveforms=input_batch,
        output_waveforms=output_batch,
    )


def simulate_arc_transition_adaptive(
    inverter: EquivalentInverter,
    sin: float,
    cload: float,
    vdd: float,
    stepper: Optional[StepperSpec] = None,
) -> TransientResult:
    """Adaptive single-condition simulation (the serial engine's analogue).

    One condition is the single-row special case of the batch; the
    returned waveforms carry the dense-output derivative, so crossing-time
    and ``value_at`` measurements interpolate with the Hermite cubic.
    """
    batch = simulate_arc_transitions_adaptive(
        inverter, [float(sin)], [float(cload)], [float(vdd)], stepper=stepper)
    result = batch.condition(0)
    return TransientResult(input_waveform=result.input_waveform,
                           output_waveform=result.output_waveform,
                           vdd=result.vdd)

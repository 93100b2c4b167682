"""Reference transient integration: per condition, and recording batches.

Two references for the batched engines behind
:func:`repro.spice.sweep_conditions` and the fused simulation plan:

* :func:`serial_transitions` integrates every ``(sin, cload, vdd)``
  condition on its own through the single-condition engine
  :func:`repro.spice.simulate_arc_transition`.  The batched fixed-step
  engine must agree at ``rtol 1e-9``.
* :func:`recording_transitions` is the batched fixed-step engine as it was
  before it measured crossings inside its step loop: it stores every
  ``(row, step, seed)`` sample, grows the store for window extensions, and
  extracts delay and slew afterwards with the reference measurement of
  :mod:`oracles.crossings`.  It integrates every row to the end of each
  window, and works out from its recorded samples the step accounting of
  an engine that retires a row at the first completion check (every
  ``RETIRE_EVERY`` steps of a tail chunk) it passes.  The lean engine must
  equal it bit for bit (delays, slews, quarantine mask and step
  accounting).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.cells.equivalent_inverter import default_arc, reduce_cell
from repro.runtime import faultinject
from repro.spice import transient as _serial
from repro.spice.batch import (
    RETIRE_EVERY,
    SITE_INTEGRATE,
    SITE_STATE,
    _fused_params,
    _input_level,
    _RowTable,
    _signed_slope,
    _take,
    _take_device,
    _take_params,
    _transition_complete,
    _validated_conditions,
)
from repro.spice.stepper import IntegrationStats
from repro.spice.transient import (
    DEFAULT_STEPS,
    _extension_steps,
    _phase_steps,
    simulate_arc_transition,
)
from repro.spice.waveform import WaveformBatch

from oracles.crossings import delay_and_slew


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


def _recording_kernel(prepared: tuple):
    """The fused alpha-power currents, gate term formed on every call."""

    def one_device(p, vgs, vds_raw):
        vds = np.maximum(vds_raw, 0.0)
        x = p["dibl"] * vds
        x += vgs - p["vth0"]
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

    def kernel(vgs_n, vgs_p, vds_n, vds_p):
        return (one_device(prepared[0], vgs_n, vds_n),
                one_device(prepared[1], vgs_p, vds_p))

    return kernel


def recording_transitions(inverter, sin, cload, vdd,
                          n_steps: int = DEFAULT_STEPS,
                          on_failure: str = "raise"):
    """Delay, slew, quarantine mask and stats of the recording engine.

    Takes the arguments of :func:`repro.spice.simulate_arc_transitions` and
    returns ``(delay, slew, quarantined, stats)``: two ``(n_rows,
    n_seeds)`` arrays, the ``(n_rows,)`` mask (``None`` unless
    ``on_failure="quarantine"``) and the
    :class:`~repro.spice.stepper.IntegrationStats` of the pass.
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

    def integrate_chunk(t_begin, t_end, steps, state, idx, time_out,
                        volt_out):
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
            kernel = _recording_kernel(
                tuple(_take_params(params, idx) for params in fused))
        else:
            nmos = _take_device(table.nmos, idx)
            pmos = _take_device(table.pmos, idx)

        def derivative(t, vout):
            fraction = np.clip(t / ramp, 0.0, 1.0)
            on_ramp = (t >= 0.0) & (t <= ramp)
            vin = supply * _input_level(fraction, falling)
            dvin = np.where(on_ramp, slope, 0.0)
            vin = vin[:, np.newaxis]
            vout_clamped = np.minimum(np.maximum(vout, clamp_low), clamp_high)
            if fused is not None:
                pull_down, pull_up = kernel(vin, supply_col - vin,
                                            vout_clamped,
                                            supply_col - vout_clamped)
                out = pull_up
                out -= pull_down
                if np.any(dvin):
                    out += miller * dvin[:, np.newaxis]
                out /= cap
                return out
            pull_down = nmos.current(vin, vout_clamped)
            pull_up = pmos.current(supply_col - vin, supply_col - vout_clamped)
            return (pull_up - pull_down + miller * dvin[:, np.newaxis]) / cap

        times = np.linspace(t_begin, t_end, steps + 1, axis=1)
        time_out[:] = times
        dt = times[:, 1] - times[:, 0]
        half = dt / 2.0
        half_col = half[:, np.newaxis]
        dt_col = dt[:, np.newaxis]
        sixth_col = (dt / 6.0)[:, np.newaxis]
        stage = np.empty((idx.size, n_seeds))
        volt_out[:, 0] = state
        for index in range(steps):
            t = times[:, index]
            k1 = derivative(t, state)
            np.multiply(half_col, k1, out=stage)
            stage += state
            k2 = derivative(t + half, stage)
            np.multiply(half_col, k2, out=stage)
            stage += state
            k3 = derivative(t + half, stage)
            np.multiply(dt_col, k3, out=stage)
            stage += state
            k4 = derivative(t + dt, stage)
            k2 *= 2.0
            k1 += k2
            k3 *= 2.0
            k1 += k3
            k1 += k4
            k1 *= sixth_col
            state += k1
            volt_out[:, index + 1] = state
        return state

    initial_value = np.where(table.falling, vdd, 0.0)[:, np.newaxis]
    vout = np.broadcast_to(initial_value, (n_cond, n_seeds)).copy()

    ramp_steps, tail_steps = _phase_steps(n_steps)
    base_len = ramp_steps + 1 + tail_steps
    time_matrix = np.empty((n_cond, base_len))
    volt_matrix = np.empty((n_cond, base_len, n_seeds))

    all_idx = np.arange(n_cond)
    vout = integrate_chunk(np.zeros(n_cond), sin, ramp_steps, vout, all_idx,
                           time_matrix[:, :ramp_steps + 1],
                           volt_matrix[:, :ramp_steps + 1])
    counted_steps = ramp_steps * n_cond
    vout = faultinject.corrupt_rows(SITE_STATE, vout)

    window = table.windows(sin, cload, vdd)
    t_start = sin.copy()
    active = all_idx
    extension_records = []
    lengths = np.full(n_cond, base_len, dtype=int)
    quarantined = np.zeros(n_cond, dtype=bool)
    for extension in range(_serial._MAX_EXTENSIONS):
        if extension == 0:
            chunk_steps = tail_steps
            times = time_matrix[:, ramp_steps:]
            voltages = volt_matrix[:, ramp_steps:]
        else:
            chunk_steps = _extension_steps(tail_steps)
            times = np.empty((active.size, chunk_steps + 1))
            voltages = np.empty((active.size, chunk_steps + 1, n_seeds))
            extension_records.append((active, times, voltages))
            lengths[active] += chunk_steps
        state = integrate_chunk(t_start[active], t_start[active] + window[active],
                                chunk_steps, vout[active], active, times,
                                voltages)
        vout[active] = state

        # A retiring engine stops a row at the first check it passes, and
        # the row does not extend.
        supply_col = vdd[active, np.newaxis]
        falling = table.falling_at(active)
        steps_run = np.full(active.size, chunk_steps)
        for check in range(RETIRE_EVERY, chunk_steps, RETIRE_EVERY):
            passed = _transition_complete(voltages[:, check], supply_col,
                                          falling)
            steps_run[passed & (steps_run == chunk_steps)] = check
        counted_steps += int(steps_run.sum())
        retired = steps_run < chunk_steps
        done = retired | _transition_complete(state, supply_col, falling)
        if on_failure == "quarantine":
            broken = ~np.all(np.isfinite(state), axis=1) & ~retired
            if np.any(broken):
                quarantined[active[broken]] = True
                done = done | broken
        t_start[active] = times[:, -1]
        still_active = active[~done]
        if still_active.size == 0:
            active = still_active
            break
        window[still_active] *= 1.8
        active = still_active
    else:
        if on_failure == "quarantine":
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

    stats = IntegrationStats(method="rk4", steps_taken=counted_steps,
                             rhs_evals=4 * counted_steps * n_seeds)

    if extension_records:
        n_max = int(lengths.max())
        grown_time = np.empty((n_cond, n_max))
        grown_volt = np.empty((n_cond, n_max, n_seeds))
        grown_time[:, :base_len] = time_matrix
        grown_volt[:, :base_len] = volt_matrix
        time_matrix, volt_matrix = grown_time, grown_volt
        offset = base_len
        for idx, times, voltages in extension_records:
            span = times.shape[1] - 1
            time_matrix[idx, offset:offset + span] = times[:, 1:]
            volt_matrix[idx, offset:offset + span] = voltages[:, 1:]
            offset += span
        for index in np.nonzero(lengths < n_max)[0]:
            length = lengths[index]
            time_matrix[index, length:] = time_matrix[index, length - 1]
            volt_matrix[index, length:] = volt_matrix[index, length - 1]

    if np.any(quarantined):
        volt_matrix[quarantined] = np.nan

    fraction = np.clip(time_matrix / sin[:, np.newaxis], 0.0, 1.0)
    vin_matrix = vdd[:, np.newaxis] * _input_level(fraction, table.falling)
    input_batch = WaveformBatch(time_matrix, vin_matrix, valid_len=lengths)
    output_batch = WaveformBatch(time_matrix, volt_matrix, valid_len=lengths)
    delay, slew = delay_and_slew(input_batch, output_batch, vdd)
    return (delay, slew, quarantined if on_failure == "quarantine" else None,
            stats)

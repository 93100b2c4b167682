"""Bit identity of the lean fixed-step engine with the recording engine.

:func:`repro.spice.simulate_arc_transitions` measures each row's crossings
inside its RK4 step loop and takes the past-ramp shortcut in tail chunks;
the recording engine kept in :mod:`oracles.transient` stores every sample
and measures afterwards.  Over mixed row tables (INV/NAND2/NOR2, both
output polarities, in one table), seed counts, step counts, forced window
extensions, NaN rows injected at ``transient.state`` under quarantine and
the fail-fast path, the two must agree exactly: delays, slews, quarantine
mask and step/RHS accounting by ``np.array_equal``, and the same error on
a failed batch.  The lean engine retires a row inside a tail chunk at the
first completion check it passes; the recording engine integrates every
row to the end of its window and derives that accounting from its
samples, so equal stats pin where each row retired.

Hypothesis runs derandomized with no example database, so Tier-1 stays
deterministic.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles.transient import recording_transitions

from repro import get_technology, make_cell
from repro.cells import reduce_cell_cached
from repro.cells.library import Transition
from repro.characterization.input_space import InputSpace
from repro.runtime import FaultSpec, inject
from repro.spice import simulate_arc_transitions
from repro.spice import transient as serial_engine

CELLS = ("INV_X1", "NAND2_X1", "NOR2_X1")
TRANSITIONS = (Transition.FALL, Transition.RISE)
N_CONDITIONS = 5
SEEDS = (1, 8, 32, 200)
STEPS = (16, 400, 1600)
#: Failure modes: a clean pass, NaN rows under quarantine, NaN rows under
#: fail-fast (the batch raises once the rows exhaust their extensions).
MODES = ("clean", "quarantine", "raise")

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=12,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def arcs():
    """Six (cell, arc) reductions per seed count, and a condition pool."""
    technology = get_technology("n28_bulk")
    reductions = {}
    for n_seeds in SEEDS:
        variation = (technology.variation.sample(n_seeds, rng=5)
                     if n_seeds > 1 else None)
        reductions[n_seeds] = [
            reduce_cell_cached(cell, technology,
                               arc=cell.arc(cell.input_pins[0], transition),
                               variation=variation)
            for cell in map(make_cell, CELLS) for transition in TRANSITIONS]
    conditions = np.array([
        condition.as_tuple() for condition in InputSpace(
            technology).sample_lhs(N_CONDITIONS, np.random.default_rng(3))])
    return reductions, conditions


def _run(engine, table, triples, n_steps, on_failure, nan_rows):
    """``engine``'s outcome: its results, or the error it raised."""
    specs = ([FaultSpec(site="transient.state", kind="nan", at_calls=(0,),
                        rows=tuple(nan_rows))] if nan_rows else [])
    try:
        with inject(specs):
            return engine(table, triples[:, 0], triples[:, 1], triples[:, 2],
                          n_steps=n_steps, on_failure=on_failure)
    except RuntimeError as error:
        return error


def _lean(table, sin, cload, vdd, n_steps, on_failure):
    result = simulate_arc_transitions(table, sin, cload, vdd,
                                      n_steps=n_steps, on_failure=on_failure)
    return result.delay(), result.output_slew(), result.quarantined, \
        result.stats


rows_strategy = st.lists(
    st.tuples(st.integers(0, len(CELLS) * len(TRANSITIONS) - 1),
              st.integers(0, N_CONDITIONS - 1)),
    min_size=1, max_size=8)


@PROPERTY
@given(rows=rows_strategy, n_seeds=st.sampled_from(SEEDS),
       n_steps=st.sampled_from(STEPS), extend=st.booleans(),
       mode=st.sampled_from(MODES), nan_pick=st.integers(0, 7))
@example(rows=[(i, i % N_CONDITIONS) for i in range(6)], n_seeds=200,
         n_steps=1600, extend=False, mode="clean", nan_pick=0)
@example(rows=[(i, i % N_CONDITIONS) for i in range(6)], n_seeds=1,
         n_steps=16, extend=True, mode="clean", nan_pick=0)
@example(rows=[(i, (i + 2) % N_CONDITIONS) for i in range(6)], n_seeds=32,
         n_steps=400, extend=True, mode="quarantine", nan_pick=3)
@example(rows=[(5, 0), (0, 1), (2, 4)], n_seeds=8, n_steps=400,
         extend=False, mode="raise", nan_pick=1)
# Rows retire inside the first tail chunk, two at its second completion
# check and four at its third, the rest going on over their own samples.
@example(rows=[(i, i % N_CONDITIONS) for i in range(6)], n_seeds=32,
         n_steps=400, extend=False, mode="clean", nan_pick=1)
# One row retires in the first tail chunk; the other five extend and
# retire at four different checks of the extension chunk.
@example(rows=[(i, (i + 1) % N_CONDITIONS) for i in range(6)], n_seeds=8,
         n_steps=400, extend=True, mode="clean", nan_pick=0)
# Every row retires at the first completion check.
@example(rows=[(i, i % N_CONDITIONS) for i in range(6)], n_seeds=8,
         n_steps=16, extend=False, mode="clean", nan_pick=0)
def test_lean_engine_equals_recording_engine(arcs, rows, n_seeds, n_steps,
                                             extend, mode, nan_pick):
    reductions, conditions = arcs
    table = [reductions[n_seeds][arc_index] for arc_index, _ in rows]
    triples = conditions[[cond for _, cond in rows]]
    on_failure = "raise" if mode == "raise" else "quarantine"
    if mode == "clean":
        on_failure, nan_rows = ("quarantine" if nan_pick % 2 else "raise"), ()
    else:
        nan_rows = (nan_pick % len(rows),)
    margin = 0.4 if extend else serial_engine._WINDOW_MARGIN
    with mock.patch.object(serial_engine, "_WINDOW_MARGIN", margin):
        lean = _run(_lean, table, triples, n_steps, on_failure, nan_rows)
        recorded = _run(recording_transitions, table, triples, n_steps,
                        on_failure, nan_rows)
    if mode == "raise":
        assert isinstance(lean, RuntimeError)
        assert isinstance(recorded, RuntimeError)
        assert str(lean) == str(recorded)
        return
    delay, slew, quarantined, stats = lean
    ref_delay, ref_slew, ref_quarantined, ref_stats = recorded
    assert np.array_equal(delay, ref_delay, equal_nan=True)
    assert np.array_equal(slew, ref_slew, equal_nan=True)
    if on_failure == "quarantine":
        assert np.array_equal(quarantined, ref_quarantined)
        assert list(np.nonzero(quarantined)[0]) == sorted(set(nan_rows))
    else:
        assert quarantined is None and ref_quarantined is None
    assert stats == ref_stats
    assert np.isnan(delay[list(nan_rows)]).all()

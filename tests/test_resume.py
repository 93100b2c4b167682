"""Resume is a rerun: a killed library run picks up from the durable tier.

``characterize_library`` keeps no journal of its own.  With the durable
cache tier attached (``runtime.configure(disk_cache_dir=...)``), each
simulation tile's clean rows are written through as the tile finishes, so
a run that dies mid-flight leaves every finished tile on disk.  Running it
again with the same inputs reads those rows back as disk hits, integrates
only the rest, repeats the stacked MAP solve, and must reproduce an
uninterrupted run's entries bit for bit.  Changed inputs miss the store,
quarantined rows are never stored, and corrupt entries cost a recompute.

The killed runs are real child processes that SIGKILL themselves (no
cleanup, no atexit) at a chosen point of the flow.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

import repro.runtime as runtime
from repro import get_technology, make_cell
from repro.core.library_flow import characterize_library
from repro.runtime import FaultSpec, clear_all_caches, inject
from repro.runtime.accounting import RunLedger
from repro.spice.batch import transient_item_bytes

N_CONDITIONS = 3
N_SEEDS = 6
#: Rows per integration tile: 2 cells x 2 arcs x 3 conditions = 12 rows in
#: four tiles, so a run can die with some tiles finished and some not.
ROWS_PER_TILE = 3
TILE_BYTES = ROWS_PER_TILE * transient_item_bytes(N_SEEDS)
CELLS = ("INV_X1", "NAND2_X1")


def _run(delay_prior, slew_prior, **kwargs):
    """One library run from cold memory caches (the disk tier is kept)."""
    clear_all_caches()
    ledger = RunLedger()
    library = characterize_library(
        get_technology("n28_bulk"), [make_cell(name) for name in CELLS],
        delay_prior, slew_prior, conditions=N_CONDITIONS, n_seeds=N_SEEDS,
        rng=11, max_bytes=TILE_BYTES, ledger=ledger, **kwargs)
    return library, ledger


@contextmanager
def durable_tier(root):
    runtime.configure(disk_cache_dir=str(root))
    try:
        yield
    finally:
        runtime.configure(disk_cache_dir=None)


def _disk_hits(ledger):
    return ledger.cache_activity().get("simulation:disk", {}).get("hits", 0)


def _assert_entries_equal(lhs, rhs):
    assert len(lhs.entries) == len(rhs.entries)
    for left, right in zip(lhs.entries, rhs.entries):
        assert (left.cell_name, left.arc.name) == (right.cell_name,
                                                   right.arc.name)
        assert np.array_equal(left.statistical.delay_parameters,
                              right.statistical.delay_parameters)
        assert np.array_equal(left.statistical.slew_parameters,
                              right.statistical.slew_parameters)
        assert (left.statistical.fitting_conditions
                == right.statistical.fitting_conditions)
        assert (left.statistical.simulation_runs
                == right.statistical.simulation_runs)


@pytest.fixture(scope="module")
def baseline(delay_prior, slew_prior):
    """The uninterrupted run, without a disk tier, every rerun must match."""
    library, _ = _run(delay_prior, slew_prior)
    return library


# ---------------------------------------------------------------------------
# Killed runs
# ---------------------------------------------------------------------------

#: Runs the library flow against a durable tier and SIGKILLs itself on the
#: Nth call of one function.  argv: <store> <priors pickle> <target>
#: <tile bytes>, where target "tile" dies as the second integration tile
#: starts and "solve" dies in the first stacked MAP solve.
_CHILD_SCRIPT = """
import os, pickle, signal, sys

store, priors, target, tile_bytes = sys.argv[1:5]

import repro.core.library_flow as library_flow
import repro.core.simulation_plan as simulation_plan
import repro.runtime as runtime
from repro import get_technology, make_cell


def kill_on_call(module, name, call):
    original = getattr(module, name)
    calls = [0]

    def wrapper(*args, **kwargs):
        calls[0] += 1
        if calls[0] == call:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(*args, **kwargs)

    setattr(module, name, wrapper)


if target == "tile":
    kill_on_call(simulation_plan, "simulate_rows_job", 2)
else:
    kill_on_call(library_flow, "map_estimate_stacked", 1)

with open(priors, "rb") as handle:
    delay_prior, slew_prior = pickle.load(handle)
runtime.configure(disk_cache_dir=store)
library_flow.characterize_library(
    get_technology("n28_bulk"), [make_cell("INV_X1"), make_cell("NAND2_X1")],
    delay_prior, slew_prior, conditions=3, n_seeds=6, rng=11,
    max_bytes=int(tile_bytes))
print("COMPLETED")
"""


def _kill_child(tmp_path, delay_prior, slew_prior, target):
    priors = tmp_path / "priors.pkl"
    priors.write_bytes(pickle.dumps((delay_prior, slew_prior)))
    env = dict(os.environ)
    env.pop("REPRO_DISK_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, str(tmp_path / "store"),
         str(priors), target, str(TILE_BYTES)],
        env=env, capture_output=True, text=True, timeout=600)
    assert child.returncode == -signal.SIGKILL, child.stderr
    assert "COMPLETED" not in child.stdout


def test_sigkill_inside_a_tile_resumes_bit_identical(delay_prior, slew_prior,
                                                     baseline, tmp_path):
    _kill_child(tmp_path, delay_prior, slew_prior, "tile")
    with durable_tier(tmp_path / "store"):
        resumed, ledger = _run(delay_prior, slew_prior)
    metrics = ledger.metrics()
    # The first tile finished and was written through before the kill; the
    # rerun reads it back and integrates only the rest of the plan.
    assert metrics["fused_rows_total"] == len(CELLS) * 2 * N_CONDITIONS
    assert _disk_hits(ledger) == metrics["fused_rows_cached"] == ROWS_PER_TILE
    assert metrics["fused_rows_simulated"] == (
        metrics["fused_rows_total"] - ROWS_PER_TILE)
    _assert_entries_equal(resumed, baseline)


def test_sigkill_in_the_solve_resumes_without_integrating(
        delay_prior, slew_prior, baseline, tmp_path):
    _kill_child(tmp_path, delay_prior, slew_prior, "solve")
    with durable_tier(tmp_path / "store"):
        resumed, ledger = _run(delay_prior, slew_prior)
    metrics = ledger.metrics()
    assert metrics["fused_rows_cached"] == metrics["fused_rows_total"]
    assert _disk_hits(ledger) == metrics["fused_rows_total"]
    assert "fused:integrate" not in ledger.stages()
    assert metrics.get("transient_rhs_evals", 0) == 0
    _assert_entries_equal(resumed, baseline)


# ---------------------------------------------------------------------------
# What a rerun must not reuse
# ---------------------------------------------------------------------------
def test_changed_engine_misses_the_store(delay_prior, slew_prior, tmp_path):
    cold_adaptive, _ = _run(delay_prior, slew_prior,
                            transient_engine="adaptive")
    with durable_tier(tmp_path / "store"):
        _run(delay_prior, slew_prior, transient_engine="batched")
        rerun, ledger = _run(delay_prior, slew_prior,
                             transient_engine="adaptive")
    # The stepper signature is part of every key: nothing the batched run
    # stored can serve the adaptive one.
    assert _disk_hits(ledger) == 0
    assert ledger.metrics()["fused_rows_cached"] == 0
    _assert_entries_equal(rerun, cold_adaptive)


def test_faulted_run_then_clean_rerun(delay_prior, slew_prior, baseline,
                                      tmp_path):
    spec = FaultSpec(site="transient.state", kind="nan", at_calls=(0,),
                     rows=(1,))
    with durable_tier(tmp_path / "store"):
        with inject([spec], seed=3):
            degraded, _ = _run(delay_prior, slew_prior, strict=False)
        rerun, ledger = _run(delay_prior, slew_prior, strict=True)
    assert [report.error_type for report in degraded.failures] == [
        "QuarantinedRows"]
    # The quarantined row was never stored, so the rerun integrates it
    # again (and only it) and reports nothing.
    assert ledger.metrics()["fused_rows_simulated"] == 1
    assert rerun.failures == ()
    assert not ledger.failures()
    _assert_entries_equal(rerun, baseline)


def test_corrupt_entries_recompute_not_crash(delay_prior, slew_prior,
                                             baseline, tmp_path):
    store = tmp_path / "store"
    with durable_tier(store):
        _run(delay_prior, slew_prior)
        entries = sorted((store / "simulation").glob("entries/*/*.entry"))
        assert len(entries) == len(CELLS) * 2 * N_CONDITIONS
        entries[0].write_bytes(entries[0].read_bytes()[:20])
        flipped = bytearray(entries[1].read_bytes())
        flipped[-1] ^= 0x01
        entries[1].write_bytes(bytes(flipped))
        rerun, ledger = _run(delay_prior, slew_prior)
        quarantined = runtime.cache_stats()["simulation"].disk_quarantined
    assert quarantined == 2
    assert ledger.metrics()["fused_rows_simulated"] == 2
    _assert_entries_equal(rerun, baseline)

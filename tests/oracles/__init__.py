"""Straight-line reference implementations (oracles) of the batched stages.

Each stage of the flow has one production path in ``src/``: the fused
pipeline (one arc or a whole library), the stacked MAP solve (nominal fits
included), the fused historical characterization, batched belief
propagation, and level-wide STA/SSTA.  The parity tests and the speedup
benchmarks compare those paths against the simple implementations kept
here, one small module per stage:

* :mod:`oracles.transient` -- condition-by-condition integration through
  :func:`repro.spice.simulate_arc_transition`, and the recording batched
  engine that stored every sample and measured afterwards;
* :mod:`oracles.crossings` -- threshold-crossing extraction on stored
  waveforms, linear and dense-output;
* :mod:`oracles.library` -- one sweep and two MAP solves per arc;
* :mod:`oracles.map` -- the scalar scipy trust-region MAP solve, once per
  seed;
* :mod:`oracles.historical` -- one sweep plus one least-squares fit per arc;
* :mod:`oracles.bp` -- the scalar belief-propagation message loop, once per
  graph, and the prior learners built on it;
* :mod:`oracles.sta` -- the per-gate netlist compile, and per-gate loop
  propagation for STA and SSTA.

``tests/`` is on ``sys.path`` for the test suite (pytest's rootdir
insertion) and for ``benchmarks/`` (its ``conftest.py``), so both import
these as ``from oracles.<stage> import ...``.
"""

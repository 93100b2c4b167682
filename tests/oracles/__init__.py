"""Straight-line reference implementations (oracles) of the batched stages.

Each stage of the flow has one production path in ``src/``: the fused
library pipeline, the fused historical characterization, batched belief
propagation, and level-wide STA/SSTA.  The parity tests and the speedup
benchmarks compare those paths against the simple implementations kept
here, one small module per stage:

* :mod:`oracles.transient` -- condition-by-condition integration through
  :func:`repro.spice.simulate_arc_transition`;
* :mod:`oracles.library` -- one :class:`StatisticalCharacterizer` per arc;
* :mod:`oracles.historical` -- one sweep plus one least-squares fit per arc;
* :mod:`oracles.bp` -- scalar belief propagation per stacked graph through
  :class:`repro.bayes.GaussianFactorGraph`;
* :mod:`oracles.sta` -- the per-gate netlist compile, and per-gate loop
  propagation for STA and SSTA.

``tests/`` is on ``sys.path`` for the test suite (pytest's rootdir
insertion) and for ``benchmarks/`` (its ``conftest.py``), so both import
these as ``from oracles.<stage> import ...``.
"""

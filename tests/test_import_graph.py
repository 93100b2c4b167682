"""The default flows load NumPy, not SciPy or networkx.

SciPy is imported inside the four functions that call it (the LSE
baseline and the scalar summary, KDE and normal-PDF helpers), and networkx
is not used at all.  A fresh interpreter runs a miniature paper flow --
historical fit, BP prior, fused library characterization, Liberty render,
Monte Carlo SSTA, one service request, a nominal MAP fit and a non-strict
library run whose corrupted solve is repaired -- and must finish with
neither library in ``sys.modules``; then each deferred import must resolve.

The check needs its own process: other tests call the SciPy-backed
functions in the pytest process, so SciPy is already loaded there.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

_CHILD_SCRIPT = r"""
import json
import sys

import numpy as np

import repro
import repro.liberty
import repro.runtime.service
import repro.sta
from repro import (
    BayesianCharacterizer,
    characterize_historical_library,
    characterize_library,
    get_technology,
    learn_prior,
    make_cell,
)
from repro.cells import Transition
from repro.characterization.input_space import InputSpace
from repro.core.prior_learning import shared_reference_conditions
from repro.runtime.faultinject import FaultSpec, inject
from repro.runtime.service import CharacterizationService
from repro.sta import MonteCarloSsta, random_layered_dag


def loaded():
    return sorted({name.split(".")[0] for name in sys.modules}
                  & {"scipy", "networkx"})


after_import = loaded()
cells = [make_cell("INV_X1"), make_cell("NAND2_X1")]
historical = [characterize_historical_library(
    get_technology("n45_bulk"), cells,
    unit_conditions=shared_reference_conditions(6, rng=7),
    transitions=(Transition.FALL,))]
delay_prior = learn_prior(historical, response="delay")
slew_prior = learn_prior(historical, response="slew")
target = get_technology("n28_bulk")
library = characterize_library(target, cells, delay_prior, slew_prior,
                               conditions=2, n_seeds=8, rng=3)
text = library.liberty_writer().render()
dag = random_layered_dag(4, 3, cells=(("INV_X1", 1, 1.0),
                                      ("NAND2_X1", 2, 1.0)), rng=5)
report = MonteCarloSsta(dag, library.timing_view()).run()
variation = target.variation.sample(8, np.random.default_rng(11))
conditions = tuple(InputSpace(target).sample_lhs(2, np.random.default_rng(5)))
with CharacterizationService(target, delay_prior, slew_prior,
                             variation) as service:
    served = service.request(
        cells[0], (cells[0].arc(cells[0].input_pins[0], Transition.FALL),),
        conditions, deadline_s=120.0)
nominal = BayesianCharacterizer(target, cells[1], delay_prior,
                                slew_prior).fit(2, rng=7)
with inject([FaultSpec(site="batch_map.result", kind="nan", at_calls=(0,))]):
    repaired = characterize_library(target, cells, delay_prior, slew_prior,
                                    conditions=2, n_seeds=8, rng=3,
                                    strict=False)
after_flow = loaded()
flow_ok = (len(library.entries) == 4 and not library.failures
           and "cell (INV_X1)" in text
           and bool(np.isfinite(report.delay_samples).all())
           and served.complete
           and nominal.delay_fit.converged and nominal.slew_fit.converged
           and [failure.error_type for failure in repaired.failures]
           == ["RepairedSolve"]
           and all(np.array_equal(lhs.statistical.delay_parameters,
                                  rhs.statistical.delay_parameters)
                   for lhs, rhs in zip(repaired.entries, library.entries)))

from repro.analysis.distributions import gaussian_pdf, kde_pdf, summarize
from repro.core.timing_model import CompactTimingModel, fit_least_squares

rng = np.random.default_rng(0)
sin = rng.uniform(5e-12, 80e-12, 8)
cload = rng.uniform(0.5e-15, 8e-15, 8)
vdd = rng.uniform(0.7, 1.0, 8)
ieff = rng.uniform(2e-5, 1e-4, 8)
response = CompactTimingModel.evaluate_array(
    np.array([0.5, 1.2, -0.2, 0.15]), sin, cload, vdd, ieff)
lse = fit_least_squares(sin, cload, vdd, ieff, response)
samples = rng.normal(1.0, 0.1, 200)
summary = summarize(samples)
_, kde = kde_pdf(samples, n_points=50)
_, normal = gaussian_pdf(1.0, 0.1, np.linspace(0.5, 1.5, 50))
finite = [
    bool(np.all(np.isfinite(lse.params.as_array()))),
    bool(np.all(np.isfinite([summary.mean, summary.std, summary.skewness,
                             summary.excess_kurtosis]))),
    bool(np.all(np.isfinite(kde))),
    bool(np.all(np.isfinite(normal))),
]
print(json.dumps({"after_import": after_import, "after_flow": after_flow,
                  "flow_ok": flow_ok, "finite": finite,
                  "scipy_after_calls": "scipy" in sys.modules}))
"""


def test_default_flows_load_neither_scipy_nor_networkx():
    env = dict(os.environ)
    env.pop("REPRO_DISK_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    child = subprocess.run([sys.executable, "-c", _CHILD_SCRIPT], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert result["after_import"] == []
    assert result["after_flow"] == []
    assert result["flow_ok"]
    # The deferred imports resolve: every SciPy-backed helper returns a
    # finite result, and SciPy is loaded only now.
    assert result["finite"] == [True] * 4
    assert result["scipy_after_calls"]

"""The paper's primary contribution.

* :mod:`repro.core.timing_model` -- the ultra-compact four-parameter
  analytical model for gate delay and output slew (Section III of the paper).
* :mod:`repro.core.prior_learning` -- learning the conjugate Gaussian prior
  and the input-condition-dependent model precision from historical
  technology nodes, optionally through Gaussian belief propagation
  (Section IV).
* :mod:`repro.core.batch_map` -- maximum-a-posteriori extraction of the
  timing-model parameters from a handful of target-technology simulations
  (Eq. 15): one Levenberg-Marquardt solver, vectorized over rows, for the
  nominal fits and for every Monte Carlo seed at once.
* :mod:`repro.core.characterizer` -- the nominal characterization flow.
* :mod:`repro.core.statistical_flow` -- the per-seed statistical
  characterization flow of Fig. 4.
* :mod:`repro.core.library_flow` -- the library-scale orchestrator that
  characterizes every cell x arc of a library in one call.
"""

from repro.core.timing_model import (
    CompactTimingModel,
    FitResult,
    TimingModelParameters,
    fit_least_squares,
)
from repro.core.prior_learning import (
    HistoricalLibraryData,
    TimingPrior,
    characterize_historical_libraries,
    characterize_historical_library,
    learn_class_priors,
    learn_prior,
    learn_priors,
)
from repro.core.batch_map import (
    BatchMapObservations,
    BatchMapResult,
    fit_least_squares_stacked,
    map_estimate_batch,
    map_estimate_stacked,
)
from repro.core.simulation_plan import SimulationPlan
from repro.core.characterizer import BayesianCharacterizer, NominalCharacterization
from repro.core.statistical_flow import (
    StatisticalCharacterization,
    StatisticalCharacterizer,
)
from repro.core.library_flow import (
    LibraryArcCharacterization,
    LibraryCharacterization,
    characterize_library,
)

__all__ = [
    "BatchMapObservations",
    "BatchMapResult",
    "BayesianCharacterizer",
    "CompactTimingModel",
    "FitResult",
    "HistoricalLibraryData",
    "LibraryArcCharacterization",
    "LibraryCharacterization",
    "NominalCharacterization",
    "SimulationPlan",
    "StatisticalCharacterization",
    "StatisticalCharacterizer",
    "TimingModelParameters",
    "TimingPrior",
    "characterize_historical_libraries",
    "characterize_historical_library",
    "characterize_library",
    "fit_least_squares",
    "fit_least_squares_stacked",
    "learn_class_priors",
    "learn_prior",
    "learn_priors",
    "map_estimate_batch",
    "map_estimate_stacked",
]

"""repro -- statistical standard-cell library characterization with belief propagation.

A from-scratch reproduction of *"Statistical Library Characterization Using
Belief Propagation across Multiple Technology Nodes"* (Yu et al., DATE 2015),
including every substrate the paper depends on: compact MOSFET models, six
synthetic technology nodes with process variation, a standard-cell catalog
with equivalent-inverter reduction, a vectorized transient circuit simulator,
the four-parameter compact timing model, Gaussian belief propagation for
cross-technology prior learning, MAP parameter extraction, statistical
(per-seed) characterization, and the look-up-table / least-squares /
Monte Carlo baselines it is compared against.

Typical usage::

    from repro import (
        get_technology, make_cell, characterize_historical_library,
        learn_prior, BayesianCharacterizer, historical_technologies,
    )

    target = get_technology("n14_finfet")
    historical = [characterize_historical_library(node, [make_cell("INV_X1")])
                  for node in historical_technologies(exclude=target.name)]
    delay_prior = learn_prior(historical, response="delay")
    slew_prior = learn_prior(historical, response="slew")
    flow = BayesianCharacterizer(target, make_cell("NOR2_X1"), delay_prior, slew_prior)
    flow.fit(2)                      # two simulations
    flow.predict_delay(conditions)   # analytical everywhere else
"""

from repro.technology import (
    ProcessCorner,
    TechnologyNode,
    VariationSample,
    get_technology,
    historical_technologies,
    list_technologies,
)
from repro.cells import (
    Cell,
    StandardCellLibrary,
    TimingArc,
    Transition,
    available_cells,
    default_library,
    make_cell,
    reduce_cell,
    reduce_cell_cached,
)
from repro.spice import (
    BatchTransientResult,
    IntegrationStats,
    SimulationCache,
    SimulationCounter,
    StepperSpec,
    TimingMeasurement,
    WaveformBatch,
    characterize_arc,
    get_simulation_cache,
    simulate_arc_transition,
    simulate_arc_transition_adaptive,
    simulate_arc_transitions,
    simulate_arc_transitions_adaptive,
    sweep_conditions,
)
from repro.characterization import (
    InputCondition,
    InputSpace,
    LseCharacterizer,
    LutCharacterizer,
    StatisticalLutCharacterizer,
    mean_relative_error,
    nominal_baseline,
    statistical_baseline,
    statistical_errors,
)
from repro.core import (
    BatchMapObservations,
    BatchMapResult,
    BayesianCharacterizer,
    CompactTimingModel,
    LibraryCharacterization,
    StatisticalCharacterizer,
    TimingModelParameters,
    TimingPrior,
    characterize_historical_libraries,
    characterize_historical_library,
    characterize_library,
    fit_least_squares,
    learn_class_priors,
    learn_prior,
    learn_priors,
    map_estimate,
    map_estimate_batch,
)
from repro.bayes import (
    BatchedFactorGraph,
    GaussianBatch,
    GaussianDensity,
    PrecisionModel,
)
from repro.experiments import AccuracyCurve, ExperimentRunner, compute_speedup
from repro.runtime import LruCache, RunLedger, cache_stats

__version__ = "1.0.0"

__all__ = [
    "AccuracyCurve",
    "BatchMapObservations",
    "BatchMapResult",
    "BatchTransientResult",
    "BatchedFactorGraph",
    "BayesianCharacterizer",
    "Cell",
    "CompactTimingModel",
    "ExperimentRunner",
    "GaussianBatch",
    "GaussianDensity",
    "InputCondition",
    "InputSpace",
    "IntegrationStats",
    "LibraryCharacterization",
    "LruCache",
    "LseCharacterizer",
    "LutCharacterizer",
    "PrecisionModel",
    "ProcessCorner",
    "RunLedger",
    "SimulationCache",
    "SimulationCounter",
    "StandardCellLibrary",
    "StatisticalCharacterizer",
    "StepperSpec",
    "StatisticalLutCharacterizer",
    "TechnologyNode",
    "TimingArc",
    "TimingMeasurement",
    "TimingModelParameters",
    "TimingPrior",
    "Transition",
    "VariationSample",
    "WaveformBatch",
    "available_cells",
    "cache_stats",
    "characterize_arc",
    "characterize_historical_libraries",
    "characterize_historical_library",
    "characterize_library",
    "compute_speedup",
    "default_library",
    "fit_least_squares",
    "get_simulation_cache",
    "get_technology",
    "historical_technologies",
    "learn_class_priors",
    "learn_prior",
    "learn_priors",
    "list_technologies",
    "make_cell",
    "map_estimate",
    "map_estimate_batch",
    "mean_relative_error",
    "nominal_baseline",
    "reduce_cell",
    "reduce_cell_cached",
    "simulate_arc_transition",
    "simulate_arc_transition_adaptive",
    "simulate_arc_transitions",
    "simulate_arc_transitions_adaptive",
    "statistical_baseline",
    "statistical_errors",
    "sweep_conditions",
    "__version__",
]

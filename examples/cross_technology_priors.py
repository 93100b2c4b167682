"""Cross-technology prior learning with belief propagation (paper Table I, Sec. IV).

This example looks inside the "historical learning" half of the flow:

* it fits the four-parameter compact model to INV / NAND2 / NOR2 cells in
  several synthetic technology nodes and prints the Table-I-style parameter
  table, showing how similar the parameters are across cells and nodes;
* it fuses the per-node fits into a prior with Gaussian belief propagation
  over the technology star and compares that against the simple pooled
  (empirical) estimate -- both responses learned in one *batched* BP call
  (``learn_priors``, bit-identical to one ``learn_prior`` per response);
* it illustrates the bias/variance trade-off in historical-library selection
  the paper discusses: a prior learned from matching (high-performance)
  nodes versus one that mixes in a low-power node;
* it threads one :class:`~repro.runtime.accounting.RunLedger` through the
  whole phase, so the closing report shows where the wall time went
  (``priors:plan`` / ``priors:simulate`` / ``priors:fit`` / ``priors:bp``)
  and how many simulator rows each technology node cost.

Run with::

    python examples/cross_technology_priors.py
"""

from __future__ import annotations

import time

from repro import (
    RunLedger,
    SimulationCounter,
    characterize_historical_library,
    get_technology,
    learn_prior,
    learn_priors,
    make_cell,
)
from repro.analysis import format_table
from repro.analysis.reporting import format_ledger
from repro.core.prior_learning import shared_reference_conditions


def main() -> None:
    start = time.time()
    counter = SimulationCounter()
    ledger = RunLedger()
    cells = [make_cell(name) for name in ("INV_X1", "NAND2_X1", "NOR2_X1")]
    node_names = ["n16_finfet_soi", "n28_bulk", "n45_bulk", "n28_lp"]
    unit_conditions = shared_reference_conditions(20)

    # ------------------------------------------------------------------
    # Per-node characterization and compact-model fits (Table I analogue).
    # Every arc of the node goes through one deduplicated simulation plan
    # and one stacked least-squares solve.
    # ------------------------------------------------------------------
    libraries = {}
    rows = []
    for node_name in node_names:
        node = get_technology(node_name)
        data = characterize_historical_library(node, cells,
                                               unit_conditions=unit_conditions,
                                               counter=counter,
                                               ledger=ledger)
        libraries[node_name] = data
        for fit in data.arc_fits:
            if fit.arc_name.endswith("(fall)"):
                params = fit.delay_fit.params
                rows.append([node_name, fit.cell_name, params.kd, params.cpar_ff,
                             params.vprime_v, params.alpha_ff_per_ps,
                             100.0 * fit.delay_fit.mean_abs_relative_error])
    print(format_table(
        ["technology", "cell", "kd", "Cpar (fF)", "V' (V)", "alpha (fF/ps)",
         "fit error (%)"],
        rows,
        title="Extracted delay-model parameters (Table I analogue)",
    ))

    # ------------------------------------------------------------------
    # Prior fusion: belief propagation versus pooled empirical estimate.
    # ------------------------------------------------------------------
    matching = [libraries[name] for name in ("n16_finfet_soi", "n28_bulk", "n45_bulk")]
    priors = learn_priors(matching, method="bp", ledger=ledger)
    bp_prior = priors["delay"]
    empirical_prior = learn_prior(matching, response="delay", method="empirical")
    print("\nPrior over delay parameters (kd, Cpar, V', alpha):")
    print("  " + bp_prior.describe())
    print("  " + empirical_prior.describe())
    print("  slew prior (same batched BP call): " + priors["slew"].describe())
    print("  mean precision beta across the input space: "
          f"{bp_prior.precision_model.average_precision():.3g}")

    # ------------------------------------------------------------------
    # Historical-library selection: matching flavor versus mixed flavor.
    # ------------------------------------------------------------------
    mixed = [libraries[name] for name in ("n16_finfet_soi", "n28_bulk", "n28_lp")]
    mixed_prior = learn_prior(mixed, response="delay", method="bp")
    hp_std = bp_prior.density.standard_deviations()
    mixed_std = mixed_prior.density.standard_deviations()
    print("\n" + format_table(
        ["prior", "std(kd)", "std(Cpar) fF", "std(V') V", "std(alpha) fF/ps"],
        [
            ["matching HP nodes", *[float(v) for v in hp_std]],
            ["HP + LP mixed", *[float(v) for v in mixed_std]],
        ],
        title="Bias/variance trade-off in historical-library selection",
    ))
    print("\nMixing a low-power node widens the prior (more variance) but makes it "
          "less biased\ntoward high-performance targets -- the trade-off discussed "
          "in Section IV of the paper.")
    print("\n" + format_ledger(ledger, title="Where the prior-learning phase spent its time"))
    print(f"\nTotal simulations: {counter.total}")
    print(f"Elapsed          : {time.time() - start:.1f} s")


if __name__ == "__main__":
    main()

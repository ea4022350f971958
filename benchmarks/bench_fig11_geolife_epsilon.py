"""Fig. 11: Geolife -- average budget and Euclidean error vs epsilon.

PLM family alpha in {0.5, 1, 3, 5}, epsilon in {0.1, 0.5, 1, 2}.
Expected shapes: average budget grows with epsilon; larger-alpha PLMs are
calibrated more heavily at strict epsilon; and crucially the budget
ordering need NOT match the Euclidean-distance ordering ("PLMs who have
larger average budgets may not necessarily have better utility").
"""

import numpy as np

from repro.experiments.runners import run_utility_sweep

EPSILONS = (0.1, 0.5, 1.0, 2.0)
ALPHAS = (0.5, 1.0, 3.0, 5.0)


def test_fig11_geolife_utility(paper_geolife, n_runs, save_result):
    scenario = paper_geolife

    def run():
        return run_utility_sweep(
            scenario_for=lambda params: scenario,
            events_for=lambda sc, params: [sc.presence_event(0, 9, 4, 8)],
            curve_settings=[(f"{a}-PLM", {"alpha": a}) for a in ALPHAS],
            epsilons=EPSILONS,
            n_runs=n_runs,
            seed=11,
            label=(
                f"Fig. 11 Geolife PRESENCE(S={{1:10}}, T={{4:8}}), "
                f"{n_runs} runs ({scenario.source})"
            ),
        )

    result = run()
    save_result("fig11_geolife_utility_vs_epsilon", result.to_text())

    # Budget grows (weakly) with epsilon for every PLM family.
    for name, budgets in result.budget_series.items():
        assert budgets[-1] >= budgets[0] - 0.05, name

    # Errors stay within the map scale (sanity on the km geometry).
    for errors in result.error_series.values():
        assert np.all(np.asarray(errors) >= 0)

"""Fig. 7: budget per timestamp, PRESENCE(S={1:10}, T={4:8}), synthetic.

Panel (a): 0.2-PLM under epsilon in {0.1, 0.5, 1}; panel (b): PLM alpha in
{0.1, 0.5, 1} at epsilon = 0.5.  Expected shape: smaller epsilon forces
lower budgets; budget dips concentrate in/after the event window; a
strict PLM (alpha = 0.1) needs little calibration.
"""

import numpy as np

from repro.experiments.runners import run_budget_over_time


def _event(scenario):
    return scenario.presence_event(0, 9, 4, 8)


def test_fig07a_budget_vs_epsilon(paper_synthetic, n_runs, save_result):
    scenario = paper_synthetic
    event = _event(scenario)

    def run():
        return run_budget_over_time(
            scenario,
            event,
            settings=[(f"eps={e}", 0.2, e) for e in (0.1, 0.5, 1.0)],
            n_runs=n_runs,
            seed=7,
            label=f"Fig. 7(a) 0.2-PLM, PRESENCE(S={{1:10}}, T={{4:8}}), {n_runs} runs",
        )

    result = run()
    save_result("fig07a_presence_early_budget_vs_epsilon", result.to_text())

    # Shape assertions (the paper's qualitative findings).
    means = {name: curve.mean() for name, curve in result.curves.items()}
    assert means["eps=0.1"] <= means["eps=0.5"] + 1e-9
    assert means["eps=0.5"] <= means["eps=1.0"] + 1e-9
    # Budgets never exceed the base mechanism's alpha.
    for curve in result.curves.values():
        assert np.all(curve <= 0.2 + 1e-12)


def test_fig07b_budget_vs_plm(paper_synthetic, n_runs, save_result):
    scenario = paper_synthetic
    event = _event(scenario)

    def run():
        return run_budget_over_time(
            scenario,
            event,
            settings=[(f"alpha={a}", a, 0.5) for a in (0.1, 0.5, 1.0)],
            n_runs=n_runs,
            seed=7,
            label=f"Fig. 7(b) eps=0.5, varying PLM, {n_runs} runs",
        )

    result = run()
    save_result("fig07b_presence_early_budget_vs_plm", result.to_text())

    # A stricter PLM needs proportionally less calibration: the retained
    # fraction of its budget is at least that of the loosest PLM.
    retained = {
        name: result.curves[name].mean() / alpha
        for name, alpha in (("alpha=0.1", 0.1), ("alpha=1.0", 1.0))
    }
    assert retained["alpha=0.1"] >= retained["alpha=1.0"] - 1e-9

"""Fig. 8: as Fig. 7 but the event window is late (T = {16:20}).

Comparing with Fig. 7 shows budget reductions tracking the event window
("privacy budgets trend to be reduced during the defined time periods"),
the observation that motivates PriSTE's local-model requirement.
"""

import numpy as np

from repro.experiments.runners import run_budget_over_time


def test_fig08a_budget_vs_epsilon(paper_synthetic, n_runs, save_result):
    scenario = paper_synthetic
    event = scenario.presence_event(0, 9, 16, 20)

    def run():
        return run_budget_over_time(
            scenario,
            event,
            settings=[(f"eps={e}", 0.2, e) for e in (0.1, 0.5, 1.0)],
            n_runs=n_runs,
            seed=8,
            label=f"Fig. 8(a) 0.2-PLM, PRESENCE(S={{1:10}}, T={{16:20}}), {n_runs} runs",
        )

    result = run()
    save_result("fig08a_presence_late_budget_vs_epsilon", result.to_text())

    means = {name: curve.mean() for name, curve in result.curves.items()}
    assert means["eps=0.1"] <= means["eps=0.5"] + 1e-9
    assert means["eps=0.5"] <= means["eps=1.0"] + 1e-9
    # (The paper's window-tracking observation -- dips concentrating in
    # the {16:20} window -- is visible in the saved series but too noisy
    # to assert at quick-pass run counts.)


def test_fig08b_budget_vs_plm(paper_synthetic, n_runs, save_result):
    scenario = paper_synthetic
    event = scenario.presence_event(0, 9, 16, 20)

    def run():
        return run_budget_over_time(
            scenario,
            event,
            settings=[(f"alpha={a}", a, 0.5) for a in (0.1, 0.5, 1.0)],
            n_runs=n_runs,
            seed=8,
            label=f"Fig. 8(b) eps=0.5, varying PLM, late window, {n_runs} runs",
        )

    result = run()
    save_result("fig08b_presence_late_budget_vs_plm", result.to_text())
    for name, alpha in (("alpha=0.1", 0.1), ("alpha=0.5", 0.5), ("alpha=1.0", 1.0)):
        assert np.all(result.curves[name] <= alpha + 1e-12)

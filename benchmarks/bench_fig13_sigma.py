"""Fig. 13: utility vs mobility-pattern strength (synthetic sigma sweep).

1-PLM with geo-indistinguishability; sigma in {0.01, 0.1, 1, 10}.
Expected shape: a significant mobility pattern (small sigma) makes the
event harder to protect, forcing smaller budgets; and "there is no best
LPPM for all epsilon in terms of Euclidean distance".
"""

from repro.experiments.runners import run_utility_sweep
from repro.experiments.scenarios import synthetic_scenario

EPSILONS = (0.1, 0.5, 1.0, 2.0)
SIGMAS = (0.01, 0.1, 1.0, 10.0)


def test_fig13_sigma_sweep(n_runs, save_result):
    def run():
        return run_utility_sweep(
            scenario_for=lambda params: synthetic_scenario(
                n_rows=20, n_cols=20, sigma=params["sigma"], horizon=50
            ),
            events_for=lambda sc, params: [sc.presence_event(0, 9, 4, 8)],
            curve_settings=[
                (f"sigma={s}", {"alpha": 1.0, "sigma": s}) for s in SIGMAS
            ],
            epsilons=EPSILONS,
            n_runs=n_runs,
            seed=13,
            label=f"Fig. 13 synthetic, 1-PLM, sigma sweep, {n_runs} runs",
        )

    result = run()
    save_result("fig13_utility_vs_sigma", result.to_text())

    # Strong pattern (sigma = 0.01) retains no more budget than the
    # near-memoryless chain (sigma = 10) on average over the sweep.
    mean = lambda name: sum(result.budget_series[name]) / len(EPSILONS)
    assert mean("sigma=0.01") <= mean("sigma=10.0") + 0.1

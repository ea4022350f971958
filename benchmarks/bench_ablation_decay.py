"""Ablation: the budget decay rate of Algorithm 2.

The paper (Section IV-C): "decay rate 1/2 for the privacy budget in line
10 of Algorithm 2 is a tunable parameter that provides a trade-off
between efficiency and utility.  Setting a small value allows the
algorithm converge faster, but at the cost of over-perturbing ...; using
a large value is less efficient but allows better utility."

This ablation sweeps the decay and checks exactly that trade-off:
smaller decay => fewer calibration attempts (efficiency), lower kept
budget (utility).
"""

import numpy as np

from repro.core.priste import PriSTE, PriSTEConfig
from repro.experiments.report import format_table
from repro.experiments.scenarios import synthetic_scenario
from repro.lppm.planar_laplace import PlanarLaplaceMechanism

DECAYS = (0.2, 0.5, 0.8)


def test_ablation_decay_tradeoff(n_runs, save_result):
    scenario = synthetic_scenario(n_rows=10, n_cols=10, sigma=1.0, horizon=20)
    event = scenario.presence_event(0, 9, 4, 8)
    rng = np.random.default_rng(20)
    trajectories = [scenario.sample_trajectory(rng) for _ in range(max(3, n_runs))]

    def sweep():
        rows = []
        for decay in DECAYS:
            config = PriSTEConfig(
                epsilon=0.3,
                decay=decay,
                prior_mode="fixed",
                prior=scenario.initial,
            )
            priste = PriSTE(
                scenario.chain,
                event,
                PlanarLaplaceMechanism(scenario.grid, 1.0),
                config,
                scenario.horizon,
            )
            logs = [priste.run(trajectory, rng) for trajectory in trajectories]
            attempts = np.mean(
                [r.n_attempts for log in logs for r in log.records]
            )
            rows.append(
                {
                    "decay": decay,
                    "ave. attempts per t": round(float(attempts), 3),
                    "ave. kept budget": round(
                        float(np.mean([log.average_budget for log in logs])), 4
                    ),
                    "ave. error km": round(
                        float(
                            np.mean(
                                [
                                    log.euclidean_error_km(scenario.grid, truth)
                                    for log, truth in zip(logs, trajectories)
                                ]
                            )
                        ),
                        3,
                    ),
                }
            )
        return rows

    rows = sweep()
    headers = list(rows[0].keys())
    table = format_table(
        headers,
        [[row[h] for h in headers] for row in rows],
        title="Ablation: Algorithm 2 decay rate (epsilon=0.3, 1.0-PLM)",
    )
    save_result("ablation_decay_rate", table)

    by_decay = {row["decay"]: row for row in rows}
    # Aggressive decay converges in fewer attempts...
    assert (
        by_decay[0.2]["ave. attempts per t"]
        <= by_decay[0.8]["ave. attempts per t"] + 1e-9
    )
    # ...but over-perturbs (keeps less budget).
    assert (
        by_decay[0.2]["ave. kept budget"]
        <= by_decay[0.8]["ave. kept budget"] + 1e-9
    )

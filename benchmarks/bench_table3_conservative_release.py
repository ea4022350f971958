"""Table III: the conservative-release threshold trade-off.

The paper limits CPLEX's per-check time and refuses to release unless the
Eq. (15)/(16) conditions are *proven*; sweeping the threshold trades
runtime for utility.  Our exact solver is orders of magnitude faster than
CPLEX on these rank-one programs, so thresholds additionally map to
work limits (edge evaluations) to exercise the same regime -- see
``run_conservative_release_table``.

Expected shape: threshold up => conservative releases down, total runtime
up, calibrated budgets (weakly) up.
"""

from repro.experiments.runners import run_conservative_release_table
from repro.experiments.scenarios import synthetic_scenario

THRESHOLDS = (0.01, 0.1, 1.0, 2.0, 5.0, None)


def test_table3_threshold_tradeoff(n_runs, save_result):
    scenario = synthetic_scenario(n_rows=20, n_cols=20, sigma=1.0, horizon=20)
    event = scenario.presence_event(0, 9, 4, 8)

    def run():
        return run_conservative_release_table(
            scenario,
            event,
            thresholds=THRESHOLDS,
            alpha=0.5,
            epsilon=0.5,
            n_runs=max(2, n_runs // 2),
            seed=15,
        )

    table, rows = run()
    save_result("table3_conservative_release", table)

    by_threshold = {row["threshold"]: row for row in rows}
    # The unlimited solver never needs a conservative fallback.
    assert by_threshold["none"]["# conservative release"] == 0
    # The tightest threshold produces at least as many conservative
    # releases as the loosest finite one.
    assert (
        by_threshold["0.01"]["# conservative release"]
        >= by_threshold["5.0"]["# conservative release"]
    )
    # Work-limited runs cannot retain more budget than exact solving.
    assert (
        by_threshold["0.01"]["ave. privacy budget"]
        <= by_threshold["none"]["ave. privacy budget"] + 0.05
    )

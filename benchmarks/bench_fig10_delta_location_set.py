"""Fig. 10: PriSTE with delta-location set privacy (Algorithm 3).

Same event as Fig. 7 on a T = 20 horizon.  Expected shape: because the
delta-location set restricts the output domain (a weaker location-privacy
guarantee), the same alpha-PLM must reduce its budget *more* than under
plain geo-indistinguishability to reach the same epsilon.
"""

from repro.experiments.runners import run_budget_over_time
from repro.experiments.scenarios import synthetic_scenario


def test_fig10a_delta_budget_vs_epsilon(n_runs, save_result):
    scenario = synthetic_scenario(n_rows=20, n_cols=20, sigma=1.0, horizon=20)
    event = scenario.presence_event(0, 9, 4, 8)

    def run():
        return run_budget_over_time(
            scenario,
            event,
            settings=[(f"eps={e}", 0.2, e) for e in (0.1, 0.5, 1.0)],
            n_runs=n_runs,
            mechanism="delta",
            delta=0.2,
            seed=10,
            label=(
                f"Fig. 10(a) 0.2-PLM with delta-location set (delta=0.2), "
                f"{n_runs} runs"
            ),
        )

    result = run()
    save_result("fig10a_delta_location_set_vs_epsilon", result.to_text())

    means = {name: curve.mean() for name, curve in result.curves.items()}
    assert means["eps=0.1"] <= means["eps=1.0"] + 1e-9

    # Comparison with Fig. 7's geo-ind variant: the delta-restricted
    # mechanism retains at most as much budget.
    geoind = run_budget_over_time(
        scenario,
        event,
        settings=[("eps=0.5", 0.2, 0.5)],
        n_runs=n_runs,
        mechanism="geoind",
        seed=10,
        label="geo-ind comparator",
    )
    assert (
        result.curves["eps=0.5"].mean()
        <= geoind.curves["eps=0.5"].mean() + 0.02
    )


def test_fig10b_delta_budget_vs_plm(n_runs, save_result):
    scenario = synthetic_scenario(n_rows=20, n_cols=20, sigma=1.0, horizon=20)
    event = scenario.presence_event(0, 9, 4, 8)

    def run():
        return run_budget_over_time(
            scenario,
            event,
            settings=[(f"alpha={a}", a, 0.5) for a in (0.1, 0.5, 1.0)],
            n_runs=n_runs,
            mechanism="delta",
            delta=0.2,
            seed=10,
            label=(
                f"Fig. 10(b) varying PLM with delta-location set, eps=0.5, "
                f"{n_runs} runs"
            ),
        )

    result = run()
    save_result("fig10b_delta_location_set_vs_plm", result.to_text())
    assert set(result.curves) == {"alpha=0.1", "alpha=0.5", "alpha=1.0"}

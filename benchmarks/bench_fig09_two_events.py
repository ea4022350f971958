"""Fig. 9: protecting two PRESENCE events simultaneously.

The calibration must satisfy the epsilon conditions of both events at
every timestamp, so utility is strictly worse than protecting either
event alone ("the utility is much worse than protecting each single
event").
"""


from repro.experiments.runners import run_budget_over_time


def test_fig09_two_events_cost(paper_synthetic, n_runs, save_result):
    scenario = paper_synthetic
    early = scenario.presence_event(0, 9, 4, 8)
    late = scenario.presence_event(0, 9, 16, 20)

    def run_two():
        return run_budget_over_time(
            scenario,
            [early, late],
            settings=[(f"eps={e}", 0.2, e) for e in (0.1, 0.5, 1.0)],
            n_runs=n_runs,
            seed=9,
            label=f"Fig. 9 two PRESENCE events, 0.2-PLM, {n_runs} runs",
        )

    two = run_two()
    save_result("fig09_two_events_budget_vs_epsilon", two.to_text())

    single = run_budget_over_time(
        scenario,
        early,
        settings=[("eps=0.5", 0.2, 0.5)],
        n_runs=n_runs,
        seed=9,
        label="single-event comparator",
    )
    # Protecting both events cannot beat protecting one of them.
    assert (
        two.curves["eps=0.5"].mean()
        <= single.curves["eps=0.5"].mean() + 1e-9
    )


def test_fig09b_two_events_vs_plm(paper_synthetic, n_runs, save_result):
    scenario = paper_synthetic
    events = [
        scenario.presence_event(0, 9, 4, 8),
        scenario.presence_event(0, 9, 16, 20),
    ]

    def run():
        return run_budget_over_time(
            scenario,
            events,
            settings=[(f"alpha={a}", a, 0.5) for a in (0.1, 0.5, 1.0)],
            n_runs=n_runs,
            seed=9,
            label=f"Fig. 9(b) two events, eps=0.5, varying PLM, {n_runs} runs",
        )

    result = run()
    save_result("fig09b_two_events_budget_vs_plm", result.to_text())
    assert set(result.curves) == {"alpha=0.1", "alpha=0.5", "alpha=1.0"}

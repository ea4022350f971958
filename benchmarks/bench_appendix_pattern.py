"""Appendix: PATTERN-event analogues of the PRESENCE experiments.

The paper's main text reports PRESENCE results and defers PATTERN to the
appendix ("Due to space limitation, the results of protecting PATTERN
event are included in Appendices").  Same setup as Figs. 7/11 with a
PATTERN event: the user passes through region {1:10} and then {11:20} on
consecutive timestamps.
"""

from repro.experiments.runners import run_budget_over_time, run_utility_sweep


def _pattern(scenario):
    return scenario.pattern_event([(0, 9), (10, 19)] * 2, start=4)


def test_appendix_pattern_budget_over_time(
    paper_synthetic, n_runs, save_result
):
    scenario = paper_synthetic
    event = _pattern(scenario)
    assert event.window == (4, 7)

    def run():
        return run_budget_over_time(
            scenario,
            event,
            settings=[(f"eps={e}", 0.2, e) for e in (0.1, 0.5, 1.0)],
            n_runs=n_runs,
            seed=16,
            label=f"Appendix: PATTERN({{1:10}} -> {{11:20}} x2, T={{4:7}}), {n_runs} runs",
        )

    result = run()
    save_result("appendix_pattern_budget_over_time", result.to_text())

    means = {name: curve.mean() for name, curve in result.curves.items()}
    assert means["eps=0.1"] <= means["eps=1.0"] + 1e-9


def test_appendix_pattern_utility_sweep(
    paper_synthetic, n_runs, save_result
):
    scenario = paper_synthetic

    def run():
        return run_utility_sweep(
            scenario_for=lambda params: scenario,
            events_for=lambda sc, params: [_pattern(sc)],
            curve_settings=[(f"{a}-PLM", {"alpha": a}) for a in (0.5, 1.0, 3.0)],
            epsilons=(0.1, 0.5, 1.0, 2.0),
            n_runs=n_runs,
            seed=16,
            label=f"Appendix: PATTERN utility vs epsilon, {n_runs} runs",
        )

    result = run()
    save_result("appendix_pattern_utility_sweep", result.to_text())
    for budgets in result.budget_series.values():
        assert budgets[-1] >= budgets[0] - 0.05

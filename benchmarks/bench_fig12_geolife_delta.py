"""Fig. 12: Geolife with delta-location set privacy, delta sweep.

0.5-PLM, delta in {0.1, 0.3, 0.5, 0.7}, epsilon in {0.1, 1, 2, 3}.
Expected shapes: larger delta (weaker location-privacy metric) forces a
smaller average budget, yet can *improve* Euclidean utility because the
restricted output domain keeps releases near the true location -- the
paper's headline observation for this figure.
"""

from repro.experiments.runners import run_utility_sweep

EPSILONS = (0.1, 1.0, 2.0, 3.0)
DELTAS = (0.1, 0.3, 0.5, 0.7)


def test_fig12_geolife_delta_sweep(paper_geolife, n_runs, save_result):
    scenario = paper_geolife

    def run():
        return run_utility_sweep(
            scenario_for=lambda params: scenario,
            events_for=lambda sc, params: [sc.presence_event(0, 9, 4, 8)],
            curve_settings=[
                (f"delta={d}", {"alpha": 0.5, "mechanism": "delta", "delta": d})
                for d in DELTAS
            ],
            epsilons=EPSILONS,
            n_runs=n_runs,
            seed=12,
            label=(
                f"Fig. 12 Geolife 0.5-PLM with delta-location set privacy, "
                f"{n_runs} runs ({scenario.source})"
            ),
        )

    result = run()
    save_result("fig12_geolife_delta_location_set", result.to_text())

    # The restricted output domain keeps errors bounded by the map size.
    diameter = scenario.grid.distance_matrix_km.max()
    for errors in result.error_series.values():
        assert max(errors) <= diameter

    # Across the epsilon sweep, the tightest-delta curve (0.1) never has
    # *smaller* average budget than the loosest one (0.7) by a large
    # margin -- the paper's "larger delta => smaller budget" trend.
    mean = lambda name: sum(result.budget_series[name]) / len(EPSILONS)
    assert mean("delta=0.1") >= mean("delta=0.7") - 0.1

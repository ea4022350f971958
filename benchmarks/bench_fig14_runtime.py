"""Fig. 14: runtime of PriSTE's two-world method vs the naive baseline.

Left panel: event length 5..15 at width 5 -- the baseline (Appendix B
enumeration) is exponential in length, PriSTE linear.  Right panel: event
width 5..15 at length 5 -- baseline exponential, PriSTE polynomial.

The baseline is cut off once it exceeds a wall-clock guard (the paper's
log-scale plot tops out around 10^4 s); axis ranges here default to the
small end so a quick pass stays under a minute.
"""

import math

from repro.experiments.runners import run_runtime_scaling
from repro.experiments.scenarios import synthetic_scenario


def _scenario():
    # Width sweeps need enough cells; runtime depends on event size, not
    # the map, so a compact 8x8 map keeps the baseline affordable.
    return synthetic_scenario(n_rows=8, n_cols=8, sigma=1.0, horizon=20)


def test_fig14_runtime_vs_length(save_result, request):
    values = (5, 7, 9, 11) if request.config.getoption("--paper-scale") else (3, 5, 7)
    scenario = _scenario()

    def run():
        return run_runtime_scaling(
            scenario, axis="length", values=values, fixed=5, n_events=3, seed=14
        )

    result = run()
    save_result("fig14_runtime_vs_event_length", result.to_text())

    # Exponential vs linear: the speedup grows with event length.
    speedups = [
        b / p
        for b, p in zip(result.baseline_s, result.priste_s)
        if not math.isnan(b)
    ]
    assert speedups[-1] > speedups[0]
    # PriSTE's runtime stays near-linear: the largest/smallest ratio is
    # far below the baseline's blowup.
    priste_growth = result.priste_s[-1] / max(result.priste_s[0], 1e-9)
    baseline_growth = result.baseline_s[-1] / max(result.baseline_s[0], 1e-9)
    assert baseline_growth > priste_growth


def test_fig14_runtime_vs_width(save_result, request):
    values = (5, 7, 9, 11) if request.config.getoption("--paper-scale") else (3, 5, 7)
    scenario = _scenario()

    def run():
        return run_runtime_scaling(
            scenario, axis="width", values=values, fixed=5, n_events=3, seed=14
        )

    result = run()
    save_result("fig14_runtime_vs_event_width", result.to_text())

    speedups = [
        b / p
        for b, p in zip(result.baseline_s, result.priste_s)
        if not math.isnan(b)
    ]
    assert speedups[-1] > speedups[0]

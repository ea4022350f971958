"""Extension experiment: event-pair indistinguishability vs budget.

The paper's future-work definition (Section II-C): indistinguishability
between an event and an *alternative* event rather than its negation.
For a "clinic visit vs mall visit" pair we sweep the PLM budget and
report the realized fixed-prior log-ratio and the arbitrary-prior
verdict tallies, showing the same calibration story the negation-based
definition has in Figs. 7-8: stricter mechanisms cross from VIOLATED
through UNKNOWN to certified SAFE.
"""

import numpy as np

from repro.core.event_pair import EventPairAnalyzer, PairStatus
from repro.events.events import PresenceEvent
from repro.experiments.report import format_table
from repro.experiments.scenarios import synthetic_scenario
from repro.geo.regions import Region
from repro.lppm.planar_laplace import PlanarLaplaceMechanism

HORIZON = 12
EPSILON = 0.5
ALPHAS = (2.0, 0.5, 0.1, 0.02)


def test_extension_event_pair_sweep(save_result):
    scenario = synthetic_scenario(n_rows=8, n_cols=8, sigma=1.5, horizon=HORIZON)
    grid, chain, pi = scenario.grid, scenario.chain, scenario.initial
    clinic = PresenceEvent(Region.rectangle(grid, (0, 1), (0, 1)), start=5, end=8)
    mall = PresenceEvent(Region.rectangle(grid, (6, 7), (6, 7)), start=5, end=8)
    analyzer = EventPairAnalyzer(chain, clinic, mall, horizon=HORIZON)

    def sweep():
        rng = np.random.default_rng(40)
        truth = scenario.sample_trajectory(rng)
        rows = []
        for alpha in ALPHAS:
            lppm = PlanarLaplaceMechanism(grid, alpha)
            released = [lppm.perturb(u, rng) for u in truth]
            columns = np.stack([lppm.emission_column(o) for o in released])
            ratios = analyzer.ratio_fixed_prior(pi, columns)
            worst = max(abs(float(np.log(r))) for r in ratios)
            checks = analyzer.check_arbitrary_prior(columns, epsilon=EPSILON, seed=0)
            tally = {status: 0 for status in PairStatus}
            for check in checks:
                tally[check.status] += 1
            rows.append(
                {
                    "alpha": alpha,
                    "max |log ratio| (fixed pi)": round(worst, 3),
                    "safe": tally[PairStatus.SAFE],
                    "violated": tally[PairStatus.VIOLATED],
                    "unknown": tally[PairStatus.UNKNOWN],
                }
            )
        return rows

    rows = sweep()
    headers = list(rows[0].keys())
    save_result(
        "extension_event_pair_sweep",
        format_table(
            headers,
            [[row[h] for h in headers] for row in rows],
            title=(
                "Extension: clinic-vs-mall event-pair indistinguishability "
                f"(eps={EPSILON})"
            ),
        ),
    )

    by_alpha = {row["alpha"]: row for row in rows}
    # Loose mechanisms leak which event happened; strict ones are
    # certified safe at every prefix.
    assert by_alpha[2.0]["violated"] > 0
    assert by_alpha[0.02]["safe"] == HORIZON
    # The fixed-prior loss shrinks monotonically with alpha.
    losses = [by_alpha[a]["max |log ratio| (fixed pi)"] for a in ALPHAS]
    assert losses == sorted(losses, reverse=True)

"""Extension experiment: event-privacy audit across LPPM families.

Not a paper table -- it substantiates the paper's *introduction*: LPPMs
tuned for location privacy provide wildly different (and sometimes zero)
spatiotemporal event privacy.  For one PRESENCE secret we measure the
realized Definition II.4 loss of four mechanism families plus the
adversary's localization quality, on the same walks.
"""

import numpy as np

from repro.attacks.inference import location_posteriors
from repro.core.quantify import quantify_fixed_prior
from repro.errors import ReproError
from repro.events.events import PresenceEvent
from repro.experiments.report import format_table
from repro.experiments.scenarios import synthetic_scenario
from repro.geo.regions import Region
from repro.lppm.cloaking import CloakingMechanism
from repro.lppm.exponential import ExponentialMechanism
from repro.lppm.planar_laplace import PlanarLaplaceMechanism
from repro.lppm.randomized_response import RandomizedResponseMechanism
from repro.metrics.privacy import expected_inference_error_km, top1_accuracy

HORIZON = 20


def test_extension_lppm_event_privacy_audit(n_runs, save_result):
    scenario = synthetic_scenario(n_rows=8, n_cols=8, sigma=1.0, horizon=HORIZON)
    grid, chain, pi = scenario.grid, scenario.chain, scenario.initial
    event = PresenceEvent(
        Region.rectangle(grid, (0, 1), (0, 1)), start=5, end=8
    )
    mechanisms = {
        "1.0-PLM": PlanarLaplaceMechanism(grid, 1.0),
        "2.0-exponential": ExponentialMechanism.from_distance(grid, 2.0),
        "ln(8)-kRR": RandomizedResponseMechanism(grid.n_cells, float(np.log(8.0))),
        "cloaking-det": CloakingMechanism.k_anonymous(grid, k=4),
        "cloaking-noisy": CloakingMechanism.k_anonymous(
            grid, k=4, flip_probability=0.35
        ),
    }

    def audit():
        rng = np.random.default_rng(30)
        walks = [scenario.sample_trajectory(rng) for _ in range(max(5, n_runs))]
        rows = []
        for name, mechanism in mechanisms.items():
            losses, errors, hits = [], [], []
            for truth in walks:
                released = [mechanism.perturb(u, rng) for u in truth]
                try:
                    result = quantify_fixed_prior(
                        chain, event, mechanism, released, pi, horizon=HORIZON
                    )
                    losses.append(result.epsilon)
                except ReproError:
                    losses.append(float("inf"))
                posteriors = location_posteriors(chain, pi, mechanism, released)
                errors.append(expected_inference_error_km(posteriors, truth, grid))
                hits.append(top1_accuracy(posteriors, truth))
            worst = max(losses)
            rows.append(
                {
                    "mechanism": name,
                    "event eps (worst)": "inf" if np.isinf(worst) else round(worst, 2),
                    "adv. err km": round(float(np.mean(errors)), 3),
                    "adv. top-1": round(float(np.mean(hits)), 3),
                }
            )
        return rows

    rows = audit()
    headers = list(rows[0].keys())
    save_result(
        "extension_lppm_event_privacy_audit",
        format_table(
            headers,
            [[row[h] for h in headers] for row in rows],
            title="Extension: event-privacy audit of LPPM families",
        ),
    )

    by_name = {row["mechanism"]: row for row in rows}
    # The paper's motivating gap: deterministic cloaking localizes well
    # AND leaks the aligned event completely.
    assert by_name["cloaking-det"]["event eps (worst)"] == "inf"
    # Every randomized mechanism keeps the loss finite.
    for name in ("1.0-PLM", "2.0-exponential", "ln(8)-kRR", "cloaking-noisy"):
        assert by_name[name]["event eps (worst)"] != "inf"
    # k-RR is distance-oblivious: worst localization error of the family.
    errs = {name: row["adv. err km"] for name, row in by_name.items()}
    assert errs["ln(8)-kRR"] == max(errs.values())

"""Ablation: solver design choices (DESIGN.md §4-5).

1. The O(m) sufficient certificate vs the exact O(m^2) edge solver:
   how often the cheap path already certifies safety, and its speedup.
2. The simplex feasible set vs the paper's literal box formulation:
   the box heuristic must never call VIOLATED on a simplex-safe
   condition with a negative interval bound, and is strictly weaker at
   certifying.
"""

import time

import numpy as np

from repro.core.joint import EventQuantifier
from repro.core.qp import SolverOptions, SolverStatus, check_condition
from repro.core.theorem import privacy_conditions, sufficient_safe
from repro.core.two_world import TwoWorldModel
from repro.experiments.report import format_table
from repro.experiments.scenarios import synthetic_scenario
from repro.lppm.planar_laplace import PlanarLaplaceMechanism


def _condition_stream(n_alphas=6, horizon=10):
    """Realistic (a, b, c, eps) instances from PriSTE-like runs."""
    scenario = synthetic_scenario(n_rows=8, n_cols=8, sigma=1.0, horizon=horizon)
    event = scenario.presence_event(0, 7, 3, 6)
    model = TwoWorldModel(scenario.chain, event, horizon)
    rng = np.random.default_rng(21)
    stream = []
    for alpha in np.linspace(0.05, 1.5, n_alphas):
        lppm = PlanarLaplaceMechanism(scenario.grid, float(alpha))
        quantifier = EventQuantifier(model)
        a = quantifier.a_vector()
        for t in range(1, horizon + 1):
            quantifier.prepare(t)
            output = int(rng.integers(scenario.grid.n_cells))
            column = lppm.emission_column(output)
            b, c = quantifier.candidate_bc(t, column)
            stream.append((a, b, c, 0.5))
            quantifier.commit(t, column)
    return stream


def test_ablation_certificate_vs_exact(save_result):
    stream = _condition_stream()

    def evaluate():
        certified = exact_safe = agree = 0
        cert_time = exact_time = 0.0
        for a, b, c, eps in stream:
            t0 = time.perf_counter()
            quick = sufficient_safe(a, b, c, eps)
            cert_time += time.perf_counter() - t0
            t0 = time.perf_counter()
            statuses = [
                check_condition(cond, SolverOptions()).status
                for cond in privacy_conditions(a, b, c, eps)
            ]
            exact_time += time.perf_counter() - t0
            exact = all(s is SolverStatus.SAFE for s in statuses)
            certified += quick
            exact_safe += exact
            agree += quick <= exact  # certificate is sound: quick => exact
        return certified, exact_safe, agree, cert_time, exact_time

    certified, exact_safe, agree, cert_time, exact_time = evaluate()
    n = len(_condition_stream())
    table = format_table(
        ["metric", "value"],
        [
            ["conditions checked", n],
            ["certified by O(m) fast path", certified],
            ["safe per exact solver", exact_safe],
            ["soundness violations (must be 0)", n - agree],
            ["fast-path time (s)", round(cert_time, 4)],
            ["exact-solver time (s)", round(exact_time, 4)],
            ["speedup of fast path", round(exact_time / max(cert_time, 1e-9), 1)],
        ],
        title="Ablation: sufficient certificate vs exact edge solver",
    )
    save_result("ablation_certificate_vs_exact", table)
    assert n - agree == 0  # the certificate never contradicts the solver
    assert certified <= exact_safe  # strictly conservative


def test_ablation_simplex_vs_box(save_result):
    stream = _condition_stream(n_alphas=4, horizon=8)

    def evaluate():
        counts = {"simplex": {}, "box": {}}
        unsound = 0
        for a, b, c, eps in stream:
            for cond in privacy_conditions(a, b, c, eps):
                simplex = check_condition(cond, SolverOptions()).status
                box = check_condition(
                    cond, SolverOptions(constraint="box")
                ).status
                counts["simplex"][simplex.value] = (
                    counts["simplex"].get(simplex.value, 0) + 1
                )
                counts["box"][box.value] = counts["box"].get(box.value, 0) + 1
                # The box relaxation may flag more violations (its
                # feasible set is a superset when sum != 1 is allowed),
                # but a box-SAFE verdict must never contradict an exact
                # simplex violation.
                if box is SolverStatus.SAFE and simplex is SolverStatus.VIOLATED:
                    unsound += 1
        return counts, unsound

    counts, unsound = evaluate()
    rows = []
    for status in ("safe", "violated", "unknown"):
        rows.append(
            [status, counts["simplex"].get(status, 0), counts["box"].get(status, 0)]
        )
    table = format_table(
        ["status", "simplex (exact)", "box (heuristic)"],
        rows,
        title="Ablation: feasible-set choice for Theorem IV.1",
    )
    save_result("ablation_simplex_vs_box", table)
    assert unsound == 0

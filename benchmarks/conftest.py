"""Shared fixtures for the paper suite.

Each paper-suite module (``bench_fig*``, ``bench_table3_*``,
``bench_ablation_*``, ``bench_appendix_*``, ``bench_extension_*``)
regenerates one of the paper's tables/figures; ``paper/README.md`` maps
each to the claim its test asserts.  The reproduced series are printed
to stdout *and* written under the untracked ``benchmarks/results/`` so
the textual figures survive pytest's output capture (``paper/results/``
keeps one committed run).  Speed is the perf ledger's job
(``benchmarks/ledger/``), so the suite times nothing beyond what
Fig. 14 and Table III report themselves.

Run counts here are deliberately smaller than the paper's 100 (recorded
in every result header); pass ``--paper-scale`` for full-size runs.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.scenarios import geolife_scenario, synthetic_scenario

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def pytest_addoption(parser):
    parser.addoption(
        "--paper-scale",
        action="store_true",
        default=False,
        help="use the paper's run counts (slow) instead of quick defaults",
    )


@pytest.fixture(scope="session")
def n_runs(request) -> int:
    """Runs per curve: 100 at paper scale, 5 for a quick pass."""
    return 100 if request.config.getoption("--paper-scale") else 5


@pytest.fixture(scope="session")
def save_result():
    """Persist a rendered experiment table and echo it to stdout."""
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def _save(name: str, text: str) -> str:
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\n{text}\n[saved to {path}]")
        return path

    return _save


@pytest.fixture(scope="session")
def paper_synthetic():
    """The paper's synthetic setting: 20x20 Gaussian map, T = 50."""
    return synthetic_scenario(n_rows=20, n_cols=20, sigma=1.0, horizon=50)


@pytest.fixture(scope="session")
def paper_geolife():
    """The Geolife-substitute setting (DESIGN.md §4), T = 50."""
    return geolife_scenario(n_users=6, n_days=3, cell_size_km=1.0, horizon=50, rng=0)

"""Golden release streams: fixed-seed fleets must release what they always did.

The engine's bit-identity tests compare two paths of the same commit:
``step_many`` against solo ``step``, CSR fronts against dense, the
native kernel against NumPy.  A change to code both paths share -- how
``_StepDriver`` draws from the session RNG, say -- passes all of them.
This module pins the streams themselves.  For every scenario below a
small fleet of seeded sessions steps through fixed trajectories, and
its records' ``(t, released_cell, budget, n_attempts, conservative,
forced_uniform)`` must equal the ones committed in
``golden_streams.json`` (one record per line), whichever way the fleet
is stepped.

The same runs pin the engine's work.  ``golden_counts.json`` holds, per
fleet and stepping mode, the solver kernel calls and conditions, the
front products and the verdict-cache hits and misses.  Only totals are
kept: which kernel solved a condition, and whether a product ran dense
or on CSR, moves with the environment; the totals do not.  Unlike a
timing, a count does not move with the host's load, so a change that
does more work fails here even when the ledger cannot resolve it.

A change that moves a record on purpose says why in CHANGES.md and
regenerates both files with::

    PYTHONPATH=src python tests/test_golden_streams.py

A count may fall the same way; CHANGES.md says why.

The first four scenarios restate the perf ledger's workloads
(``benchmarks/ledger/workloads.py``; tests do not import benchmarks).
The committed records hold under every kernel and front routing, so the
suite runs unchanged under ``REPRO_SOLVER_KERNEL=numpy``,
``REPRO_SPARSE_FRONT=always`` and ``REPRO_NATIVE_DISABLE=1``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.core.qp import SolverOptions, kernel_stats
from repro.core.two_world import SPARSE_ENV, front_stats
from repro.engine import SessionManager
from repro.engine.config import config_with
from repro.markov.simulate import sample_trajectory
from repro.scenario.spec import (
    CalibrationSpec,
    ChainSpec,
    EventSpec,
    GridSpec,
    MechanismSpec,
    ScenarioSpec,
)

GOLDEN = Path(__file__).with_name("golden_streams.json")
GOLDEN_COUNTS = Path(__file__).with_name("golden_counts.json")
FIELDS = ("t", "released_cell", "budget", "n_attempts", "conservative", "forced_uniform")
REGENERATE = (
    "the stream changed; if that is intended, say why in CHANGES.md and "
    "regenerate: PYTHONPATH=src python tests/test_golden_streams.py"
)
REGENERATE_COUNTS = (
    "the engine's work changed; a count may only fall, with a CHANGES.md "
    "line that says why, and then: PYTHONPATH=src python tests/test_golden_streams.py"
)
STEPPINGS = ("step", "step_many")
#: Sessions per fleet, seeded ``1000 + i``.
SESSIONS = 4


def _spec(
    rows: int,
    *,
    chain: ChainSpec | None = None,
    events: tuple[EventSpec, ...] | None = None,
    horizon: int = 8,
    mechanism: MechanismSpec | None = None,
    calibration: str = "halving",
    prior_mode: str = "worst_case",
    prior="initial",
) -> ScenarioSpec:
    """The ledger's privacy setting (PLM alpha=0.5, epsilon=0.4) by default."""
    return ScenarioSpec(
        grid=GridSpec(rows=rows, cols=rows),
        chain=chain or ChainSpec.gaussian(sigma=1.0),
        events=events or (EventSpec.presence_range(0, 9, start=2, end=4),),
        mechanism=mechanism or MechanismSpec("planar_laplace", {"alpha": 0.5}),
        epsilon=0.4,
        horizon=horizon,
        calibration=CalibrationSpec(calibration),
        prior_mode=prior_mode,
        prior=prior,
    )


@dataclass(frozen=True)
class Fleet:
    """``SESSIONS`` sessions on one scenario."""

    spec: ScenarioSpec
    work_limit: int | None = None


_RAMP = np.arange(1.0, 257.0)

SCENARIOS = {
    # -- the ledger's four workloads ----------------------------------
    "engine-batch": Fleet(_spec(16, horizon=6)),
    "engine-solo": Fleet(_spec(
        12,
        chain=ChainSpec.lazy_walk(stay_probability=0.3),
        events=(EventSpec.presence_range(0, 18, start=2, end=5),),
    )),
    "serve-closed": Fleet(_spec(
        6,
        events=(EventSpec.presence_range(0, 9, start=4, end=8),),
        horizon=24,
        prior_mode="fixed",
    )),
    "serve-open": Fleet(_spec(
        10, events=(EventSpec.presence_range(0, 9, start=4, end=8),), horizon=24
    )),
    # -- event shapes, priors, mechanisms, schedules ------------------
    "pattern": Fleet(_spec(
        6, events=(EventSpec.pattern([[0, 1, 6, 7], [1, 2, 7, 8], [2, 3, 8, 9]], start=3),)
    )),
    "two-events": Fleet(_spec(
        6,
        events=(
            EventSpec.presence_range(0, 8, start=2, end=4),
            EventSpec.pattern([[20, 21, 26], [21, 27], [27, 28]], start=4),
        ),
    )),
    "fixed-prior": Fleet(_spec(
        16, horizon=6, prior_mode="fixed", prior=tuple(_RAMP / _RAMP.sum())
    )),
    "delta-location-set": Fleet(_spec(
        6, mechanism=MechanismSpec("delta_location_set", {"alpha": 0.5, "delta": 0.1})
    )),
    "linear": Fleet(_spec(6, calibration="linear")),
    "binary-search": Fleet(_spec(6, calibration="binary-search")),
    # a work-limited solver answers UNKNOWN: conservative releases
    "conservative": Fleet(_spec(6), work_limit=20),
}


def _work() -> dict:
    """Process-wide solver and front totals, summed across kernels and routings."""
    kernel, front = kernel_stats(), front_stats()
    return {
        "solver_calls": kernel["native_calls"] + kernel["numpy_calls"],
        "conditions": kernel["native_conditions"] + kernel["numpy_conditions"],
        "front_products": front["sparse_matmuls"] + front["dense_matmuls"],
    }


def run(name: str, stepping: str) -> tuple[list[list], dict]:
    """Scenario ``name``'s fleet stepped one way: its records and its work.

    The records are ``FIELDS`` rows, session by session; the work is the
    change in :func:`_work` over the stepping plus the manager's
    verdict-cache hits and misses.
    """
    fleet = SCENARIOS[name]
    compiled = fleet.spec.compile()
    config = compiled.engine_config
    if fleet.work_limit is not None:
        config = config_with(config, solver=SolverOptions(work_limit=fleet.work_limit))
    rng = np.random.default_rng(0)
    trajectories = {
        f"u{i}": sample_trajectory(
            compiled.chain, fleet.spec.horizon, initial=compiled.initial, rng=rng
        )
        for i in range(SESSIONS)
    }
    manager = SessionManager(config)
    for i, sid in enumerate(trajectories):
        manager.open(sid, rng=1000 + i)
    before = _work()
    for t in range(fleet.spec.horizon):
        cells = {sid: int(path[t]) for sid, path in trajectories.items()}
        if stepping == "step_many":
            manager.step_many(cells)
        else:
            for sid, cell in cells.items():
                manager.step(sid, cell)
    work = {key: count - before[key] for key, count in _work().items()}
    cache = manager.cache_stats()
    work["cache_hits"], work["cache_misses"] = cache.hits, cache.misses
    logs = manager.finish_all()
    records = [
        [getattr(record, field) for field in FIELDS]
        for sid in trajectories
        for record in logs[sid].records
    ]
    return records, work


@pytest.fixture(scope="module")
def golden() -> dict:
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(data) == sorted(SCENARIOS), REGENERATE
    return data


@pytest.fixture(scope="module")
def fleet_run():
    """``run``, once per fleet and mode: the stream and count tests share it."""
    runs: dict = {}

    def shared(name: str, stepping: str) -> tuple[list[list], dict]:
        if (name, stepping) not in runs:
            runs[name, stepping] = run(name, stepping)
        return runs[name, stepping]

    return shared


@pytest.fixture(scope="module")
def golden_counts() -> dict:
    data = json.loads(GOLDEN_COUNTS.read_text(encoding="utf-8"))
    assert sorted(data) == sorted(SCENARIOS), REGENERATE_COUNTS
    return data


@pytest.mark.parametrize("name", SCENARIOS)
def test_solo_and_batched_streams_match_golden(name, golden, fleet_run):
    for stepping in STEPPINGS:
        records = fleet_run(name, stepping)[0]
        assert records == golden[name], f"{name} via {stepping}: {REGENERATE}"


@pytest.mark.parametrize("name", SCENARIOS)
def test_solo_and_batched_work_matches_golden_counts(name, golden_counts, fleet_run):
    for stepping in STEPPINGS:
        work = fleet_run(name, stepping)[1]
        assert work == golden_counts[name][stepping], (
            f"{name} via {stepping}: {REGENERATE_COUNTS}"
        )


@pytest.mark.parametrize("mode", ["never", "always"])
def test_lazy_walk_stream_is_golden_on_dense_and_csr_fronts(mode, golden, monkeypatch):
    """The m=144 lazy walk, its models built with dense or CSR fronts."""
    monkeypatch.setenv(SPARSE_ENV, mode)
    before = front_stats()["sparse_models"]
    records = run("engine-solo", "step")[0]
    assert (front_stats()["sparse_models"] > before) == (mode == "always")
    assert records == golden["engine-solo"], f"{SPARSE_ENV}={mode}: {REGENERATE}"


def main() -> None:
    runs = {
        name: {stepping: run(name, stepping) for stepping in STEPPINGS}
        for name in SCENARIOS
    }
    scenarios = ",\n".join(
        f" {json.dumps(name)}: [\n"
        + ",\n".join(f"  {json.dumps(record)}" for record in by_mode["step"][0])
        + "\n ]"
        for name, by_mode in runs.items()
    )
    GOLDEN.write_text("{\n" + scenarios + "\n}\n", encoding="utf-8")
    counts = ",\n".join(
        f" {json.dumps(name)}: {{\n"
        + ",\n".join(
            f"  {json.dumps(stepping)}: {json.dumps(work)}"
            for stepping, (_, work) in by_mode.items()
        )
        + "\n }"
        for name, by_mode in runs.items()
    )
    GOLDEN_COUNTS.write_text("{\n" + counts + "\n}\n", encoding="utf-8")
    print(f"wrote {len(SCENARIOS)} streams to {GOLDEN}, their work to {GOLDEN_COUNTS}")


if __name__ == "__main__":
    main()

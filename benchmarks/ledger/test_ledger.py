"""Smoke test of the perf ledger.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q`` (about
a minute).  Every workload runs at ``--scale smoke`` for ~2 s, untraced
and traced, and must emit every metric ``BENCHMARK.json`` names; a
corrupted release must trip the stream-identity gate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import gates  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> tuple[int, str]:
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke", "--seconds", "2",
         "--seed", "5", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    return process.returncode, process.stdout


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_workload_emits_every_contract_metric(trace, section):
    out = ROOT / ".bench_build" / "ledger" / f"test-trace{trace}.json"
    code, stdout = _run("--trace", trace, "--out", str(out))
    summary = json.loads(stdout.strip().splitlines()[-1])
    assert code == 0, stdout
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= 1
    names = [w["name"] for w in CONTRACT["workloads"]]
    expected = {f"{w}.{m['name']}" for w in names for m in CONTRACT[section]}
    assert set(summary["metrics"]) == expected
    for metric in summary["metrics"].values():
        assert isinstance(metric["value"], float)
    if trace == "1":
        assert stdout.count("dominant layer:") == len(names)


def _small_sessions():
    from repro.engine import SessionManager
    from repro.scenario.spec import ChainSpec, EventSpec, GridSpec, MechanismSpec, ScenarioSpec

    spec = ScenarioSpec(
        grid=GridSpec(4, 4),
        chain=ChainSpec.gaussian(sigma=1.0),
        events=(EventSpec.presence_range(0, 5, start=2, end=4),),
        mechanism=MechanismSpec("planar_laplace", {"alpha": 0.5}),
        epsilon=0.4,
        horizon=6,
    )
    manager = SessionManager(spec)
    rng = np.random.default_rng(0)
    sessions = {}
    for index in range(3):
        sid = f"u{index}"
        session = sessions[sid] = gates.SessionTrace(seed=100 + index)
        manager.open(sid, rng=session.seed)
        for cell in rng.integers(0, 16, size=spec.horizon):
            session.add(int(cell), gates.release_of(manager.step(sid, int(cell))))
    return spec, sessions


def test_stream_gate_catches_a_corrupted_release():
    from repro.engine import SessionManager

    spec, sessions = _small_sessions()
    assert gates.stream_mismatches(sessions, gates.replay(SessionManager(spec), sessions)) == []
    assert gates.privacy_violations(spec.compile(), sessions) == []

    corrupted = sessions["u1"].stream[3]
    sessions["u1"].stream[3] = (corrupted[0], (corrupted[1] + 1) % 16, *corrupted[2:])
    problems = gates.stream_mismatches(sessions, gates.replay(SessionManager(spec), sessions))
    assert len(problems) == 1 and problems[0].startswith("u1 step 4")


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".bench_build" / "ledger" / "bare"
    (bare / "benchmarks" / "ledger").mkdir(parents=True, exist_ok=True)
    (bare / "BENCHMARK.json").write_text(json.dumps(CONTRACT))
    for path in HERE.glob("*.py"):
        (bare / "benchmarks" / "ledger" / path.name).write_text(path.read_text())
    process = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "engine-solo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert process.returncode != 0
    assert '"correct"' not in process.stdout

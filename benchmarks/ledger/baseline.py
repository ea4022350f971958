"""Record the ledger's committed baseline: two sets of untraced runs plus a traced one.

Usage (from the repository root)::

    python3 benchmarks/ledger/baseline.py [--out benchmarks/ledger/results/baseline.json]

Runs ``run.py`` (all four workloads) ``2 x RUNS`` times untraced,
alternating between the two sets, and once traced, all at seed
``SEED``.  Writes per set each end-to-end metric's values, median and
quartile spread; whether the two sets' medians agree within the
``BENCHMARK.json`` bound; the traced run's per-layer metrics and layer
tables; and the environment.  Exits 1 if a run fails its checks or the
sets disagree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: The seed every baseline invocation uses.
SEED = 0

#: Untraced invocations per set.
RUNS = 5


def _invoke(trace: int, out: Path) -> dict:
    out.unlink(missing_ok=True)  # a crashed run must not leave an old result
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", str(SEED), "--trace", str(trace),
         "--out", str(out)],
        cwd=ROOT, check=False, stdout=subprocess.DEVNULL,
    )
    return json.loads(out.read_text())


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median if median else 0.0, "values": values}


def summarize(contract: dict, sets: list[list[dict]], traced: dict) -> dict:
    """The baseline document from two sets of result files and a traced one."""
    workloads = {}
    agree = True
    for name in (w["name"] for w in contract["workloads"]):
        rows = {}
        for metric in contract["end_to_end"]:
            row = {"unit": metric["unit"], "bound": metric["bound"]}
            for number, runs in enumerate(sets, start=1):
                row[f"set{number}"] = _summary(
                    [run["workloads"][name]["metrics"][metric["name"]]["value"] for run in runs]
                )
            first, second = row["set1"]["median"], row["set2"]["median"]
            row["change"] = (second - first) / first
            row["agree"] = abs(row["change"]) <= metric["bound"]
            agree = agree and row["agree"]
            rows[metric["name"]] = row
        run = traced["workloads"][name]
        workloads[name] = {
            "end_to_end": rows,
            "per_layer": {
                metric["name"]: run["metrics"][metric["name"]]["value"]
                for metric in contract["per_layer"]
            },
            "layers": run["layers"],
        }
    return {
        "seed": sets[0][0]["seed"],
        "seconds": sets[0][0]["seconds"],
        "runs_per_set": len(sets[0]),
        "environment": sets[0][0]["environment"],
        "all_correct": all(run["correct"] for runs in sets for run in runs) and traced["correct"],
        "sets_agree": agree,
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=HERE / "results" / "baseline.json")
    args = parser.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".bench_build" / "ledger" / "baseline"
    scratch.mkdir(parents=True, exist_ok=True)
    # The sets alternate, so the shared box's slow drift lands on both
    # and their comparison measures the benchmark, not the hour.
    sets = [[], []]
    for index in range(RUNS):
        for number, runs in enumerate(sets, start=1):
            runs.append(_invoke(0, scratch / f"set{number}-run{index}.json"))
    baseline = summarize(contract, sets, _invoke(1, scratch / "traced.json"))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(baseline, indent=1) + "\n")
    for name, workload in baseline["workloads"].items():
        for metric, row in workload["end_to_end"].items():
            print(f"{name:13} {metric:20} set1 {row['set1']['median']:10.4g} "
                  f"set2 {row['set2']['median']:10.4g} change {row['change']:+.3f} "
                  f"spreads {row['set1']['spread']:.3f}/{row['set2']['spread']:.3f} "
                  f"{'ok' if row['agree'] else 'DISAGREE'}")
    return 0 if baseline["all_correct"] and baseline["sets_agree"] else 1


if __name__ == "__main__":
    sys.exit(main())

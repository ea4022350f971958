"""The perf ledger: one command, four workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python benchmarks/ledger/run.py --seed 0                 # all workloads
    python benchmarks/ledger/run.py --workload serve-open --seed 3 --seconds 20
    python benchmarks/ledger/run.py --workload engine-solo --seed 0 --trace 1

Every run checks its outputs (see ``gates.py``), prints each metric by
name with its unit, writes the full result to ``--out`` and ends with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``, where
``metrics`` holds the ``BENCHMARK.json`` end-to-end metrics untraced and
its per-layer metrics under ``--trace 1``.  A failed check exits 1.

The ledger imports the package from ``src/`` next to it, and keeps
everything it writes (the compiled solver kernel, results, spans) under
``.bench_build/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAMES = ("engine-batch", "engine-solo", "serve-closed", "serve-open")


def _prepare_environment(scratch: Path) -> None:
    """Import path, kernel cache and thread counts for this run and its servers.

    BLAS is pinned to one thread: the box has two cores shared by the
    engine's worker threads (or the load generator), and oversubscribed
    BLAS pools make timings swing.
    """
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    os.environ["REPRO_NATIVE_CACHE"] = str(scratch / "native")
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path[:0] = [src, str(HERE)]


def _environment() -> dict:
    import numpy
    import scipy

    from repro.core import native

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "native_kernel": native.native_detail()["state"],
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def _print_result(name: str, result, trace: bool) -> None:
    for metric, (value, unit) in sorted(result.metrics.items()):
        print(f"  {metric:<34} {value:>14.6g} {unit}")
    if trace:
        print(f"  {'layer':<30} {'calls/rel':>10} {'ms/rel':>10} {'cpu_ms/rel':>10} {'share':>8}")
        for row in result.layers:
            cpu = "-" if row["cpu_ms"] is None else f"{row['cpu_ms']:.4f}"
            print(f"  {row['layer']:<30} {row['calls']:>10.3f} {row['ms']:>10.4f} "
                  f"{cpu:>10} {row['share']:>7.1%}")
        dominant = max(
            (row for row in result.layers if row["layer"] != "unattributed"),
            key=lambda row: row["share"],
        )
        print(f"  dominant layer: {dominant['layer']} ({dominant['share']:.1%}); "
              f"unattributed {result.value('unattributed.share'):.1%}; "
              f"trace.overhead {result.value('trace.overhead'):.3f}")
    print(f"  ops: attempted {result.attempted}, succeeded {result.succeeded}, "
          f"shed {result.shed}, failed {result.failed}")
    for warning in result.warnings:
        print(f"  warning: {warning}")
    for problem in result.problems:
        print(f"  CHECK FAILED: {problem}")
        print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
    if not result.problems:
        print(f"  checks: {int(result.value('gate.sessions'))} sampled sessions replayed "
              "bit-identical and re-verified private; every op accounted for")


def _selected(result, wanted: list[dict], prefix: str = "") -> dict:
    """The contract metrics of one result; a missing one is a failed check."""
    out = {}
    for entry in wanted:
        name = entry["name"]
        measured = result.metrics.get(name)
        if measured is None:
            result.problems.append(f"metric {name} was not measured")
            continue
        value, unit = measured
        if unit != entry["unit"]:
            result.problems.append(f"metric {name} is in {unit}, BENCHMARK.json says {entry['unit']}")
        if not math.isfinite(value):
            result.problems.append(f"metric {name} is {value}")
            value = None
        out[prefix + name] = {"value": value, "unit": unit}
    return out


def _exit_on_signal(signum, frame) -> None:
    # Unwind instead of dying on the spot, so every ``finally`` runs and
    # the servers the ledger started are stopped and waited for.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _exit_on_signal)
    parser = argparse.ArgumentParser(prog="benchmarks/ledger/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES, default=None,
                        help="one workload (default: all four, in order)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: install the layer wrappers and report per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: one set-up and two checked sessions per workload")
    parser.add_argument("--out", type=Path, default=None,
                        help="result JSON (default: .bench_build/ledger/result.json)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        print(f"error: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    seconds = float(contract["run_seconds"] if args.seconds is None else args.seconds)
    if seconds <= 0:
        parser.error("--seconds must be > 0")

    scratch = ROOT / ".bench_build" / "ledger"
    scratch.mkdir(parents=True, exist_ok=True)
    _prepare_environment(scratch.parent)
    from repro.core import native

    import workloads

    native.load_kernel()  # compile or load before anything is timed
    scale = workloads.SCALES[args.scale]
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    names = [args.workload] if args.workload else list(NAMES)

    results, summary = {}, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        mode = "traced" if args.trace else "untraced"
        print(f"== {name} (seed {args.seed}, {seconds:g} s, {mode}) ==", flush=True)
        started = time.perf_counter()
        result = workloads.run(name, args.seed, seconds, scale, bool(args.trace), scratch)
        prefix = "" if args.workload else f"{name}."
        summary["metrics"].update(_selected(result, wanted, prefix))
        _print_result(name, result, bool(args.trace))
        print(f"  ({time.perf_counter() - started:.1f} s)", flush=True)
        summary["correct"] = summary["correct"] and not result.problems
        summary["attempted"] += result.attempted
        summary["failed"] += result.failed
        results[name] = result

    out = args.out or scratch / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "scale": args.scale,
        "environment": _environment(),
        "correct": summary["correct"],
        "workloads": {
            name: {
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(r.metrics.items())},
                "layers": r.layers,
                "ops": {"attempted": r.attempted, "succeeded": r.succeeded,
                        "shed": r.shed, "failed": r.failed},
                "problems": r.problems,
                "warnings": r.warnings,
            }
            for name, r in results.items()
        },
    }
    out.write_text(json.dumps(payload, indent=1, allow_nan=True) + "\n")
    if args.trace:
        spans = out.with_name(out.stem + "-spans.json")
        spans.write_text(json.dumps({name: r.spans for name, r in results.items()}) + "\n")
    print(json.dumps(summary, allow_nan=False))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

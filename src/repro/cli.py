"""Command-line entry point: ``repro <experiment>`` / ``stream`` / ``serve`` / ``worker`` / ``stats`` / ``top``.

Six modes:

* ``repro fig7`` .. ``fig14``, ``table3`` -- reproduce one of the
  paper's figures/tables (run with ``--help`` for options);
* ``repro stream`` -- the single-process service loop: read JSON-lines
  location fixes from stdin, drive one
  :class:`~repro.engine.SessionManager`, and write one JSON release
  record per fix to stdout.  With ``--checkpoint-dir`` a SIGINT
  checkpoints every open session to disk and exits 0; the next
  invocation with the same directory resumes them mid-trajectory.
  ``--scenario FILE`` swaps the flag-built setting for a declarative
  :class:`~repro.scenario.ScenarioSpec` JSON file.
* ``repro serve`` -- the concurrent network service: an asyncio TCP
  server (:mod:`repro.service`) multiplexing many client connections
  onto one shared execution backend, with admission control, a worker
  pool and idle-session eviction to a pluggable store.  ``--shards N``
  swaps the in-process backend for N local ``repro worker`` processes
  (each owning a full engine) for near-linear multi-core scaling, and
  ``--backend tcp://w1:9001,tcp://w2:9002`` for ``repro worker``
  processes on any machines.  Both run the same
  :class:`~repro.cluster.ClusterBackend` (consistent-hash placement,
  checkpoint-replay recovery, live migration via the ``migrate`` op).
* ``repro worker`` -- one cluster node: a full engine behind a TCP
  port (``--listen HOST:PORT``), serving the engine op set over the
  typed cluster codec for a ``repro serve --backend tcp://...`` router.
  Takes the same engine flags as ``serve`` -- start every worker of a
  cluster with identical flags (or the same ``--scenario`` file).
* ``repro cluster ADDR join|leave|status`` -- runtime membership ops
  against a running cluster server: admit a standby worker (the ring
  re-forms and only the moved arcs migrate), remove a worker (drain
  first when live), or print the membership + recovery snapshot.
* ``repro stats ADDR`` / ``repro top ADDR`` -- operator views of a
  running server: one pretty-printed ``stats`` snapshot (optionally
  with recent trace spans via ``--spans``), or a live refreshing
  terminal dashboard.  Both speak the ordinary service protocol, so
  they work against any reachable ``repro serve``.

Stream protocol (one JSON object per line)::

    {"session": "u1", "cell": 17}     -> release for session "u1"
    {"session": "u1", "op": "finish"} -> seal "u1", emit its summary
    {"op": "finish"}                  -> seal every open session

Sessions are opened on first sight, seeded deterministically from
``--seed`` and the session name so replays reproduce.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import zlib

from .engine import SessionManager
from .errors import ReproError
from .experiments.runners import (
    run_budget_over_time,
    run_conservative_release_table,
    run_runtime_scaling,
    run_utility_sweep,
)
from .experiments.scenarios import geolife_scenario, synthetic_scenario
from .scenario import (
    CalibrationSpec,
    ChainSpec,
    EventSpec,
    GridSpec,
    MechanismSpec,
    ScenarioSpec,
)


def _fig_budget_over_time(args, window: tuple[int, int], label: str) -> str:
    scenario = synthetic_scenario(horizon=args.horizon, sigma=args.sigma)
    event = scenario.presence_event(0, 9, *window)
    events = [event]
    if args.second_window:
        events.append(scenario.presence_event(0, 9, 16, 20))
    fixed_alpha = [(f"eps={e}" , 0.2, e) for e in (0.1, 0.5, 1.0)]
    result_a = run_budget_over_time(
        scenario, events, fixed_alpha, n_runs=args.runs,
        mechanism=args.mechanism, seed=args.seed,
        label=f"{label} (a): 0.2-PLM, varying eps",
    )
    fixed_eps = [(f"alpha={a}", a, 0.5) for a in (0.1, 0.5, 1.0)]
    result_b = run_budget_over_time(
        scenario, events, fixed_eps, n_runs=args.runs,
        mechanism=args.mechanism, seed=args.seed,
        label=f"{label} (b): varying PLM, eps=0.5",
    )
    return result_a.to_text() + "\n\n" + result_b.to_text()


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The release-setting flags shared by ``stream`` and ``serve``."""
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--alpha", type=float, default=0.5,
                        help="base mechanism budget (PLM alpha, 1/km)")
    parser.add_argument("--mechanism", choices=["geoind", "delta"], default="geoind")
    parser.add_argument("--delta", type=float, default=0.2,
                        help="delta-location set parameter (mechanism=delta)")
    parser.add_argument("--rows", type=int, default=10)
    parser.add_argument("--cols", type=int, default=10)
    parser.add_argument("--sigma", type=float, default=1.0)
    parser.add_argument("--horizon", type=int, default=50)
    parser.add_argument("--event-cells", type=int, nargs=2, default=(0, 9),
                        metavar=("FIRST", "LAST"))
    parser.add_argument("--event-window", type=int, nargs=2, default=(4, 8),
                        metavar=("START", "END"))
    parser.add_argument("--prior-mode", choices=["worst_case", "fixed"],
                        default="fixed")
    parser.add_argument("--calibration", default="halving",
                        choices=["halving", "linear", "binary-search"])
    parser.add_argument("--cache-size", type=int, default=131_072,
                        help="shared verdict-cache capacity (0 disables)")


def _spec_from_flags(args) -> ScenarioSpec:
    """The stream/serve engine flags as a declarative ScenarioSpec.

    This is the flag surface's *definition*: stream and serve compile
    the same spec a ``--scenario FILE`` could have carried, so the CLI
    is a thin wrapper over :mod:`repro.scenario` and flag-built servers
    intern models under a real spec digest.
    """
    if args.mechanism == "delta":
        mechanism = MechanismSpec(
            "delta_location_set", {"alpha": args.alpha, "delta": args.delta}
        )
    else:
        mechanism = MechanismSpec("planar_laplace", {"alpha": args.alpha})
    return ScenarioSpec(
        grid=GridSpec(rows=args.rows, cols=args.cols),
        chain=ChainSpec.gaussian(sigma=args.sigma),
        events=(
            EventSpec.presence_range(
                args.event_cells[0], args.event_cells[1],
                start=args.event_window[0], end=args.event_window[1],
            ),
        ),
        mechanism=mechanism,
        epsilon=args.epsilon,
        horizon=args.horizon,
        calibration=CalibrationSpec(args.calibration),
        prior_mode=args.prior_mode,
    )


def _stream_manager(args) -> SessionManager:
    """Build the shared engine from the stream/serve flags (or a file)."""
    if getattr(args, "scenario", None):
        spec = ScenarioSpec.from_file(args.scenario)
    else:
        spec = _spec_from_flags(args)
    return SessionManager(spec, cache_size=args.cache_size)


def _session_seed(base_seed: int, name: str) -> int:
    """Deterministic per-session seed: replays reproduce releases."""
    return (base_seed << 32) ^ zlib.crc32(name.encode())


def _finish_line(manager: SessionManager, name: str) -> dict:
    log = manager.finish(name)
    return {
        "session": name,
        "op": "finished",
        "n_released": len(log),
        "average_budget": round(log.average_budget, 6) if len(log) else None,
        "n_conservative": log.n_conservative,
    }


def _stream_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro stream",
        description="Streaming release service over stdin/stdout JSON lines",
    )
    _add_engine_flags(parser)
    parser.add_argument("--scenario", default=None, metavar="FILE",
                        help="JSON ScenarioSpec file defining the release "
                        "setting (overrides the individual engine flags)")
    parser.add_argument("--seed", type=int, default=0,
                        help="non-negative base seed for per-session RNGs")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="directory for SIGINT checkpoints: interrupted "
                        "sessions are saved here and resumed (and the files "
                        "consumed) by the next invocation")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")

    try:
        manager = _stream_manager(args)
    except ReproError as error:
        parser.error(str(error))

    store = None
    incarnations: dict[str, int] = {}
    if args.checkpoint_dir is not None:
        import os

        from .service.store import DirectorySessionStore

        store = DirectorySessionStore(args.checkpoint_dir)
        # Incarnation counts checkpoint alongside the sessions: without
        # them, a resumed service re-opening a finished session would
        # replay an earlier incarnation's seed (and so its noise).
        incarnations_path = os.path.join(store.root, "_incarnations.json")
        try:
            with open(incarnations_path, "r", encoding="utf-8") as handle:
                incarnations = {
                    str(k): int(v) for k, v in json.load(handle).items()
                }
            os.remove(incarnations_path)
        except FileNotFoundError:
            pass
        resumed = []
        for sid in sorted(store.ids()):
            state = store.get(sid)
            if state is None:
                continue
            try:
                manager.resume(state)
            except ReproError as error:
                print(
                    json.dumps({"error": f"cannot resume {sid!r}: {error}"}),
                    file=sys.stderr, flush=True,
                )
                continue
            store.delete(sid)
            resumed.append(sid)
        if resumed:
            print(
                json.dumps({"op": "resumed", "sessions": resumed}),
                file=sys.stderr, flush=True,
            )

    try:
        _stream_loop(manager, args, incarnations)
    except KeyboardInterrupt:
        if store is None:
            raise
        names = list(manager.session_ids)
        for name in names:
            store.put(manager.checkpoint(name))
        if incarnations:
            with open(incarnations_path, "w", encoding="utf-8") as handle:
                json.dump(incarnations, handle)
        print(
            json.dumps({"op": "checkpointed", "sessions": sorted(names)}),
            file=sys.stderr, flush=True,
        )
        return 0
    return 0


def _stream_loop(
    manager: SessionManager, args, incarnations: dict[str, int]
) -> None:
    for line_no, line in enumerate(sys.stdin, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            message = json.loads(line)
            if not isinstance(message, dict):
                raise ValueError(
                    f"expected a JSON object, got {type(message).__name__}"
                )
            if message.get("op") == "finish":
                names = (
                    [str(message["session"])]
                    if "session" in message
                    else list(manager.session_ids)
                )
                for name in names:
                    print(json.dumps(_finish_line(manager, name)), flush=True)
                    incarnations[name] = incarnations.get(name, 0) + 1
                continue
            name = str(message["session"])
            cell = int(message["cell"])  # validate before opening a session
            if name not in manager:
                # Salt the seed with the incarnation count: a client that
                # keeps streaming after finishing gets a fresh RNG stream,
                # not a replay of its first log's noise.
                seed_name = name
                if incarnations.get(name):
                    seed_name = f"{name}#{incarnations[name]}"
                manager.open(name, rng=_session_seed(args.seed, seed_name))
            record = manager.step(name, cell)
            print(
                json.dumps(
                    {
                        "session": name,
                        "t": record.t,
                        "true_cell": record.true_cell,
                        "released_cell": record.released_cell,
                        "budget": round(record.budget, 6),
                        "n_attempts": record.n_attempts,
                        "conservative": record.conservative,
                    }
                ),
                flush=True,
            )
        except KeyError as error:
            print(
                json.dumps({"error": f"missing field {error}", "line": line_no}),
                file=sys.stderr,
                flush=True,
            )
        except (TypeError, ValueError, ReproError) as error:
            print(
                json.dumps({"error": str(error), "line": line_no}),
                file=sys.stderr,
                flush=True,
            )
    for name in list(manager.session_ids):
        print(json.dumps(_finish_line(manager, name)), flush=True)
    stats = manager.cache_stats()
    if stats is not None:
        print(
            json.dumps(
                {
                    "op": "cache-stats",
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "hit_rate": round(stats.hit_rate, 4),
                }
            ),
            file=sys.stderr,
        )


def _worker_main(argv: list[str]) -> int:
    from .cluster.backend import parse_address
    from .cluster.chaos import FaultPlan
    from .cluster.worker import run_worker

    parser = argparse.ArgumentParser(
        prog="repro worker",
        description="One cluster worker: a full engine behind a TCP port, "
        "driven by `repro serve --backend tcp://...`",
    )
    _add_engine_flags(parser)
    parser.add_argument("--scenario", default=None, metavar="FILE",
                        help="JSON ScenarioSpec file defining the default "
                        "release setting (overrides the engine flags); must "
                        "match the router's configuration")
    parser.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                        help="address to serve on (port 0 picks an ephemeral "
                        "port; the bound port is announced on the 'worker' "
                        "stdout line)")
    parser.add_argument("--fault-plan", default=None, metavar="FILE",
                        help="JSON FaultPlan file for deterministic fault "
                        "injection (kill-at-step, RPC delay, heartbeat "
                        "blackhole, hang); chaos drills only")
    parser.add_argument("--capacity", type=float, default=None,
                        help="relative capacity weight reported to the "
                        "router for load-aware placement (default: this "
                        "machine's CPU count); a worker with twice the "
                        "capacity owns ~twice the keyspace")
    args = parser.parse_args(argv)
    if args.capacity is not None and not args.capacity > 0:
        parser.error(f"--capacity must be > 0, got {args.capacity}")
    try:
        _, host, port = parse_address(args.listen, allow_ephemeral=True)
    except ReproError as error:
        parser.error(str(error))
    fault_plan = None
    if args.fault_plan is not None:
        try:
            fault_plan = FaultPlan.from_file(args.fault_plan)
        except ReproError as error:
            parser.error(str(error))
    # functools.partial over module-level _stream_manager, as for
    # --shards (whose factory must survive the `spawn` start method).
    factory = functools.partial(_stream_manager, args)
    try:
        return run_worker(
            factory, host, port,
            announce=lambda line: print(line, flush=True),
            fault_plan=fault_plan,
            capacity=args.capacity,
        )
    except ReproError as error:
        parser.error(str(error))


def _serve_main(argv: list[str]) -> int:
    import asyncio

    from .service.server import ReleaseServer, ServerConfig
    from .service.store import resolve_store

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Concurrent JSONL/TCP release service over one engine",
    )
    _add_engine_flags(parser)
    parser.add_argument("--scenario", action="append", default=[],
                        metavar="FILE", dest="scenario_files",
                        help="JSON ScenarioSpec file to allowlist for inline "
                        "'open' scenarios (repeatable); the flag-built "
                        "engine stays the default setting")
    parser.add_argument("--allow-any-scenario", action="store_true",
                        help="admit any well-formed inline scenario instead "
                        "of only the --scenario allowlist")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7733,
                        help="TCP port (0 picks an ephemeral port; the bound "
                        "port is announced on the 'serving' stdout line)")
    parser.add_argument("--max-sessions", type=int, default=10_000,
                        help="open-session admission cap (typed 'busy' beyond)")
    parser.add_argument("--max-resident", type=int, default=1_024,
                        help="sessions kept in memory; least-recently-used "
                        "idle sessions beyond this are checkpointed to the "
                        "store and restored on demand")
    parser.add_argument("--pending-per-connection", type=int, default=32,
                        help="in-flight requests per connection before the "
                        "server stops reading (TCP backpressure)")
    parser.add_argument("--workers", type=int, default=None,
                        help="step worker threads (default: CPU cores, "
                        "capped, divided by --shards when sharded; 0 runs "
                        "steps inline on the event loop)")
    parser.add_argument("--shards", type=int, default=0,
                        help="local `repro worker` processes, each owning a "
                        "full engine, under the same supervisor as "
                        "--backend; served streams stay bit-identical at "
                        "any worker count (0 = in-process threads only)")
    parser.add_argument("--backend", default=None, metavar="ADDRS",
                        help="comma-separated `repro worker` addresses "
                        "(tcp://host:port,...): swap the local engine for a "
                        "cluster backend with consistent-hash placement and "
                        "live migration (incompatible with --shards; the "
                        "engine flags must match the workers')")
    parser.add_argument("--standby", default=None, metavar="ADDRS",
                        help="with --backend: comma-separated warm-standby "
                        "worker addresses (tcp://host:port,...); standbys "
                        "hold no sessions and are auto-joined to replace a "
                        "dead worker the moment its recovery fires")
    parser.add_argument("--shed-target-ms", type=float, default=100.0,
                        help="load shedding: acceptable standing executor "
                        "queue delay; once exceeded for --shed-interval-ms "
                        "the server sheds open (then step) requests with "
                        "the retryable 'overloaded' code (0 disables the "
                        "queue-delay trigger; deadline_ms shedding stays on)")
    parser.add_argument("--shed-interval-ms", type=float, default=1000.0,
                        help="how long the queue delay must stay above "
                        "--shed-target-ms before shedding starts")
    parser.add_argument("--checkpoint-every", type=int, default=0,
                        metavar="N",
                        help="with --shards or --backend: auto-checkpoint "
                        "every session to the store every N acknowledged "
                        "steps, bounding replay after a worker dies (0 "
                        "disables auto-checkpoints; recovery then falls "
                        "back to explicit 'checkpoint' snapshots)")
    parser.add_argument("--store", choices=["memory", "dir", "sqlite"],
                        default="memory",
                        help="suspended-session store backend")
    parser.add_argument("--store-path", default=None,
                        help="directory (store=dir) or database file "
                        "(store=sqlite)")
    parser.add_argument("--metrics-port", type=int, default=None,
                        help="serve Prometheus /metrics plus /healthz and "
                        "/readyz on this port (0 picks an ephemeral port, "
                        "announced as 'metrics_port'; omit to disable)")
    parser.add_argument("--metrics-host", default=None,
                        help="bind address for the metrics listener "
                        "(default: --host)")
    parser.add_argument("--no-trace", action="store_true",
                        help="disable per-request tracing (span buffers, "
                        "slow-request log); stats/metrics keep working")
    parser.add_argument("--slow-request-ms", type=float, default=1000.0,
                        help="requests slower than this land in the "
                        "slow-span ring buffer")
    args = parser.parse_args(argv)
    # Built before the engine, so a bad serving knob exits before any
    # worker process spawns.
    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            max_sessions=args.max_sessions,
            max_resident=args.max_resident,
            max_pending_per_connection=args.pending_per_connection,
            workers=args.workers,
            trace=not args.no_trace,
            slow_request_ms=args.slow_request_ms,
            metrics_port=args.metrics_port,
            metrics_host=args.metrics_host,
            shed_target_ms=args.shed_target_ms,
            shed_interval_ms=args.shed_interval_ms,
        )
    except ReproError as error:
        parser.error(str(error))
    if args.shards < 0:
        parser.error("--shards must be >= 0")
    if args.checkpoint_every < 0:
        parser.error("--checkpoint-every must be >= 0")
    if args.standby and not args.backend:
        parser.error("--standby requires --backend (standbys are cluster "
                     "workers held in reserve)")
    if args.backend and args.shards > 0:
        parser.error("--backend (remote workers) and --shards (local "
                     "worker processes) are mutually exclusive")
    supervised = bool(args.backend) or args.shards > 0
    if supervised and args.workers == 0:
        parser.error("--workers 0 (inline) is incompatible with --shards and "
                     "--backend; worker RPCs must stay off the event loop")
    if args.checkpoint_every > 0 and not supervised:
        parser.error("--checkpoint-every requires --shards or --backend "
                     "(recovery heals worker processes)")

    standbys = [
        a for a in (s.strip() for s in (args.standby or "").split(",")) if a
    ]
    try:
        scenarios = [ScenarioSpec.from_file(path) for path in args.scenario_files]
        store = resolve_store(args.store, args.store_path)
        if supervised:
            from .cluster.backend import ClusterBackend

            # Every worker fleet heals dead workers from store
            # checkpoints + deterministic replay.
            recovery = dict(
                store=store,
                checkpoint_every=args.checkpoint_every,
                standbys=standbys,
            )
            if args.backend:
                engine = ClusterBackend(
                    [a for a in (s.strip() for s in args.backend.split(",")) if a],
                    **recovery,
                )
            else:
                # Each local worker builds its own full engine from the
                # parsed flags (functools.partial over a module-level
                # function, so the factory survives `spawn` too).
                engine = ClusterBackend.spawn_local(
                    functools.partial(_stream_manager, args),
                    args.shards,
                    **recovery,
                )
        else:
            engine = _stream_manager(args)
    except ReproError as error:
        parser.error(str(error))

    async def _serve() -> int:
        server = ReleaseServer(
            engine,
            store=store,
            config=config,
            scenarios=scenarios,
            allow_any_scenario=args.allow_any_scenario,
        )
        await server.start()
        print(
            json.dumps(
                {
                    "op": "serving",
                    "host": config.host,
                    "port": server.port,
                    "max_sessions": config.max_sessions,
                    "max_resident": config.max_resident,
                    "shards": args.shards,
                    "cluster_workers": engine.n_shards if supervised else 0,
                    "standbys": len(standbys),
                    "store": args.store,
                    "scenarios": len(scenarios),
                    "allow_any_scenario": args.allow_any_scenario,
                    "metrics_port": server.metrics_port,
                }
            ),
            flush=True,
        )
        try:
            server.install_signal_handlers()
        except NotImplementedError:  # non-Unix event loops
            pass
        summary = await server.wait_drained()
        print(json.dumps({"op": "drained", **summary}), flush=True)
        return 0

    try:
        return asyncio.run(_serve())
    finally:
        store.close()


def _ops_address(parser: argparse.ArgumentParser, raw: str) -> tuple[str, int]:
    """Parse a ``host:port`` / ``tcp://host:port`` serving address."""
    from .cluster.backend import parse_address

    try:
        _, host, port = parse_address(raw)
    except ReproError as error:
        parser.error(str(error))
    return host, port


def _cluster_main(argv: list[str]) -> int:
    from .service.client import ServiceClient

    parser = argparse.ArgumentParser(
        prog="repro cluster",
        description="Cluster membership ops against a running "
        "`repro serve --shards N` or `--backend tcp://...`: admit or "
        "remove workers at runtime, or show the membership/recovery "
        "snapshot",
    )
    parser.add_argument("address", metavar="ADDR",
                        help="the server's host:port (or tcp://host:port)")
    parser.add_argument("action", choices=["join", "leave", "status"],
                        help="join/leave one worker, or show cluster status")
    parser.add_argument("worker", nargs="?", default=None,
                        metavar="WORKER",
                        help="the worker's tcp://host:port address "
                        "(required for join/leave)")
    args = parser.parse_args(argv)
    if args.action in ("join", "leave") and not args.worker:
        parser.error(f"'{args.action}' requires a WORKER address")
    if args.action == "status" and args.worker:
        parser.error("'status' takes no WORKER address")
    host, port = _ops_address(parser, args.address)
    try:
        # Generous timeout: join/leave live-migrate sessions.
        with ServiceClient(host, port, timeout=120.0) as client:
            if args.action == "join":
                result = client.join(args.worker)
            elif args.action == "leave":
                result = client.leave(args.worker)
            else:
                result = client.cluster_status()
    except (ReproError, OSError) as error:
        print(f"repro cluster: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _stats_main(argv: list[str]) -> int:
    from .obs.top import run_stats

    parser = argparse.ArgumentParser(
        prog="repro stats",
        description="One stats snapshot of a running `repro serve` as "
        "pretty-printed JSON",
    )
    parser.add_argument("address", metavar="ADDR",
                        help="the server's host:port (or tcp://host:port)")
    parser.add_argument("--spans", type=int, default=0,
                        help="also fetch up to N recent + N slow trace "
                        "spans (0 = none)")
    args = parser.parse_args(argv)
    if args.spans < 0:
        parser.error("--spans must be >= 0")
    host, port = _ops_address(parser, args.address)
    try:
        run_stats(host, port, spans=args.spans)
    except (ReproError, OSError) as error:
        print(f"repro stats: {error}", file=sys.stderr)
        return 1
    return 0


def _top_main(argv: list[str]) -> int:
    from .obs.top import run_top

    parser = argparse.ArgumentParser(
        prog="repro top",
        description="Live terminal view of a running `repro serve`: "
        "sessions, latency, throughput, per-worker health",
    )
    parser.add_argument("address", metavar="ADDR",
                        help="the server's host:port (or tcp://host:port)")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="seconds between refreshes")
    parser.add_argument("--iterations", type=int, default=None,
                        help="stop after N refreshes (default: until ^C)")
    args = parser.parse_args(argv)
    if args.interval <= 0:
        parser.error("--interval must be > 0")
    host, port = _ops_address(parser, args.address)
    try:
        run_top(host, port, interval_s=args.interval, iterations=args.iterations)
    except KeyboardInterrupt:
        pass
    except (ReproError, OSError) as error:
        print(f"repro top: {error}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI dispatcher; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "stream":
        return _stream_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "worker":
        return _worker_main(argv[1:])
    if argv and argv[0] == "cluster":
        return _cluster_main(argv[1:])
    if argv and argv[0] == "stats":
        return _stats_main(argv[1:])
    if argv and argv[0] == "top":
        return _top_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PriSTE experiment harness",
        epilog="Streaming modes: `repro stream --help` (JSON lines on "
        "stdin/stdout) and `repro serve --help` (concurrent TCP service).",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "fig7", "fig8", "fig9", "fig10", "fig11",
            "fig12", "fig13", "fig14", "table3",
        ],
    )
    parser.add_argument("--runs", type=int, default=10, help="runs per curve")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--horizon", type=int, default=50,
        help="release horizon T (clamped to >= 21 so the paper's event "
        "windows {4:8} and {16:20} fit)",
    )
    parser.add_argument("--sigma", type=float, default=1.0)
    parser.add_argument(
        "--geolife-root", default=None,
        help="path to a real Geolife dataset (default: simulator substitute)",
    )
    args = parser.parse_args(argv)
    args.horizon = max(args.horizon, 21)
    args.mechanism = "geoind"
    args.second_window = False

    if args.experiment == "fig7":
        print(_fig_budget_over_time(args, (4, 8), "Fig. 7 PRESENCE(S={1:10}, T={4:8})"))
    elif args.experiment == "fig8":
        print(_fig_budget_over_time(args, (16, 20), "Fig. 8 PRESENCE(S={1:10}, T={16:20})"))
    elif args.experiment == "fig9":
        args.second_window = True
        print(_fig_budget_over_time(args, (4, 8), "Fig. 9 two PRESENCE events"))
    elif args.experiment == "fig10":
        args.mechanism = "delta"
        args.horizon = min(args.horizon, 20)
        print(_fig_budget_over_time(args, (4, 8), "Fig. 10 delta-location set"))
    elif args.experiment == "fig11":
        scenario = geolife_scenario(root=args.geolife_root, rng=args.seed)
        result = run_utility_sweep(
            scenario_for=lambda params: scenario,
            events_for=lambda sc, params: [sc.presence_event(0, 9, 4, 8)],
            curve_settings=[(f"{a}-PLM", {"alpha": a}) for a in (0.5, 1.0, 3.0, 5.0)],
            epsilons=(0.1, 0.5, 1.0, 2.0),
            n_runs=args.runs,
            seed=args.seed,
            label="Fig. 11 Geolife PRESENCE(S={1:10}, T={4:8})",
        )
        print(result.to_text())
    elif args.experiment == "fig12":
        scenario = geolife_scenario(root=args.geolife_root, rng=args.seed)
        result = run_utility_sweep(
            scenario_for=lambda params: scenario,
            events_for=lambda sc, params: [sc.presence_event(0, 9, 4, 8)],
            curve_settings=[
                (f"delta={d}", {"alpha": 0.5, "mechanism": "delta", "delta": d})
                for d in (0.1, 0.3, 0.5, 0.7)
            ],
            epsilons=(0.1, 1.0, 2.0, 3.0),
            n_runs=args.runs,
            seed=args.seed,
            label="Fig. 12 Geolife, 0.5-PLM with delta-location set privacy",
        )
        print(result.to_text())
    elif args.experiment == "fig13":
        result = run_utility_sweep(
            scenario_for=lambda params: synthetic_scenario(
                sigma=params["sigma"], horizon=args.horizon
            ),
            events_for=lambda sc, params: [sc.presence_event(0, 9, 4, 8)],
            curve_settings=[
                (f"sigma={s}", {"alpha": 1.0, "sigma": s}) for s in (0.01, 0.1, 1.0, 10.0)
            ],
            epsilons=(0.1, 0.5, 1.0, 2.0),
            n_runs=args.runs,
            seed=args.seed,
            label="Fig. 13 synthetic, 1-PLM, varying mobility pattern strength",
        )
        print(result.to_text())
    elif args.experiment == "fig14":
        scenario = synthetic_scenario(n_rows=8, n_cols=8, horizon=20)
        by_length = run_runtime_scaling(
            scenario, axis="length", values=(3, 5, 7, 9), fixed=5, seed=args.seed
        )
        by_width = run_runtime_scaling(
            scenario, axis="width", values=(3, 5, 7, 9), fixed=5, seed=args.seed
        )
        print(by_length.to_text())
        print()
        print(by_width.to_text())
    elif args.experiment == "table3":
        scenario = synthetic_scenario(horizon=20)
        event = scenario.presence_event(0, 9, 4, 8)
        table, _ = run_conservative_release_table(
            scenario, event,
            thresholds=(0.01, 0.1, 1.0, 2.0, 5.0, None),
            n_runs=max(1, args.runs // 2),
            seed=args.seed,
        )
        print(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())

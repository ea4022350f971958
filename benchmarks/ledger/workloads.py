"""The ledger's four workloads: inputs from the seed, drivers and metrics.

Every workload releases locations through Algorithm 1 with the same
privacy setting (PLM alpha=0.5, epsilon=0.4, halving calibration) and
differs in which layers it loads:

``engine-batch``
    ``SessionManager.step_many`` in process on a dense m=256 Gaussian
    chain, worst-case prior: front propagation, ``candidate_bc`` and
    batched solving dominate; the service layers, the verdict cache
    (lockstep skips it) and CSR routing are bypassed.
``engine-solo``
    ``SessionManager.step`` round-robin on the m=144 lazy walk (CSR
    fronts), worst-case prior, verdict cache on: the same engine layers
    driven solo, sparse and cached, with many small solver calls.
``serve-closed``
    ``repro serve`` on a 6x6 map at a fixed prior, 64 closed-loop users
    over 2 connections: decode, admission, the executor queue and
    serialization dominate; the QP kernel is never called.
``serve-open``
    ``repro serve`` on a 10x10 map at the worst-case prior, open-loop
    Poisson arrivals onto 128 session slots in three rungs (light, busy,
    overload): real engine cost under queueing; only overload sheds.

Each workload runs for the requested seconds (whole fleets, or rungs
scaled to the time), then checks its outputs with :mod:`gates`.  The
seed generates every input -- trajectories with ``sample_trajectory``,
session seeds and arrival times -- and the program under test receives
only those.
"""

from __future__ import annotations

import asyncio
import bisect
import ctypes
import gc
import json
import os
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.qp import SolverOptions, kernel_stats
from repro.core.two_world import front_stats
from repro.engine import SessionManager
from repro.engine.config import config_with
from repro.errors import OverloadedError, ReproError
from repro.markov.simulate import sample_trajectory
from repro.scenario.spec import (
    CalibrationSpec,
    ChainSpec,
    EventSpec,
    GridSpec,
    MechanismSpec,
    ScenarioSpec,
)
from repro.service.client import AsyncServiceClient

import gates
from layers import LayerTracer, add, layer_rows, subtract

ALPHA = 0.5
EPSILON = 0.4

#: Client connections every served workload drives (one per core).
CONNECTIONS = 2

HERE = Path(__file__).resolve().parent


def _spec(rows, chain, event_cells, window, horizon, prior_mode) -> ScenarioSpec:
    return ScenarioSpec(
        grid=GridSpec(rows=rows, cols=rows),
        chain=chain,
        events=(
            EventSpec.presence_range(
                event_cells[0], event_cells[1], start=window[0], end=window[1]
            ),
        ),
        mechanism=MechanismSpec("planar_laplace", {"alpha": ALPHA}),
        epsilon=EPSILON,
        horizon=horizon,
        calibration=CalibrationSpec("halving"),
        prior_mode=prior_mode,
    )


@dataclass(frozen=True)
class EngineWorkload:
    """An in-process ``SessionManager`` workload run in fleets."""

    name: str
    spec: ScenarioSpec
    fleet: int
    batched: bool


@dataclass(frozen=True)
class ServedWorkload:
    """A ``repro serve`` process driven over TCP."""

    name: str
    rows: int
    prior_mode: str
    open_loop: bool
    horizon: int = 24

    def spec(self) -> ScenarioSpec:
        """The scenario :meth:`flags` compile to in the server."""
        return _spec(
            self.rows, ChainSpec.gaussian(sigma=1.0), (0, 9), (4, 8),
            self.horizon, self.prior_mode,
        )

    def flags(self) -> list[str]:
        """``repro serve`` flags: the engine setting explicit, serving at defaults."""
        return [
            "--port", "0",
            "--rows", str(self.rows), "--cols", str(self.rows),
            "--prior-mode", self.prior_mode,
            "--horizon", str(self.horizon),
            "--epsilon", str(EPSILON), "--alpha", str(ALPHA), "--sigma", "1.0",
            "--event-cells", "0", "9", "--event-window", "4", "8",
            "--calibration", "halving",
        ]


WORKLOADS = {
    "engine-batch": EngineWorkload(
        "engine-batch",
        _spec(16, ChainSpec.gaussian(sigma=1.0), (0, 9), (2, 4), 6, "worst_case"),
        fleet=48,
        batched=True,
    ),
    "engine-solo": EngineWorkload(
        "engine-solo",
        _spec(12, ChainSpec.lazy_walk(stay_probability=0.3), (0, 18), (2, 5), 8,
              "worst_case"),
        fleet=48,
        batched=False,
    ),
    "serve-closed": ServedWorkload("serve-closed", 6, "fixed", open_loop=False),
    "serve-open": ServedWorkload("serve-open", 10, "worst_case", open_loop=True),
}


@dataclass(frozen=True)
class Scale:
    """How much set-up and checking one run does around its timed work."""

    engine_setups: int
    served_setups: int
    gate_sessions: int


SCALES = {
    "full": Scale(engine_setups=7, served_setups=3, gate_sessions=8),
    "smoke": Scale(engine_setups=1, served_setups=1, gate_sessions=2),
}


@dataclass
class Result:
    """One workload run: metrics by name, op accounting and gate findings."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    attempted: int = 0
    succeeded: int = 0
    shed: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    def put(self, name: str, value, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def value(self, name: str) -> float:
        return self.metrics[name][0]


def _pct(values, q) -> float:
    if not len(values):
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class _Interval:
    """One slice of a run: a fleet (engine) or about a second (served)."""

    wall_s: float
    cpu_s: float
    releases: int
    latencies: list  # seconds, of the steps answered in this slice


def _cpu_per_release(result: Result, intervals: list) -> None:
    result.put("cpu_ms_per_release",
               sum(i.cpu_s for i in intervals) / sum(i.releases for i in intervals) * 1e3, "ms")


def _latencies(result: Result, latencies: list) -> None:
    """Step latency percentiles over every step a run timed."""
    for q in (50, 90, 99):
        result.put(f"step_p{q}_ms", _pct(latencies, q) * 1e3, "ms")
    result.put("step_samples", len(latencies), "count")


def _interval_metrics(result: Result, intervals: list) -> None:
    """Rate, CPU and step latencies over a run's untraced intervals.

    Rate and CPU per release are ratios of totals; the percentiles pool
    the latencies of every interval.
    """
    result.put("releases_per_s",
               sum(i.releases for i in intervals) / sum(i.wall_s for i in intervals), "1/s")
    _cpu_per_release(result, intervals)
    _latencies(result, [latency for i in intervals for latency in i.latencies])
    result.put("intervals", len(intervals), "count")


def _outputs(result: Result, compiled, sessions: dict) -> None:
    """Utility and calibration mix over every release of the run."""
    distances = compiled.grid.distance_matrix_km
    true = [cell for session in sessions.values() for cell in session.true_cells]
    streams = [release for session in sessions.values() for release in session.stream]
    released = [release[1] for release in streams]
    n = len(streams)
    result.put("releases", n, "count")
    result.put("release_error_km", distances[np.asarray(true), np.asarray(released)].mean(), "km")
    result.put("engine.attempts_per_release", sum(r[3] for r in streams) / n, "count")
    result.put("engine.conservative_share", sum(r[4] for r in streams) / n, "ratio")
    result.put("engine.uniform_share", sum(r[5] for r in streams) / n, "ratio")


def _gates(result: Result, compiled, sessions: dict, reference, count: int, seed: int) -> None:
    """Replay and re-verify ``count`` sampled sessions; account every op."""
    sampled = gates.sample(sessions, count, np.random.default_rng([seed, 1 << 20]))
    result.problems += gates.stream_mismatches(sampled, gates.replay(reference, sampled))
    result.problems += gates.privacy_violations(compiled, sampled)
    result.put("gate.sessions", len(sampled), "count")
    result.put("failed_share", _ratio(result.failed, result.attempted), "ratio")
    missing = result.attempted - result.succeeded - result.shed - result.failed
    if missing:
        result.problems.append(f"{missing} ops neither succeeded, shed nor failed")
    if result.failed:
        result.problems.append(f"{result.failed} ops failed")


def _solver_mix(result: Result, kernel0, kernel1, front0, front1) -> None:
    native = kernel1["native_conditions"] - kernel0["native_conditions"]
    numpy_ = kernel1["numpy_conditions"] - kernel0["numpy_conditions"]
    sparse = front1["sparse_matmuls"] - front0["sparse_matmuls"]
    dense = front1["dense_matmuls"] - front0["dense_matmuls"]
    result.put("core.qp.native_share", _ratio(native, native + numpy_), "ratio")
    result.put("core.two_world.sparse_share", _ratio(sparse, sparse + dense), "ratio")


def _layer_metrics(result: Result, traced: dict, per_release_ms: float) -> tuple[list, float]:
    """Per-layer metrics from wrapper totals.

    Returns the layer table rows and the inclusive engine time per
    release (``SessionManager.step`` wall, nested layers included).
    """
    totals, counters = traced["totals"], traced["counters"]
    rows = layer_rows(traced, per_release_ms)
    for row in rows:
        name = row["layer"]
        prefix = "engine.self" if name == "engine" else name
        result.put(f"{prefix}.ms", row["ms"], "ms")
        result.put(f"{prefix}.cpu_ms", row["cpu_ms"], "ms")
        result.put(f"{prefix}.share", row["share"], "ratio")
        if name != "engine":
            result.put(f"{name}.calls", row["calls"], "calls/release")
    empty = [0, 0, 0, 0, 0]
    step_ms = totals.get("engine.step", empty)[1] / 1e6 / counters["releases"]
    result.put("engine.step.ms", step_ms, "ms")
    result.put("trace.sampled_releases", counters["releases"], "count")
    result.put(
        "core.theorem.decided_share",
        _ratio(counters.get("core.theorem.decided", 0), totals.get("core.theorem.certificate", empty)[0]),
        "ratio",
    )
    conditions = counters.get("core.qp.conditions", 0)
    result.put(
        "core.qp.conditions_per_call",
        _ratio(conditions, totals.get("core.qp.solve", empty)[0]),
        "count",
    )
    result.put("core.qp.violated_share", _ratio(counters.get("core.qp.violated", 0), conditions), "ratio")
    return rows, step_ms


def _has_traced_releases(result: Result, traced: dict) -> bool:
    if traced["counters"].get("releases", 0):
        return True
    result.problems.append("no release was traced; run for longer")
    return False


def _cache_mix(result: Result, hits: int, misses: int, releases: int) -> None:
    """Verdict-cache use over the whole run, from the cache's own counters."""
    result.put("engine.cache.lookups", (hits + misses) / releases, "calls/release")
    result.put("engine.cache.hit_ratio", _ratio(hits, hits + misses), "ratio")


def _close_table(result: Result, rows: list[dict], unattributed_ms: float, per_release_ms: float) -> None:
    share = unattributed_ms / per_release_ms
    rows.append({"layer": "unattributed", "calls": 0.0, "ms": unattributed_ms,
                 "cpu_ms": None, "share": share})
    result.put("unattributed.share", share, "ratio")
    result.layers = rows


# ----------------------------------------------------------------------
# engine workloads
# ----------------------------------------------------------------------
def _trajectories(compiled, horizon: int, count: int, rng) -> list[list[int]]:
    """``count`` chain trajectories from the scenario's initial distribution."""
    return [
        sample_trajectory(compiled.chain, horizon, initial=compiled.initial, rng=rng)
        for _ in range(count)
    ]


def _fleet(compiled, workload: EngineWorkload, seed: int, index: int):
    """Fleet ``index``: (session id, session seed, trajectory) per session."""
    rng = np.random.default_rng([seed, index])
    trajectories = _trajectories(compiled, workload.spec.horizon, workload.fleet, rng)
    return [
        (f"f{index}-u{i}", int(rng.integers(2**62)), trajectory)
        for i, trajectory in enumerate(trajectories)
    ]


def _engine_reference(workload: EngineWorkload, compiled) -> SessionManager:
    """The independent manager a workload's sampled sessions replay on."""
    if workload.batched:
        # Lockstep batches against solo stepping.
        return SessionManager(workload.spec)
    # Sparse fronts, the native kernel and the verdict cache against
    # dense fronts, the NumPy kernel and no cache.  Routing is fixed when
    # the models are built, so the override only has to span the build.
    saved = os.environ.get("REPRO_SPARSE_FRONT")
    os.environ["REPRO_SPARSE_FRONT"] = "never"
    try:
        config = config_with(compiled.engine_config, solver=SolverOptions(kernel="numpy"))
        return SessionManager(config, cache_size=0)
    finally:
        if saved is None:
            del os.environ["REPRO_SPARSE_FRONT"]
        else:
            os.environ["REPRO_SPARSE_FRONT"] = saved


def run_engine(workload: EngineWorkload, seed: int, seconds: float, scale: Scale, trace: bool) -> Result:
    """Whole fleets until ``seconds`` have passed.

    Set-up (manager build plus the first fleet's opens) is timed
    ``scale.engine_setups`` times and reported as the median.  Under
    ``trace`` the odd fleets run with the layer wrappers installed, so
    one run yields both the traced and untraced rates.
    """
    compiled = workload.spec.compile()
    horizon = workload.spec.horizon
    result = Result()

    first = _fleet(compiled, workload, seed, 0)
    setups = []
    for _ in range(scale.engine_setups):
        # A set-up takes ~10 ms, so whether a collection lands in it
        # would decide its time; start each from a collected heap.
        gc.collect()
        started = time.perf_counter()
        manager = SessionManager(workload.spec)
        for sid, session_seed, _ in first:
            manager.open(sid, rng=session_seed)
        setups.append(time.perf_counter() - started)

    tracer = LayerTracer() if trace else None
    traced_totals = None
    fleets = {False: [], True: []}  # traced? -> one _Interval per fleet
    sessions: dict = {}
    kernel0, front0 = kernel_stats(), front_stats()
    fleet, index = first, 0
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and index % 2 == 1
        if traced:
            before = tracer.snapshot()
            tracer.install()
        latencies = []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if index:
            for sid, session_seed, _ in fleet:
                manager.open(sid, rng=session_seed)
        if workload.batched:
            for t in range(horizon):
                cells = {sid: trajectory[t] for sid, _, trajectory in fleet}
                step0 = time.perf_counter()
                manager.step_many(cells)
                latencies.append(time.perf_counter() - step0)
        else:
            for t in range(horizon):
                for sid, _, trajectory in fleet:
                    step0 = time.perf_counter()
                    manager.step(sid, trajectory[t])
                    latencies.append(time.perf_counter() - step0)
        logs = manager.finish_all()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if traced:
            tracer.uninstall()
            delta = subtract(tracer.snapshot(), before)
            traced_totals = delta if traced_totals is None else add(traced_totals, delta)
        fleets[traced].append(_Interval(wall, cpu, len(fleet) * horizon, latencies))
        for sid, session_seed, trajectory in fleet:
            session = sessions[sid] = gates.SessionTrace(session_seed)
            for cell, record in zip(trajectory, logs[sid].records):
                session.add(cell, gates.release_of(record))
        result.attempted += len(fleet) * horizon
        result.succeeded += sum(len(log) for log in logs.values())
        index += 1
        if time.perf_counter() >= deadline and (not trace or index >= 2):
            break
        fleet = _fleet(compiled, workload, seed, index)
    kernel1, front1 = kernel_stats(), front_stats()

    result.put("setup_s", statistics.median(setups), "s")
    _interval_metrics(result, fleets[False])
    _outputs(result, compiled, sessions)
    _solver_mix(result, kernel0, kernel1, front0, front1)
    cache = manager.cache_stats()
    _cache_mix(result, cache.hits, cache.misses, result.succeeded)

    if trace and _has_traced_releases(result, traced_totals):
        t_wall, t_cpu, t_releases, t_step_s = (
            sum(column) for column in zip(*(
                (i.wall_s, i.cpu_s, i.releases, sum(i.latencies)) for i in fleets[True]
            ))
        )
        # A release costs its (sampled) engine time plus the harness loop
        # around the SessionManager calls, which the harness timed itself.
        harness_ms = (t_wall - t_step_s) * 1e3 / t_releases
        totals = traced_totals["totals"]
        step_ms = totals["engine.step"][1] / 1e6 / traced_totals["counters"]["releases"]
        per_release_ms = step_ms + harness_ms
        rows, _ = _layer_metrics(result, traced_totals, per_release_ms)
        _close_table(result, rows, harness_ms, per_release_ms)
        # No service in process: its layer metrics are structurally zero.
        for name in ("queue_wait.share", "serialize.share", "unattributed.share",
                     "shed_share"):
            result.put(f"service.{name}", 0.0, "ratio")
        result.put("service.overload_level_max", 0, "count")
        untraced = fleets[False]
        u_cpu = sum(i.cpu_s for i in untraced) / sum(i.releases for i in untraced)
        result.put("trace.overhead", u_cpu / (t_cpu / t_releases), "ratio")
        result.spans = tracer.snapshot()["spans"]

    _gates(result, compiled, sessions, _engine_reference(workload, compiled),
           scale.gate_sessions, seed)
    return result


# ----------------------------------------------------------------------
# served workloads
# ----------------------------------------------------------------------
def _die_with_parent() -> None:
    """In the forked server: get SIGTERM if the ledger dies (Linux ``prctl``).

    The ledger stops its servers itself, on errors and on SIGTERM too;
    this covers the one case it cannot, being killed outright.
    """
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


_PR_SET_PDEATHSIG = 1


class ServerProcess:
    """``repro serve`` as its own process; the port comes from its banner."""

    def __init__(self, process, port: int):
        self.process = process
        self.port = port

    @classmethod
    async def start(cls, flags: list[str], totals_path: Path | None = None) -> "ServerProcess":
        if totals_path is None:
            command = [sys.executable, "-m", "repro.cli", "serve", *flags]
        else:
            command = [sys.executable, str(HERE / "traced_serve.py"), str(totals_path),
                       "serve", *flags]
        process = await asyncio.create_subprocess_exec(
            *command, stdin=asyncio.subprocess.DEVNULL, stdout=asyncio.subprocess.PIPE,
            preexec_fn=_die_with_parent,
        )
        try:
            while True:
                line = await asyncio.wait_for(process.stdout.readline(), timeout=120)
                if not line:
                    raise RuntimeError(
                        f"server exited with code {await process.wait()} before serving"
                    )
                banner = json.loads(line)
                if banner.get("op") == "serving":
                    return cls(process, int(banner["port"]))
        except BaseException:
            if process.returncode is None:
                process.kill()
            await process.wait()
            raise

    def cpu_s(self) -> float:
        """The server's user + system CPU seconds so far."""
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    async def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.process.returncode is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            await asyncio.wait_for(self.process.wait(), timeout=60)
        except asyncio.TimeoutError:
            self.process.kill()
            await self.process.wait()
        await self.process.stdout.read()


class SessionPool:
    """Session inputs for served workloads: trajectories cycle, seeds do not."""

    SIZE = 512

    def __init__(self, compiled, seed: int, horizon: int):
        rng = np.random.default_rng([seed, 2])
        self._base = int(rng.integers(2**40))
        self._trajectories = _trajectories(compiled, horizon, self.SIZE, rng)

    def session(self, k: int) -> tuple[str, int, list[int]]:
        """Session ``k``: id, seed, trajectory."""
        return f"s{k}", self._base + k, self._trajectories[k % self.SIZE]


class LoadLog:
    """Everything a served run observes from the client side."""

    def __init__(self):
        self.sessions: dict = {}  # sid -> gates.SessionTrace
        # (rung, latency from due s or None when shed, completion time)
        self.steps: list = []
        self.overheads: list = []  # client latency minus engine elapsed_s
        self.attempted = self.succeeded = self.shed = self.failed = 0
        self.releases = 0
        self.errors: list = []

    async def call(self, op):
        """Await one op: its reply, ``None`` if it failed; re-raises a shed."""
        self.attempted += 1
        try:
            reply = await op
        except OverloadedError:
            self.shed += 1
            raise
        except ReproError as error:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(error).__name__}: {error}")
            return None
        self.succeeded += 1
        return reply

    async def retrying(self, make_op):
        """Await an op, re-sending it after each shed's ``retry_after_ms``."""
        while True:
            try:
                return await self.call(make_op())
            except OverloadedError as error:
                await asyncio.sleep((error.retry_after_ms or 100) / 1e3)

    async def open(self, client, sid: str, seed: int) -> bool:
        if await self.retrying(lambda: client.open(sid, seed=seed)) is None:
            return False
        self.sessions[sid] = gates.SessionTrace(seed)
        return True

    def released(self, sid, cell, reply, sent, due, rung=None) -> None:
        now = time.perf_counter()
        self.releases += 1
        self.sessions[sid].add(cell, gates.release_of(reply))
        self.steps.append((rung, now - due, now))
        self.overheads.append(now - sent - reply["elapsed_s"])


class ClosedLoop:
    """64 users; each runs sessions back to back (open, 24 steps, finish)."""

    USERS = 64

    def __init__(self, pool: SessionPool, horizon: int):
        self.pool = pool
        self.horizon = horizon
        self.log = LoadLog()

    async def open_first(self, clients) -> None:
        await asyncio.gather(*(
            self.log.open(clients[u % len(clients)], *self.pool.session(u)[:2])
            for u in range(self.USERS)
        ))

    async def run(self, clients, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        await asyncio.gather(*(self._user(clients, u, deadline) for u in range(self.USERS)))

    async def _user(self, clients, user: int, deadline: float) -> None:
        client = clients[user % len(clients)]
        k = user
        # Users start at staggered points of their first trajectory, so
        # session churn is spread out instead of arriving in waves.
        skip = user * self.horizon // self.USERS
        while True:
            sid, _, trajectory = self.pool.session(k)
            for cell in trajectory[skip : self.horizon]:
                sent = time.perf_counter()
                reply = await self.log.retrying(lambda: client.step(sid, cell))
                if reply is not None:
                    self.log.released(sid, cell, reply, sent, sent)
                if time.perf_counter() >= deadline:
                    return
            await self.log.retrying(lambda: client.finish(sid))
            k += self.USERS
            skip = 0
            if not await self.log.open(client, *self.pool.session(k)[:2]):
                return


#: serve-open rungs: (name, offered steps/s, share of the run's seconds).
#: ``overload`` only feeds the shedding layer metrics, so it is short.
#: ``light`` (the gated latency) stays far below capacity: phases of CPU
#: steal on a shared 2-vCPU host push a busier rung into queueing.  Run
#: alternately in one such phase, its median swung 6-25 ms at 100/s and
#: 5-8 ms at 50/s.
RUNGS = (("light", 50.0, 0.45), ("busy", 250.0, 0.4), ("overload", 600.0, 0.1))

#: Unmeasured pause between rungs, as a share of the run's seconds.
RUNG_GAP = 0.025

#: Latency budget every open-loop step carries (server-side shedding).
DEADLINE_MS = 500

#: A rung is within the SLO at this p99 (and no failures, goodput >= 95%).
SLO_P99_MS = 100.0

#: Past this p99 lateness of the arrivals the load generator is not
#: keeping its schedule.  Latency runs from the due time, so lateness
#: inflates it rather than hiding queueing; the run is flagged, not
#: failed, since it is the host that stalls, not the program.
LATE_P99_MS = 10.0


def rung_windows(seconds: float) -> list[tuple[float, float]]:
    """(start, end) offsets of each rung for a run of ``seconds``."""
    windows, start = [], 0.0
    for _, _, share in RUNGS:
        windows.append((start, start + share * seconds))
        start += (share + RUNG_GAP) * seconds
    return windows


def open_loop_schedule(seed: int, seconds: float) -> list[tuple[float, int]]:
    """Poisson arrivals: (offset s from the run's start, rung index)."""
    rng = np.random.default_rng([seed, 3])
    schedule = []
    for index, ((_, rate, _), (start, end)) in enumerate(zip(RUNGS, rung_windows(seconds))):
        t = start + rng.exponential(1.0 / rate)
        while t < end:
            schedule.append((t, index))
            t += rng.exponential(1.0 / rate)
    return schedule


class _Slot:
    __slots__ = ("index", "k", "sent", "ready")

    def __init__(self, index: int):
        self.index = index
        self.k = None  # the pool session the slot runs
        self.sent = 0
        self.ready = False


class OpenLoop:
    """Poisson arrivals onto 128 session slots, sent regardless of replies.

    Each arrival goes to the next ready slot and is sent at once, so the
    steps of one session pipeline (the server runs them in order).  A
    slot that has sent 24 steps finishes its session and opens the next
    one, retrying a shed open after the server's ``retry_after_ms``.
    """

    SLOTS = 128

    def __init__(self, pool: SessionPool, horizon: int, schedule):
        self.pool = pool
        self.horizon = horizon
        self.schedule = schedule
        self.log = LoadLog()
        self.slots = [_Slot(i) for i in range(self.SLOTS)]
        self.next_session = 0
        self.late: list = []
        self._tasks: set = set()

    async def open_first(self, clients) -> None:
        await asyncio.gather(*(self._reopen(clients, slot) for slot in self.slots))

    async def _reopen(self, clients, slot: _Slot) -> None:
        client = clients[slot.index % len(clients)]
        # First sessions start at staggered trajectory points so slots
        # do not all reopen at once.
        skip = slot.index * self.horizon // self.SLOTS
        if slot.k is not None:
            sid = self.pool.session(slot.k)[0]
            await self.log.retrying(lambda: client.finish(sid))
            skip = 0
        k, self.next_session = self.next_session, self.next_session + 1
        if await self.log.open(client, *self.pool.session(k)[:2]):
            slot.k, slot.sent, slot.ready = k, skip, True

    def _spawn(self, coro) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def run(self, clients, start: float) -> None:
        cursor = 0
        for offset, rung in self.schedule:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.late.append(time.perf_counter() - due)
            for _ in range(self.SLOTS):
                slot = self.slots[cursor]
                cursor = (cursor + 1) % self.SLOTS
                if slot.ready:
                    break
            else:
                # Every slot waits on a shed open: the server is shedding
                # new sessions, so this arrival is shed with them.
                self.log.attempted += 1
                self.log.shed += 1
                self.log.steps.append((rung, None, time.perf_counter()))
                continue
            sid, _, trajectory = self.pool.session(slot.k)
            cell = trajectory[slot.sent]
            slot.sent += 1
            client = clients[slot.index % len(clients)]
            self._spawn(self._step(client, sid, cell, due, rung))
            if slot.sent == self.horizon:
                slot.ready = False
                self._spawn(self._reopen(clients, slot))
        while self._tasks:
            await asyncio.gather(*list(self._tasks))

    async def _step(self, client, sid, cell, due, rung) -> None:
        sent = time.perf_counter()
        try:
            reply = await self.log.call(client.step(sid, cell, deadline_ms=DEADLINE_MS))
        except OverloadedError:
            self.log.steps.append((rung, None, time.perf_counter()))
            return
        if reply is not None:
            self.log.released(sid, cell, reply, sent, due, rung)


class _Poller:
    """Polls ``stats`` once a second: sampled spans and the overload level."""

    def __init__(self, client):
        self.client = client
        self.spans: dict = {}
        self.overload_max = 0
        self.task = asyncio.get_running_loop().create_task(self._poll())

    async def _poll(self) -> None:
        while True:
            await asyncio.sleep(1.0)
            await self.sample()

    async def sample(self) -> dict:
        stats = await self.client.stats(spans=2000)
        self.overload_max = max(self.overload_max, stats["shedding"]["overload_level"])
        for span in stats.get("spans", {}).get("recent", []):
            self.spans[(span["trace"], span["span"])] = span
        return stats

    async def stop(self) -> dict:
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass
        return await self.sample()


class _Ticker:
    """Samples a served run every ``tick_s`` from ``start``.

    Each sample is (time, server CPU seconds, releases received);
    consecutive samples bound the run's intervals.  With ``toggle`` the
    ticker also switches the traced server's wrappers on for odd and off
    for even intervals, so traced and untraced slices of one server
    process alternate, free of process-to-process noise.
    """

    def __init__(self, server: ServerProcess, log: LoadLog, start: float,
                 tick_s: float, toggle: bool):
        self.server = server
        self.log = log
        self.tick_s = tick_s
        self.toggle = toggle
        self.ticks: list = []
        self.task = asyncio.get_running_loop().create_task(self._run(start))

    def _sample(self) -> None:
        self.ticks.append((time.perf_counter(), self.server.cpu_s(), self.log.releases))

    async def _run(self, start: float) -> None:
        k = 0
        while True:
            await asyncio.sleep(max(0.0, start + k * self.tick_s - time.perf_counter()))
            self._sample()
            if self.toggle and k:
                self.server.process.send_signal(signal.SIGUSR1 if k % 2 else signal.SIGUSR2)
            k += 1

    async def stop(self) -> None:
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass
        self._sample()

    def windows(self) -> list[tuple]:
        """(start, end, server CPU s, releases, traced) per whole interval.

        A closing interval shorter than half a tick is left out.
        """
        out = []
        for index, (a, b) in enumerate(zip(self.ticks, self.ticks[1:])):
            if b[0] - a[0] >= self.tick_s / 2:
                out.append((a[0], b[0], b[1] - a[1], b[2] - a[2], self.toggle and index % 2 == 1))
        return out


@dataclass
class _Phase:
    """One served measurement: a server, its load and what came back."""

    driver: object
    setups: list
    start: float  # perf_counter at the measured window's start
    window_s: float
    server_cpu_s: float
    client_cpu_s: float
    stats0: dict
    stats1: dict
    ticker: _Ticker
    poller: _Poller | None = None
    totals: dict | None = None


async def _stop(server: ServerProcess, clients: list) -> None:
    for client in clients:
        await client.close()
    await server.stop()


async def _set_up(workload: ServedWorkload, driver, totals_path: Path | None):
    """Server start to banner, connections and first opens: (server, clients, s)."""
    started = time.perf_counter()
    server = await ServerProcess.start(workload.flags(), totals_path)
    clients = []
    try:
        for _ in range(CONNECTIONS):
            clients.append(await AsyncServiceClient.connect("127.0.0.1", server.port))
        await driver.open_first(clients)
    except BaseException:
        await _stop(server, clients)
        raise
    return server, clients, time.perf_counter() - started


async def _served_phase(workload: ServedWorkload, compiled, seed: int, seconds: float,
                        setups: int, totals_path: Path | None) -> _Phase:
    """Set the server up ``setups`` times, keeping the last, then load it.

    With ``totals_path`` the server is ``traced_serve.py``: its wrappers
    alternate on and off during the run and it writes its layer totals
    there when it stops.
    """
    pool = SessionPool(compiled, seed, workload.horizon)

    def new_driver():
        if workload.open_loop:
            return OpenLoop(pool, workload.horizon, open_loop_schedule(seed, seconds))
        return ClosedLoop(pool, workload.horizon)

    setup_s = []
    for _ in range(setups - 1):
        server, clients, elapsed = await _set_up(workload, new_driver(), totals_path)
        setup_s.append(elapsed)
        await _stop(server, clients)
    driver = new_driver()
    server, clients, elapsed = await _set_up(workload, driver, totals_path)
    setup_s.append(elapsed)
    traced = totals_path is not None
    poller = None
    try:
        stats0 = await clients[0].stats()
        if traced:
            poller = _Poller(clients[0])
        cpu0, client0 = server.cpu_s(), time.process_time()
        start = time.perf_counter() + 0.05
        ticker = _Ticker(server, driver.log, start, 0.5 if traced else 1.0, traced)
        if workload.open_loop:
            await driver.run(clients, start)
        else:
            await asyncio.sleep(start - time.perf_counter())
            await driver.run(clients, seconds)
        window = time.perf_counter() - start
        cpu1, client1 = server.cpu_s(), time.process_time()
        await ticker.stop()
        stats1 = await (poller.stop() if poller is not None else clients[0].stats())
    finally:
        await _stop(server, clients)
    phase = _Phase(driver, setup_s, start, window, cpu1 - cpu0, client1 - client0,
                   stats0, stats1, ticker, poller)
    if traced:
        phase.totals = json.loads(totals_path.read_text())
    return phase


def _served_metrics(result: Result, workload: ServedWorkload, phase: _Phase, seconds: float) -> None:
    """End-to-end metrics over the untraced intervals (the open loop's per rung, too)."""
    log = phase.driver.log
    result.put("setup_s", statistics.median(phase.setups), "s")
    result.put("service.overhead_p50_ms", _pct(log.overheads, 50) * 1e3, "ms")
    result.put("service.cpu_ms_per_op", phase.server_cpu_s / log.attempted * 1e3, "ms")
    result.put("service.loop_lag_max_ms", phase.stats1["event_loop"]["max_ms"], "ms")
    result.put("loadgen.cpu_share", phase.client_cpu_s / phase.window_s, "ratio")
    cache0, cache1 = phase.stats0["verdict_cache"], phase.stats1["verdict_cache"]
    hits, misses = (cache1[key] - cache0[key] for key in ("hits", "misses"))
    _cache_mix(result, hits, misses, log.releases)
    done = sorted((end, latency) for _, latency, end in log.steps if latency is not None)
    ends = [end for end, _ in done]

    def completed(a: float, b: float) -> list:
        """Latencies of steps answered in [a, b)."""
        return [latency for _, latency in done[bisect.bisect_left(ends, a):bisect.bisect_left(ends, b)]]

    windows = [w for w in phase.ticker.windows() if not w[4]]
    if not workload.open_loop:
        _interval_metrics(result, [
            _Interval(b - a, cpu, releases, completed(a, b)) for a, b, cpu, releases, _ in windows
        ])
        return

    driver: OpenLoop = phase.driver
    result.put("loadgen.late_p99_ms", _pct(driver.late, 99) * 1e3, "ms")
    best = 0.0
    for index, ((name, rate, _), (lo, hi)) in enumerate(zip(RUNGS, rung_windows(seconds))):
        offered = sum(1 for _, rung in driver.schedule if rung == index)
        outcomes = [latency for rung, latency, _ in log.steps if rung == index]
        served = [latency for latency in outcomes if latency is not None]
        good = sum(1 for latency in served if latency * 1e3 <= DEADLINE_MS)
        p99 = _pct(served, 99) * 1e3
        result.put(f"{name}.offered_per_s", offered / (hi - lo), "1/s")
        result.put(f"{name}.goodput_per_s", good / (hi - lo), "1/s")
        result.put(f"{name}.throughput_per_s",
                   len(completed(phase.start + lo, phase.start + hi)) / (hi - lo), "1/s")
        result.put(f"{name}.p50_ms", _pct(served, 50) * 1e3, "ms")
        result.put(f"{name}.p90_ms", _pct(served, 90) * 1e3, "ms")
        result.put(f"{name}.p99_ms", p99, "ms")
        result.put(f"{name}.shed", len(outcomes) - len(served), "count")
        if p99 <= SLO_P99_MS and len(outcomes) == offered and good >= 0.95 * offered:
            best = max(best, rate)
        if name == "light":
            # Below capacity a step's latency from its due time is mostly
            # its service time, which is what the server controls; the
            # busy rung's queueing swings with the box's speed.
            _latencies(result, served)
    result.put("max_rate_in_slo_per_s", best, "1/s")
    # Server CPU per step over the windows inside the light and busy
    # rungs (overload adds the cost of shedding).
    steady = [
        w for w in windows
        if any(lo <= w[0] - phase.start + 0.05 and w[1] - phase.start - 0.05 <= hi
               for lo, hi in rung_windows(seconds)[:2])
    ] or windows
    _cpu_per_release(result, [_Interval(b - a, cpu, releases, []) for a, b, cpu, releases, _ in steady])


def _service_layers(result: Result, phase: _Phase) -> None:
    """Per-layer metrics of a traced run: wrapper totals + server spans.

    The server's own spans split a step request into ``queue_wait``,
    ``solve`` and ``serialize``; the wrappers split the engine inside
    ``solve``.  Both are averaged per step, so the table adds up to the
    mean ``request`` span.
    """
    spans = list(phase.poller.spans.values())

    def mean_ms(name: str) -> float:
        values = [
            span["ms"] for span in spans
            if span["name"] == name and span.get("op", "step") == "step"
        ]
        return statistics.fmean(values) if values else 0.0

    log = phase.driver.log
    windows = phase.ticker.windows()
    cpu_t, releases_t, cpu_u, releases_u = (
        sum(w[index] for w in windows if w[4] is traced)
        for traced in (True, False) for index in (2, 3)
    )
    request = mean_ms("request")
    rows, step_ms = _layer_metrics(result, phase.totals, request)
    served_rows = []
    for name in ("queue_wait", "serialize"):
        value = mean_ms(name)
        share = _ratio(value, request)
        result.put(f"service.{name}.ms", value, "ms")
        result.put(f"service.{name}.share", share, "ratio")
        served_rows.append({"layer": f"service.{name}", "calls": 1.0, "ms": value,
                            "cpu_ms": None, "share": share})
    result.put("service.request.ms", request, "ms")
    result.put("service.span_samples", len(spans), "count")
    unattributed = request - step_ms - sum(row["ms"] for row in served_rows)
    result.put("service.unattributed.share", _ratio(unattributed, request), "ratio")
    _close_table(result, served_rows + rows, unattributed, request)
    result.put("service.shed_share", _ratio(log.shed, log.attempted), "ratio")
    result.put("service.overload_level_max", phase.poller.overload_max, "count")
    solver0, solver1 = phase.stats0["solver"], phase.stats1["solver"]
    _solver_mix(result, solver0["kernel"], solver1["kernel"], solver0["front"], solver1["front"])
    result.put("trace.overhead", (cpu_u / releases_u) / (cpu_t / releases_t), "ratio")
    result.put("trace.slices", len(windows), "count")
    result.spans = phase.totals["spans"]


def run_served(workload: ServedWorkload, seed: int, seconds: float, scale: Scale,
               trace: bool, scratch: Path) -> Result:
    """Load one ``repro serve`` process; traced runs toggle its wrappers."""
    compiled = workload.spec().compile()
    totals_path = scratch / f"{workload.name}-layers.json" if trace else None
    phase = asyncio.run(_served_phase(
        workload, compiled, seed, seconds, 1 if trace else scale.served_setups, totals_path
    ))
    result = Result()
    _served_metrics(result, workload, phase, seconds)
    if trace and _has_traced_releases(result, phase.totals):
        _service_layers(result, phase)
    log = phase.driver.log
    result.attempted, result.succeeded = log.attempted, log.succeeded
    result.shed, result.failed = log.shed, log.failed
    result.problems += log.errors
    _outputs(result, compiled, log.sessions)
    if workload.open_loop and result.value("loadgen.late_p99_ms") > LATE_P99_MS:
        result.warnings.append(
            f"load generator ran late: p99 {result.value('loadgen.late_p99_ms'):.1f} ms "
            f"> {LATE_P99_MS:g} ms; latencies include it"
        )
    _gates(result, compiled, log.sessions, SessionManager(workload.spec()), scale.gate_sessions, seed)
    return result


def run(name: str, seed: int, seconds: float, scale: Scale, trace: bool, scratch: Path) -> Result:
    """Run one workload by name."""
    workload = WORKLOADS[name]
    if isinstance(workload, EngineWorkload):
        return run_engine(workload, seed, seconds, scale, trace)
    return run_served(workload, seed, seconds, scale, trace, scratch)

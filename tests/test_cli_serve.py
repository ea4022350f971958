"""`repro serve` as a real OS process: announce, serve, drain on SIGINT."""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.cluster import HashRing
from repro.errors import SessionError
from repro.scenario import ChainSpec, EventSpec, GridSpec, MechanismSpec, ScenarioSpec
from repro.service import ServiceClient

from topology import strip_elapsed

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


ENGINE_FLAGS = [
    "--rows", "4", "--cols", "4", "--horizon", "6", "--event-window", "2", "4",
]


def repro_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def start_serve(tmp_path, *extra):
    """``repro serve`` on an ephemeral port with a directory store."""
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            *ENGINE_FLAGS,
            "--store", "dir", "--store-path", str(tmp_path / "sessions"),
            *extra,
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=repro_env(),
    )


def stop(proc, sig=signal.SIGINT):
    """Send ``sig`` and collect ``proc``'s output; a drain that hangs is
    killed, so the test fails instead of leaking the process."""
    proc.send_signal(sig)
    try:
        return proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise


@pytest.fixture
def spawn_workers():
    """Starts standalone ``repro worker`` processes, one per argument
    (that worker's extra flags), and returns ``{tcp address: process}``.
    They are children of the test, not of the server, so no parent
    watchdog stops them: teardown kills every one."""
    procs = []

    def spawn(*flags):
        started = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "worker",
                    "--listen", "127.0.0.1:0", *ENGINE_FLAGS, *extra,
                ],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                env=repro_env(),
            )
            for extra in flags
        ]
        procs.extend(started)
        return {
            f"tcp://127.0.0.1:{json.loads(proc.stdout.readline())['port']}": proc
            for proc in started
        }

    yield spawn
    for proc in procs:
        proc.kill()
        proc.communicate(timeout=10)


def repro_cluster(address: str, *args) -> dict:
    """One ``repro cluster ADDR ...`` invocation's JSON reply."""
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "cluster", address, *args],
        capture_output=True, text=True, env=repro_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def readyz(metrics_port: int) -> int:
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{metrics_port}/readyz", timeout=10
        ) as response:
            return response.status
    except urllib.error.HTTPError as error:
        return error.code


#: An inline tenant scenario on the same 4x4 map, at another epsilon.
TENANT = ScenarioSpec(
    grid=GridSpec(rows=4, cols=4),
    chain=ChainSpec.gaussian(sigma=1.0),
    events=(EventSpec.presence_range(0, 5, start=2, end=4),),
    mechanism=MechanismSpec("planar_laplace", {"alpha": 0.5}),
    epsilon=0.8,
    horizon=6,
)


def wait_ready(metrics_port: int, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while readyz(metrics_port) != 200:
        assert time.monotonic() < deadline, "readyz never returned to 200"
        time.sleep(0.1)


def reference_streams(names, cells, scenarios=None) -> dict:
    """The streams an in-process manager with the served engine flags
    releases, session ``i`` seeded ``i`` (on ``scenarios[name]`` if set)."""
    import argparse

    from repro import cli

    parser = argparse.ArgumentParser()
    cli._add_engine_flags(parser)
    reference = cli._stream_manager(parser.parse_args(ENGINE_FLAGS))
    for i, name in enumerate(names):
        reference.open(name, rng=i, scenario=(scenarios or {}).get(name))
    return {
        name: [strip_elapsed(reference.step(name, c).to_json()) for c in cells[name]]
        for name in names
    }


@pytest.fixture
def serve_process(tmp_path):
    proc = start_serve(tmp_path)
    try:
        banner = json.loads(proc.stdout.readline())
        assert banner["op"] == "serving"
        yield proc, banner
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)


class TestServeProcess:
    def test_serve_announce_drive_and_drain(self, serve_process, tmp_path):
        proc, banner = serve_process
        with ServiceClient("127.0.0.1", banner["port"]) as client:
            for i in range(5):
                client.open(f"u{i}", seed=i)
            for t in range(3):
                for i in range(5):
                    record = client.step(f"u{i}", (t + i) % 16)
                    assert record["t"] == t + 1
            client.finish("u4")
            with pytest.raises(SessionError):
                client.step("u4", 0)
            stats = client.stats()
            assert stats["sessions"]["open"] == 4
            assert stats["step_latency"]["count"] == 15

        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        drained = json.loads(out.strip().splitlines()[-1])
        assert drained["op"] == "drained"
        assert drained["sessions_checkpointed"] == 4
        # the open sessions really were parked on disk
        assert len(list((tmp_path / "sessions").glob("*.json"))) == 4

    def test_second_instance_resumes_from_store(self, serve_process, tmp_path):
        proc, banner = serve_process
        with ServiceClient("127.0.0.1", banner["port"]) as client:
            client.open("carry", seed=1)
            first = client.step("carry", 3)
        proc.send_signal(signal.SIGINT)
        proc.communicate(timeout=30)
        assert proc.returncode == 0

        proc2 = start_serve(tmp_path)
        try:
            banner2 = json.loads(proc2.stdout.readline())
            with ServiceClient("127.0.0.1", banner2["port"]) as client:
                record = client.step("carry", 5)  # adopted, no open needed
                assert record["t"] == first["t"] + 1
        finally:
            stop(proc2)
            assert proc2.returncode == 0


def process_alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie awaiting its reaper counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


def processes_mentioning(marker: str) -> list[int]:
    """Pids whose command line contains ``marker`` (forked workers
    inherit their parent's command line)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().decode(errors="replace")
        except OSError:
            continue
        if marker in cmdline and process_alive(int(entry)):
            pids.append(int(entry))
    return pids


class TestShardedServeProcess:
    def test_sharded_serve_per_shard_stats_and_drain(self, tmp_path):
        """``--shards 2``: real worker processes, per-worker counters."""
        proc = start_serve(tmp_path, "--shards", "2")
        try:
            banner = json.loads(proc.stdout.readline())
            assert banner["op"] == "serving"
            assert banner["shards"] == 2
            assert banner["cluster_workers"] == 2
            with ServiceClient("127.0.0.1", banner["port"]) as client:
                for i in range(6):
                    client.open(f"u{i}", seed=i)
                for t in range(3):
                    for i in range(6):
                        record = client.step(f"u{i}", (t + i) % 16)
                        assert record["t"] == t + 1
                stats = client.stats()
                assert stats["server"]["shards"] == 2
                shards = stats["shards"]
                assert shards["count"] == 2 and shards["alive"] == 2
                assert (
                    sum(
                        r["metrics"]["requests"].get("step", 0)
                        for r in shards["per_shard"]
                    )
                    == 18
                )
                assert shards["aggregate"]["step_latency"]["count"] == 18
                # --shards answers the cluster ops: drain one worker live
                first = shards["per_shard"][0]
                summary = client.migrate(first["worker"])
                assert summary["migrated"] == first["sessions"]
                for i in range(6):
                    assert client.step(f"u{i}", i)["t"] == 4
        finally:
            out, err = stop(proc)
            assert proc.returncode == 0, err
        drained = json.loads(out.strip().splitlines()[-1])
        assert drained["op"] == "drained"
        assert drained["sessions_checkpointed"] == 6
        assert drained["sessions_lost"] == 0
        # all six sessions really were parked on disk, through the workers
        assert len(list((tmp_path / "sessions").glob("*.json"))) == 6

    def test_killed_worker_recovers_bit_identically(self, tmp_path):
        """SIGKILL a ``--shards`` worker mid-stream: checkpoint-replay
        recovery continues every stream exactly, losing nothing."""
        names = [f"u{i}" for i in range(6)]
        cells = {name: [(t + i) % 16 for t in range(6)] for i, name in enumerate(names)}
        expected = reference_streams(names, cells)

        proc = start_serve(tmp_path, "--shards", "2", "--checkpoint-every", "2")
        try:
            banner = json.loads(proc.stdout.readline())
            with ServiceClient("127.0.0.1", banner["port"]) as client:
                for i, name in enumerate(names):
                    client.open(name, seed=i)
                streams = {name: [] for name in names}
                for t in range(6):
                    if t == 3:
                        workers = client.cluster_status()["workers"]
                        victim = max(workers, key=lambda row: row["sessions"])
                        os.kill(victim["pid"], signal.SIGKILL)
                    for name in names:
                        streams[name].append(
                            strip_elapsed(client.step(name, cells[name][t]))
                        )
                status = client.cluster_status()
            assert streams == expected
            recovery = status["recovery"]
            assert recovery["sessions_lost"] == 0
            assert recovery["sessions_recovered"] == victim["sessions"]
        finally:
            out, err = stop(proc, signal.SIGTERM)
            assert proc.returncode == 0, err
        assert json.loads(out.strip().splitlines()[-1])["sessions_lost"] == 0

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_no_worker_outlives_its_server(self, tmp_path):
        """Neither a SIGTERM drain, a SIGKILLed server nor a failing
        factory leaves a spawned worker process running."""
        for sig, code in ((signal.SIGTERM, 0), (signal.SIGKILL, -signal.SIGKILL)):
            proc = start_serve(tmp_path, "--shards", "2")
            try:
                banner = json.loads(proc.stdout.readline())
                with ServiceClient("127.0.0.1", banner["port"]) as client:
                    workers = client.cluster_status()["workers"]
                pids = [row["pid"] for row in workers]
                assert len(pids) == 2 and all(map(process_alive, pids))
            finally:
                _, err = stop(proc, sig)
            assert proc.returncode == code, err
            # orphans notice their parent is gone within a second or so
            deadline = time.monotonic() + 10.0
            while any(map(process_alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not [pid for pid in pids if process_alive(pid)], sig

        # An event region past the 4x4 map fails inside every worker.
        failing = tmp_path / "failing"
        proc = start_serve(failing, "--shards", "2", "--event-cells", "0", "99")
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert "cluster worker failed to start" in err
        assert processes_mentioning(str(failing / "sessions")) == []


class TestClusterProcess:
    def test_standby_and_cluster_cli_repair_over_tcp_workers(
        self, tmp_path, spawn_workers
    ):
        """``repro serve --backend ... --standby ...`` over real ``repro
        worker`` processes, half the fleet on a ``--scenario`` file's spec:
        a killed member is replaced by the standby, a second death is
        repaired with ``repro cluster ADDR status|leave|join``, a live
        member is drained, and every stream stays bit-identical to
        in-process."""
        names = [f"u{i}" for i in range(6)]
        cells = {name: [(t + i) % 16 for t in range(6)] for i, name in enumerate(names)}
        scenarios = {name: TENANT if i % 2 else None for i, name in enumerate(names)}
        expected = reference_streams(names, cells, scenarios)
        tenant_file = tmp_path / "tenant.json"
        tenant_file.write_text(json.dumps(TENANT.to_json()))
        pids = {
            address: worker.pid
            for address, worker in spawn_workers([], [], [], []).items()
        }
        first, second, standby, fresh = pids
        proc = start_serve(
            tmp_path, "--backend", f"{first},{second}", "--standby", standby,
            "--scenario", str(tenant_file), "--checkpoint-every", "1",
            "--metrics-port", "0",
        )
        try:
            banner = json.loads(proc.stdout.readline())
            assert banner["standbys"] == 1
            address = f"127.0.0.1:{banner['port']}"
            streams = {name: [] for name in names}

            def wave(client, t):
                for name in names:
                    streams[name].append(strip_elapsed(client.step(name, cells[name][t])))

            def kill_busiest(client):
                """SIGKILL the member holding the most (so at least 3) sessions:
                the next wave's RPCs to it fail, which starts recovery."""
                rows = client.cluster_status()["workers"]
                victim = max(rows, key=lambda row: row["sessions"])["worker"]
                os.kill(pids[victim], signal.SIGKILL)
                return victim

            status = repro_cluster(address, "status")
            assert [(w["worker"], w["pid"], w["alive"]) for w in status["workers"]] == [
                (first, pids[first], True), (second, pids[second], True),
            ]
            assert [row["worker"] for row in status["standbys"]] == [standby]
            with ServiceClient("127.0.0.1", banner["port"], timeout=60.0) as client:
                for i, name in enumerate(names):
                    spec = scenarios[name]
                    client.open(name, seed=i, scenario=spec and spec.to_json())
                wave(client, 0)
                wave(client, 1)
                # a dead member heals onto the standby, which joins the fleet
                kill_busiest(client)
                wave(client, 2)
                recovery = client.stats()["recovery"]
                assert recovery["standby_promotions"] == 1
                assert recovery["standbys_pooled"] == 0
                wait_ready(banner["metrics_port"])
                # no standby left: the next corpse stays visible, unready
                corpse = kill_busiest(client)
                wave(client, 3)
                assert readyz(banner["metrics_port"]) == 503
                left = repro_cluster(address, "leave", corpse)
                assert left["lost"] == []
                joined = repro_cluster(address, "join", fresh)
                assert len(joined["workers"]) == 2 and fresh in joined["workers"]
                wait_ready(banner["metrics_port"])
                wave(client, 4)
                # drain a live member: its sessions move, none is dropped
                on_fresh = {w["worker"]: w["sessions"] for w in client.cluster_status()["workers"]}
                moved = client.migrate(fresh)
                assert moved["migrated"] == on_fresh[fresh]
                wave(client, 5)
                status = client.cluster_status()
                for name in names:
                    client.finish(name)
                stats = client.stats()
            assert streams == expected
            assert status["recovery"]["sessions_lost"] == 0
            tenant = stats["scenarios"]["counters"][TENANT.digest()]
            assert (tenant["opened"], tenant["steps"]) == (3, 18)
            sessions = stats["sessions"]
            assert sessions["finished"] == len(names)
            assert sessions["migrated"] == sum(
                summary["migrated"] for summary in (left, joined, moved)
            )
            with urllib.request.urlopen(
                f"http://127.0.0.1:{banner['metrics_port']}/metrics", timeout=10
            ) as response:
                samples = dict(
                    line.rsplit(" ", 1) for line in response.read().decode().splitlines()
                    if line and not line.startswith("#")
                )
            assert float(samples['repro_recoveries_total{kind="worker"}']) >= 2
            assert float(samples['repro_recoveries_total{kind="session"}']) >= 1
            assert float(samples["repro_standby_promotions_total"]) == 1
            assert float(samples['repro_failures_total{kind="sessions_lost"}']) == 0
        finally:
            out, err = stop(proc)
        assert proc.returncode == 0, err
        drained = json.loads(out.strip().splitlines()[-1])
        assert drained["op"] == "drained"
        assert drained["sessions_lost"] == 0

    def test_armed_member_dies_at_its_step_and_heals(self, tmp_path, spawn_workers):
        """``repro worker --fault-plan FILE`` dies before acknowledging its
        5th step (exit 137): its sessions heal onto the other member and
        the standby replaces it.  One of them runs a spec no
        ``--scenario`` file allowlists (``--allow-any-scenario``), and the
        router's ``--workers`` and shedding flags reach its stats."""
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"kill_at_step": 5}))
        fleet = spawn_workers(["--fault-plan", str(plan)], [], [])
        armed, other, standby = fleet
        # Placement is a pure function of the member addresses: pick two
        # sessions the armed member owns and one the other member owns,
        # so its 5th step is the first of wave 2.
        ring = HashRing([armed, other])
        candidates = [f"s{i}" for i in range(64)]
        names = [n for n in candidates if ring.owner(n) == armed][:2]
        names.append(next(n for n in candidates if ring.owner(n) == other))
        cells = {name: [(3 * t + i) % 16 for t in range(4)] for i, name in enumerate(names)}
        scenarios = {names[0]: TENANT}
        expected = reference_streams(names, cells, scenarios)
        proc = start_serve(
            tmp_path, "--backend", f"{armed},{other}", "--standby", standby,
            "--checkpoint-every", "1", "--allow-any-scenario", "--workers", "1",
            "--shed-target-ms", "250", "--shed-interval-ms", "4000",
        )
        try:
            banner = json.loads(proc.stdout.readline())
            assert banner["allow_any_scenario"] is True
            streams = {name: [] for name in names}
            with ServiceClient("127.0.0.1", banner["port"], timeout=60.0) as client:
                for i, name in enumerate(names):
                    spec = scenarios.get(name)
                    client.open(name, seed=i, scenario=spec and spec.to_json())
                placed = {w["worker"]: w["sessions"] for w in client.cluster_status()["workers"]}
                assert placed == {armed: 2, other: 1}
                for t in range(4):
                    for name in names:
                        streams[name].append(
                            strip_elapsed(client.step(name, cells[name][t]))
                        )
                stats = client.stats()
            assert fleet[armed].wait(timeout=10) == 137
        finally:
            out, err = stop(proc)
        assert proc.returncode == 0, err
        assert streams == expected
        recovery = stats["recovery"]
        assert recovery["sessions_recovered"] == 2
        assert recovery["standby_promotions"] == 1
        assert recovery["sessions_lost"] == 0
        assert stats["scenarios"]["counters"][TENANT.digest()]["opened"] == 1
        assert stats["server"]["workers"] == 1
        shedding = stats["shedding"]
        assert (shedding["target_ms"], shedding["interval_ms"]) == (250, 4000)
        assert json.loads(out.strip().splitlines()[-1])["sessions_lost"] == 0

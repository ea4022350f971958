"""`repro serve` as a real OS process: announce, serve, drain on SIGINT."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import SessionError
from repro.service import ServiceClient

from topology import strip_elapsed

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


ENGINE_FLAGS = [
    "--rows", "4", "--cols", "4", "--horizon", "6", "--event-window", "2", "4",
]


def start_serve(tmp_path, *extra):
    """``repro serve`` on an ephemeral port with a directory store."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            *ENGINE_FLAGS,
            "--store", "dir", "--store-path", str(tmp_path / "sessions"),
            *extra,
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )


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
            proc2.send_signal(signal.SIGINT)
            proc2.communicate(timeout=30)
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
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
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
        import argparse

        from repro import cli

        parser = argparse.ArgumentParser()
        cli._add_engine_flags(parser)
        reference = cli._stream_manager(parser.parse_args(ENGINE_FLAGS))
        names = [f"u{i}" for i in range(6)]
        cells = {name: [(t + i) % 16 for t in range(6)] for i, name in enumerate(names)}
        for i, name in enumerate(names):
            reference.open(name, rng=i)
        expected = {
            name: [strip_elapsed(reference.step(name, c).to_json()) for c in cells[name]]
            for name in names
        }

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
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err
        assert json.loads(out.strip().splitlines()[-1])["sessions_lost"] == 0

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_no_worker_outlives_its_server(self, tmp_path):
        """Neither a SIGTERM drain, a SIGKILLed server nor a failing
        factory leaves a spawned worker process running."""
        for stop, code in ((signal.SIGTERM, 0), (signal.SIGKILL, -signal.SIGKILL)):
            proc = start_serve(tmp_path, "--shards", "2")
            try:
                banner = json.loads(proc.stdout.readline())
                with ServiceClient("127.0.0.1", banner["port"]) as client:
                    workers = client.cluster_status()["workers"]
                pids = [row["pid"] for row in workers]
                assert len(pids) == 2 and all(map(process_alive, pids))
            finally:
                proc.send_signal(stop)
                _, err = proc.communicate(timeout=30)
            assert proc.returncode == code, err
            # orphans notice their parent is gone within a second or so
            deadline = time.monotonic() + 10.0
            while any(map(process_alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not [pid for pid in pids if process_alive(pid)], stop

        # An event region past the 4x4 map fails inside every worker.
        failing = tmp_path / "failing"
        proc = start_serve(failing, "--shards", "2", "--event-cells", "0", "99")
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert "cluster worker failed to start" in err
        assert processes_mentioning(str(failing / "sessions")) == []

"""``repro stats`` / ``repro top``: one-shot JSON and the live screen."""

import io
import json
import os
import signal
import subprocess
import sys
import urllib.request

import pytest

from repro.obs.top import render_screen

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _sharded_stats(step_count=120, shard0_alive=True):
    """A canned ``stats`` payload shaped like a 2-shard server's."""
    per_shard = [
        {
            "shard": 0,
            "alive": shard0_alive,
            "sessions": 3,
            "lost_sessions": 0 if shard0_alive else 3,
            "health": {
                "alive": shard0_alive,
                "inflight": 1,
                "heartbeat_age_s": 0.4,
                "rpc_latency": {"count": 60, "p99_ms": 2.5},
            },
        },
        {
            "shard": 1,
            "alive": True,
            "sessions": 2,
            "health": {
                "alive": True,
                "inflight": 0,
                "heartbeat_age_s": 1.1,
                "rpc_latency": {"count": 60, "p99_ms": 3.0},
            },
        },
    ]
    return {
        "server": {"connections": 2, "workers": 4, "shards": 2, "draining": False},
        "sessions": {"open": 5, "resident": 5, "stored": 0, "evicted": 0, "restored": 0},
        "requests": {"step": step_count, "open": 5},
        "errors": {},
        "failures": {"sessions_lost": 0, "worker_down": 0, "shard_down": 0},
        "step_latency": {
            "count": step_count,
            "p50_ms": 1.0,
            "p95_ms": 2.0,
            "p99_ms": 3.0,
            "max_ms": 4.0,
        },
        "event_loop": {"current_ms": 0.1, "max_ms": 0.9},
        "tracing": {"count": step_count * 4, "slow_count": 1, "slow_threshold_ms": 1000.0},
        "shards": {"count": 2, "alive": 1 + int(shard0_alive), "per_shard": per_shard},
    }


class TestRenderScreen:
    def test_frame_summarizes_a_sharded_server(self):
        frame = render_screen(_sharded_stats(), None, 0.0, "127.0.0.1:9")
        assert "repro top — 127.0.0.1:9" in frame
        assert "serving" in frame
        assert "open=5" in frame
        assert "p99=    3.00ms" in frame
        assert "shards: 2/2 alive" in frame
        assert "rpc_p99=" in frame and "hb_age=" in frame
        assert "spans=480" in frame

    def test_rates_derive_from_successive_snapshots(self):
        before = _sharded_stats(step_count=100)
        now = _sharded_stats(step_count=160)
        frame = render_screen(now, before, 2.0, "a:1")
        assert "steps/s=    30.0" in frame
        # first frame (no prior snapshot) shows zero rates, not garbage
        first = render_screen(now, None, 0.0, "a:1")
        assert "steps/s=     0.0" in first

    def test_dead_shard_row_is_loud(self):
        frame = render_screen(
            _sharded_stats(shard0_alive=False), None, 0.0, "a:1"
        )
        assert "shards: 1/2 alive" in frame
        assert "DOWN  lost_sessions=3" in frame

    def test_in_process_backend_row(self):
        stats = _sharded_stats()
        stats["shards"] = None
        frame = render_screen(stats, None, 0.0, "a:1")
        assert "in-process (no shard workers)" in frame


class TestCliStatsAndTop:
    @pytest.fixture
    def serve_process(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--rows", "4", "--cols", "4", "--horizon", "6",
                "--event-window", "2", "4", "--metrics-port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = json.loads(proc.stdout.readline())
            assert banner["op"] == "serving"
            yield proc, banner, env
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                proc.communicate(timeout=30)

    def _run(self, env, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )

    def test_stats_top_and_metrics_against_one_server(self, serve_process):
        proc, banner, env = serve_process
        address = f"127.0.0.1:{banner['port']}"

        # the banner announces the ephemeral metrics port
        assert banner["metrics_port"] not in (None, 0)

        from repro.service import ServiceClient

        with ServiceClient("127.0.0.1", banner["port"]) as client:
            client.open("u0", seed=0)
            for t in range(3):
                client.step("u0", t)

        # repro stats: one pretty-printed JSON document
        result = self._run(env, "stats", address)
        assert result.returncode == 0, result.stderr
        stats = json.loads(result.stdout)
        assert stats["requests"]["step"] == 3
        assert stats["tracing"]["enabled"] is True
        assert "spans" not in stats

        # --spans pulls the recent span buffer
        result = self._run(env, "stats", address, "--spans", "50")
        assert result.returncode == 0, result.stderr
        spans = json.loads(result.stdout)["spans"]["recent"]
        assert any(s["name"] == "solve" for s in spans)

        # repro top: two non-TTY frames, rates between them
        result = self._run(
            env, "top", address, "--iterations", "2", "--interval", "0.05"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.count("repro top —") == 2
        assert "sessions  open=1" in result.stdout
        assert "steps/s=" in result.stdout

        # the serve process's /metrics agrees with the stats op
        with urllib.request.urlopen(
            f"http://127.0.0.1:{banner['metrics_port']}/metrics", timeout=10
        ) as response:
            text = response.read().decode()
        assert 'repro_requests_total{op="step"} 3' in text
        spans_total = next(
            line for line in text.splitlines() if line.startswith("repro_spans_total ")
        )
        assert float(spans_total.split()[-1]) > 0
        types = [line.split()[2] for line in text.splitlines() if line.startswith("# TYPE ")]
        assert len(types) == len(set(types)), types

    def test_stats_against_nothing_fails_cleanly(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        result = self._run(env, "stats", "127.0.0.1:1")
        assert result.returncode == 1
        assert result.stderr.strip()

    @pytest.mark.parametrize(
        "argv",
        [
            ("stats", "localhost"),  # no port
            ("stats", "127.0.0.1:9", "--spans", "-1"),
            ("top", "127.0.0.1:9", "--interval", "0"),
        ],
    )
    def test_bad_arguments_rejected(self, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        result = self._run(env, *argv)
        assert result.returncode != 0

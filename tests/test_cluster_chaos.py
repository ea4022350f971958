"""Deterministic fault injection: plans, injectors, armed workers.

The chaos layer's contract: a :class:`FaultPlan` is strict JSON (typos
fail loudly, never vacuously pass a drill), a :class:`FaultInjector`
counts steps *before* execution (a worker killed "at step N" never
acknowledges step N), and an armed worker misbehaves exactly as
scripted -- kill, hang, heartbeat blackhole, seeded delays -- while a
SIGTERM drain announces an orderly ``leave``.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cluster.backend import ClusterBackend, WorkerHandle
from repro.cluster.chaos import ChaosChannel, FaultInjector, FaultPlan
from repro.cluster.worker import spawn_local_worker, stop_local_worker
from repro.errors import ValidationError, WorkerDownError

from topology import make_manager

#: ``repro worker`` on an ephemeral loopback port with the suites'
#: 4x4, horizon-6 engine.
WORKER_COMMAND = [
    sys.executable, "-m", "repro.cli", "worker",
    "--listen", "127.0.0.1:0", "--horizon", "6",
    "--rows", "4", "--cols", "4", "--event-window", "2", "4",
]


def cli_env() -> dict:
    """The environment for a ``repro.cli`` child: this checkout's
    ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return env


class TestFaultPlan:
    def test_round_trip(self):
        plan = FaultPlan(
            seed=7,
            kill_at_step=5,
            rpc_delay_ms=1.5,
            rpc_jitter_ms=0.5,
            blackhole_after_step=3,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        # and through actual JSON text, as --fault-plan would carry it
        assert FaultPlan.from_json(json.loads(json.dumps(plan.to_json()))) == plan

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(ValidationError, match="unknown fault plan keys"):
            FaultPlan.from_json({"kill_at_stpe": 5})
        with pytest.raises(ValidationError, match="JSON object"):
            FaultPlan.from_json([1, 2])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kill_at_step": 0},
            {"kill_at_step": -1},
            {"kill_at_step": 1.5},
            {"hang_at_step": 0},
            {"blackhole_after_step": -1},
            {"rpc_delay_ms": -0.1},
            {"rpc_jitter_ms": "fast"},
        ],
    )
    def test_invalid_thresholds_are_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            FaultPlan(**kwargs)

    def test_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"seed": 3, "kill_at_step": 9}))
        plan = FaultPlan.from_file(str(path))
        assert plan == FaultPlan(seed=3, kill_at_step=9)
        with pytest.raises(ValidationError, match="cannot read"):
            FaultPlan.from_file(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValidationError, match="not valid JSON"):
            FaultPlan.from_file(str(bad))


class TestFaultInjector:
    def test_counting_and_kill_threshold(self):
        injector = FaultInjector(FaultPlan(kill_at_step=3))
        assert injector.on_engine_op("open", ("s", None, None)) is None
        assert injector.steps == 0  # only step ops advance the counter
        assert injector.on_engine_op("step", ("s", 1)) is None
        assert injector.on_engine_op("step", ("s", 2)) is None
        assert injector.on_engine_op("step", ("s", 3)) == "kill"
        assert injector.steps == 3

    def test_batch_crossing_triggers_kill(self):
        # A batched wave of 4 crosses kill_at_step=3 in one op: the
        # whole wave dies unacknowledged, exactly like a real crash
        # mid-batch.
        injector = FaultInjector(FaultPlan(kill_at_step=3))
        assert injector.on_engine_op("step_batch", {"a": 1}) is None
        assert injector.on_engine_op(
            "step_batch", {"a": 1, "b": 2, "c": 3, "d": 4}
        ) == "kill"
        assert injector.steps == 5

    def test_hang_persists_past_the_threshold(self):
        injector = FaultInjector(FaultPlan(hang_at_step=2))
        assert injector.on_engine_op("step", ("s", 1)) is None
        assert injector.on_engine_op("step", ("s", 2)) == "hang"
        assert injector.on_engine_op("step", ("s", 3)) == "hang"
        assert injector.on_engine_op("finish", ("s",)) is None  # non-step op

    def test_blackhole_after_step(self):
        injector = FaultInjector(FaultPlan(blackhole_after_step=1))
        assert injector.blackholed() is False
        injector.on_engine_op("step", ("s", 1))
        assert injector.blackholed() is True
        # blackhole_after_step=0 is dark from the start
        assert FaultInjector(FaultPlan(blackhole_after_step=0)).blackholed()

    def test_delays_are_seeded(self):
        plan = FaultPlan(seed=11, rpc_delay_ms=2.0, rpc_jitter_ms=4.0)
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        seq_a = [first.delay_s() for _ in range(5)]
        seq_b = [second.delay_s() for _ in range(5)]
        assert seq_a == seq_b  # same plan, same schedule
        assert all(0.002 <= d <= 0.006 for d in seq_a)
        assert FaultInjector(FaultPlan()).delay_s() == 0.0


class _RecordingChannel:
    max_frame_bytes = 1 << 20

    def __init__(self):
        self.sent = []
        self.closed = False

    def send(self, payload):
        self.sent.append(payload)

    def recv(self, timeout_s=None):
        return b"pong"

    def poll(self, timeout_s=0.0):
        return True

    def close(self):
        self.closed = True


class TestChaosChannel:
    def test_delegates_and_delays_deterministically(self):
        inner = _RecordingChannel()
        plan = FaultPlan(seed=5, rpc_delay_ms=1.0)
        channel = ChaosChannel(inner, plan)
        assert channel.max_frame_bytes == inner.max_frame_bytes
        start = time.monotonic()
        channel.send(b"hello")
        assert time.monotonic() - start >= 0.001
        assert inner.sent == [b"hello"]
        assert channel.recv() == b"pong"
        assert channel.poll() is True
        channel.close()
        assert inner.closed is True

    def test_zero_delay_plan_does_not_sleep(self):
        inner = _RecordingChannel()
        channel = ChaosChannel(inner, FaultPlan())
        start = time.monotonic()
        for _ in range(100):
            channel.send(b"x")
        assert time.monotonic() - start < 0.5
        assert len(inner.sent) == 100


class TestArmedWorker:
    """Integration: a real worker process armed with a plan."""

    def test_kill_at_step_dies_unacknowledged(self):
        process, address = spawn_local_worker(
            make_manager, fault_plan=FaultPlan(kill_at_step=5)
        )
        try:
            handle = WorkerHandle(address, rpc_timeout_s=30.0)
            handle.call("open", ("u", 1, None))
            for cell in (1, 2, 3, 4):
                handle.call("step", ("u", cell))  # steps 1..4 acknowledged
            with pytest.raises(WorkerDownError):
                handle.call("step", ("u", 5))  # the 5th never answers
            process.join(10)
            assert process.exitcode == 137
        finally:
            stop_local_worker(process)

    def test_hang_at_step_trips_the_rpc_deadline(self):
        process, address = spawn_local_worker(
            make_manager, fault_plan=FaultPlan(hang_at_step=2)
        )
        try:
            handle = WorkerHandle(address, rpc_timeout_s=1.0)
            handle.call("open", ("u", 1, None))
            handle.call("step", ("u", 1))
            with pytest.raises(WorkerDownError):
                handle.call("step", ("u", 2))
            assert process.is_alive()  # hung, not dead -- only the
            # deadline told them apart
        finally:
            stop_local_worker(process)

    def test_blackhole_swallows_pings_but_serves_ops(self):
        process, address = spawn_local_worker(
            make_manager, fault_plan=FaultPlan(blackhole_after_step=1)
        )
        try:
            handle = WorkerHandle(address, rpc_timeout_s=30.0)
            assert handle.ping(2.0) is True
            handle.call("open", ("u", 1, None))
            handle.call("step", ("u", 1))
            # The partition begins: the ping times out, and (by design)
            # the silent worker is now dead as far as this handle is
            # concerned -- a blackholed worker and a dead one look the
            # same to the router's heartbeats.
            assert handle.ping(1.0) is False
            assert handle.alive is False
            # ...while the engine underneath keeps serving: a fresh
            # connection (no pings) steps the same session onward.
            probe = WorkerHandle(address, rpc_timeout_s=30.0)
            record = probe.call("step", ("u", 2))
            assert record.t == 2
            probe.close()
        finally:
            stop_local_worker(process)


class TestSigtermDrain:
    def test_sigterm_announces_leave(self, tmp_path):
        process = subprocess.Popen(
            WORKER_COMMAND, stdout=subprocess.PIPE, text=True, env=cli_env()
        )
        try:
            ready = json.loads(process.stdout.readline())
            assert ready["op"] == "worker" and ready["port"] > 0
            process.send_signal(signal.SIGTERM)
            lines = [json.loads(line) for line in process.stdout]
            assert process.wait(30) == 0
            ops = [line["op"] for line in lines]
            assert ops == ["leave", "worker-stopped"]
            assert lines[0]["port"] == ready["port"]
            assert lines[0]["sessions"] == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(10)

    def test_sigterm_with_a_router_connected_exits_quietly(self):
        process = subprocess.Popen(
            WORKER_COMMAND,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=cli_env(),
        )
        try:
            ready = json.loads(process.stdout.readline())
            address = f"tcp://127.0.0.1:{ready['port']}"
            with ClusterBackend([address], heartbeat_interval_s=0) as cluster:
                cluster.open("u", seed=1)
                process.send_signal(signal.SIGTERM)
                out, err = process.communicate(timeout=30)
            assert process.returncode == 0, err
            lines = [json.loads(line) for line in out.splitlines()]
            assert [line["op"] for line in lines] == ["leave", "worker-stopped"]
            assert lines[0]["sessions"] == 1
            assert "Traceback" not in err
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(10)

    def test_router_connected_sigterm_under_3121_wait_closed(
        self, py3121_wait_closed
    ):
        """The test above, with ``Server.wait_closed`` waiting for every
        connection to drop as it does from Python 3.12.1 on."""
        self.test_sigterm_with_a_router_connected_exits_quietly()

    def test_fault_plan_flag_validates(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kill_at_step": 0}))
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "worker",
                "--fault-plan", str(bad),
            ],
            capture_output=True,
            text=True,
            env=cli_env(),
            timeout=60,
        )
        assert result.returncode == 2
        assert "kill_at_step" in result.stderr

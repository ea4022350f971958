"""The cluster wire layer: bounded frames, typed codec, hash ring.

The load-bearing guarantees of :mod:`repro.cluster`'s bottom layer:

* frames are bounded in *both* directions -- an oversized send raises
  before any byte moves (channel stays usable), an oversized received
  header raises the same typed error (stream unrecoverable);
* the codec round-trips every engine type through its exact
  ``to_json``/``from_json`` form -- no pickle, no float rounding -- and
  rebuilds only allowlisted exception types from received bytes;
* a wire-version mismatch fails loudly as ``ProtocolError``;
* ring placement is a stable blake2b hash -- identical in every
  process and run, spread roughly uniformly, and removing one member
  relocates only that member's keys.
"""

import socket

import numpy as np
import pytest

from repro.cluster.codec import (
    BUILTIN_ERRORS,
    WIRE_VERSION,
    decode_message,
    decode_value,
    encode_call,
    encode_error,
    encode_ok,
    encode_value,
)
from repro.cluster.frames import (
    FRAME_HEADER,
    MAX_RPC_FRAME_BYTES,
    pack_frame,
    payload_length,
)
from repro.cluster.ring import DEFAULT_REPLICAS, HashRing, ring_hash
from repro.cluster.transport import SocketChannel
from repro.engine.cache import CacheStats
from repro.errors import (
    FrameTooLargeError,
    ProtocolError,
    ServiceError,
    SessionError,
    ShardDownError,
    WorkerDownError,
)

from topology import make_manager


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
class TestFrames:
    def test_pack_frame_round_trips_through_payload_length(self):
        frame = pack_frame(b"hello")
        assert payload_length(frame[: FRAME_HEADER.size]) == 5
        assert frame[FRAME_HEADER.size :] == b"hello"

    def test_oversized_send_raises_before_io(self):
        with pytest.raises(FrameTooLargeError):
            pack_frame(b"x" * 101, max_frame_bytes=100)
        # the bound is inclusive
        assert len(pack_frame(b"x" * 100, max_frame_bytes=100)) == 104

    def test_oversized_received_header_raises(self):
        header = FRAME_HEADER.pack(MAX_RPC_FRAME_BYTES + 1)
        with pytest.raises(FrameTooLargeError):
            payload_length(header)

    def test_short_header_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            payload_length(b"\x00\x00")


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------
class TestCodecValues:
    def test_scalars_and_containers_round_trip(self):
        value = {"a": [1, 2.5, "x", None, True], "b": {"nested": [0]}}
        assert decode_value(encode_value(value)) == value

    def test_tuples_decode_as_lists(self):
        assert decode_value(encode_value((1, ("a", 2)))) == [1, ["a", 2]]

    def test_numpy_scalars_and_arrays_lower_to_plain_json(self):
        encoded = encode_value(
            {"i": np.int64(3), "f": np.float64(0.5), "a": np.arange(3)}
        )
        assert encoded == {"i": 3, "f": 0.5, "a": [0, 1, 2]}

    def test_user_dict_shadowing_the_tag_is_escaped(self):
        evil = {"__repro__": "state", "data": {"x": 1}}
        decoded = decode_value(encode_value(evil))
        assert decoded == evil  # comes back as the dict, not a SessionState

    def test_non_string_dict_keys_are_rejected(self):
        with pytest.raises(ProtocolError):
            encode_value({1: "x"})

    def test_unsupported_type_is_rejected(self):
        with pytest.raises(ProtocolError):
            encode_value(object())

    def test_engine_types_round_trip_exactly(self):
        manager = make_manager()
        manager.open("codec-u0", rng=1234)
        record = manager.step("codec-u0", 3)
        state = manager.checkpoint("codec-u0")
        manager.step("codec-u0", 4)
        log = manager.finish("codec-u0")

        decoded_record = decode_value(encode_value(record))
        assert decoded_record.to_json() == record.to_json()
        assert decoded_record.budget == record.budget  # exact, no rounding

        decoded_state = decode_value(encode_value(state))
        assert decoded_state.to_json() == state.to_json()

        decoded_log = decode_value(encode_value(log))
        assert [r.to_json() for r in decoded_log.records] == [
            r.to_json() for r in log.records
        ]
        if log.emission_matrices is None:
            assert decoded_log.emission_matrices is None
        else:
            for got, want in zip(
                decoded_log.emission_matrices, log.emission_matrices
            ):
                np.testing.assert_array_equal(got, want)

    def test_cache_stats_round_trip(self):
        stats = CacheStats(hits=7, misses=3, evictions=1, size=4, maxsize=64)
        assert decode_value(encode_value(stats)) == stats


class TestCodecErrors:
    @pytest.mark.parametrize(
        "error, expected_type",
        [
            (SessionError("no such session"), SessionError),
            (ServiceError("boom"), ServiceError),
            (ShardDownError("shard 0 died"), ShardDownError),
            (WorkerDownError("worker w1 unreachable"), WorkerDownError),
        ],
    )
    def test_typed_errors_survive_the_channel(self, error, expected_type):
        decoded = decode_message(encode_error(error, request_id=9))
        assert decoded["kind"] == "err"
        assert decoded["id"] == 9
        assert type(decoded["error"]) is expected_type
        assert str(error) in str(decoded["error"])

    def test_allowlisted_builtin_rebuilds_as_itself(self):
        decoded = decode_message(encode_error(ValueError("no engine for you")))
        assert type(decoded["error"]) is ValueError

    def test_unknown_builtin_never_rebuilds(self):
        # A hostile peer naming a type outside the allowlist gets the
        # coded fallback, never an arbitrary class lookup.
        payload = encode_error(ValueError("x")).replace(
            b'"builtin":"ValueError"', b'"builtin":"SystemExit"'
        )
        decoded = decode_message(payload)
        assert "SystemExit" not in type(decoded["error"]).__name__
        assert not isinstance(decoded["error"], SystemExit)

    def test_builtin_allowlist_is_closed(self):
        assert set(BUILTIN_ERRORS) == {
            "ValueError", "TypeError", "KeyError", "IndexError",
            "RuntimeError", "OSError", "ZeroDivisionError",
        }


class TestCodecMessages:
    def test_call_round_trip(self):
        payload = encode_call("step", {"session_id": "u1", "cell": 3}, request_id=5)
        decoded = decode_message(payload)
        assert decoded == {
            "kind": "call",
            "id": 5,
            "op": "step",
            "args": {"session_id": "u1", "cell": 3},
            "trace": None,
        }

    def test_call_trace_round_trip(self):
        # The trace id is an optional envelope key: present when given...
        payload = encode_call("step", {"cell": 3}, request_id=5, trace="abcd1234")
        decoded = decode_message(payload)
        assert decoded["trace"] == "abcd1234"
        # ...absent from the frame entirely when not (version tolerance:
        # an untraced router never ships the key at all).
        assert b"trace" not in encode_call("step", {"cell": 3}, request_id=5)
        # A non-string trace from a confused peer degrades to None.
        weird = payload.replace(b'"trace":"abcd1234"', b'"trace":42')
        assert decode_message(weird)["trace"] is None

    def test_ok_round_trip(self):
        decoded = decode_message(encode_ok([1, "two"], request_id=8))
        assert decoded == {"kind": "ok", "id": 8, "result": [1, "two"]}

    def test_wire_version_mismatch_fails_loudly(self):
        payload = encode_ok(None).replace(
            f'"v":{WIRE_VERSION}'.encode(), f'"v":{WIRE_VERSION + 1}'.encode()
        )
        with pytest.raises(ProtocolError, match="wire version"):
            decode_message(payload)

    @pytest.mark.parametrize(
        "payload", [b"not json", b"[1,2]", b'{"v":1,"kind":"what"}']
    )
    def test_malformed_payloads_are_protocol_errors(self, payload):
        with pytest.raises(ProtocolError):
            decode_message(payload)

    def test_no_pickle_anywhere_in_the_cluster_package(self):
        # The acceptance bar: received bytes are never unpickled.  Keep
        # the word itself out of the implementation so a regression
        # cannot hide.
        import pathlib

        import repro.cluster as cluster

        package_dir = pathlib.Path(cluster.__file__).parent
        sources = list(package_dir.glob("*.py"))
        assert len(sources) >= 7
        for path in sources:
            text = path.read_text()
            for needle in ("import pickle", "pickle.", "Unpickler", "cPickle"):
                assert needle not in text, f"{needle!r} in {path.name}"


# ----------------------------------------------------------------------
# transport channels
# ----------------------------------------------------------------------
class TestSocketChannel:
    def make_pair(self, **kwargs):
        a, b = socket.socketpair()
        return SocketChannel(a, **kwargs), SocketChannel(b, **kwargs)

    def test_round_trip_and_timeout(self):
        left, right = self.make_pair()
        left.send(b"over tcp")
        assert right.recv(timeout_s=5.0) == b"over tcp"
        with pytest.raises(TimeoutError):
            right.recv(timeout_s=0.05)
        left.close(), right.close()

    def test_oversized_send_raises_before_io(self):
        left, right = self.make_pair(max_frame_bytes=64)
        with pytest.raises(FrameTooLargeError):
            left.send(b"x" * 65)
        left.send(b"still fine")
        assert right.recv(timeout_s=5.0) == b"still fine"
        left.close(), right.close()

    def test_oversized_announced_frame_closes_the_channel(self):
        a, b = socket.socketpair()
        right = SocketChannel(b, max_frame_bytes=16)
        a.sendall(FRAME_HEADER.pack(1 << 30))  # hostile 1 GiB announcement
        with pytest.raises(FrameTooLargeError):
            right.recv(timeout_s=5.0)
        a.close()

    def test_peer_hangup_is_eof(self):
        left, right = self.make_pair()
        left.close()
        with pytest.raises((EOFError, OSError)):
            right.recv(timeout_s=5.0)
        right.close()


# ----------------------------------------------------------------------
# consistent-hash ring
# ----------------------------------------------------------------------
class TestHashRing:
    MEMBERS = [f"tcp://worker-{i}:9001" for i in range(4)]

    def test_ring_hash_is_frozen(self):
        # blake2b, not hash(): these values must never change, or a
        # router restart would re-place every session.  (Frozen
        # expectations, deliberately.)
        assert ring_hash("u0") == 16292420234199882687
        assert ring_hash("tcp://worker-0:9001#0") == 7109104411570482482

    def test_owner_is_deterministic_across_rings(self):
        one = HashRing(self.MEMBERS)
        two = HashRing(list(self.MEMBERS))  # rebuilt from scratch
        for i in range(200):
            assert one.owner(f"u{i}") == two.owner(f"u{i}")

    def test_keys_spread_across_members(self):
        ring = HashRing(self.MEMBERS)
        counts = {m: 0 for m in self.MEMBERS}
        for i in range(2000):
            counts[ring.owner(f"user-{i}")] += 1
        assert min(counts.values()) > 200  # no starved worker

    def test_removing_a_member_only_moves_its_keys(self):
        ring = HashRing(self.MEMBERS)
        smaller = ring.without(self.MEMBERS[0])
        moved = 0
        for i in range(2000):
            key = f"user-{i}"
            before, after = ring.owner(key), smaller.owner(key)
            if before == self.MEMBERS[0]:
                assert after != self.MEMBERS[0]
            else:
                assert after == before  # untouched keys stay put
                moved += 0
        assert self.MEMBERS[0] not in smaller
        assert len(smaller) == 3

    def test_successors_cover_all_members_starting_at_owner(self):
        ring = HashRing(self.MEMBERS)
        order = ring.successors("u17")
        assert order[0] == ring.owner("u17")
        assert sorted(order) == sorted(self.MEMBERS)

    def test_empty_ring_is_an_error(self):
        with pytest.raises(ServiceError):
            HashRing([])
        ring = HashRing(["only"])
        with pytest.raises(ServiceError):
            ring.without("only")

    def test_replica_validation(self):
        with pytest.raises(ServiceError):
            HashRing(self.MEMBERS, replicas=0)
        assert HashRing(self.MEMBERS, replicas=DEFAULT_REPLICAS).replicas == 64

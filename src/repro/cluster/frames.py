"""Bounded length-prefixed framing shared by every RPC transport.

One tiny, dependency-free module defines the frame discipline for
both ends of the RPC path -- the router's
:mod:`repro.cluster.transport` channel and the asyncio
:mod:`repro.cluster.worker` server:

* a frame is a 4-byte big-endian unsigned length followed by exactly
  that many payload bytes;
* every side enforces :data:`MAX_RPC_FRAME_BYTES` (overridable per
  channel) on *both* directions.  An attempted send of an oversized
  frame raises :class:`~repro.errors.FrameTooLargeError` before any
  byte hits the wire, so the channel stays usable; a received length
  header announcing an oversized frame raises the same typed error and
  the caller must close the channel, because the stream cannot be
  re-synchronized past the unread payload.
"""

from __future__ import annotations

import struct

from ..errors import FrameTooLargeError, ProtocolError

__all__ = [
    "FRAME_HEADER",
    "MAX_RPC_FRAME_BYTES",
    "check_frame_size",
    "pack_frame",
    "payload_length",
]

#: Frame header: payload length as a 4-byte big-endian unsigned int.
FRAME_HEADER = struct.Struct(">I")

#: Default per-frame payload bound.  Generous -- a suspended session
#: with full emission history is ~100 KiB of JSON, and ``suspend_all``
#: ships a whole worker's residency in one frame -- but finite, so a
#: corrupt or hostile header can never make a worker allocate without
#: bound.
MAX_RPC_FRAME_BYTES = 64 << 20


def check_frame_size(n_bytes: int, max_frame_bytes: int = MAX_RPC_FRAME_BYTES) -> None:
    """Raise :class:`FrameTooLargeError` when a payload exceeds the bound."""
    if n_bytes > max_frame_bytes:
        raise FrameTooLargeError(
            f"RPC frame of {n_bytes} bytes exceeds the "
            f"{max_frame_bytes}-byte limit"
        )


def pack_frame(payload: bytes, max_frame_bytes: int = MAX_RPC_FRAME_BYTES) -> bytes:
    """Length-prefix ``payload``, enforcing the size bound before send."""
    check_frame_size(len(payload), max_frame_bytes)
    return FRAME_HEADER.pack(len(payload)) + payload


def payload_length(header: bytes, max_frame_bytes: int = MAX_RPC_FRAME_BYTES) -> int:
    """Decode a frame header, enforcing the size bound on receive."""
    if len(header) != FRAME_HEADER.size:
        raise ProtocolError(
            f"short frame header: {len(header)} bytes, need {FRAME_HEADER.size}"
        )
    (length,) = FRAME_HEADER.unpack(header)
    check_frame_size(length, max_frame_bytes)
    return int(length)

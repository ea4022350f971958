"""The router's RPC channel: bounded frames over a TCP socket.

A *channel* moves opaque payload byte-strings with the bounded framing
of :mod:`repro.cluster.frames`.  :class:`SocketChannel` wraps a blocking
TCP socket to one ``repro worker`` with an explicit 4-byte big-endian
length prefix (``TCP_NODELAY`` set: RPC frames are small and
latency-bound).

Its typed surface: :class:`TimeoutError` when a receive deadline lapses
(the caller decides whether that means a dead peer),
:class:`EOFError`/:class:`OSError` when the peer hung up, and
:class:`~repro.errors.FrameTooLargeError` for an oversized frame on
either direction -- before sending (channel stays usable) or on a
received length header (channel is closed; the stream cannot re-sync).
"""

from __future__ import annotations

import socket

from ..errors import FrameTooLargeError
from .frames import FRAME_HEADER, MAX_RPC_FRAME_BYTES, check_frame_size, payload_length

__all__ = ["SocketChannel"]


class SocketChannel:
    """Bounded frame channel over a connected TCP socket."""

    def __init__(self, sock: socket.socket, max_frame_bytes: int = MAX_RPC_FRAME_BYTES):
        self._sock = sock
        self.max_frame_bytes = int(max_frame_bytes)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # exotic socket type (tests pass socketpairs)
            pass

    def send(self, payload: bytes) -> None:
        """Send one length-prefixed frame (oversized raises pre-I/O)."""
        check_frame_size(len(payload), self.max_frame_bytes)
        self._sock.sendall(FRAME_HEADER.pack(len(payload)) + payload)

    def _recv_exact(self, n_bytes: int) -> bytes:
        chunks = []
        remaining = n_bytes
        while remaining:
            chunk = self._sock.recv(min(remaining, 1 << 20))
            if not chunk:
                raise EOFError("RPC peer closed the connection")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self, timeout_s: float | None = None) -> bytes:
        """The next frame; raises :class:`TimeoutError` past the deadline.

        The deadline covers the whole frame (header and payload); a
        frame that announces more than ``max_frame_bytes`` closes the
        channel and raises :class:`FrameTooLargeError`.
        """
        self._sock.settimeout(timeout_s)
        try:
            header = self._recv_exact(FRAME_HEADER.size)
            try:
                length = payload_length(header, self.max_frame_bytes)
            except FrameTooLargeError:
                self.close()
                raise
            return self._recv_exact(length)
        except socket.timeout as error:  # socket.timeout is TimeoutError
            raise TimeoutError(
                f"no RPC reply within {timeout_s:.1f}s"
            ) from error

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

"""Minimal asyncio HTTP/1.1 listener for metrics exposition and probes.

Serves exactly three read-only paths:

- ``/metrics`` -- Prometheus text exposition (version 0.0.4).  The
  render callback may do real work (per-shard stats RPCs), so it runs
  in the loop's default thread-pool executor, never on the loop.
- ``/healthz`` -- liveness: 200 as long as the process serves sockets.
- ``/readyz``  -- readiness: 200/503 from a callback that must consult
  only *local* state (handle ``alive`` flags, heartbeat ages) -- a
  readiness probe that does RPCs would turn a slow worker into a
  cascading outage.

Stdlib only, GET only, one response per connection (``Connection:
close``) -- deliberately not a web framework.  Binding port 0 picks a
free port; the bound port is in ``.port`` after ``start()`` so smoke
tests and the serve announce line can report it.

A client gets :data:`REQUEST_DEADLINE_S` to send its request line and
headers, or it is hung up on; a line over 8 KiB gets a 400.  ``stop()``
lets a response in flight finish but never waits for an idle client.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

from .._listener import Listener

__all__ = ["ObsHttpServer"]

_MAX_REQUEST_BYTES = 8192
_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
#: Seconds a client has to send its request line and all its headers.
REQUEST_DEADLINE_S = 10.0


class ObsHttpServer:
    """The ``/metrics`` + ``/healthz`` + ``/readyz`` listener."""

    def __init__(
        self,
        host: str,
        port: int,
        render_metrics: Callable[[], Awaitable[str] | str] | None = None,
        readiness: Callable[[], tuple[bool, str]] | None = None,
    ):
        self.host = host
        self.port = port
        self._render_metrics = render_metrics
        self._readiness = readiness
        # A longer line fails the read with ValueError (answered 400).
        self._listener = Listener(self._handle, host, port, limit=_MAX_REQUEST_BYTES)

    async def start(self) -> None:
        """Bind and begin serving; updates ``.port`` when it was 0."""
        await self._listener.start()
        self.port = self._listener.port

    async def stop(self) -> None:
        """Stop accepting and close every connection (idempotent)."""
        await self._listener.close()

    async def _handle(self, reader: asyncio.StreamReader, send, spawn) -> None:
        async def read_request_line() -> bytes:
            # Drop the headers: bodies are not accepted on any path.
            request_line = line = await reader.readline()
            while line not in (b"", b"\r\n", b"\n"):
                line = await reader.readline()
            return request_line

        try:
            request_line = await asyncio.wait_for(
                read_request_line(), REQUEST_DEADLINE_S
            )
        except asyncio.TimeoutError:
            return  # too slow: hang up
        except ValueError:  # a line over the listener's limit
            spawn(self._respond(send, 400, "bad request\n"))
            return
        if request_line:
            spawn(self._answer(send, request_line))

    async def _answer(self, send, request_line: bytes) -> None:
        parts = request_line.decode("latin-1", "replace").split()
        if len(parts) < 2:
            await self._respond(send, 400, "bad request\n")
            return
        method, path = parts[0], parts[1].split("?", 1)[0]
        if method not in ("GET", "HEAD"):
            await self._respond(send, 405, "method not allowed\n")
        elif path == "/healthz":
            await self._respond(send, 200, "ok\n")
        elif path == "/readyz":
            ready, detail = (True, "ok")
            if self._readiness is not None:
                try:
                    ready, detail = self._readiness()
                except Exception as exc:  # noqa: BLE001
                    ready, detail = False, f"readiness check failed: {exc}"
            await self._respond(send, 200 if ready else 503, f"{detail}\n")
        elif path == "/metrics":
            if self._render_metrics is None:
                await self._respond(send, 404, "metrics disabled\n")
                return
            try:
                body = self._render_metrics()
                if asyncio.iscoroutine(body):
                    body = await body
            except Exception as exc:  # noqa: BLE001 - scrape must not kill serving
                await self._respond(send, 500, f"render failed: {exc}\n")
                return
            await self._respond(send, 200, body, content_type=_PROM_CONTENT_TYPE)
        else:
            await self._respond(send, 404, "not found\n")

    @staticmethod
    async def _respond(
        send,
        status: int,
        body: str,
        content_type: str = "text/plain; charset=utf-8",
    ) -> None:
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            500: "Internal Server Error",
            503: "Service Unavailable",
        }.get(status, "Unknown")
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        await send(head + payload)

"""One lifecycle for the package's asyncio TCP listeners.

``repro serve``, its ``/metrics`` sidecar and ``repro worker`` each run
a :class:`Listener`.  A connection's handler reads requests and spawns
one task per request to answer it; the listener owns the writer.
Closing never waits for a peer to hang up or to read, and never awaits
``Server.wait_closed``, which from Python 3.12.1 on waits for every peer
to disconnect.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Awaitable, Callable

#: Seconds :meth:`Listener.close` lets spawned work finish and flush its
#: replies before it aborts the connections still open.
CLOSE_GRACE_S = 5.0


class Listener:
    """Serves ``handle(reader, send, spawn)`` once per connection.

    The handler returns when its connection should end.  ``send(data)``
    writes one reply whole (dropped if the peer is gone); ``spawn(coro)``
    runs one request's work as a tracked task.  When the handler returns,
    its spawned work finishes and flushes, then the writer closes.
    """

    def __init__(
        self, handle: Callable[..., Awaitable[None]], host: str, port: int,
        limit: int = 2**16,
    ):
        self._handle = handle
        self._address = (host, port)
        self._limit = limit
        self._server: asyncio.AbstractServer | None = None
        self._closing = False
        # Connection task -> its writer, until the connection's cleanup ends.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        # Connection tasks still inside the handler: what close() cancels.
        self._reading: set[asyncio.Task] = set()
        self._spawned: set[asyncio.Task] = set()
        self.port: int | None = None

    @property
    def connections(self) -> int:
        """Connections accepted whose cleanup has not finished."""
        return len(self._connections)

    @property
    def in_flight(self) -> int:
        """Spawned tasks not yet finished, across all connections."""
        return len(self._spawned)

    async def start(self) -> None:
        """Bind and start accepting; sets :attr:`port`."""
        self._server = await asyncio.start_server(
            self._serve, *self._address, limit=self._limit
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop accepting and end every connection (idempotent).

        Cancels the handlers still reading and gives spawned work
        :data:`CLOSE_GRACE_S` to finish and flush; connections still
        open after that are aborted.  Spawned work is never cancelled,
        and this returns only once all of it has finished.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            self._server = None
        for task in self._reading:
            task.cancel()
        if not self._connections:
            return
        _, late = await asyncio.wait(list(self._connections), timeout=CLOSE_GRACE_S)
        for task in late:
            self._connections[task].transport.abort()
        if late:
            await asyncio.wait(late)

    async def _serve(self, reader, writer) -> None:
        if self._closing:
            writer.transport.abort()  # accepted just before close()
            return
        task = asyncio.current_task()
        write_lock = asyncio.Lock()
        spawned: set[asyncio.Task] = set()

        async def send(data: bytes) -> None:
            async with write_lock:
                if writer.is_closing():
                    return
                with contextlib.suppress(OSError):
                    writer.write(data)
                    await writer.drain()

        def spawn(work) -> None:
            job = asyncio.get_running_loop().create_task(work)
            for tracked in (spawned, self._spawned):
                tracked.add(job)
                job.add_done_callback(tracked.discard)

        self._connections[task] = writer
        self._reading.add(task)
        # The stream server logs a connection task that ends cancelled
        # or raising as an unhandled error.  Only close() and loop
        # teardown cancel one, and both want exactly this cleanup.
        try:
            await self._handle(reader, send, spawn)
        except (asyncio.CancelledError, OSError):
            pass  # close() stopped the read, or the socket failed
        finally:
            self._reading.discard(task)
            with contextlib.suppress(asyncio.CancelledError, OSError):
                if spawned:
                    await asyncio.wait(spawned)
                writer.close()
                await writer.wait_closed()
            del self._connections[task]

"""Event-loop lag probe: how late the server's loop runs scheduled work.

Sleeps ``interval_s`` on the loop and measures how much later than
requested it actually woke -- the excess is scheduling lag, the single
best proxy for "the event loop is starved" (by slow callbacks, GIL
pressure from worker threads, or plain CPU saturation).  Every serving
process runs one and exports current/max lag as the
``repro_event_loop_lag_seconds`` / ``repro_event_loop_lag_max_seconds``
gauges.
"""

from __future__ import annotations

import asyncio
import time

__all__ = ["EventLoopLagProbe"]


class EventLoopLagProbe:
    """Periodic lag sampler for the running asyncio event loop."""

    def __init__(self, interval_s: float = 0.05):
        self.interval_s = float(interval_s)
        self.current_s = 0.0
        self.max_s = 0.0
        self.samples = 0
        self._task: asyncio.Task | None = None

    async def _run(self) -> None:
        while True:
            before = time.perf_counter()
            await asyncio.sleep(self.interval_s)
            lag = max(0.0, (time.perf_counter() - before) - self.interval_s)
            self.current_s = lag
            if lag > self.max_s:
                self.max_s = lag
            self.samples += 1

    def start(self) -> None:
        """Begin sampling on the current running loop (idempotent)."""
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Cancel the sampler task."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    def snapshot(self) -> dict:
        """Current/max lag in milliseconds plus sample count."""
        return {
            "current_ms": round(self.current_s * 1e3, 4),
            "max_ms": round(self.max_s * 1e3, 4),
            "samples": self.samples,
        }

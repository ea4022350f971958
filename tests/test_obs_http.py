"""The metrics/probe HTTP listener: paths, status codes, failure modes."""

import asyncio
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import http as obs_http
from repro.obs.http import ObsHttpServer


def _fetch(port, path, method="GET"):
    """Blocking HTTP fetch -> (status, body, content_type).

    Always called via ``run_in_executor``: a blocking urlopen on the
    event-loop thread would deadlock against the asyncio listener.
    """
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return (
                response.status,
                response.read().decode(),
                response.headers.get("Content-Type"),
            )
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode(), error.headers.get("Content-Type")


async def _get(server, path, method="GET"):
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(None, _fetch, server.port, path, method)


def run(coro):
    return asyncio.run(coro)


class TestProbes:
    def test_healthz_and_default_readyz(self):
        async def main():
            server = ObsHttpServer("127.0.0.1", 0)
            await server.start()
            assert server.port != 0  # ephemeral bind reported
            try:
                status, body, _ = await _get(server, "/healthz")
                assert (status, body) == (200, "ok\n")
                status, body, _ = await _get(server, "/readyz")
                assert (status, body) == (200, "ok\n")
            finally:
                await server.stop()

        run(main())

    def test_readyz_follows_callback(self):
        async def main():
            state = {"ready": True}
            server = ObsHttpServer(
                "127.0.0.1",
                0,
                readiness=lambda: (state["ready"], "2 workers"),
            )
            await server.start()
            try:
                status, body, _ = await _get(server, "/readyz")
                assert (status, body) == (200, "2 workers\n")
                state["ready"] = False
                status, _, _ = await _get(server, "/readyz")
                assert status == 503
            finally:
                await server.stop()

        run(main())

    def test_readyz_callback_exception_reads_unready(self):
        async def main():
            def broken():
                raise RuntimeError("probe broke")

            server = ObsHttpServer("127.0.0.1", 0, readiness=broken)
            await server.start()
            try:
                status, body, _ = await _get(server, "/readyz")
                assert status == 503
                assert "probe broke" in body
            finally:
                await server.stop()

        run(main())


class TestMetrics:
    def test_sync_render(self):
        async def main():
            server = ObsHttpServer(
                "127.0.0.1", 0, render_metrics=lambda: "repro_up 1\n"
            )
            await server.start()
            try:
                status, body, content_type = await _get(server, "/metrics")
                assert (status, body) == (200, "repro_up 1\n")
                assert content_type == "text/plain; version=0.0.4; charset=utf-8"
            finally:
                await server.stop()

        run(main())

    def test_async_render(self):
        async def main():
            async def render():
                await asyncio.sleep(0)
                return "repro_up 1\n"

            server = ObsHttpServer("127.0.0.1", 0, render_metrics=render)
            await server.start()
            try:
                status, body, _ = await _get(server, "/metrics")
                assert (status, body) == (200, "repro_up 1\n")
            finally:
                await server.stop()

        run(main())

    def test_render_failure_is_a_500_not_a_crash(self):
        async def main():
            calls = {"n": 0}

            def render():
                calls["n"] += 1
                if calls["n"] == 1:
                    raise ValueError("scrape exploded")
                return "repro_up 1\n"

            server = ObsHttpServer("127.0.0.1", 0, render_metrics=render)
            await server.start()
            try:
                status, body, _ = await _get(server, "/metrics")
                assert status == 500
                assert "scrape exploded" in body
                status, _, _ = await _get(server, "/metrics")
                assert status == 200  # listener survived the failed scrape
            finally:
                await server.stop()

        run(main())

    def test_metrics_404_when_no_renderer(self):
        async def main():
            server = ObsHttpServer("127.0.0.1", 0)
            await server.start()
            try:
                status, _, _ = await _get(server, "/metrics")
                assert status == 404
            finally:
                await server.stop()

        run(main())


class TestProtocolEdges:
    @pytest.mark.parametrize("path", ["/", "/nope", "/metrics/extra"])
    def test_unknown_paths_404(self, path):
        async def main():
            server = ObsHttpServer("127.0.0.1", 0)
            await server.start()
            try:
                status, _, _ = await _get(server, path)
                assert status == 404
            finally:
                await server.stop()

        run(main())

    def test_non_get_405(self):
        async def main():
            server = ObsHttpServer("127.0.0.1", 0)
            await server.start()
            try:
                status, _, _ = await _get(server, "/healthz", method="POST")
                assert status == 405
            finally:
                await server.stop()

        run(main())

    def test_head_allowed(self):
        async def main():
            server = ObsHttpServer("127.0.0.1", 0)
            await server.start()
            try:
                status, _, _ = await _get(server, "/healthz", method="HEAD")
                assert status == 200
            finally:
                await server.stop()

        run(main())

    def test_query_strings_ignored(self):
        async def main():
            server = ObsHttpServer("127.0.0.1", 0)
            await server.start()
            try:
                status, _, _ = await _get(server, "/healthz?verbose=1")
                assert status == 200
            finally:
                await server.stop()

        run(main())

    def test_stop_is_idempotent(self):
        async def main():
            server = ObsHttpServer("127.0.0.1", 0)
            await server.start()
            await server.stop()
            await server.stop()

        run(main())


async def _raw_exchange(send) -> tuple[bytes, float, list]:
    """Serve one raw client that runs ``send(writer)``.

    Returns what the client read until the server hung up, the seconds
    that took, and every context that reached the loop's exception
    handler meanwhile.
    """
    errors: list = []
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, context: errors.append(context)
    )
    server = ObsHttpServer("127.0.0.1", 0, render_metrics=lambda: "repro_up 1\n")
    await server.start()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        started = time.monotonic()
        sender = asyncio.ensure_future(send(writer))
        try:
            reply = await asyncio.wait_for(reader.read(), 10)
        except ConnectionResetError:
            reply = b""
        elapsed = time.monotonic() - started
        sender.cancel()
        await asyncio.gather(sender, return_exceptions=True)
        writer.close()
    finally:
        await server.stop()
    return reply, elapsed, errors


class TestRequestDeadline:
    """The request line and the headers share one deadline; a client
    that misses it, or sends an over-long line, is answered or hung up
    on without an error reaching the loop's exception handler."""

    def test_stalled_headers_are_hung_up_on(self, monkeypatch):
        monkeypatch.setattr(obs_http, "REQUEST_DEADLINE_S", 0.3)

        async def send(writer):
            writer.write(b"GET /metrics HTTP/1.1\r\n")

        reply, elapsed, errors = run(_raw_exchange(send))
        assert reply == b""
        assert 0.3 <= elapsed < 5.0
        assert errors == []

    def test_trickled_headers_are_hung_up_on_at_the_deadline(self, monkeypatch):
        monkeypatch.setattr(obs_http, "REQUEST_DEADLINE_S", 1.0)

        async def send(writer):
            writer.write(b"GET /metrics HTTP/1.1\r\n")
            for i in range(60):
                await asyncio.sleep(0.25)
                writer.write(b"X-Trickle: %d\r\n" % i)

        reply, elapsed, errors = run(_raw_exchange(send))
        assert reply == b""
        assert 1.0 <= elapsed < 5.0
        assert errors == []

    def test_over_long_request_line_is_a_400_or_a_hang_up(self):
        async def send(writer):
            writer.write(b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n")

        reply, _, errors = run(_raw_exchange(send))
        # A reset (the server closed with the line's tail unread) may
        # beat the 400 to the client.
        assert reply == b"" or reply.startswith(b"HTTP/1.1 400 ")
        assert errors == []

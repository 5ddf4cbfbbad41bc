"""Framework-free asyncio HTTP/1.1 transport for ``repro serve``.

A deliberately small server: ``asyncio.start_server`` + a hand-rolled
request parser covering exactly what the service needs (request line,
headers, ``Content-Length`` bodies).  No third-party web framework —
the container ships none, and the endpoint surface (three POSTs and a
GET) does not justify one.  Responses always close the connection, so
the parser never needs keep-alive or chunked framing.

Error mapping: schema violations and any other
:class:`~repro.exceptions.ReproError` from the solver/simulator stack
become ``400`` JSON bodies (``{"error": ..., "kind": <class name>}``);
unexpected failures become ``500``; unknown paths ``404``; wrong
methods ``405``.  Every error body validates against
``ERROR_RESPONSE_SCHEMA``.

:class:`ServerThread` runs the whole loop in a daemon thread and binds
an ephemeral port — the harness tests drive a real socket through
it.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import ReproError, ServeError
from repro.serve.service import PolicyService

__all__ = ["ServerThread", "run_server", "serve_forever"]

#: Refuse request bodies beyond this size (defense against accidental
#: huge payloads; legitimate requests are well under 1 KiB).
_MAX_BODY = 1_000_000

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}


def _json_response(status: int, body: Dict[str, Any]) -> bytes:
    payload = json.dumps(body).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Error')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("ascii")
    return head + payload


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, bytes]]:
    """Parse ``(method, path, body)``; ``None`` on EOF/garbage."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    parts = request_line.decode("latin-1", "replace").split()
    if len(parts) < 2:
        return None
    method, path = parts[0].upper(), parts[1]
    content_length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1", "replace").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                content_length = 0
    if content_length < 0 or content_length > _MAX_BODY:
        raise ServeError(
            f"request body too large ({content_length} bytes)"
        )
    body = b""
    if content_length:
        body = await reader.readexactly(content_length)
    return method, path, body


async def _dispatch(
    service: PolicyService, method: str, path: str, body: bytes
) -> Tuple[int, Dict[str, Any]]:
    """Route one parsed request to the service."""
    path = path.split("?", 1)[0]
    if path == "/healthz":
        if method != "GET":
            return 405, {"error": "use GET", "kind": "MethodNotAllowed"}
        return 200, service.healthz()
    handlers = {
        "/solve": service.solve,
        "/simulate": service.simulate,
        "/sweep": service.sweep,
    }
    handler = handlers.get(path)
    if handler is None:
        return 404, {"error": f"unknown path {path}", "kind": "NotFound"}
    if method != "POST":
        return 405, {"error": "use POST", "kind": "MethodNotAllowed"}
    try:
        request = json.loads(body.decode("utf-8")) if body else {}
    except (UnicodeDecodeError, ValueError) as exc:
        return 400, {
            "error": f"request body is not valid JSON: {exc}",
            "kind": "ServeError",
        }
    if not isinstance(request, dict):
        return 400, {
            "error": "request body must be a JSON object",
            "kind": "ServeError",
        }
    response = await handler(request)
    return 200, response


async def _handle_connection(
    service: PolicyService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        parsed = await _read_request(reader)
        if parsed is None:
            return
        method, path, body = parsed
        try:
            status, payload = await _dispatch(service, method, path, body)
        except ReproError as exc:
            status = 400
            payload = {"error": str(exc), "kind": type(exc).__name__}
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # repro-lint: disable=RL005
            # The transport must answer 500 rather than drop the
            # connection; the error is reported in the body, and
            # cancellation (the only control-flow exception expected
            # here) is re-raised above.
            status = 500
            payload = {"error": repr(exc), "kind": type(exc).__name__}
        writer.write(_json_response(status, payload))
        await writer.drain()
    except (ConnectionError, asyncio.IncompleteReadError):
        return
    finally:
        writer.close()


async def run_server(
    service: PolicyService, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Bind and return the listening server (caller owns its lifetime)."""
    return await asyncio.start_server(
        lambda r, w: _handle_connection(service, r, w), host=host, port=port
    )


def serve_forever(
    service: PolicyService, host: str = "127.0.0.1", port: int = 8750
) -> None:
    """Blocking entry point used by ``repro serve``; Ctrl-C to stop."""

    async def _main() -> None:
        server = await run_server(service, host=host, port=port)
        sockets = server.sockets or []
        for sock in sockets:
            bound = sock.getsockname()
            print(f"repro serve listening on http://{bound[0]}:{bound[1]}")
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    finally:
        service.close()


class ServerThread:
    """A live ``repro serve`` instance on a daemon thread.

    Binds an ephemeral port by default and exposes it as :attr:`port`
    once :meth:`start` returns, so tests can point an HTTP client
    at ``http://127.0.0.1:{port}`` without racing the bind.  Use as a
    context manager for deterministic teardown.
    """

    def __init__(
        self, service: PolicyService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._server: Optional[asyncio.AbstractServer] = None

    def start(self) -> "ServerThread":
        """Start the loop thread and block until the socket is bound."""
        if self._thread is not None:
            raise ServeError("server thread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise ServeError("server thread failed to bind within 30s")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def _bind() -> None:
            self._server = await run_server(
                self.service, host=self.host, port=self.port
            )
            sockets = self._server.sockets or []
            if sockets:
                self.port = sockets[0].getsockname()[1]
            self._ready.set()

        loop.run_until_complete(_bind())
        try:
            loop.run_forever()
        finally:
            if self._server is not None:
                self._server.close()
                loop.run_until_complete(self._server.wait_closed())
            loop.close()

    def close(self) -> None:
        """Stop the loop, join the thread and release service workers."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.service.close()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

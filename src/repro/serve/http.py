"""A deliberately tiny HTTP/1.1 transport over asyncio streams.

Just enough protocol for a local admission daemon: request line,
query strings, headers, ``Content-Length`` bodies (JSON only),
keep-alive, and nothing else — no chunked encoding, no TLS, no external
dependencies.  Anything malformed gets a ``400`` and the connection
closed.  Responses are JSON by default; a handler returning a ``str``
body is sent as ``text/plain`` (the Prometheus exposition path).
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import parse_qsl, unquote

from repro.serve.handlers import Api
from repro.serve.protocol import MAX_BODY_BYTES

__all__ = ["HttpServer"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    503: "Service Unavailable",
}


class HttpServer:
    """Serves an :class:`Api` on a local TCP port."""

    def __init__(self, api: Api, host: str = "127.0.0.1", port: int = 0):
        self.api = api
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the actual ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._client, self.host, self.port
        )
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        self.port = port
        return host, port

    async def stop(self) -> None:
        """Stop accepting new connections and wait for the listener."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    async def _client(self, reader: asyncio.StreamReader, writer) -> None:
        try:
            while True:
                keep_alive = await self._one_request(reader, writer)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # client went away mid-request
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _one_request(self, reader, writer) -> bool:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            return False  # clean close between keep-alive requests
        parts = request_line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            await self._respond(writer, 400, {"error": "malformed request line"})
            return False
        method, target, _version = parts
        path, _, query_string = target.partition("?")
        path = unquote(path)
        query = dict(parse_qsl(query_string, keep_blank_values=True))

        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            if ":" in line:
                key, value = line.split(":", 1)
                headers[key.strip().lower()] = value.strip()

        # Digits only: int() would also take "-5", "+5" and "1_0".
        declared = headers.get("content-length", "0")
        if not declared.isdecimal():
            await self._respond(writer, 400, {"error": "bad Content-Length"})
            return False
        length = int(declared)
        if length > MAX_BODY_BYTES:
            await self._respond(
                writer, 413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}
            )
            return False
        payload = None
        if length:
            raw = await reader.readexactly(length)
            try:
                payload = json.loads(raw)
            except (ValueError, RecursionError):  # syntax, encoding, nesting
                await self._respond(writer, 400, {"error": "body is not JSON"})
                return False

        status, body = await self.api.handle(
            method.upper(), path, payload, query=query
        )
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        await self._respond(writer, status, body, keep_alive=keep_alive)
        return keep_alive

    @staticmethod
    async def _respond(
        writer, status: int, body: dict | str, keep_alive=False
    ) -> None:
        if isinstance(body, str):
            data = body.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(body).encode("utf-8")
            content_type = "application/json"
        reason = _REASONS.get(status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        await writer.drain()

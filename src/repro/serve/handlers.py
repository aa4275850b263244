"""Route table of the admission daemon.

``Api.handle`` maps ``(method, path, query, body)`` to
``(status, json_body_or_text)``.  Reads (``/state``, ``/metrics``,
``/metrics/history``, ``/healthz``) are answered inline from immutable
snapshots and the live window — no queue, no lock, nothing blocking the
event loop.  Queued work (``/admit``, ``/explain``, ``/place``) is submitted to the
:class:`MicroBatcher` and awaited; a full queue turns into ``503``
(backpressure), malformed bodies into ``400``.

``GET /metrics`` defaults to the lifetime JSON snapshot;
``?format=prometheus`` switches to the text exposition (counters,
exact log-bucket histograms, plus live gauges like queue depth).
``GET /metrics/history`` returns the windowed time-series the
``repro-mc top`` dashboard polls.
"""

from __future__ import annotations

import time

from repro.obs.live import LiveMetrics, render_prometheus
from repro.obs.runtime import OBS
from repro.serve.batcher import MicroBatcher, ServeOverflow
from repro.serve.protocol import (
    ProtocolError,
    parse_admit,
    parse_explain,
    parse_place,
)
from repro.serve.state import ServeState
from repro.types import ReproError

__all__ = ["Api"]


class Api:
    """Dispatches parsed HTTP requests; owns no mutable state itself."""

    def __init__(
        self,
        state: ServeState,
        batcher: MicroBatcher,
        live: LiveMetrics | None = None,
    ):
        self.state = state
        self.batcher = batcher
        self.live = live

    async def handle(
        self, method: str, path: str, payload: object, query: dict | None = None
    ):
        """Returns ``(status, body)`` — a dict (JSON) or str (text/plain)."""
        started = time.perf_counter()
        try:
            status, body = await self._route(method, path, payload, query or {})
        except ProtocolError as exc:
            status, body = exc.status, {"error": str(exc)}
        except ServeOverflow as exc:
            if OBS.enabled:
                OBS.registry.counter("serve.overflow_503").inc()
                OBS.registry.counter("serve.rejected_503").inc()
            if self.live is not None:
                self.live.inc("serve.rejected_503")
            status, body = 503, {"error": str(exc)}
        except ReproError as exc:
            status, body = 422, {"error": str(exc)}
        elapsed = time.perf_counter() - started
        if OBS.enabled:
            OBS.registry.histogram("serve.handle.seconds").observe(elapsed)
            OBS.registry.counter("serve.requests").inc()
            OBS.registry.counter(f"serve.http.{status}").inc()
        if self.live is not None:
            self.live.inc("serve.requests")
            self.live.inc(f"serve.http.{status}")
            self.live.observe("serve.handle.seconds", elapsed)
        return status, body

    async def _route(self, method: str, path: str, payload: object, query: dict):
        if path == "/admit" and method == "POST":
            future = self.batcher.submit("admit", parse_admit(payload))
            return 200, await future
        if path == "/explain" and method == "POST":
            future = self.batcher.submit("explain", parse_explain(payload))
            return 200, await future
        if path == "/place" and method == "POST":
            future = self.batcher.submit("place", parse_place(payload))
            body = await future
            return (200 if body["accepted"] else 409), body
        if path == "/state" and method == "GET":
            return 200, self.state.snapshot.to_dict()
        if path == "/metrics" and method == "GET":
            fmt = query.get("format", "json")
            if fmt == "prometheus":
                gauges = self.live.gauges() if self.live is not None else {}
                return 200, render_prometheus(OBS.registry, gauges=gauges)
            if fmt != "json":
                raise ProtocolError(f"unknown metrics format: {fmt!r}")
            return 200, {
                "queue_depth": self.batcher.depth,
                "metrics": OBS.registry.snapshot(),
            }
        if path == "/metrics/history" and method == "GET":
            if self.live is None:
                raise ProtocolError(
                    "live telemetry is not enabled on this daemon", status=404
                )
            return 200, self.live.history()
        if path == "/healthz" and method == "GET":
            snap = self.state.snapshot
            return 200, {
                "ok": True,
                "seq": snap.seq,
                "probe_impl": snap.probe_impl,
            }
        if path in (
            "/admit",
            "/explain",
            "/place",
            "/state",
            "/metrics",
            "/metrics/history",
            "/healthz",
        ):
            raise ProtocolError(f"{method} not allowed on {path}", status=405)
        raise ProtocolError(f"no such endpoint: {path}", status=404)

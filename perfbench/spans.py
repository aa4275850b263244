"""In-memory span recorder for the benchmark's traced runs.

The program itself is not changed to be traced.  Instead, the traced
run replaces the public functions at each layer boundary with timing
wrappers that live here, and restores the originals afterwards:

* a span starts when a layer function is entered and ends when it
  returns; spans nest on one stack, because every wrapped function is
  synchronous (the daemon calls them from its single event-loop thread);
* a layer's *self time* is its spans' duration minus the time covered by
  the spans nested inside them, so the self times of all layers plus the
  root add up to the traced wall time exactly;
* counts (calls, probe rows, feasible rows, batch sizes) are taken in the
  same wrappers, where the work happens.

Spans are aggregated per layer name on the fly rather than stored one by
one: a sweep makes tens of thousands of probe calls, and only the totals
are reported.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Callable

import numpy as np


class Tracer:
    """Aggregates nested spans by layer name."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # frames: [name, child_seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        #: inclusive time under an extra key (e.g. one partition scheme)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.first_start: float | None = None
        self.last_end: float | None = None

    def _enter(self, name: str) -> tuple[list, float]:
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        if self.first_start is None:
            self.first_start = start
        return frame, start

    def _exit(self, frame: list, start: float, extra_key: str | None) -> None:
        end = time.perf_counter()
        seconds = end - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += seconds
        name = frame[0]
        self.calls[name] += 1
        self.total_s[name] += seconds
        self.self_s[name] += seconds - frame[1]
        if extra_key is not None:
            self.inclusive_s[extra_key] += seconds
        self.last_end = end

    def inside(self, name: str) -> bool:
        return bool(self._stack) and self._stack[-1][0] == name

    @contextlib.contextmanager
    def span(self, name: str):
        frame, start = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame, start, None)

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        after: Callable | None = None,
        key: Callable | None = None,
        reentrant: bool = True,
    ) -> Callable:
        """A timing wrapper around ``fn`` recording spans named ``name``.

        ``after(result, args, start)`` records counts once ``fn`` has
        returned; ``key(args)`` names an extra inclusive-time bucket.
        With ``reentrant=False`` a call made from inside a span of the
        same name opens no second span (its counts are still taken), so
        a probe scan that calls a probe primitive is one probe span.
        """

        def traced(*args, **kwargs):
            if not reentrant and self.inside(name):
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args, None)
                return result
            frame, start = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, start, key(args) if key is not None else None)
            if after is not None:
                after(result, args, start)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    def layers(self) -> dict[str, dict]:
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total_s[name],
                "self_s": self.self_s[name],
            }
            for name in sorted(self.calls)
        }

    def dump(self) -> dict:
        window = 0.0
        if self.first_start is not None and self.last_end is not None:
            window = self.last_end - self.first_start
        return {
            "layers": self.layers(),
            "inclusive_s": dict(self.inclusive_s),
            "counts": dict(self.counts),
            "window_s": window,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, tracer: Tracer, owner: object, attr: str, name: str, **kw):
        self.set(owner, attr, tracer.wrap(name, getattr(owner, attr), **kw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _defining_class(cls: type, attr: str) -> type:
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no {attr}")


# ----------------------------------------------------------------------
# Layer boundaries shared by the sweep and the daemon
# ----------------------------------------------------------------------
PROBE_PRIMITIVES = ("probe", "probe_feasible", "probe_tasks", "probe_feasible_tasks")
PROBE_SCANS = ("first_feasible_core", "first_finite_probe")


def _install_partition_layers(tracer: Tracer, patches: Patches) -> None:
    """``partition`` (attempt, order, probe) and ``model.assign``."""
    from repro.engine.spec import default_schemes
    from repro.model.partition import Partition
    from repro.partition import backend
    from repro.partition.base import Partitioner

    def count_outcome(result, _args, _start) -> None:
        tracer.counts["partition.attempt.schedulable"] += bool(result.schedulable)

    patches.wrap(
        tracer,
        Partitioner,
        "partition",
        "partition.attempt",
        after=count_outcome,
        key=lambda args: f"partition.{args[0].name}",
    )
    ordered: set[type] = set()
    for spec in default_schemes():
        owner = _defining_class(type(spec.build()), "order_tasks")
        if owner not in ordered:
            ordered.add(owner)
            patches.wrap(tracer, owner, "order_tasks", "partition.order")

    def count_rows(result, _args, _start) -> None:
        rows = np.asarray(result)
        tracer.counts["partition.probe.rows"] += rows.size
        if rows.dtype == bool:
            tracer.counts["partition.probe.feasible"] += int(np.count_nonzero(rows))
        else:
            tracer.counts["partition.probe.feasible"] += int(
                np.count_nonzero(np.isfinite(rows))
            )

    for cls in (backend.BatchBackend, backend.IncrementalBackend):
        for attr in PROBE_PRIMITIVES:
            patches.wrap(
                tracer, cls, attr, "partition.probe", after=count_rows, reentrant=False
            )
    # The preference-order scans of the full-row backends call a probe
    # primitive and then scan its row: one probe span in all.
    for attr in PROBE_SCANS:
        patches.wrap(
            tracer, backend.ProbeBackend, attr, "partition.probe", reentrant=False
        )
    patches.wrap(tracer, Partition, "assign", "model.assign")


def install_sweep_layers(tracer: Tracer) -> Patches:
    """Wrap the layers a ``run_sweep`` call goes through."""
    from repro.engine import core as engine_core
    from repro.metrics.aggregate import SchemeAccumulator

    patches = Patches()
    _install_partition_layers(tracer, patches)
    patches.wrap(tracer, engine_core, "generate_taskset", "gen.generate")
    patches.wrap(tracer, SchemeAccumulator, "add", "metrics.accumulate")
    patches.wrap(tracer, engine_core.Engine, "run", "engine")
    return patches


class _TracedJson:
    """Stands in for the ``json`` module inside the HTTP transport."""

    def __init__(self, tracer: Tracer) -> None:
        self.JSONDecodeError = json.JSONDecodeError
        self.loads = tracer.wrap("serve.decode", json.loads)
        self.dumps = tracer.wrap("serve.encode", json.dumps)


def install_daemon_layers(tracer: Tracer) -> Patches:
    """Wrap the layers one daemon request goes through.

    Every function wrapped here runs synchronously on the event-loop
    thread; the asynchronous transport between them is what the traced
    window minus the layers' self times leaves over.
    """
    from repro.model.partition import Partition
    from repro.serve import coordinator, handlers, http
    from repro.serve.state import ServeState

    patches = Patches()
    _install_partition_layers(tracer, patches)

    def count_flush(_result, args, start) -> None:
        batch = args[1]
        tracer.counts["serve.batch_items"] += len(batch)
        tracer.counts["serve.queue_wait_s"] += sum(
            max(start - item.enqueued, 0.0) for item in batch
        )

    patches.wrap(
        tracer, coordinator.Coordinator, "flush", "serve.flush", after=count_flush
    )
    patches.wrap(tracer, coordinator, "MCTaskSet", "model.taskset_build")
    patches.wrap(
        tracer, coordinator, "place_rejection_reason", "analysis.reject_reason"
    )
    patches.wrap(tracer, Partition, "extended", "model.extend")
    patches.wrap(tracer, ServeState, "commit", "serve.commit")
    for attr in ("parse_place", "parse_admit"):
        patches.wrap(tracer, handlers, attr, "serve.decode")
    patches.set(http, "json", _TracedJson(tracer))
    return patches

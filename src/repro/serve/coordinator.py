"""The single-writer coordinator of the admission daemon.

One asyncio task owns all mutation of the live :class:`ServeState`;
handlers only enqueue work and await futures.  Each flush:

* observes ``serve.batch_size`` (the coalescing win: p50 > 1 under load);
* answers every ``/admit`` by running the *offline* partitioner verbatim
  — bit-identical to ``repro-mc``'s batch path by construction, pinned
  by the ``serve-offline`` oracle in :mod:`repro.validate`;
* answers the flush's ``/place`` requests with **one** call into the
  stacked probe kernel (:func:`repro.partition.probe.batch_probe_tasks`
  over the whole micro-batch), then applies placements greedily in
  arrival order, re-probing the remaining rows after each assignment.

Every flush runs under the coordinator's configured probe backend
(``--probe-impl``, default ``incremental``): the live partition carries
warm per-core Theorem-1 state across requests, so the post-assignment
re-probe recomputes only the column of the core that just changed —
every other (task, core) hypothesis answers from cache.  All backends
are pinned bit-identical, so the placement decisions (and the
``serve-offline`` oracle parity) do not depend on the choice.

Placement rule: best fit by Eq. (15) — the feasible core whose new
Eq.-(9) utilization is smallest (ties to the lowest core index), i.e.
the worst-fit/best-balance choice CA-TPA's probes are built for.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.explain import explain_admission, place_rejection_reason
from repro.metrics.core import imbalance_factor
from repro.model import MCTask, MCTaskSet, Partition
from repro.obs.live import LiveMetrics
from repro.obs.runtime import OBS, current_span_id, record_span, span
from repro.partition.backend import get_backend
from repro.partition.probe import batch_probe_tasks, use_probe_implementation
from repro.partition.registry import get_partitioner
from repro.serve.batcher import MicroBatcher, WorkItem
from repro.serve.protocol import (
    AdmitRequest,
    ExplainRequest,
    PlaceRequest,
    ProtocolError,
)
from repro.serve.state import ServeState
from repro.types import ReproError

__all__ = ["Coordinator"]


class Coordinator:
    """Drains the batcher; the only writer of ``state``."""

    def __init__(
        self,
        state: ServeState,
        batcher: MicroBatcher,
        rule: str = "max",
        probe_impl: str = "incremental",
        live: LiveMetrics | None = None,
    ):
        get_backend(probe_impl)  # fail fast on unknown names
        self.state = state
        self.batcher = batcher
        self.rule = rule
        self.probe_impl = probe_impl
        self.live = live

    async def run(self) -> None:
        """Flush batches until the batcher is closed and drained."""
        while (batch := await self.batcher.next_batch()) is not None:
            self.flush(batch)

    # ------------------------------------------------------------------
    def flush(self, batch: list[WorkItem]) -> None:
        """Resolve every future of one micro-batch (synchronous).

        The whole flush — admission sweeps and placements alike — runs
        under the configured probe backend; the selection rides a
        contextvar, so concurrent readers are unaffected.

        Tracing: the flush is one shared ``serve.flush`` span; every
        request in the batch additionally gets its *own*
        ``serve.request`` span recorded as a child of the flush span,
        carrying its ``request_id`` and the attribution triple
        ``queue_wait`` (ingress → flush start), ``kernel`` (its share of
        probe-kernel time) and ``apply`` (its share of
        assignment/commit time); the span's ``seconds`` is exactly the
        sum of the three.  The decision blocks are ``serve.<kind>.decide``
        spans, so their ``.seconds`` histograms stay apart from the
        per-request ``serve.<kind>.seconds`` latency histograms.
        """
        flush_start = time.perf_counter()
        if OBS.enabled:
            OBS.registry.histogram("serve.batch_size").observe(float(len(batch)))
        if self.live is not None:
            self.live.observe("serve.batch_size", float(len(batch)))
        places = [item for item in batch if item.kind == "place"]
        with span("serve.flush", batch=len(batch)):
            flush_id = current_span_id()
            with use_probe_implementation(self.probe_impl):
                for item in batch:
                    if item.kind in ("admit", "explain"):
                        fn = self._admit if item.kind == "admit" else self._explain
                        t0 = time.perf_counter()
                        self._resolve(item, fn, item.request)
                        self._finish_request(
                            item,
                            flush_start,
                            flush_id,
                            kernel=time.perf_counter() - t0,
                            apply=0.0,
                        )
                if places:
                    self._place_flush(places, flush_start, flush_id)

    def _resolve(self, item: WorkItem, fn, *args) -> None:
        if item.future.cancelled():  # pragma: no cover - client went away
            return
        try:
            result = fn(*args)
            if isinstance(result, dict):
                result.setdefault("request_id", item.request_id)
            item.future.set_result(result)
        except ReproError as exc:
            item.future.set_exception(exc)

    def _finish_request(
        self,
        item: WorkItem,
        flush_start: float,
        flush_id: int | None,
        *,
        kernel: float,
        apply: float,
    ) -> None:
        """Record one request's span + latency observations.

        ``seconds`` is constructed as ``queue_wait + kernel + apply`` so
        the three components reconcile with the span total *exactly*
        (pinned in ``tests/serve/test_tracing.py``); each component is a
        real measured interval, so the sum also tracks the request's
        wall-clock latency up to the future-resolution hop.
        """
        queue_wait = max(flush_start - item.enqueued, 0.0)
        seconds = queue_wait + kernel + apply
        if OBS.enabled:
            OBS.registry.histogram(f"serve.{item.kind}.seconds").observe(seconds)
            record_span(
                "serve.request",
                start=item.wall,
                seconds=seconds,
                parent_id=flush_id,
                request_id=item.request_id,
                kind=item.kind,
                queue_wait=queue_wait,
                kernel=kernel,
                apply=apply,
            )
        if self.live is not None:
            self.live.observe(f"serve.{item.kind}.seconds", seconds)

    # ------------------------------------------------------------------
    # /admit: the offline partitioner, verbatim
    # ------------------------------------------------------------------
    def _admit(self, req: AdmitRequest) -> dict:
        reg = OBS.registry
        if OBS.enabled:
            reg.counter(f"serve.admit.requests[{req.scheme}]").inc()
        with span("serve.admit.decide", scheme=req.scheme, cores=req.cores):
            result = get_partitioner(req.scheme).partition(req.taskset, req.cores)
        utils = result.partition.core_utilizations(self.rule)
        if OBS.enabled and result.schedulable:
            reg.counter(f"serve.admit.schedulable[{req.scheme}]").inc()
        return {
            "scheme": result.scheme,
            "cores": req.cores,
            "schedulable": bool(result.schedulable),
            "assignment": result.partition.assignment.tolist(),
            "order": list(result.order),
            "failed_task": result.failed_task,
            "utilizations": utils.tolist(),
            "lambda": float(imbalance_factor(utils)),
        }

    # ------------------------------------------------------------------
    # /explain: the full decision decomposition, scalar kernel, off-path
    # ------------------------------------------------------------------
    def _explain(self, req: ExplainRequest) -> dict:
        if OBS.enabled:
            OBS.registry.counter(f"serve.explain.requests[{req.scheme}]").inc()
        with span("serve.explain.decide", scheme=req.scheme, cores=req.cores):
            # The partitioning run inherits the flush's ambient probe
            # backend; the recorded ``probe_impl`` field says which one
            # decided.  Backends are pinned bit-identical, so the
            # document matches an offline explain modulo that field —
            # exactly what scripts/serve_smoke.py asserts.
            exp = explain_admission(
                req.taskset, req.cores, req.scheme, rule=self.rule
            )
        return exp.to_dict()

    # ------------------------------------------------------------------
    # /place: one stacked kernel call per flush
    # ------------------------------------------------------------------
    def _place_flush(
        self,
        places: list[WorkItem],
        flush_start: float,
        flush_id: int | None,
    ) -> None:
        state = self.state
        # Reject tasks the daemon's K cannot express before touching state.
        ready: list[WorkItem] = []
        for item in places:
            task = item.request.task
            if task.criticality > state.levels:
                self._resolve(
                    item,
                    self._raise,
                    ProtocolError(
                        f"task criticality {task.criticality} exceeds the "
                        f"daemon's K={state.levels}"
                    ),
                )
                self._finish_request(
                    item, flush_start, flush_id, kernel=0.0, apply=0.0
                )
            else:
                ready.append(item)
        if not ready:
            return

        old = state.partition
        new_tasks = [item.request.task for item in ready]
        grown = self._grow(old, new_tasks)
        part = old.extended(grown) if old is not None else Partition(
            grown, state.cores
        )
        base = len(grown) - len(new_tasks)
        idx = list(range(base, base + len(ready)))

        place_start = time.perf_counter()
        kernel_total = 0.0
        with span("serve.place.decide", batch=len(ready)):
            # THE kernel call of the flush: every (task, core) hypothesis
            # of the micro-batch in one stacked NumPy pass.
            t0 = time.perf_counter()
            utils = batch_probe_tasks(part, idx, rule=self.rule)
            kernel_total += time.perf_counter() - t0
            decisions: list[int | None] = []
            reasons: list[dict | None] = []
            for t, task_index in enumerate(idx):
                core = self._best_core(utils[t])
                decisions.append(core)
                if core is None:
                    # Explain the refusal against the exact partition
                    # state this row was probed on (scalar kernel, only
                    # for rejected rows — the accept path is untouched).
                    reasons.append(
                        place_rejection_reason(
                            part, grown[task_index], rule=self.rule
                        )
                    )
                    continue
                reasons.append(None)
                part.assign(task_index, core)
                remaining = idx[t + 1 :]
                if remaining:
                    # Re-probe the rows still waiting through the active
                    # backend.  Only the chosen core's column went stale,
                    # which is exactly what the incremental backend
                    # recomputes — the other columns answer from the
                    # warm per-core state (bit-identical either way).
                    t0 = time.perf_counter()
                    utils[t + 1 :] = batch_probe_tasks(
                        part, remaining, rule=self.rule
                    )
                    kernel_total += time.perf_counter() - t0

        accepted = [i for i, c in zip(idx, decisions) if c is not None]
        if len(accepted) < len(ready):
            # Drop rejected tasks from the live set: append only the
            # accepted ones to the resident task set.  Decisions are
            # unaffected — rejected tasks were never assigned, so they
            # contributed nothing to any level matrix.
            if accepted:
                final_ts = self._grow(old, [new_tasks[i - base] for i in accepted])
                final = (
                    old.extended(final_ts)
                    if old is not None
                    else Partition(final_ts, state.cores)
                )
                for offset, i in enumerate(accepted):
                    final.assign(base + offset, int(part.core_of(i)))
                part = final
            else:
                part = old  # nothing accepted: state is unchanged
        if part is not None and part is not old:
            state.commit(part)
        snap_seq = state.snapshot.seq

        # Attribution shares: kernel time is the measured probe-kernel
        # total, apply is everything else in the placement block
        # (assignments, column refreshes bookkeeping, rebuild, commit) —
        # both split evenly across the batch, since the stacked kernel
        # serves all rows at once.
        place_total = time.perf_counter() - place_start
        apply_total = max(place_total - kernel_total, 0.0)
        kernel_share = kernel_total / len(ready)
        apply_share = apply_total / len(ready)

        reg = OBS.registry
        for item, core, reason in zip(ready, decisions, reasons):
            if OBS.enabled:
                name = "accepted" if core is not None else "rejected"
                reg.counter(f"serve.place.{name}").inc()
            if self.live is not None:
                name = "accepted" if core is not None else "rejected"
                self.live.inc(f"serve.place.{name}")
            self._resolve(
                item, self._place_response, item.request, core, snap_seq, reason
            )
            self._finish_request(
                item,
                flush_start,
                flush_id,
                kernel=kernel_share,
                apply=apply_share,
            )

    def _place_response(
        self,
        req: PlaceRequest,
        core: int | None,
        seq: int,
        reason: dict | None = None,
    ) -> dict:
        body = {
            "task": {
                "name": req.task.name,
                "period": req.task.period,
                "wcets": list(req.task.wcets),
            },
            "accepted": core is not None,
            "core": core,
            "seq": seq,
        }
        if core is None:
            # Structured refusal: best core + margin and, per core, the
            # first failing Theorem-1 condition (see
            # ``repro.analysis.explain.place_rejection_reason``).
            body["reason"] = reason
        return body

    @staticmethod
    def _raise(exc: Exception) -> None:
        raise exc

    def _grow(self, old: Partition | None, tasks: list[MCTask]) -> MCTaskSet:
        """The resident task set with ``tasks`` appended as new rows."""
        if old is None:
            return MCTaskSet(tasks, levels=self.state.levels)
        return old.taskset.extended(tasks)

    @staticmethod
    def _best_core(row: np.ndarray) -> int | None:
        """Feasible core with the smallest Eq.-(15) probe, or ``None``."""
        finite = np.isfinite(row)
        if not finite.any():
            return None
        best = np.where(finite, row, np.inf)
        return int(np.argmin(best))  # argmin ties to the lowest index

"""The resumable experiment engine.

:class:`Engine` evaluates declarative :class:`~repro.engine.spec`
objects: it plans contiguous shards over each data point's task sets,
answers as many shards as possible from the content-addressed
:class:`~repro.engine.store.ResultStore`, computes the rest (inline or
via a ``ProcessPoolExecutor``), and **checkpoints every computed shard
the moment it finishes** — an interrupted ``repro-mc all --sets 2000``
resumes from the completed shards instead of starting over.

Determinism: every task set ``i`` of a point is generated from
``SeedSequence(seed, spawn_key=(i,))``, shards are merged in ascending
``start`` order, and finalization uses ``math.fsum`` (exactly rounded),
so serial, parallel, cold, and warm (fully cached) runs produce
bit-identical artifacts.
"""

from __future__ import annotations

import importlib
import itertools
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.engine.artifact import PointResult, SweepArtifact
from repro.engine.spec import ExperimentSpec, PointSpec, SchemeSpec, plan_shards
from repro.engine.store import ResultStore, shard_key
from repro.gen.generator import generate_taskset
from repro.gen.params import WorkloadConfig
from repro.metrics.aggregate import SchemeAccumulator, SchemeStats
from repro.obs import runtime as obs
from repro.obs.metrics import Histogram
from repro.partition.backend import get_backend
from repro.partition.lockstep import lockstep_supported, partition_lockstep
from repro.partition.probe import probe_implementation, use_probe_implementation
from repro.types import ReproError

__all__ = [
    "Engine",
    "EngineRunStats",
    "ShardKind",
    "register_shard_kind",
    "shard_kind",
    "run_experiment",
]

#: Progress hook: called with one event dict per shard / point; see
#: :meth:`Engine._emit` for the event shapes.  Hooks are *advisory*: an
#: exception raised by a hook is caught, warned about once, and disables
#: the hook for the rest of the run — it never aborts a sweep
#: (``KeyboardInterrupt``/``SystemExit`` still propagate).
ProgressHook = Callable[[dict], None]


@dataclass
class EngineRunStats:
    """Observability counters for one engine lifetime.

    Shard timings land in ``shard_seconds_hist``, an exact log-bucket
    :class:`~repro.obs.Histogram`: fixed global edges, so percentiles
    are stable at ``2**(1/8)`` (~9 %) bucket resolution and merges
    across worker processes are exactly associative (pinned by a
    hypothesis property in ``tests/engine/``).
    """

    points: int = 0
    shards_planned: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    shards_computed: int = 0
    compute_seconds: float = 0.0
    worker_retries: int = 0
    shard_seconds_hist: Histogram = field(
        default_factory=lambda: Histogram("engine.shard_seconds")
    )

    def as_dict(self) -> dict:
        return {
            "points": self.points,
            "shards_planned": self.shards_planned,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "shards_computed": self.shards_computed,
            "compute_seconds": self.compute_seconds,
            "worker_retries": self.worker_retries,
            "shard_seconds_hist": self.shard_seconds_hist.as_dict(),
        }


def _generate_timed(config: WorkloadConfig, rng):
    """Generate one task set, attributing the time to a ``gen.taskset``
    aggregate child of the enclosing shard span (when instrumented)."""
    if not obs.OBS.enabled:
        return generate_taskset(config, rng)
    t0 = time.perf_counter()
    taskset = generate_taskset(config, rng)
    obs.add_span_time("gen.taskset", time.perf_counter() - t0)
    return taskset


#: Most (set, scheme) lanes one lockstep wave advances together.  Bounds
#: the wave's padded tensors (a few MB at K=6) while keeping the per-step
#: kernel call wide enough to amortize NumPy dispatch.
WAVE_LANES = 1024

#: One stats shard of work: ``(config, schemes, seed, start, count)``.
StatsShard = tuple[WorkloadConfig, tuple[SchemeSpec, ...], int, int, int]


def _lockstep_enabled(impl: str | None = None) -> bool:
    """Lockstep lanes need the batch kernels and no per-attempt telemetry.

    ``impl`` defaults to the active probe backend.  Instrumented runs
    keep the per-set path: its ``partition.attempt`` spans and per-probe
    counters have no lockstep equivalent.
    """
    return (impl or probe_implementation()) == "batch" and not obs.OBS.enabled


def _partition_wave(lanes: list, lockstep: bool) -> list:
    """Partition ``(taskset, partitioner, cores)`` lanes, in lane order.

    Supported lanes advance in lockstep, one group per core count; the
    rest go through :meth:`Partitioner.partition` one by one.
    """
    results: list = [None] * len(lanes)
    groups: dict[int, list[int]] = {}
    for i, (taskset, partitioner, cores) in enumerate(lanes):
        if lockstep and lockstep_supported(partitioner):
            groups.setdefault(cores, []).append(i)
        else:
            results[i] = partitioner.partition(taskset, cores)
    for cores, indices in groups.items():
        batch = partition_lockstep(
            [(lanes[i][0], lanes[i][1]) for i in indices], cores
        )
        for i, result in zip(indices, batch):
            results[i] = result
    return results


def _run_stats_waves(
    shards: list[StatsShard],
    on_done: Callable[[int, list[SchemeAccumulator], float], None],
    *,
    lockstep: bool | None = None,
) -> None:
    """Evaluate stats shards as (set, scheme) lanes in waves.

    Lanes are enumerated shard by shard, set by set and scheme by
    scheme, and cut into consecutive waves of at most
    :data:`WAVE_LANES`, so one wave may span several shards (and data
    points).  Results reach each shard's accumulators in lane order,
    which is the per-set loop's order, so the accumulators are
    identical.  ``on_done(index, accumulators, seconds)`` fires as soon
    as the wave that completes shard ``index`` has finished; a shard's
    ``seconds`` is its lane share of every wave it took part in.
    ``lockstep=None`` decides by :func:`_lockstep_enabled`.
    """
    if lockstep is None:
        lockstep = _lockstep_enabled()
    built = [
        [(spec.label, spec.build()) for spec in schemes]
        for _, schemes, _, _, _ in shards
    ]
    accs = [
        {label: SchemeAccumulator(label) for label, _ in partitioners}
        for partitioners in built
    ]
    lanes_left = [
        count * len(partitioners)
        for (_, _, _, _, count), partitioners in zip(shards, built)
    ]
    seconds = [0.0] * len(shards)

    def lanes():
        for shard, (config, _, seed, start, count) in enumerate(shards):
            for i in range(start, start + count):
                stream = np.random.SeedSequence(seed, spawn_key=(i,))
                taskset = _generate_timed(config, np.random.default_rng(stream))
                for label, partitioner in built[shard]:
                    yield shard, label, taskset, partitioner, config.cores

    pending = lanes()
    while True:
        t0 = time.perf_counter()
        wave = list(itertools.islice(pending, WAVE_LANES))
        if not wave:
            return
        results = _partition_wave(
            [(taskset, p, cores) for _, _, taskset, p, cores in wave], lockstep
        )
        share: dict[int, int] = {}
        for (shard, label, _, _, _), result in zip(wave, results):
            # Accumulators are keyed by label, which may differ from the
            # partitioner's registry name (e.g. alpha variants).
            accs[shard][label].add(result, check_scheme=False)
            share[shard] = share.get(shard, 0) + 1
        elapsed = time.perf_counter() - t0
        for shard, count in share.items():
            seconds[shard] += elapsed * count / len(wave)
            lanes_left[shard] -= count
            if lanes_left[shard] == 0:
                on_done(shard, list(accs[shard].values()), seconds[shard])


def _run_stats_shard(
    config: WorkloadConfig,
    schemes: tuple[SchemeSpec, ...],
    seed: int,
    start: int,
    count: int,
) -> list[SchemeAccumulator]:
    """Evaluate task sets ``start .. start+count-1`` of a stats point."""
    out: list[list[SchemeAccumulator]] = []
    _run_stats_waves(
        [(config, schemes, seed, start, count)],
        lambda _shard, accs, _seconds: out.append(accs),
    )
    return out[0]


def _run_h2h_shard(
    config: WorkloadConfig,
    schemes: tuple[SchemeSpec, ...],
    seed: int,
    start: int,
    count: int,
) -> dict:
    """Pairwise dominance tallies over one shard of the common batch."""
    partitioners = [(spec.label, spec.build()) for spec in schemes]
    labels = [label for label, _ in partitioners]
    accepted = {label: 0 for label in labels}
    wins = {a: {b: 0 for b in labels if b != a} for a in labels}
    for i in range(start, start + count):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        taskset = _generate_timed(config, rng)
        outcome = {
            label: p.partition(taskset, config.cores).schedulable
            for label, p in partitioners
        }
        for a in labels:
            accepted[a] += outcome[a]
            for b in labels:
                if a != b and outcome[a] and not outcome[b]:
                    wins[a][b] += 1
    return {"labels": labels, "accepted": accepted, "wins": wins, "sets": count}


@dataclass(frozen=True)
class ShardKind:
    """How the engine runs, persists, and merges one kind of shard.

    ``run(config, schemes, seed, start, count)`` evaluates one shard;
    ``encode(result)`` / ``decode(payload)`` convert it to/from the
    strict-JSON form the :class:`ResultStore` checkpoints (``encode``
    must stamp ``{"kind": name}`` so ``decode`` can reject mismatched
    entries); ``merge(point, shards)`` folds the ascending-``start``
    shard list into the point result.
    """

    name: str
    run: Callable
    encode: Callable[[object], dict]
    decode: Callable[[dict], object]
    merge: Callable[[PointSpec, list], object]


_SHARD_KINDS: dict[str, ShardKind] = {}

#: Kinds whose implementation lives in a package the engine must not
#: import eagerly (it would be a circular / upward dependency).  Looked
#: up on first use — including inside spawned worker processes, whose
#: interpreters start with only the engine imported.
_KIND_PROVIDERS = {
    "validate": "repro.validate.fuzz",
    "dynsim": "repro.experiments.dynamic",
}


def _shard_run_kwargs(params: tuple[tuple[str, object], ...]) -> dict:
    """Kind-specific knobs as runner kwargs.

    Only kinds that declare :attr:`PointSpec.params` receive the extra
    ``params`` argument, so the legacy 5-argument runner signature (and
    with it every existing shard hash) is untouched.
    """
    return {"params": dict(params)} if params else {}


def register_shard_kind(
    name: str, *, run: Callable, encode: Callable, decode: Callable, merge: Callable
) -> None:
    """Register (or idempotently re-register) a point-evaluation mode."""
    _SHARD_KINDS[name] = ShardKind(
        name=name, run=run, encode=encode, decode=decode, merge=merge
    )


def shard_kind(name: str) -> ShardKind:
    """Resolve a kind, importing its provider module on first use."""
    kind = _SHARD_KINDS.get(name)
    if kind is None and name in _KIND_PROVIDERS:
        importlib.import_module(_KIND_PROVIDERS[name])
        kind = _SHARD_KINDS.get(name)
    if kind is None:
        raise ReproError(
            f"unknown shard kind {name!r}; registered: {sorted(_SHARD_KINDS)}"
        )
    return kind


def _run_shard_job(
    kind: str,
    config: WorkloadConfig,
    schemes: tuple[SchemeSpec, ...],
    seed: int,
    start: int,
    count: int,
    collect_metrics: bool,
    probe_impl: str = "batch",
    params: tuple[tuple[str, object], ...] = (),
):
    """Worker-process entry point: run one shard, optionally with metrics.

    ``probe_impl`` is passed explicitly because contextvars do not cross
    the ``ProcessPoolExecutor`` boundary: a worker interpreter starts on
    the default backend, so the parent's selection must ride the job
    arguments (it is also part of the shard key, so stores never mix
    backends).

    When the parent engine runs instrumented, each worker evaluates its
    shard inside :func:`repro.obs.collect` (a fresh registry) and ships
    the registry dump *and its completed span records* back with the
    result; the parent merges the dump and re-roots the spans under its
    own ``engine.shard`` span with :func:`repro.obs.adopt_spans`, so
    probe/Theorem-1/partition counters and the trace tree both survive
    the process boundary.  Returns
    ``(result, metrics_dump_or_None, span_records_or_None)``.
    """
    run_shard = shard_kind(kind).run
    extra = _shard_run_kwargs(params)
    with use_probe_implementation(probe_impl):
        if not collect_metrics:
            return (
                run_shard(config, schemes, seed, start, count, **extra),
                None,
                None,
            )
        with obs.collect() as registry:
            with obs.span(
                "engine.shard.compute", set_start=start, set_count=count
            ):
                result = run_shard(config, schemes, seed, start, count, **extra)
            return result, registry.dump(), obs.drain_spans()


def _encode_stats(result) -> dict:
    return {"kind": "stats", "accumulators": [a.to_dict() for a in result]}


def _encode_h2h(result) -> dict:
    return {"kind": "h2h", **result}


def _checked_kind(kind: str, payload: dict) -> dict:
    if payload.get("kind") != kind:
        raise ReproError(
            f"stored shard kind {payload.get('kind')!r} != requested {kind!r}"
        )
    return payload


def _decode_stats(payload: dict):
    payload = _checked_kind("stats", payload)
    return [SchemeAccumulator.from_dict(d) for d in payload["accumulators"]]


def _decode_h2h(payload: dict):
    payload = _checked_kind("h2h", payload)
    return {
        "labels": list(payload["labels"]),
        "accepted": dict(payload["accepted"]),
        "wins": {a: dict(row) for a, row in payload["wins"].items()},
        "sets": int(payload["sets"]),
    }


def _merge_stats(point: PointSpec, shards: list) -> dict[str, SchemeStats]:
    merged = {label: SchemeAccumulator(label) for label in point.labels}
    for shard in shards:
        for acc in shard:
            merged[acc.scheme].merge(acc)
    return {label: merged[label].finalize() for label in point.labels}


def _merge_h2h(point: PointSpec, shards: list) -> dict:
    labels = list(point.labels)
    accepted = {label: 0 for label in labels}
    wins = {a: {b: 0 for b in labels if b != a} for a in labels}
    sets = 0
    for shard in shards:
        sets += shard["sets"]
        for a in labels:
            accepted[a] += shard["accepted"][a]
            for b, n in shard["wins"][a].items():
                wins[a][b] += n
    return {"labels": labels, "accepted": accepted, "wins": wins, "sets": sets}


register_shard_kind(
    "stats",
    run=_run_stats_shard,
    encode=_encode_stats,
    decode=_decode_stats,
    merge=_merge_stats,
)
register_shard_kind(
    "h2h",
    run=_run_h2h_shard,
    encode=_encode_h2h,
    decode=_decode_h2h,
    merge=_merge_h2h,
)


class Engine:
    """Evaluates :class:`PointSpec` / :class:`ExperimentSpec` objects.

    Parameters
    ----------
    jobs:
        Worker processes per point; 1 (default) runs inline — results
        are bit-identical either way.  ``None`` uses ``os.cpu_count()``.
    store:
        Optional :class:`ResultStore` (or a path, coerced).  With a
        store, completed shards are checkpointed as they finish and
        later runs resume from them.
    progress:
        Optional hook receiving one event dict per point/shard.
    probe_impl:
        Probe backend every shard evaluates under (and is keyed by in
        the store).  ``None`` (default) resolves the ambient selection
        (:func:`repro.partition.probe.probe_implementation`) at each
        ``evaluate`` call, so ``with use_probe_implementation(...)``
        around a sweep is honoured — including inside worker processes,
        which receive the resolved name explicitly because contextvars
        do not cross the pool boundary.
    """

    def __init__(
        self,
        *,
        jobs: int | None = 1,
        store: ResultStore | str | os.PathLike | None = None,
        progress: ProgressHook | None = None,
        probe_impl: str | None = None,
    ) -> None:
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        if probe_impl is not None:
            get_backend(probe_impl)  # fail fast on unknown names
        self.jobs = jobs
        self.store = store
        self.progress = progress
        self.probe_impl = probe_impl
        self.stats = EngineRunStats()

    def _resolved_impl(self) -> str:
        return self.probe_impl or probe_implementation()

    # -- observability -------------------------------------------------

    def _emit(self, event: str, **payload) -> None:
        """Fan one engine event out to the obs sink and the progress hook.

        Structured telemetry goes through :func:`repro.obs.emit` (a
        no-op unless instrumentation is enabled with a sink).  The
        legacy dict-based ``progress`` hook still fires for rendering,
        but it can no longer abort a sweep: the first exception it
        raises is converted into a single ``RuntimeWarning`` and the
        hook is disabled for the rest of the run.
        """
        obs.emit(f"engine.{event}", **payload)
        hook = self.progress
        if hook is None:
            return
        try:
            hook({"event": event, **payload})
        except Exception as exc:
            self.progress = None
            warnings.warn(
                f"progress hook raised {exc!r}; "
                "disabling the hook for the rest of this run",
                RuntimeWarning,
                stacklevel=2,
            )

    def _record_shard(self, seconds: float) -> None:
        self.stats.shards_computed += 1
        self.stats.compute_seconds += seconds
        self.stats.shard_seconds_hist.observe(seconds)
        if obs.OBS.enabled:
            obs.counter("engine.shards_computed").inc()
            obs.histogram("engine.shard_seconds").observe(seconds)

    # -- shard execution ----------------------------------------------

    def _effective_jobs(self, sets: int) -> int:
        jobs = os.cpu_count() or 1 if self.jobs is None else self.jobs
        return max(1, min(jobs, sets))

    def _finish_shard(
        self,
        point: PointSpec,
        start: int,
        count: int,
        result,
        seconds: float,
        impl: str,
    ) -> None:
        """Checkpoint, count and announce one computed shard."""
        if self.store is not None:
            with obs.span("engine.store.put"):
                self.store.put(
                    shard_key(point, start, count, probe_impl=impl),
                    shard_kind(point.kind).encode(result),
                )
        self._record_shard(seconds)
        self._emit("shard", start=start, count=count, cached=False, seconds=seconds)

    def _compute_missing(
        self,
        point: PointSpec,
        missing: list[tuple[int, int]],
        jobs: int,
        impl: str,
    ) -> dict[int, object]:
        """Run the uncached shards, checkpointing each as it completes."""
        run_shard = shard_kind(point.kind).run
        extra = _shard_run_kwargs(point.params)
        results: dict[int, object] = {}

        def finish(start: int, count: int, result, seconds: float) -> None:
            self._finish_shard(point, start, count, result, seconds, impl)
            results[start] = result

        if jobs == 1 or len(missing) == 1:
            # Inline execution: metrics (if enabled) accumulate straight
            # into the parent registry — no transfer step needed.
            with use_probe_implementation(impl):
                for start, count in missing:
                    t0 = time.perf_counter()
                    with obs.span(
                        "engine.shard", set_start=start, set_count=count
                    ):
                        result = run_shard(
                            point.config,
                            point.schemes,
                            point.seed,
                            start,
                            count,
                            **extra,
                        )
                    finish(start, count, result, time.perf_counter() - t0)
            return results

        collect_metrics = obs.OBS.enabled
        with ProcessPoolExecutor(max_workers=min(jobs, len(missing))) as pool:
            with obs.span("engine.shard.submit", shards=len(missing)):
                t_submit = time.time()
                futures = [
                    pool.submit(
                        _run_shard_job,
                        point.kind,
                        point.config,
                        point.schemes,
                        point.seed,
                        start,
                        count,
                        collect_metrics,
                        impl,
                        point.params,
                    )
                    for start, count in missing
                ]
            t0 = time.perf_counter()
            for future, (start, count) in zip(futures, missing):
                span_records = None
                try:
                    with obs.span(
                        "engine.shard.receive", set_start=start, set_count=count
                    ):
                        result, metrics_dump, span_records = future.result()
                except BrokenProcessPool as pool_exc:
                    # A crashed worker poisons the whole pool and every
                    # pending future; salvage the batch by re-running
                    # this shard inline (the shard is self-seeded, so
                    # the retry is bit-identical to a worker run).
                    self.stats.worker_retries += 1
                    if obs.OBS.enabled:
                        obs.counter("engine.worker_retries").inc()
                    self._emit(
                        "worker_retry", start=start, count=count, error=repr(pool_exc)
                    )
                    try:
                        with obs.span(
                            "engine.shard",
                            set_start=start,
                            set_count=count,
                            retried=True,
                        ), use_probe_implementation(impl):
                            result = run_shard(
                                point.config,
                                point.schemes,
                                point.seed,
                                start,
                                count,
                                **extra,
                            )
                        metrics_dump = None  # inline retry fed the registry
                        span_records = None
                    except Exception as retry_exc:
                        raise ReproError(
                            f"worker shard [{start}, {start + count}) crashed"
                            f" ({pool_exc!r}) and the inline retry failed"
                        ) from retry_exc
                else:
                    # The shard's submit->receive window can't be a
                    # ``with`` block (the windows of concurrent shards
                    # overlap), so record it explicitly and re-root the
                    # worker's spans under it.
                    if obs.OBS.enabled:
                        shard_span = obs.record_span(
                            "engine.shard",
                            start=t_submit,
                            seconds=time.time() - t_submit,
                            set_start=start,
                            set_count=count,
                        )
                        if span_records:
                            obs.adopt_spans(span_records, shard_span)
                if metrics_dump is not None and obs.OBS.enabled:
                    obs.OBS.registry.merge(metrics_dump)
                t1 = time.perf_counter()
                finish(start, count, result, t1 - t0)
                t0 = t1
        return results

    # -- public API ----------------------------------------------------

    def evaluate(self, point: PointSpec):
        """Evaluate one data point, resuming from checkpointed shards.

        Returns ``dict[label, SchemeStats]`` for ``kind="stats"`` points,
        the merged dominance payload for ``kind="h2h"`` points, and the
        merged campaign payload for ``kind="validate"`` points.
        """
        with obs.span("engine.point", kind=point.kind, sets=point.sets):
            impl = self._resolved_impl()
            jobs = self._effective_jobs(point.sets)
            shards, results, missing = self._lookup(point, jobs, impl)
            if missing:
                results.update(self._compute_missing(point, missing, jobs, impl))
            return self._merge(point, shards, results)

    def _lookup(
        self, point: PointSpec, jobs: int, impl: str
    ) -> tuple[list[tuple[int, int]], dict[int, object], list[tuple[int, int]]]:
        """Plan a point's shards and answer what the store holds.

        Emits ``point_plan`` and one ``shard`` event per cache hit;
        returns ``(shards, cached results by start, missing shards)``.
        """
        kind = shard_kind(point.kind)
        shards = plan_shards(point.sets, jobs)
        self.stats.points += 1
        self.stats.shards_planned += len(shards)
        # The ETA anchor for live dashboards (repro-mc top): how
        # much work this point holds and how wide it fans out.
        self._emit(
            "point_plan",
            kind=point.kind,
            sets=point.sets,
            shards=len(shards),
            jobs=jobs,
        )
        results: dict[int, object] = {}
        missing: list[tuple[int, int]] = []
        for start, count in shards:
            if self.store is not None:
                with obs.span("engine.store.get"):
                    cached = self.store.get(
                        shard_key(point, start, count, probe_impl=impl)
                    )
            else:
                cached = None
            if cached is not None:
                results[start] = kind.decode(cached)
                self.stats.cache_hits += 1
                if obs.OBS.enabled:
                    obs.counter("engine.cache_hits").inc()
                self._emit(
                    "shard", start=start, count=count, cached=True, seconds=0.0
                )
            else:
                if self.store is not None:
                    self.stats.cache_misses += 1
                    if obs.OBS.enabled:
                        obs.counter("engine.cache_misses").inc()
                missing.append((start, count))
        return shards, results, missing

    def _merge(
        self,
        point: PointSpec,
        shards: list[tuple[int, int]],
        results: dict[int, object],
    ):
        with obs.span("engine.merge", kind=point.kind):
            ordered = [results[start] for start, _ in shards]
            return shard_kind(point.kind).merge(point, ordered)

    def run(self, spec: ExperimentSpec) -> SweepArtifact:
        """Evaluate a whole figure spec into a :class:`SweepArtifact`."""
        with obs.span("engine.run", figure=spec.figure):
            return self._run(spec)

    def _run(self, spec: ExperimentSpec) -> SweepArtifact:
        self._emit(
            "run_plan",
            figure=spec.figure,
            points=len(spec.points),
            sets_per_point=spec.sets_per_point,
        )
        for point in spec.points:
            if point.kind != "stats":
                raise ReproError(
                    f"ExperimentSpec points must be kind='stats', got {point.kind!r}"
                )
        if _lockstep_enabled(self._resolved_impl()) and all(
            self._effective_jobs(p.sets) == 1 for p in spec.points
        ):
            stats = self._run_fused(spec)
        else:
            stats = []
            for value, point in zip(spec.values, spec.points):
                self._emit(
                    "point", figure=spec.figure, parameter=spec.parameter, value=value
                )
                stats.append(self.evaluate(point))
        rows = tuple(
            PointResult(
                value=value,
                config=point.config,
                schemes=point.schemes,
                stats=tuple(point_stats[label] for label in point.labels),
            )
            for value, point, point_stats in zip(spec.values, spec.points, stats)
        )
        return SweepArtifact(
            figure=spec.figure,
            title=spec.title,
            parameter=spec.parameter,
            values=spec.values,
            sets_per_point=spec.sets_per_point,
            seed=spec.seed,
            rows=rows,
        )

    def _run_fused(self, spec: ExperimentSpec) -> list[dict[str, SchemeStats]]:
        """The lockstep ``jobs=1`` run: every point's lookups, then one compute.

        Every missing shard of the spec goes to one
        :func:`_run_stats_waves` call, so lanes span points; each shard
        is checkpointed and announced as soon as its wave finishes.
        """
        impl = self._resolved_impl()
        planned = []
        for value, point in zip(spec.values, spec.points):
            self._emit(
                "point", figure=spec.figure, parameter=spec.parameter, value=value
            )
            with obs.span("engine.point", kind=point.kind, sets=point.sets):
                planned.append((point, *self._lookup(point, 1, impl)))

        todo = [
            (point, results, start, count)
            for point, _, results, missing in planned
            for start, count in missing
        ]

        def done(index: int, accs: list, seconds: float) -> None:
            point, results, start, count = todo[index]
            self._finish_shard(point, start, count, accs, seconds, impl)
            results[start] = accs

        with use_probe_implementation(impl):
            _run_stats_waves(
                [
                    (point.config, point.schemes, point.seed, start, count)
                    for point, _, start, count in todo
                ],
                done,
                lockstep=True,
            )
        return [
            self._merge(point, shards, results)
            for point, shards, results, _ in planned
        ]


def run_experiment(
    spec: ExperimentSpec,
    *,
    jobs: int | None = 1,
    store: ResultStore | str | os.PathLike | None = None,
    progress: ProgressHook | None = None,
    probe_impl: str | None = None,
) -> SweepArtifact:
    """One-shot convenience wrapper around :meth:`Engine.run`."""
    return Engine(
        jobs=jobs, store=store, progress=progress, probe_impl=probe_impl
    ).run(spec)

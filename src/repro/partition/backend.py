"""Pluggable probe backends: scalar, batch, and incremental Δ-state.

The probing question of Algorithm 1 — "what would ``U^{Psi_m + tau_i}``
be if task ``i`` joined core ``m``?" — admits three evaluation
strategies with bit-identical answers:

* :class:`ScalarBackend` evaluates one ``(K, K)`` matrix per core with
  :mod:`repro.analysis.edfvd`, probing lazily in preference order where
  the heuristics historically did;
* :class:`BatchBackend` builds all ``M`` candidate matrices in one
  broadcasted ``(M, K, K)`` stack and evaluates them with
  :mod:`repro.analysis.batch` in a single NumPy pass;
* :class:`IncrementalBackend` caches evaluated probe rows on the
  partition (:attr:`repro.model.partition.Partition.probe_state`) next
  to the per-core version counters and, on re-probe, recomputes **only**
  the (task, core) hypotheses whose core was mutated since — every stale
  pair of a whole micro-batch goes through one flat kernel call
  (:meth:`Partition.candidate_pairs_stack`).

Bit-identity of the incremental path rests on a structural property of
the batch kernels (:func:`~repro.analysis.batch._core_utilization_stack`
and :func:`~repro.analysis.batch._is_feasible_stack`): they are per-row
independent — rows interact only through masked writes and an early
``break`` taken when *all* rows are dead, at which point every
remaining entry is ``nan``-final anyway.  Evaluating any sub-stack of
candidate matrices therefore reproduces the matching rows of the full
stack bit for bit, so serving the unchanged columns from cache cannot
move a placement decision.  The validate campaign pins
scalar == batch == incremental end to end.

Backends are selected *by name* through the registry below; the
contextvar that holds the active name (and the public module-level
probe functions the schemes call) lives in :mod:`repro.partition.probe`.
Unknown names raise :class:`repro.types.ModelError` (a
:class:`~repro.types.ReproError`), never a bare ``KeyError``.

Instrumentation mirrors the historical probe counters
(``probe.calls.<impl>``, ``probe.cores_probed``, theorem-1 admission
attribution) with one incremental-specific nuance: ``probe.cores_probed``
counts only *freshly evaluated* hypotheses (the kernel work actually
done) and the columns served from cache accrue under
``probe.cache_hits.incremental``; the ``theorem1.*`` admission-path
attribution is likewise recorded for fresh evaluations only, because a
cached column no longer has its candidate matrix at hand.
"""

from __future__ import annotations

import abc
import time
from typing import Iterable, Sequence

import numpy as np

from repro.analysis.batch import (
    _available_utilizations,
    _core_utilization_stack,
    _is_feasible_stack,
)
from repro.analysis.edfvd import available_utilizations, core_utilization
from repro.analysis.feasibility import is_feasible_core
from repro.model.partition import Partition
from repro.obs.runtime import OBS, add_span_time
from repro.types import EPS, ModelError, fits_unit_capacity

__all__ = [
    "ProbeBackend",
    "ScalarBackend",
    "BatchBackend",
    "IncrementalBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "candidate_level_matrix",
    "probe_core_utilization",
    "probe_feasible",
]


def _check_rule(rule: str) -> None:
    if rule not in ("max", "min"):
        raise ModelError(f"unknown Eq. (9) rule {rule!r}; use 'max' or 'min'")


# ----------------------------------------------------------------------
# Instrumentation recorders (touched only when OBS.enabled)
# ----------------------------------------------------------------------
def _tagged(name: str) -> str:
    """Append the active scheme tag: ``theorem1.eq4_pass[ca-tpa]``."""
    scheme = OBS.scheme
    return f"{name}[{scheme}]" if scheme else name


def _record_utilization_probe(impl: str, new_utils: np.ndarray) -> None:
    """Count one Eq.-(15) probe evaluation and its infeasible cores."""
    reg = OBS.registry
    reg.counter(_tagged(f"probe.calls.{impl}")).inc()
    reg.counter("probe.cores_probed").inc(int(new_utils.size))
    reg.counter("probe.infeasible_cores").inc(
        int(np.count_nonzero(~np.isfinite(new_utils)))
    )


def _record_feasibility_stack(stack: np.ndarray, feasible: np.ndarray) -> None:
    """Attribute every core of a feasibility probe to its admission path.

    ``eq4_pass`` counts cores admitted by the Eq.-(4) trace test alone;
    ``admitted`` counts cores that failed Eq. (4) but passed the
    Theorem-1 chain, broken down by the first condition ``k`` of
    Ineq. (5) with non-negative available utilization;  ``rejected``
    counts cores that failed both.
    """
    reg = OBS.registry
    eq4 = fits_unit_capacity(np.trace(stack, axis1=1, axis2=2))
    reg.counter(_tagged("theorem1.eq4_pass")).inc(int(np.count_nonzero(eq4)))
    reg.counter(_tagged("theorem1.rejected")).inc(
        int(np.count_nonzero(~feasible))
    )
    admitted = feasible & ~eq4
    n_admitted = int(np.count_nonzero(admitted))
    reg.counter(_tagged("theorem1.admitted")).inc(n_admitted)
    if n_admitted:
        avail = _available_utilizations(stack[admitted])
        first = np.argmax(avail >= -EPS, axis=1)
        for k in np.unique(first):
            reg.counter(_tagged(f"theorem1.cond_pass.k{int(k) + 1}")).inc(
                int(np.count_nonzero(first == k))
            )


def _record_scalar_feasibility(mat: np.ndarray, feasible: bool) -> None:
    """Scalar twin of :func:`_record_feasibility_stack` (one core)."""
    reg = OBS.registry
    reg.counter(_tagged("probe.calls.scalar")).inc()
    reg.counter("probe.cores_probed").inc()
    eq4 = bool(fits_unit_capacity(float(np.trace(mat))))
    if eq4:
        reg.counter(_tagged("theorem1.eq4_pass")).inc()
    elif feasible:
        reg.counter(_tagged("theorem1.admitted")).inc()
        avail = available_utilizations(mat)
        k = int(np.argmax(avail >= -EPS))
        reg.counter(_tagged(f"theorem1.cond_pass.k{k + 1}")).inc()
    if not feasible:
        reg.counter(_tagged("theorem1.rejected")).inc()


def _record_incremental(
    values: np.ndarray, n_calls: int, n_fresh: int
) -> None:
    """Count an incremental probe: fresh kernel work vs cached columns."""
    reg = OBS.registry
    reg.counter(_tagged("probe.calls.incremental")).inc(int(n_calls))
    reg.counter("probe.cores_probed").inc(int(n_fresh))
    reg.counter("probe.cache_hits.incremental").inc(
        int(values.size - n_fresh)
    )


# ----------------------------------------------------------------------
# Scalar primitives (one core at a time) — shared with repro.partition.probe
# ----------------------------------------------------------------------
def candidate_level_matrix(
    partition: Partition, core: int, task_index: int
) -> np.ndarray:
    """Level matrix of core ``core`` if ``task_index`` were added to it."""
    taskset = partition.taskset
    mat = partition.level_matrix(core).copy()
    crit = int(taskset.criticalities[task_index])
    mat[crit - 1, :crit] += taskset.utilization_matrix[task_index, :crit]
    return mat


def probe_core_utilization(
    partition: Partition, core: int, task_index: int, rule: str = "max"
) -> float:
    """Hypothetical new core utilization ``U^{Psi_m + tau_i}`` (Eq. (15)).

    ``inf`` (:data:`repro.types.INFEASIBLE`) when the enlarged subset
    fails Theorem 1, per Eq. (15a).  ``rule`` selects the Eq. (9)
    aggregation (see :func:`repro.analysis.core_utilization`).
    """
    if OBS.enabled:
        t0 = time.perf_counter()
        new_util = core_utilization(
            candidate_level_matrix(partition, core, task_index), rule=rule
        )
        add_span_time("probe", time.perf_counter() - t0)
        reg = OBS.registry
        reg.counter(_tagged("probe.calls.scalar")).inc()
        reg.counter("probe.cores_probed").inc()
        if not np.isfinite(new_util):
            reg.counter("probe.infeasible_cores").inc()
        return new_util
    return core_utilization(
        candidate_level_matrix(partition, core, task_index), rule=rule
    )


def probe_feasible(partition: Partition, core: int, task_index: int) -> bool:
    """Would the enlarged subset pass the Eq.(4)-or-Theorem-1 test?"""
    if OBS.enabled:
        t0 = time.perf_counter()
        mat = candidate_level_matrix(partition, core, task_index)
        feasible = is_feasible_core(mat)
        add_span_time("probe", time.perf_counter() - t0)
        _record_scalar_feasibility(mat, feasible)
        return feasible
    return is_feasible_core(candidate_level_matrix(partition, core, task_index))


# ----------------------------------------------------------------------
# The backend protocol
# ----------------------------------------------------------------------
class ProbeBackend(abc.ABC):
    """One strategy for answering every probe the heuristics can ask.

    Implementations must be bit-identical to each other for every
    method: the schemes (and the admission daemon) switch backends
    without changing a single placement decision.  The four abstract
    methods are the evaluation primitives; the two preference-order
    scans have a shared full-row default that lazy backends may
    override.
    """

    #: Registry name; also the value of the ``--probe-impl`` flag.
    name: str = ""

    @abc.abstractmethod
    def probe(
        self, partition: Partition, task_index: int, rule: str = "max"
    ) -> np.ndarray:
        """Eq.-(15) probe of one task against every core: ``(M,)`` floats."""

    @abc.abstractmethod
    def probe_feasible(
        self, partition: Partition, task_index: int
    ) -> np.ndarray:
        """Eq.(4)-or-Theorem-1 feasibility on every core: ``(M,)`` bools."""

    @abc.abstractmethod
    def probe_tasks(
        self,
        partition: Partition,
        task_indices: Sequence[int],
        rule: str = "max",
    ) -> np.ndarray:
        """Eq.-(15) probes of several tasks against every core: ``(T, M)``."""

    @abc.abstractmethod
    def probe_feasible_tasks(
        self, partition: Partition, task_indices: Sequence[int]
    ) -> np.ndarray:
        """Feasibility of several tasks on every core: boolean ``(T, M)``."""

    def first_feasible_core(
        self,
        partition: Partition,
        task_index: int,
        core_order: Iterable[int] | None = None,
    ) -> int | None:
        """First core in ``core_order`` on which the task is feasible."""
        if core_order is None:
            core_order = range(partition.cores)
        feasible = self.probe_feasible(partition, task_index)
        for m in core_order:
            if feasible[int(m)]:
                return int(m)
        return None

    def first_finite_probe(
        self,
        partition: Partition,
        task_index: int,
        core_order: Iterable[int],
        rule: str = "max",
    ) -> tuple[int | None, float]:
        """First core in ``core_order`` with a finite Eq.-(15) probe."""
        new_utils = self.probe(partition, task_index, rule=rule)
        for m in core_order:
            if np.isfinite(new_utils[int(m)]):
                return int(m), float(new_utils[int(m)])
        return None, np.inf


# ----------------------------------------------------------------------
# Scalar backend: one (K, K) matrix per core, lazy preference order
# ----------------------------------------------------------------------
class ScalarBackend(ProbeBackend):
    """Per-core scalar evaluation via :mod:`repro.analysis.edfvd`."""

    name = "scalar"

    def probe(
        self, partition: Partition, task_index: int, rule: str = "max"
    ) -> np.ndarray:
        # Counters accrue inside the scalar primitive, one per core.
        return np.array(
            [
                probe_core_utilization(partition, m, task_index, rule=rule)
                for m in range(partition.cores)
            ],
            dtype=np.float64,
        )

    def probe_feasible(
        self, partition: Partition, task_index: int
    ) -> np.ndarray:
        return np.array(
            [
                probe_feasible(partition, m, task_index)
                for m in range(partition.cores)
            ],
            dtype=bool,
        )

    def probe_tasks(
        self,
        partition: Partition,
        task_indices: Sequence[int],
        rule: str = "max",
    ) -> np.ndarray:
        idx = np.asarray(task_indices, dtype=np.int64)
        if idx.size == 0:
            return np.empty((0, partition.cores), dtype=np.float64)
        return np.stack(
            [self.probe(partition, int(i), rule=rule) for i in idx]
        )

    def probe_feasible_tasks(
        self, partition: Partition, task_indices: Sequence[int]
    ) -> np.ndarray:
        idx = np.asarray(task_indices, dtype=np.int64)
        if idx.size == 0:
            return np.empty((0, partition.cores), dtype=bool)
        return np.stack([self.probe_feasible(partition, int(i)) for i in idx])

    def first_feasible_core(
        self,
        partition: Partition,
        task_index: int,
        core_order: Iterable[int] | None = None,
    ) -> int | None:
        # Lazy preference-order probing: the historical behaviour of the
        # FFD-like schemes (stop at the first feasible core).
        if core_order is None:
            core_order = range(partition.cores)
        for m in core_order:
            if probe_feasible(partition, int(m), task_index):
                return int(m)
        return None

    def first_finite_probe(
        self,
        partition: Partition,
        task_index: int,
        core_order: Iterable[int],
        rule: str = "max",
    ) -> tuple[int | None, float]:
        for m in core_order:
            new_util = probe_core_utilization(
                partition, int(m), task_index, rule=rule
            )
            if np.isfinite(new_util):
                return int(m), new_util
        return None, np.inf


# ----------------------------------------------------------------------
# Batch backend: all cores at once, one NumPy pass
# ----------------------------------------------------------------------
class BatchBackend(ProbeBackend):
    """Stacked ``(M, K, K)`` evaluation via :mod:`repro.analysis.batch`."""

    name = "batch"

    def probe(
        self, partition: Partition, task_index: int, rule: str = "max"
    ) -> np.ndarray:
        _check_rule(rule)
        if OBS.enabled:
            t0 = time.perf_counter()
            new_utils = _core_utilization_stack(
                partition.candidate_stack(task_index), rule
            )
            add_span_time("probe", time.perf_counter() - t0)
            _record_utilization_probe("batch", new_utils)
            return new_utils
        return _core_utilization_stack(partition.candidate_stack(task_index), rule)

    def probe_feasible(
        self, partition: Partition, task_index: int
    ) -> np.ndarray:
        if OBS.enabled:
            t0 = time.perf_counter()
            stack = partition.candidate_stack(task_index)
            feasible = _is_feasible_stack(stack)
            add_span_time("probe", time.perf_counter() - t0)
            reg = OBS.registry
            reg.counter(_tagged("probe.calls.batch")).inc()
            reg.counter("probe.cores_probed").inc(int(feasible.size))
            _record_feasibility_stack(stack, feasible)
            return feasible
        return _is_feasible_stack(partition.candidate_stack(task_index))

    def probe_tasks(
        self,
        partition: Partition,
        task_indices: Sequence[int],
        rule: str = "max",
    ) -> np.ndarray:
        idx = np.asarray(task_indices, dtype=np.int64)
        cores = partition.cores
        if idx.size == 0:
            return np.empty((0, cores), dtype=np.float64)
        _check_rule(rule)
        if OBS.enabled:
            t0 = time.perf_counter()
            stacks = partition.candidate_stacks(idx)
            flat = _core_utilization_stack(
                stacks.reshape((-1,) + stacks.shape[2:]), rule
            )
            new_utils = flat.reshape(idx.size, cores)
            add_span_time("probe", time.perf_counter() - t0)
            reg = OBS.registry
            reg.counter(_tagged("probe.calls.batch")).inc(int(idx.size))
            reg.counter("probe.cores_probed").inc(int(new_utils.size))
            reg.counter("probe.infeasible_cores").inc(
                int(np.count_nonzero(~np.isfinite(new_utils)))
            )
            return new_utils
        stacks = partition.candidate_stacks(idx)
        flat = _core_utilization_stack(
            stacks.reshape((-1,) + stacks.shape[2:]), rule
        )
        return flat.reshape(idx.size, cores)

    def probe_feasible_tasks(
        self, partition: Partition, task_indices: Sequence[int]
    ) -> np.ndarray:
        idx = np.asarray(task_indices, dtype=np.int64)
        cores = partition.cores
        if idx.size == 0:
            return np.empty((0, cores), dtype=bool)
        if OBS.enabled:
            t0 = time.perf_counter()
            stacks = partition.candidate_stacks(idx)
            flat_stack = stacks.reshape((-1,) + stacks.shape[2:])
            flat = _is_feasible_stack(flat_stack)
            feasible = flat.reshape(idx.size, cores)
            add_span_time("probe", time.perf_counter() - t0)
            reg = OBS.registry
            reg.counter(_tagged("probe.calls.batch")).inc(int(idx.size))
            reg.counter("probe.cores_probed").inc(int(feasible.size))
            _record_feasibility_stack(flat_stack, flat)
            return feasible
        stacks = partition.candidate_stacks(idx)
        flat = _is_feasible_stack(stacks.reshape((-1,) + stacks.shape[2:]))
        return flat.reshape(idx.size, cores)


# ----------------------------------------------------------------------
# Incremental backend: warm per-core Theorem-1 state, Δ-refresh
# ----------------------------------------------------------------------
class _IncrementalState:
    """Per-partition probe cache: one ``(T, M)`` table per probe kind.

    For each ``("util", rule)`` / ``("feas",)`` key the state holds the
    cached answers ``values[t, m]`` alongside ``seqs[t, m]`` — the
    per-core version counter each answer was computed under.  An entry
    whose stored version differs from the partition's current one is
    stale.  Keeping whole tables (rather than per-task rows) makes the
    micro-batch staleness scan a single broadcast compare instead of a
    Python loop, which is what keeps the Δ-refresh bookkeeping cheaper
    than the kernel work it saves.

    Stored under ``partition.probe_state["incremental"]`` so the cache's
    lifetime is the partition's — :meth:`Partition.snapshot` starts cold
    (fresh counters-to-values pairing), :meth:`Partition.extended`
    carries the prefix rows over via :meth:`carried`.
    """

    __slots__ = ("tables",)

    def __init__(self) -> None:
        #: ``("util", rule) | ("feas",)`` -> ``(values (T, M), seqs (T, M))``
        self.tables: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def table(
        self, key: tuple, n_tasks: int, cores: int, dtype
    ) -> tuple[np.ndarray, np.ndarray]:
        """The (values, seqs) table for ``key``, grown to ``n_tasks`` rows.

        New rows start with version ``-1`` (never matches a real
        counter), i.e. all-stale.
        """
        entry = self.tables.get(key)
        if entry is None or entry[0].shape[0] < n_tasks:
            values = np.empty((n_tasks, cores), dtype=dtype)
            seqs = np.full((n_tasks, cores), -1, dtype=np.int64)
            if entry is not None:
                old_values, old_seqs = entry
                values[: old_values.shape[0]] = old_values
                seqs[: old_seqs.shape[0]] = old_seqs
            entry = (values, seqs)
            self.tables[key] = entry
        return entry

    def carried(self, n_prefix: int) -> "_IncrementalState | None":
        """State for an :meth:`Partition.extended` successor.

        Rows for prefix tasks stay valid (same tasks, same matrices,
        same version counters); rows at or past ``n_prefix`` are dropped
        — those indices name *different* tasks in the grown set.  Arrays
        are copied so the two partitions never share mutable tables.
        """
        kept = _IncrementalState()
        for key, (values, seqs) in self.tables.items():
            n = min(n_prefix, values.shape[0])
            if n:
                kept.tables[key] = (values[:n].copy(), seqs[:n].copy())
        return kept if kept.tables else None


class IncrementalBackend(ProbeBackend):
    """Δ-state probing: unchanged cores answer from cache.

    The cache rides the partition (see :class:`_IncrementalState`), so
    warm state survives exactly as long as the partition object does —
    which is what lets the admission daemon keep Theorem-1 state hot
    across requests.  The single-task probes refresh stale columns with
    a sub-stack kernel call; the micro-batch probes collect every stale
    (task, core) pair across all rows into **one** flat
    :meth:`Partition.candidate_pairs_stack` evaluation, which is where
    the throughput win over the batch backend comes from.
    """

    name = "incremental"

    @staticmethod
    def state_of(partition: Partition) -> _IncrementalState:
        state = partition.probe_state.get("incremental")
        if not isinstance(state, _IncrementalState):
            state = _IncrementalState()
            partition.probe_state["incremental"] = state
        return state

    def probe(
        self, partition: Partition, task_index: int, rule: str = "max"
    ) -> np.ndarray:
        _check_rule(rule)
        state = self.state_of(partition)
        seqs_now = partition.core_versions()
        if OBS.enabled:
            t0 = time.perf_counter()
        values, seqs = state.table(
            ("util", rule), len(partition.taskset), partition.cores, np.float64
        )
        t = int(task_index)
        stale = np.flatnonzero(seqs[t] != seqs_now)
        n_fresh = stale.size
        if stale.size == seqs_now.size:
            values[t] = _core_utilization_stack(
                partition.candidate_stack(t), rule
            )
            seqs[t] = seqs_now
        elif stale.size:
            values[t, stale] = _core_utilization_stack(
                partition.candidate_stack_for_cores(t, stale), rule
            )
            seqs[t, stale] = seqs_now[stale]
        out = values[t].copy()
        if OBS.enabled:
            add_span_time("probe", time.perf_counter() - t0)
            _record_incremental(out, 1, n_fresh)
            OBS.registry.counter("probe.infeasible_cores").inc(
                int(np.count_nonzero(~np.isfinite(out)))
            )
        return out

    def probe_feasible(
        self, partition: Partition, task_index: int
    ) -> np.ndarray:
        state = self.state_of(partition)
        seqs_now = partition.core_versions()
        if OBS.enabled:
            t0 = time.perf_counter()
        values, seqs = state.table(
            ("feas",), len(partition.taskset), partition.cores, bool
        )
        t = int(task_index)
        stale = np.flatnonzero(seqs[t] != seqs_now)
        n_fresh = stale.size
        fresh_stack: np.ndarray | None = None
        fresh_vals: np.ndarray | None = None
        if stale.size == seqs_now.size:
            fresh_stack = partition.candidate_stack(t)
            fresh_vals = _is_feasible_stack(fresh_stack)
            values[t] = fresh_vals
            seqs[t] = seqs_now
        elif stale.size:
            fresh_stack = partition.candidate_stack_for_cores(t, stale)
            fresh_vals = _is_feasible_stack(fresh_stack)
            values[t, stale] = fresh_vals
            seqs[t, stale] = seqs_now[stale]
        out = values[t].copy()
        if OBS.enabled:
            add_span_time("probe", time.perf_counter() - t0)
            _record_incremental(out, 1, n_fresh)
            if fresh_stack is not None:
                _record_feasibility_stack(fresh_stack, fresh_vals)
        return out

    def _refresh_rows(
        self,
        partition: Partition,
        idx: np.ndarray,
        key: tuple,
        evaluate,
        dtype,
    ) -> tuple[np.ndarray, int, np.ndarray | None, np.ndarray | None]:
        """Shared Δ-refresh for the micro-batch probes.

        One broadcast compare finds every stale (task, core) pair of the
        whole micro-batch; one flat kernel call evaluates them; one
        fancy-index scatter writes them back.  Returns the ``(T, M)``
        answers, the fresh-pair count, and the fresh stack + values for
        admission-path attribution (``None`` when fully cached).
        """
        state = self.state_of(partition)
        seqs_now = partition.core_versions()
        values, seqs = state.table(
            key, len(partition.taskset), partition.cores, dtype
        )
        t_local, ci = np.nonzero(seqs[idx] != seqs_now)
        fresh_stack: np.ndarray | None = None
        fresh_vals: np.ndarray | None = None
        n_fresh = int(t_local.size)
        if n_fresh:
            ti = idx[t_local]
            fresh_stack = partition.candidate_pairs_stack(ti, ci)
            fresh_vals = evaluate(fresh_stack)
            values[ti, ci] = fresh_vals
            seqs[ti, ci] = seqs_now[ci]
        return values[idx], n_fresh, fresh_stack, fresh_vals

    def probe_tasks(
        self,
        partition: Partition,
        task_indices: Sequence[int],
        rule: str = "max",
    ) -> np.ndarray:
        idx = np.asarray(task_indices, dtype=np.int64)
        if idx.size == 0:
            return np.empty((0, partition.cores), dtype=np.float64)
        _check_rule(rule)
        if OBS.enabled:
            t0 = time.perf_counter()
        out, n_fresh, _, _ = self._refresh_rows(
            partition,
            idx,
            ("util", rule),
            lambda mats: _core_utilization_stack(mats, rule),
            np.float64,
        )
        if OBS.enabled:
            add_span_time("probe", time.perf_counter() - t0)
            _record_incremental(out, int(idx.size), n_fresh)
            OBS.registry.counter("probe.infeasible_cores").inc(
                int(np.count_nonzero(~np.isfinite(out)))
            )
        return out

    def probe_feasible_tasks(
        self, partition: Partition, task_indices: Sequence[int]
    ) -> np.ndarray:
        idx = np.asarray(task_indices, dtype=np.int64)
        if idx.size == 0:
            return np.empty((0, partition.cores), dtype=bool)
        if OBS.enabled:
            t0 = time.perf_counter()
        out, n_fresh, fresh_stack, fresh_vals = self._refresh_rows(
            partition, idx, ("feas",), _is_feasible_stack, bool
        )
        if OBS.enabled:
            add_span_time("probe", time.perf_counter() - t0)
            _record_incremental(out, int(idx.size), n_fresh)
            if fresh_stack is not None:
                _record_feasibility_stack(fresh_stack, fresh_vals)
        return out


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_BACKENDS: dict[str, ProbeBackend] = {}


def register_backend(backend: ProbeBackend) -> ProbeBackend:
    """Register a backend instance under its :attr:`ProbeBackend.name`."""
    if not backend.name:
        raise ModelError("probe backend must define a non-empty name")
    _BACKENDS[backend.name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """Sorted names of every registered probe backend."""
    return tuple(sorted(_BACKENDS))


def get_backend(name: str) -> ProbeBackend:
    """Look up a backend by name; unknown names raise :class:`ModelError`."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ModelError(
            f"unknown probe implementation {name!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None


register_backend(ScalarBackend())
register_backend(BatchBackend())
register_backend(IncrementalBackend())

"""Task-to-core partitions.

A partition :math:`\\Gamma = \\{\\Psi_1, \\dots, \\Psi_M\\}` assigns every
task of a task set to exactly one of ``M`` identical cores.  The class
below is a thin, mutable builder used by the partitioning heuristics; it
maintains, incrementally, the per-core ``(K, K)`` level-utilization
matrices ``U_j^{\\Psi_m}(k)`` (Eq. (3)) so that probing a task onto a core
never rescans the core's task list, and caches the per-core Eq.-(9)
utilizations so that unchanged cores are never re-evaluated.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.model.taskset import MCTaskSet
from repro.types import PartitionError

__all__ = ["Partition"]


class Partition:
    """Mutable assignment of the tasks of ``taskset`` onto ``cores`` cores.

    The builder enforces single-assignment: a task index may be assigned
    at most once (heuristics never move tasks).

    Examples
    --------
    >>> from repro.model import MCTask, MCTaskSet
    >>> ts = MCTaskSet([MCTask((1.0,), 10.0), MCTask((2.0, 4.0), 10.0)])
    >>> part = Partition(ts, cores=2)
    >>> part.assign(0, 0); part.assign(1, 1)
    >>> part.core_of(1)
    1
    >>> part.is_complete
    True
    """

    __slots__ = (
        "_taskset",
        "_cores",
        "_assignment",
        "_level_mats",
        "_counts",
        "_util_cache",
        "_core_seq",
        "probe_state",
        "_frozen",
    )

    def __init__(self, taskset: MCTaskSet, cores: int):
        if cores < 1:
            raise PartitionError(f"core count must be >= 1, got {cores}")
        self._taskset = taskset
        self._cores = int(cores)
        self._assignment = np.full(len(taskset), -1, dtype=np.int64)
        k = taskset.levels
        self._level_mats = np.zeros((self._cores, k, k), dtype=np.float64)
        # The base array stays read-only except inside assign(), so every
        # view handed out (and every alias of it) is genuinely immutable.
        self._level_mats.setflags(write=False)
        self._counts = np.zeros(self._cores, dtype=np.int64)
        # Per-rule caches of the Eq.-(9) core utilizations; nan = stale.
        self._util_cache: dict[str, np.ndarray] = {}
        # Monotonic per-core mutation counters: every assign/unassign
        # bumps the touched core, so any cache keyed by (core, version)
        # can detect staleness without subscribing to mutations.
        self._core_seq = np.zeros(self._cores, dtype=np.int64)
        #: Namespace for probe-backend caches (e.g. the incremental
        #: backend's per-core Theorem-1 state).  Values may implement
        #: ``carried(n_prefix)`` to survive :meth:`extended`.
        self.probe_state: dict[str, object] = {}
        self._frozen = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def taskset(self) -> MCTaskSet:
        return self._taskset

    @property
    def cores(self) -> int:
        return self._cores

    @property
    def is_frozen(self) -> bool:
        """True for immutable :meth:`snapshot` copies."""
        return self._frozen

    @property
    def is_complete(self) -> bool:
        """True when every task has been assigned to some core."""
        return bool((self._assignment >= 0).all())

    @property
    def assignment(self) -> np.ndarray:
        """Copy of the task->core index vector (-1 for unassigned)."""
        return self._assignment.copy()

    def core_of(self, task_index: int) -> int:
        """Core index of ``task_index``, or -1 if unassigned."""
        return int(self._assignment[task_index])

    def tasks_on(self, core: int) -> list[int]:
        """Sorted task indices currently assigned to ``core``."""
        self._check_core(core)
        return np.flatnonzero(self._assignment == core).tolist()

    def core_size(self, core: int) -> int:
        self._check_core(core)
        return int(self._counts[core])

    @property
    def core_counts(self) -> np.ndarray:
        """Copy of the per-core assigned-task counts."""
        return self._counts.copy()

    def level_matrix(self, core: int) -> np.ndarray:
        """The core's ``(K, K)`` matrix ``L[j-1, k-1] = U_j^{Psi_m}(k)`` (Eq. 3).

        Returned as a read-only view of a read-only base array: mutating
        it (or any alias of it) raises.
        """
        self._check_core(core)
        return self._level_mats[core]

    def level_matrices(self) -> np.ndarray:
        """All per-core level matrices as one read-only ``(M, K, K)`` view.

        This is the zero-copy input for the batch probe engine
        (:mod:`repro.analysis.batch`).
        """
        return self._level_mats[:]

    def candidate_stack(self, task_index: int) -> np.ndarray:
        """Writable ``(M, K, K)`` copy with ``task_index`` added to every core.

        Stack entry ``m`` is the hypothetical level matrix
        ``U^{Psi_m + tau_i}`` of the Eq.-(15) probes, built with a single
        broadcasted add.  This is the probe hot path, so it reads the
        slots directly instead of going through the read-only views.
        """
        taskset = self._taskset
        crit = int(taskset.criticalities[task_index])
        mats = self._level_mats.copy()
        mats[:, crit - 1, :crit] += taskset.utilization_matrix[task_index, :crit]
        return mats

    def core_versions(self) -> np.ndarray:
        """Read-only view of the per-core mutation counters: ``(M,)`` int64.

        Each :meth:`assign`/:meth:`unassign` bumps exactly the mutated
        core.  Probe backends snapshot this vector next to cached
        per-core results; an entry whose stored version differs from the
        current one is stale and must be recomputed.
        """
        view = self._core_seq[:]
        view.setflags(write=False)
        return view

    def candidate_stack_for_cores(
        self, task_index: int, cores: Sequence[int]
    ) -> np.ndarray:
        """Candidate matrices of ``task_index`` on a *subset* of cores.

        ``(C, K, K)`` writable stack, entry ``c`` being the hypothetical
        ``U^{Psi_{cores[c]} + tau_i}``.  Bit-identical to the matching
        rows of :meth:`candidate_stack`; the incremental probe backend
        uses it to recompute only the cores whose version moved.
        """
        sel = np.asarray(cores, dtype=np.int64)
        taskset = self._taskset
        crit = int(taskset.criticalities[task_index])
        mats = self._level_mats[sel]  # advanced indexing: a fresh copy
        mats[:, crit - 1, :crit] += taskset.utilization_matrix[task_index, :crit]
        return mats

    def candidate_pairs_stack(
        self, task_indices: Sequence[int], core_indices: Sequence[int]
    ) -> np.ndarray:
        """Candidate matrices for explicit (task, core) pairs: ``(P, K, K)``.

        ``task_indices`` and ``core_indices`` are parallel vectors; entry
        ``p`` is ``U^{Psi_{core_p} + tau_{task_p}}``.  This is the flat
        refresh primitive of the incremental backend: every stale
        (task, core) hypothesis of a whole micro-batch goes through one
        kernel call.  Exact for the same reason as
        :meth:`candidate_stacks` — utilization rows are zero above each
        task's criticality, so the full-row add touches only ``:crit``.
        """
        ti = np.asarray(task_indices, dtype=np.int64)
        ci = np.asarray(core_indices, dtype=np.int64)
        if ti.shape != ci.shape or ti.ndim != 1:
            raise PartitionError(
                "task_indices and core_indices must be parallel 1-D vectors"
            )
        taskset = self._taskset
        mats = self._level_mats[ci]  # advanced indexing: a fresh copy
        rows = taskset.criticalities[ti] - 1
        mats[np.arange(ti.size), rows, :] += taskset.utilization_matrix[ti]
        return mats

    def candidate_stacks(self, task_indices: Sequence[int]) -> np.ndarray:
        """Writable ``(T, M, K, K)`` stacks: each task added to every core.

        Entry ``[t, m]`` is the hypothetical level matrix
        ``U^{Psi_m + tau_{i_t}}`` — the multi-task generalization of
        :meth:`candidate_stack`, built with a single fancy-indexed add so
        the admission daemon can probe a whole micro-batch in one kernel
        call.  Correct because ``utilization_matrix`` rows are zero above
        each task's criticality, so adding the *full* row into row
        ``l_i - 1`` touches exactly the ``:crit`` prefix.
        """
        idx = np.asarray(task_indices, dtype=np.int64)
        if idx.ndim != 1:
            raise PartitionError("task_indices must be a 1-D sequence")
        taskset = self._taskset
        shape = (idx.size,) + self._level_mats.shape
        stacks = np.broadcast_to(self._level_mats, shape).copy()
        rows = taskset.criticalities[idx] - 1
        stacks[np.arange(idx.size), :, rows, :] += (
            taskset.utilization_matrix[idx][:, None, :]
        )
        return stacks

    def core_utilizations(self, rule: str = "max") -> np.ndarray:
        """Per-core Eq.-(9) utilizations ``U^{Psi_m}``: a ``(M,)`` copy.

        Empty cores are 0; infeasible cores are ``inf``.  Results are
        cached per ``rule`` and invalidated core-by-core on
        :meth:`assign`, so repeated metric evaluations only pay for the
        cores that actually changed.
        """
        cache = self._util_cache.get(rule)
        if cache is None:
            cache = np.full(self._cores, np.nan, dtype=np.float64)
            self._util_cache[rule] = cache
        stale = np.flatnonzero(np.isnan(cache))
        if stale.size:
            empty = self._counts[stale] == 0
            cache[stale[empty]] = 0.0
            todo = stale[~empty]
            if todo.size:
                # Deferred import: repro.analysis pulls this module in.
                from repro.analysis.batch import batch_core_utilization

                cache[todo] = batch_core_utilization(
                    self._level_mats[todo], rule=rule
                )
        return cache.copy()

    def core_utilization(self, core: int, rule: str = "max") -> float:
        """Cached Eq.-(9) utilization of one core (see :meth:`core_utilizations`)."""
        self._check_core(core)
        return float(self.core_utilizations(rule)[core])

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def assign(self, task_index: int, core: int) -> None:
        """Assign ``task_index`` to ``core`` (exactly once per task)."""
        self._check_mutable()
        self._check_core(core)
        if not 0 <= task_index < len(self._taskset):
            raise PartitionError(f"task index {task_index} out of range")
        if self._assignment[task_index] >= 0:
            raise PartitionError(
                f"task {task_index} already assigned to core"
                f" {self._assignment[task_index]}"
            )
        self._assignment[task_index] = core
        crit = int(self._taskset.criticalities[task_index])
        # The base array is writable only inside this window.
        self._level_mats.setflags(write=True)
        try:
            self._level_mats[core, crit - 1, :crit] += (
                self._taskset.utilization_matrix[task_index, :crit]
            )
        finally:
            self._level_mats.setflags(write=False)
        self._counts[core] += 1
        self._core_seq[core] += 1
        for cache in self._util_cache.values():
            cache[core] = np.nan

    def unassign(self, task_index: int) -> int:
        """Remove ``task_index`` from its core; returns that core.

        The core's level matrix is *recomputed* from its remaining tasks
        rather than decremented, so repeated assign/unassign cycles (the
        admission daemon rolling back a rejected placement) never
        accumulate floating-point drift.
        """
        self._check_mutable()
        if not 0 <= task_index < len(self._taskset):
            raise PartitionError(f"task index {task_index} out of range")
        core = int(self._assignment[task_index])
        if core < 0:
            raise PartitionError(f"task {task_index} is not assigned")
        self._assignment[task_index] = -1
        self._counts[core] -= 1
        remaining = np.flatnonzero(self._assignment == core)
        taskset = self._taskset
        fresh = np.zeros_like(self._level_mats[core])
        if remaining.size:
            # One np.add.at accumulates every remaining task's full
            # utilization row into its criticality row (rows are zero
            # above l_i, so the full-row add is exact).
            np.add.at(
                fresh,
                taskset.criticalities[remaining] - 1,
                taskset.utilization_matrix[remaining],
            )
        self._level_mats.setflags(write=True)
        try:
            self._level_mats[core] = fresh
        finally:
            self._level_mats.setflags(write=False)
        self._core_seq[core] += 1
        for cache in self._util_cache.values():
            cache[core] = np.nan
        return core

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> "Partition":
        """A frozen, independent copy for lock-free concurrent readers.

        The copy shares the (immutable) task set but owns its arrays;
        :meth:`assign`/:meth:`unassign` on it raise, so the admission
        daemon can hand snapshots to reader tasks while the coordinator
        keeps mutating the live partition.
        """
        snap = Partition.__new__(Partition)
        snap._taskset = self._taskset
        snap._cores = self._cores
        snap._assignment = self._assignment.copy()
        snap._assignment.setflags(write=False)
        snap._level_mats = self._level_mats.copy()
        snap._level_mats.setflags(write=False)
        snap._counts = self._counts.copy()
        snap._counts.setflags(write=False)
        # Utilization caches stay writable: lazy cache fill is not a
        # logical mutation of the partition.
        snap._util_cache = {r: c.copy() for r, c in self._util_cache.items()}
        snap._core_seq = self._core_seq.copy()
        # Probe-backend caches are per-partition (they pair cached values
        # with *this* object's version counters), so the snapshot starts
        # cold; backends refill lazily, which is not a logical mutation.
        snap.probe_state = {}
        snap._frozen = True
        return snap

    def extended(self, taskset: MCTaskSet) -> "Partition":
        """A new mutable partition over a *grown* task set, warm-started.

        ``taskset`` must contain this partition's tasks as a prefix (same
        ``K``); the appended tasks start unassigned.  The per-core level
        matrices and counts carry over verbatim — no O(N) reassignment
        loop — which is how the admission daemon admits new tasks into a
        live system without replaying history.
        """
        old = self._taskset
        n = len(old)
        if taskset.levels != old.levels:
            raise PartitionError(
                f"extended task set must keep K={old.levels}, "
                f"got K={taskset.levels}"
            )
        if len(taskset) < n or taskset.tasks[:n] != old.tasks:
            raise PartitionError(
                "extended task set must contain the current tasks as a prefix"
            )
        part = Partition(taskset, self._cores)
        part._assignment[:n] = self._assignment
        part._level_mats.setflags(write=True)
        try:
            part._level_mats[:] = self._level_mats
        finally:
            part._level_mats.setflags(write=False)
        part._counts[:] = self._counts
        # Version counters carry verbatim: the per-core matrices are the
        # same, so probe caches keyed on them stay valid for the prefix
        # tasks.  Backends decide what survives via carried(n_prefix)
        # (rows for appended indices must be dropped — the index space
        # above ``n`` now means different tasks than in any rebuilt
        # sibling partition).
        part._core_seq[:] = self._core_seq
        for name, state in self.probe_state.items():
            carried = getattr(state, "carried", None)
            if carried is None:
                continue
            kept = carried(n)
            if kept is not None:
                part.probe_state[name] = kept
        return part

    # ------------------------------------------------------------------
    def core_subsets(self) -> list[list[int]]:
        """Per-core lists of assigned task indices (``Gamma`` as index lists)."""
        return [self.tasks_on(m) for m in range(self._cores)]

    def core_tasksets(self) -> list[MCTaskSet | None]:
        """Per-core :class:`MCTaskSet` objects (``None`` for empty cores)."""
        out: list[MCTaskSet | None] = []
        for m in range(self._cores):
            idx = self.tasks_on(m)
            out.append(self._taskset.subset(idx) if idx else None)
        return out

    @classmethod
    def from_assignment(
        cls, taskset: MCTaskSet, cores: int, assignment: Sequence[int] | Iterable[int]
    ) -> "Partition":
        """Build a partition from an explicit task->core vector."""
        part = cls(taskset, cores)
        for i, core in enumerate(assignment):
            if core >= 0:
                part.assign(i, int(core))
        return part

    @classmethod
    def _from_arrays(
        cls,
        taskset: MCTaskSet,
        cores: int,
        assignment: np.ndarray,
        level_mats: np.ndarray,
        counts: np.ndarray,
    ) -> "Partition":
        """Adopt state built elsewhere (lockstep partitioning); no copies.

        The per-core versions are set equal to the counts, which is
        exact for an assign-only history: every :meth:`assign` bumps the
        core's version and count together.
        """
        part = cls.__new__(cls)
        part._taskset = taskset
        part._cores = int(cores)
        part._assignment = assignment
        level_mats.setflags(write=False)
        part._level_mats = level_mats
        part._counts = counts
        part._util_cache = {}
        part._core_seq = counts.copy()
        part.probe_state = {}
        part._frozen = False
        return part

    # ------------------------------------------------------------------
    def _check_mutable(self) -> None:
        if self._frozen:
            raise PartitionError("partition snapshot is immutable")

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self._cores:
            raise PartitionError(
                f"core index {core} out of range [0, {self._cores})"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        done = int((self._assignment >= 0).sum())
        return f"Partition(M={self._cores}, assigned={done}/{len(self._taskset)})"

"""Lockstep partitioning: many (task set, scheme) lanes advanced together.

All five schemes of the paper's evaluation share Algorithm 1's shape: a
fixed task order, a probe of every core, a rule that picks one core, and
an assign.  :func:`partition_lockstep` runs that loop for a whole batch
of *lanes* at once — lane ``l`` is one ``(taskset, partitioner)`` pair —
so that every step costs one kernel call for all lanes instead of one
per lane.  Each step:

1. **gathers** the active lanes' candidate stacks into one
   ``(A, M, K, K)`` array (the current per-core level matrices plus the
   lane's next task in its criticality row);
2. evaluates **one** :func:`~repro.analysis.batch._available_utilizations`
   call over the flattened rows: every CA-TPA row (the Eq.-(15) value)
   plus the classical rows that fail the Eq.-(4) trace test (their
   Theorem-1 feasibility);
3. applies each scheme's rule, vectorized across lanes — FFD: first
   feasible core; BFD/WFD: feasible core with the highest/lowest load;
   Hybrid: WFD at or above its threshold, FFD below; CA-TPA: the
   loaded-core Λ override or the min-ΔU pick (one ``argmin``; only
   rows with a near tie replay the :data:`TIE_EPS` scan);
4. **scatters** the assignment into the ``(L, M, K, K)`` level matrices,
   the per-core counts, loads and Eq.-(9) utilizations.

Lanes that fail or run out of tasks drop out of the active set.  The
batch kernels are row-independent (see :mod:`repro.partition.backend`),
and every rule repeats the sequential scheme's float operations in the
same order, so each :class:`~repro.partition.base.PartitionResult` is
bit-identical to ``partitioner.partition(taskset, cores)`` under the
batch probe backend: assignment, order, failed task, schedulability,
core utilizations, level matrices, core counts and core versions.

Only the five classes listed in :data:`LOCKSTEP_CLASSES` are supported,
by exact type: a subclass (e.g. :class:`~repro.partition.CATPAVariant`)
may override any rule, so it keeps the per-set path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.batch import (
    _available_utilizations,
    _core_utilization_stack,
    _reduce_available,
)
from repro.model.partition import Partition
from repro.model.taskset import MCTaskSet
from repro.partition.base import Partitioner, PartitionResult
from repro.partition.catpa import CATPA, TIE_EPS
from repro.partition.classical import (
    BestFitDecreasing,
    FirstFitDecreasing,
    WorstFitDecreasing,
)
from repro.partition.hybrid import HybridPartitioner
from repro.types import EPS, PartitionError, fits_unit_capacity

__all__ = ["LOCKSTEP_CLASSES", "lockstep_supported", "partition_lockstep"]

#: Partitioner classes whose rules the lockstep loop reproduces.
LOCKSTEP_CLASSES: tuple[type, ...] = (
    CATPA,
    FirstFitDecreasing,
    BestFitDecreasing,
    WorstFitDecreasing,
    HybridPartitioner,
)

# Load key of the classical rules: the chosen core minimizes
# ``sign * load`` over the feasible cores (ties: lowest index), so 0 is
# first fit, -1 best fit and +1 worst fit.
_FIRST_FIT, _BEST_FIT, _WORST_FIT = 0.0, -1.0, 1.0


def lockstep_supported(partitioner: Partitioner) -> bool:
    """True when ``partitioner`` can run as a lockstep lane (exact type)."""
    return type(partitioner) in LOCKSTEP_CLASSES


def partition_lockstep(
    lanes: Sequence[tuple[MCTaskSet, Partitioner]], cores: int
) -> list[PartitionResult]:
    """Partition every ``(taskset, partitioner)`` lane onto ``cores`` cores.

    Returns one result per lane, in lane order, each bit-identical to
    ``partitioner.partition(taskset, cores)`` under the batch probe
    backend.  Lanes may mix schemes, task counts and criticality counts
    ``K`` (lanes are advanced in one group per ``K``).  Raises
    :class:`~repro.types.PartitionError` for a core count below 1 or a
    partitioner outside :data:`LOCKSTEP_CLASSES`.
    """
    if cores < 1:
        raise PartitionError(f"core count must be >= 1, got {cores}")
    for _, partitioner in lanes:
        if not lockstep_supported(partitioner):
            raise PartitionError(
                f"{type(partitioner).__name__} ({partitioner.name}) has no "
                "lockstep rule; partition it per set"
            )
    by_levels: dict[int, list[int]] = {}
    for i, (taskset, _) in enumerate(lanes):
        by_levels.setdefault(taskset.levels, []).append(i)
    results: list[PartitionResult | None] = [None] * len(lanes)
    for indices in by_levels.values():
        group = _LaneGroup([lanes[i] for i in indices], int(cores))
        for i, result in zip(indices, group.run()):
            results[i] = result
    return results  # type: ignore[return-value]


class _LaneGroup:
    """Lanes sharing ``M`` and ``K``, CA-TPA lanes first.

    Per-step inputs are padded ``(L, Nmax, ...)`` tensors laid out in
    each lane's processing order, so step ``t`` reads column ``t``.
    """

    def __init__(self, lanes: list[tuple[MCTaskSet, Partitioner]], cores: int):
        # CA-TPA lanes first: their candidate rows then lead every step's
        # flattened stack, and the classical rows follow as one block.
        self.perm = sorted(
            range(len(lanes)), key=lambda i: type(lanes[i][1]) is not CATPA
        )
        self.lanes = [lanes[i] for i in self.perm]
        self.cores = cores
        self.levels = self.lanes[0][0].levels
        self.n_catpa = sum(type(p) is CATPA for _, p in self.lanes)

        n_lanes = len(self.lanes)
        self.orders = [
            np.asarray(p.order_tasks(ts), dtype=np.int64) for ts, p in self.lanes
        ]
        self.sizes = np.array([o.size for o in self.orders], dtype=np.int64)
        n_max = int(self.sizes.max())
        self.util = np.zeros((n_lanes, n_max, self.levels))
        self.crit = np.ones((n_lanes, n_max), dtype=np.int64)
        for lane, ((taskset, _), order) in enumerate(zip(self.lanes, self.orders)):
            self.util[lane, : order.size] = taskset.utilization_matrix[order]
            self.crit[lane, : order.size] = taskset.criticalities[order]
        # u_i(l_i), the classical schemes' load increment.
        self.umax = np.take_along_axis(self.util, self.crit[:, :, None] - 1, 2)[
            :, :, 0
        ]

        # CA-TPA knobs (alpha None -> inf: Lambda > inf never holds).
        catpa = [p for _, p in self.lanes[: self.n_catpa]]
        self.alpha = np.array(
            [np.inf if p.alpha is None else p.alpha for p in catpa], dtype=float
        )
        self.rule_min = np.array([p.eq9_rule == "min" for p in catpa], dtype=bool)
        self.any_rule_min = bool(self.rule_min.any())
        # Classical rule per lane; Hybrid switches rule on the task's level.
        classical = [p for _, p in self.lanes[self.n_catpa :]]
        sign = {
            FirstFitDecreasing: _FIRST_FIT,
            BestFitDecreasing: _BEST_FIT,
            WorstFitDecreasing: _WORST_FIT,
            HybridPartitioner: _FIRST_FIT,
        }
        self.sign = np.array([sign[type(p)] for p in classical])
        # Worst fit from this criticality on; above K for non-Hybrid lanes.
        self.wfd_from = np.array(
            [
                p.high_threshold if type(p) is HybridPartitioner else self.levels + 1
                for p in classical
            ],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    def run(self) -> list[PartitionResult]:
        n_lanes, m, k = len(self.lanes), self.cores, self.levels
        mats = np.zeros((n_lanes, m, k, k))
        counts = np.zeros((n_lanes, m), dtype=np.int64)
        loads = np.zeros((n_lanes, m))
        utils = np.zeros((n_lanes, m))
        targets = np.full(self.util.shape[:2], -1, dtype=np.int64)
        failed_step = np.full(n_lanes, -1, dtype=np.int64)
        alive = np.ones(n_lanes, dtype=bool)

        # The active lanes change only when a lane fails or runs out of
        # tasks, so their per-lane knobs are gathered only then.
        ends = set(self.sizes.tolist())
        regroup = True
        for t in range(self.util.shape[1]):
            if regroup:
                active = np.flatnonzero(alive & (self.sizes > t))
                if active.size == 0:
                    break
                n_act = active.size
                nc = int(np.searchsorted(active, self.n_catpa))
                cat, cls = active[:nc], active[nc:]
                alpha = self.alpha[cat]
                sign = self.sign[cls - self.n_catpa]
                wfd_from = self.wfd_from[cls - self.n_catpa]
                lane_index = np.arange(n_act)
            regroup = t + 1 in ends
            row = self.util[active, t]
            crit = self.crit[active, t]
            # Gather: every active lane's (M, K, K) candidate stack.  The
            # whole utilization row goes into row l_i - 1; its entries
            # above l_i are zero, so this equals the :l_i prefix add.
            cand = mats[active]
            cand[lane_index, :, crit - 1, :] += row[:, None, :]
            flat = cand.reshape(n_act * m, k, k)

            # One kernel call: all CA-TPA rows + classical rows failing Eq. (4).
            split = nc * m
            feasible = fits_unit_capacity(
                np.trace(flat[split:], axis1=1, axis2=2)
            )
            hard = np.flatnonzero(~feasible)
            if hard.size:
                rows = flat[np.concatenate((np.arange(split), split + hard))]
            else:
                rows = flat[:split]
            avail = _available_utilizations(rows) if rows.shape[0] else None

            target = np.empty(n_act, dtype=np.int64)
            placed = np.empty(n_act, dtype=bool)
            if nc:
                new = self._eq15(avail[:split], cat).reshape(nc, m)
                target[:nc], placed[:nc], new_util = self._catpa_rule(
                    new, utils[cat], counts[cat], alpha
                )
                # A failed CA-TPA lane's utilizations are never read again.
                utils[cat, target[:nc]] = new_util
            if n_act > nc:
                if hard.size:
                    feasible[hard] = (avail[split:] >= -EPS).any(axis=1)
                lane_sign = np.where(crit[nc:] >= wfd_from, _WORST_FIT, sign)
                feasible = feasible.reshape(n_act - nc, m)
                key = np.where(feasible, loads[cls] * lane_sign[:, None], np.inf)
                target[nc:] = key.argmin(axis=1)
                placed[nc:] = feasible.any(axis=1)

            # Scatter: assign every placed lane's task in one pass.
            lanes_ok = active
            if not placed.all():
                failed = active[~placed]
                alive[failed] = False
                failed_step[failed] = t
                regroup = True
                lanes_ok, target = active[placed], target[placed]
                crit, row = crit[placed], row[placed]
            mats[lanes_ok, target, crit - 1, :] += row
            counts[lanes_ok, target] += 1
            loads[lanes_ok, target] += self.umax[lanes_ok, t]
            targets[lanes_ok, t] = target

        return self._results(mats, counts, utils, targets, failed_step)

    # ------------------------------------------------------------------
    def _eq15(self, avail: np.ndarray, cat: np.ndarray) -> np.ndarray:
        """Eq.-(15) probe values of the CA-TPA rows, per lane's Eq.-(9) rule."""
        if not self.any_rule_min:
            return _reduce_available(avail, "max")
        rule_min = np.repeat(self.rule_min[cat], self.cores)
        out = np.empty(avail.shape[0])
        out[~rule_min] = _reduce_available(avail[~rule_min], "max")
        out[rule_min] = _reduce_available(avail[rule_min], "min")
        return out

    def _catpa_rule(
        self,
        new: np.ndarray,
        utils: np.ndarray,
        counts: np.ndarray,
        alpha: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CA-TPA's pick per lane: ``(core, placed, new core utilization)``.

        ``new`` is finite on feasible cores and ``inf`` elsewhere, so
        ``new - utils`` already is the increment with infeasible cores
        ruled out.
        """
        rows = np.arange(new.shape[0])
        # Min increment: one argmin over the feasible cores.  It picks what
        # Algorithm 1's TIE_EPS scan picks unless another increment lies
        # within the tie window above the minimum without equalling it;
        # only those rows replay the scan.  The window is widened to
        # 2 * TIE_EPS so float rounding in the scan's ``best - TIE_EPS``
        # cannot matter (increments are utilizations, far above an ulp).
        increment = new - utils
        best = increment.argmin(axis=1)
        lowest = increment[rows, best][:, None]
        near = (increment > lowest) & (increment <= lowest + 2 * TIE_EPS)
        if near.any():
            near_tie = near.any(axis=1)
            best[near_tie] = _scan_min_increment(increment[near_tie])
        placed = lowest[:, 0] < np.inf
        # Eq. (16) over the loaded cores; idle cores are excluded.  Core
        # utilizations are >= 0 and idle cores hold exactly 0, so the
        # largest loaded one is the row maximum (u_sys <= EPS whenever
        # no core is loaded, and the override needs u_sys > EPS).
        u_sys = utils.max(axis=1)
        u_min = np.where(counts > 0, utils, np.inf).min(axis=1)
        override = u_sys > EPS
        imbalance = np.divide(
            u_sys - u_min, u_sys, out=np.zeros_like(u_sys), where=override
        )
        override &= imbalance > alpha
        if override.any():
            # Override: feasible core with the lowest current utilization.
            least_loaded = np.where(new < np.inf, utils, np.inf).argmin(axis=1)
            best = np.where(override, least_loaded, best)
        target = np.where(placed, best, 0)
        return target, placed, new[rows, target]

    def _results(
        self,
        mats: np.ndarray,
        counts: np.ndarray,
        utils: np.ndarray,
        targets: np.ndarray,
        failed_step: np.ndarray,
    ) -> list[PartitionResult]:
        # Final core utilizations of the schedulable classical lanes in one
        # kernel call over their non-empty cores (CA-TPA tracks its own).
        classical_ok = failed_step < 0
        classical_ok[: self.n_catpa] = False
        final = np.zeros(counts.shape)
        nonempty = classical_ok[:, None] & (counts > 0)
        if nonempty.any():
            final[nonempty] = _core_utilization_stack(mats[nonempty], "max")

        out: list[PartitionResult | None] = [None] * len(self.lanes)
        for lane, ((taskset, partitioner), order) in enumerate(
            zip(self.lanes, self.orders)
        ):
            step = int(failed_step[lane])
            done = order.size if step < 0 else step
            assignment = np.full(order.size, -1, dtype=np.int64)
            assignment[order[:done]] = targets[lane, :done]
            partition = Partition._from_arrays(
                taskset,
                self.cores,
                assignment,
                mats[lane].copy(),
                counts[lane].copy(),
            )
            if step >= 0:
                core_utils = None
            elif lane < self.n_catpa:
                core_utils = utils[lane].copy()
            else:
                core_utils = final[lane].copy()
            out[self.perm[lane]] = PartitionResult(
                scheme=partitioner.name,
                schedulable=step < 0,
                partition=partition,
                order=tuple(order.tolist()),
                failed_task=None if step < 0 else int(order[step]),
                _core_utils=core_utils,
            )
        return out  # type: ignore[return-value]


def _scan_min_increment(increment: np.ndarray) -> np.ndarray:
    """Algorithm 1's sequential min-increment scan, one core at a time.

    ``increment`` is ``(rows, M)`` with ``inf`` on infeasible cores; a
    core replaces the best so far only when it is lower by more than
    :data:`~repro.partition.catpa.TIE_EPS`.  Returns the chosen core per
    row (-1 when no core is feasible).
    """
    best = np.full(increment.shape[0], -1, dtype=np.int64)
    best_increment = np.full(increment.shape[0], np.inf)
    for core in range(increment.shape[1]):
        better = increment[:, core] < best_increment - TIE_EPS
        best = np.where(better, core, best)
        best_increment = np.where(better, increment[:, core], best_increment)
    return best

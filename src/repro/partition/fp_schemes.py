"""Partitioned fixed-priority MC scheduling (Kelly-Aydin-Zhao style).

The paper's closest fixed-priority prior art ([22], Kelly et al.) sorts
tasks either by utilization or by criticality and packs them first-fit /
worst-fit with a per-core fixed-priority MC schedulability test.  This
module provides those schemes for dual-criticality systems, using
AMC-rtb with Audsley priority assignment
(:mod:`repro.analysis.response_time`) as the per-core test — enabling
the classic "partitioned EDF-VD vs partitioned FP" comparison as an
extension experiment.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.response_time import audsley_assignment
from repro.model.partition import Partition
from repro.model.taskset import MCTaskSet
from repro.partition import ordering
from repro.partition.base import Partitioner
from repro.types import ModelError, PartitionError

__all__ = ["FPPartitioner"]


class FPPartitioner(Partitioner):
    """Partitioned fixed-priority (AMC-rtb + Audsley) heuristic.

    Parameters
    ----------
    order:
        ``"utilization"`` (decreasing ``u_i(l_i)``, Kelly's DU family)
        or ``"criticality"`` (criticality first, then utilization,
        Kelly's criticality-aware family).
    fit:
        ``"first"`` or ``"worst"`` (worst = feasible core with the
        lowest packed load).
    """

    name = "fp"

    def __init__(self, order: str = "utilization", fit: str = "first"):
        if order not in ("utilization", "criticality"):
            raise PartitionError(f"unknown order {order!r}")
        if fit not in ("first", "worst"):
            raise PartitionError(f"unknown fit {fit!r}")
        self.order = order
        self.fit = fit
        self.name = f"fp-{'ff' if fit == 'first' else 'wf'}" + (
            "-ca" if order == "criticality" else ""
        )

    def order_tasks(self, taskset: MCTaskSet) -> list[int]:
        if taskset.levels != 2:
            raise ModelError(
                f"partitioned FP supports dual-criticality sets only,"
                f" got K={taskset.levels}"
            )
        if self.order == "utilization":
            return ordering.by_max_utilization(taskset)
        return ordering.by_criticality_then_utilization(taskset)

    def select_core(
        self, task_index: int, partition: Partition, state: dict
    ) -> int | None:
        loads = state.get("loads")
        if loads is None:
            loads = np.zeros(partition.cores, dtype=np.float64)
            state["loads"] = loads
        if self.fit == "first":
            core_order = range(partition.cores)
        else:
            core_order = np.argsort(loads, kind="stable")
        for m in core_order:
            m = int(m)
            candidate = partition.tasks_on(m) + [task_index]
            subset = partition.taskset.subset(candidate)
            if audsley_assignment(subset) is not None:
                loads[m] += partition.taskset.max_utilizations[task_index]
                return m
        return None

    def core_assignments(self, partition: Partition):
        """Per-core Audsley priority assignments for a finished partition
        (``None`` entries for empty cores)."""
        out = []
        for m in range(partition.cores):
            idx = partition.tasks_on(m)
            if not idx:
                out.append(None)
                continue
            out.append(audsley_assignment(partition.taskset.subset(idx)))
        return out

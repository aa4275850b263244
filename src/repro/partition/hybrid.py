"""The Hybrid partitioning scheme of Rodriguez et al. (WMC 2013).

High-criticality tasks are spread out with WFD (so that each core keeps
headroom for their mode-switch overloads), then low-criticality tasks
are packed with FFD.  The cited scheme is defined for dual-criticality
systems; for ``K > 2`` we generalize with a configurable criticality
threshold (DESIGN.md "Substitutions"): tasks with ``l_i >=
high_threshold`` form the high group.  Both phases sort by decreasing
maximum utilization ``u_i(l_i)`` and use the paper's two-step
feasibility check.
"""

from __future__ import annotations

import numpy as np

from repro.model.partition import Partition
from repro.model.taskset import MCTaskSet
from repro.partition.base import Partitioner
from repro.partition.probe import first_feasible_core
from repro.types import PartitionError

__all__ = ["HybridPartitioner"]


class HybridPartitioner(Partitioner):
    """WFD for high-criticality tasks, then FFD for low-criticality ones."""

    name = "hybrid"

    def __init__(self, high_threshold: int = 2):
        if high_threshold < 1:
            raise PartitionError(
                f"high_threshold must be >= 1, got {high_threshold}"
            )
        self.high_threshold = high_threshold

    def order_tasks(self, taskset: MCTaskSet) -> list[int]:
        umax = taskset.max_utilizations
        crit = taskset.criticalities
        high = crit >= self.high_threshold
        # Primary key: high group first.  Secondary: decreasing umax.
        # Final tie: lower index (lexsort stability).
        return np.lexsort((-umax, ~high)).tolist()

    def select_core(
        self, task_index: int, partition: Partition, state: dict
    ) -> int | None:
        loads = state.get("loads")
        if loads is None:
            loads = np.zeros(partition.cores, dtype=np.float64)
            state["loads"] = loads
        taskset = partition.taskset
        if taskset.criticalities[task_index] >= self.high_threshold:
            core_order = np.argsort(loads, kind="stable")  # WFD
        else:
            core_order = np.arange(partition.cores)  # FFD
        target = first_feasible_core(partition, task_index, core_order)
        if target is not None:
            loads[target] += taskset.max_utilizations[task_index]
        return target

"""Classical bin-packing heuristics: FFD, BFD, WFD.

All three sort tasks by decreasing maximum utilization ``u_i(l_i)`` and
differ only in how they pick among the feasible cores:

* **FFD** — the first (lowest-index) feasible core;
* **BFD** — the feasible core with the *highest* current load (tightest
  fit);
* **WFD** — the feasible core with the *lowest* current load (most
  spare room).

"Load" is the Eq. (4) figure ``sum_k U_k^{Psi_m}(k)`` — the sum of the
assigned tasks' maximum utilizations — which is what these heuristics
classically pack on.  Feasibility of a (core, task) pair is the paper's
two-step check: Eq. (4) first, then Theorem 1
(:func:`repro.analysis.is_feasible_core`).
"""

from __future__ import annotations

import numpy as np

from repro.model.partition import Partition
from repro.model.taskset import MCTaskSet
from repro.partition import ordering
from repro.partition.base import Partitioner
from repro.partition.probe import first_feasible_core

__all__ = ["FirstFitDecreasing", "BestFitDecreasing", "WorstFitDecreasing"]


class _ClassicalDecreasing(Partitioner):
    """Shared machinery for the utilization-sorted classical heuristics."""

    def order_tasks(self, taskset: MCTaskSet) -> list[int]:
        return ordering.by_max_utilization(taskset)

    def select_core(
        self, task_index: int, partition: Partition, state: dict
    ) -> int | None:
        loads = state.get("loads")
        if loads is None:
            loads = np.zeros(partition.cores, dtype=np.float64)
            state["loads"] = loads
        target = self._pick(task_index, partition, loads)
        if target is not None:
            loads[target] += partition.taskset.max_utilizations[task_index]
        return target

    def _pick(
        self, task_index: int, partition: Partition, loads: np.ndarray
    ) -> int | None:
        raise NotImplementedError

    def _feasible_in_preference_order(
        self, task_index: int, partition: Partition, core_order
    ) -> int | None:
        return first_feasible_core(partition, task_index, core_order)


class FirstFitDecreasing(_ClassicalDecreasing):
    """FFD: lowest-index feasible core."""

    name = "ffd"

    def _pick(self, task_index, partition, loads):
        return self._feasible_in_preference_order(
            task_index, partition, range(partition.cores)
        )


class BestFitDecreasing(_ClassicalDecreasing):
    """BFD: feasible core with the highest current load (tightest fit).

    Ties go to the lowest core index (stable sort on descending load).
    """

    name = "bfd"

    def _pick(self, task_index, partition, loads):
        order = np.argsort(-loads, kind="stable")
        return self._feasible_in_preference_order(task_index, partition, order)


class WorstFitDecreasing(_ClassicalDecreasing):
    """WFD: feasible core with the lowest current load (most spare room).

    Ties go to the lowest core index.
    """

    name = "wfd"

    def _pick(self, task_index, partition, loads):
        order = np.argsort(loads, kind="stable")
        return self._feasible_in_preference_order(task_index, partition, order)

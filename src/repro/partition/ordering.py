"""Task-ordering strategies for partitioning heuristics.

The first of the two partitioning steps (Section III of the paper) is to
sort the tasks.  CA-TPA sorts by *utilization contribution*
(:func:`repro.analysis.contribution_order`); the classical heuristics
sort by decreasing maximum utilization ``u_i(l_i)``.  The remaining
orders exist for the ablation studies in DESIGN.md §5.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.contribution import contribution_order
from repro.model.taskset import MCTaskSet

__all__ = [
    "by_contribution",
    "by_max_utilization",
    "by_criticality_then_utilization",
    "randomized",
]


def by_contribution(taskset: MCTaskSet) -> list[int]:
    """CA-TPA's order: decreasing utilization contribution (Eq. (13))."""
    return contribution_order(taskset)


def by_max_utilization(taskset: MCTaskSet) -> list[int]:
    """Classical decreasing-utilization order on ``u_i(l_i)``.

    Ties broken by higher criticality, then by lower index (mirroring the
    paper's tie rules so comparisons isolate the sort key).
    """
    umax = taskset.max_utilizations
    crit = taskset.criticalities
    return np.lexsort((-crit, -umax)).tolist()


def by_criticality_then_utilization(taskset: MCTaskSet) -> list[int]:
    """Criticality-first order (higher criticality earlier), utilization
    ``u_i(l_i)`` descending within a level.  Used by criticality-aware
    baselines in the literature (e.g. Kelly et al.)."""
    umax = taskset.max_utilizations
    crit = taskset.criticalities
    return np.lexsort((-umax, -crit)).tolist()


def randomized(taskset: MCTaskSet, rng: np.random.Generator) -> list[int]:
    """Uniformly random order (ablation control)."""
    return rng.permutation(len(taskset)).tolist()

"""Task sets stored as arrays: periods, WCETs, utilizations, criticalities.

The schedulability analysis (Eqs. (1)-(3) of the paper) needs, over and
over, sums of the form

.. math::

    U_j^{\\Psi}(k) = \\sum_{\\tau_i \\in \\Psi \\cap L_j} u_i(k)

for every pair of criticality levels ``(j, k)``.  :class:`MCTaskSet`
holds a dense ``(N, K)`` WCET matrix, the period and criticality vectors
and the ``(N, K)`` utilization matrix derived from them, so that any
subset's ``(K, K)`` level matrix is a single vectorized reduction — this
is the hot path of every partitioning probe, hence the NumPy layout (see
DESIGN.md §6).

The arrays are the source of truth.  Generators build a set straight
from them with :meth:`MCTaskSet.from_arrays`; :class:`MCTask` objects
are only materialized, once and lazily, when a caller iterates, indexes
or compares the set.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.model.task import MCTask
from repro.types import ModelError

__all__ = ["MCTaskSet"]


class MCTaskSet:
    """An immutable ordered collection of :class:`MCTask`.

    Parameters
    ----------
    tasks:
        The tasks, in index order (task indices are 0-based everywhere in
        the code; the paper's :math:`\\tau_1 \\dots \\tau_N` map to indices
        ``0..N-1``).  The set keeps these objects: iterating yields them.
    levels:
        The number of system criticality levels ``K``.  Defaults to the
        maximum task criticality.  May be larger (a system may define more
        levels than any present task uses) but never smaller.
    """

    __slots__ = (
        "_levels",
        "_wcets",
        "_periods",
        "_crit",
        "_umat",
        "_umax",
        "_names",
        "_tasks",
    )

    def __init__(self, tasks: Iterable[MCTask], levels: int | None = None):
        tasks = tuple(tasks)
        if not tasks:
            raise ModelError("task set must contain at least one task")
        n = len(tasks)
        crit = np.fromiter((len(t.wcets) for t in tasks), np.int64, n)
        levels = _checked_levels(crit, levels)
        flat = np.fromiter(
            itertools.chain.from_iterable(t.wcets for t in tasks), np.float64
        )
        wcets = np.zeros((n, levels))
        # Row-major boolean assignment fills row i's first l_i columns
        # with task i's WCETs, in order.
        wcets[_valid_columns(crit, levels)] = flat
        periods = np.fromiter((t.period for t in tasks), np.float64, n)
        self._store(wcets, periods, crit, levels, None, tasks)

    @classmethod
    def from_arrays(
        cls,
        wcets: np.ndarray,
        periods: np.ndarray,
        criticalities: np.ndarray,
        levels: int | None = None,
    ) -> "MCTaskSet":
        """A task set built straight from arrays; tasks are named ``tau_{i+1}``.

        ``wcets`` is ``(N, W)`` with ``c_i(k)`` in column ``k - 1``; only
        the first ``l_i`` columns of row ``i`` are read, so ``W`` must be
        at least the largest criticality.  ``periods`` and
        ``criticalities`` are ``(N,)``.  Every row is checked at once and
        an invalid row raises the same :class:`~repro.types.ModelError`
        as building its :class:`MCTask` would.  The arrays are copied.
        """
        wcets = np.asarray(wcets, dtype=np.float64)
        periods = np.asarray(periods, dtype=np.float64)
        crit_in = np.asarray(criticalities)
        if wcets.ndim != 2 or periods.shape != (wcets.shape[0],) or (
            crit_in.shape != periods.shape
        ):
            raise ModelError(
                f"expected (N, W) WCETs with (N,) periods and criticalities,"
                f" got shapes {wcets.shape}, {periods.shape}, {crit_in.shape}"
            )
        if wcets.shape[0] == 0:
            raise ModelError("task set must contain at least one task")
        crit = crit_in.astype(np.int64)
        if not np.array_equal(crit, crit_in):
            raise ModelError("criticalities must be integers")
        width = wcets.shape[1]
        valid = _valid_columns(crit, width)
        bad_wcet = valid & ~(np.isfinite(wcets) & (wcets > 0.0))
        decreasing = valid[:, 1:] & (wcets[:, 1:] < wcets[:, :-1])
        bad = (
            (crit < 1)
            | (crit > width)
            | ~(np.isfinite(periods) & (periods > 0.0))
            | bad_wcet.any(axis=1)
            | decreasing.any(axis=1)
        )
        if bad.any():
            i = int(np.argmax(bad))
            if crit[i] > width:
                raise ModelError(
                    f"task {i} has criticality {crit[i]} but only {width}"
                    " WCET columns"
                )
            # The per-task constructor words the error for this row.
            MCTask(wcets=tuple(wcets[i, : max(crit[i], 0)]), period=periods[i])
        levels = _checked_levels(crit, levels)
        if width < levels:
            wcets = np.pad(wcets, ((0, 0), (0, levels - width)))
        wcets = np.where(_valid_columns(crit, levels), wcets[:, :levels], 0.0)
        out = cls.__new__(cls)
        out._store(wcets, periods.copy(), crit, levels, None, None)
        return out

    def _store(
        self,
        wcets: np.ndarray,
        periods: np.ndarray,
        crit: np.ndarray,
        levels: int,
        names: tuple[str, ...] | None,
        tasks: tuple[MCTask, ...] | None,
    ) -> None:
        """Adopt validated arrays (zeros above ``l_i``) and derive ``u``."""
        umat = wcets / periods[:, None]
        for array in (wcets, periods, crit, umat):
            array.setflags(write=False)
        self._levels = int(levels)
        self._wcets = wcets
        self._periods = periods
        self._crit = crit
        self._umat = umat
        self._umax: np.ndarray | None = None
        # ``None`` names mean the default ``tau_{i+1}``.
        self._names = names
        # The materialized MCTask objects; ``None`` until first needed.
        self._tasks = tasks

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._crit)

    def __iter__(self) -> Iterator[MCTask]:
        return iter(self.tasks)

    def __getitem__(self, index: int) -> MCTask:
        return self.tasks[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MCTaskSet):
            return NotImplemented
        return self._levels == other._levels and self.tasks == other.tasks

    def __hash__(self) -> int:
        return hash((self._levels, self.tasks))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MCTaskSet(n={len(self)}, K={self._levels})"

    # ------------------------------------------------------------------
    # Model-level accessors
    # ------------------------------------------------------------------
    @property
    def tasks(self) -> tuple[MCTask, ...]:
        """The tasks as :class:`MCTask` objects, built once on first use."""
        if self._tasks is None:
            names = self._task_names()
            self._tasks = tuple(
                MCTask(wcets=tuple(row[:crit]), period=period, name=name)
                for row, period, crit, name in zip(
                    self._wcets.tolist(),
                    self._periods.tolist(),
                    self._crit.tolist(),
                    names,
                )
            )
        return self._tasks

    @property
    def levels(self) -> int:
        """The number of system criticality levels ``K``."""
        return self._levels

    @property
    def wcet_matrix(self) -> np.ndarray:
        """Read-only ``(N, K)`` array with ``c[i, k-1] = c_i(k)`` (0 above l_i)."""
        return self._wcets

    @property
    def periods(self) -> np.ndarray:
        """Read-only ``(N,)`` array of periods ``p_i``."""
        return self._periods

    @property
    def utilization_matrix(self) -> np.ndarray:
        """Read-only ``(N, K)`` array with ``u[i, k-1] = u_i(k)`` (0 above l_i)."""
        return self._umat

    @property
    def criticalities(self) -> np.ndarray:
        """Read-only ``(N,)`` int array of task criticality levels ``l_i``."""
        return self._crit

    @property
    def max_utilizations(self) -> np.ndarray:
        """Read-only ``(N,)`` array of ``u_i(l_i)``, the classical sort key."""
        if self._umax is None:
            umax = self._umat[np.arange(len(self)), self._crit - 1]
            umax.setflags(write=False)
            self._umax = umax
        return self._umax

    # ------------------------------------------------------------------
    # Utilization algebra (Eqs. (1)-(3) of the paper)
    # ------------------------------------------------------------------
    def level_matrix(self, indices: Sequence[int] | None = None) -> np.ndarray:
        """The ``(K, K)`` matrix ``L[j-1, k-1] = U_j(k)`` for a subset.

        ``U_j(k)`` (Eq. (1)) is the summed level-``k`` utilization of the
        subset's tasks whose own criticality is exactly ``j``.  Entries
        with ``k > j`` are zero by construction (a task contributes no
        utilization above its own criticality).

        Parameters
        ----------
        indices:
            Task indices forming the subset; ``None`` means all tasks.
        """
        if indices is None:
            umat, crit = self._umat, self._crit
        else:
            idx = np.asarray(indices, dtype=np.intp)
            umat, crit = self._umat[idx], self._crit[idx]
        out = np.zeros((self._levels, self._levels), dtype=np.float64)
        # Sum rows of the utilization matrix into their criticality bucket.
        np.add.at(out, crit - 1, umat)
        return out

    def total_utilization(self, level: int) -> float:
        """``U(k)`` (Eq. (2)): total level-``k`` utilization of tasks with
        criticality ``k`` or higher, over the whole set."""
        if not 1 <= level <= self._levels:
            raise ModelError(f"level must be in [1, {self._levels}], got {level}")
        mask = self._crit >= level
        return float(self._umat[mask, level - 1].sum())

    def total_utilization_vector(self) -> np.ndarray:
        """``(K,)`` vector of ``U(k)`` for ``k = 1..K``."""
        out = np.empty(self._levels, dtype=np.float64)
        for k in range(1, self._levels + 1):
            out[k - 1] = self.total_utilization(k)
        return out

    def average_utilization(self, level: int = 1) -> float:
        """Aggregate raw utilization at ``level`` (used by NSU normalization)."""
        if not 1 <= level <= self._levels:
            raise ModelError(f"level must be in [1, {self._levels}], got {level}")
        return float(self._umat[:, level - 1].sum())

    # ------------------------------------------------------------------
    # Derived sets
    # ------------------------------------------------------------------
    def subset(self, indices: Sequence[int]) -> "MCTaskSet":
        """A new task set containing only ``indices`` (same ``K``, same names)."""
        picks = list(indices)
        if not picks:
            raise ModelError("subset must be non-empty")
        idx = np.array(picks, dtype=np.intp)
        out = MCTaskSet.__new__(MCTaskSet)
        if self._tasks is not None:
            tasks, names = tuple(map(self._tasks.__getitem__, picks)), None
        else:
            tasks, names = None, tuple(map(self._task_names().__getitem__, picks))
        out._store(
            self._wcets[idx], self._periods[idx], self._crit[idx],
            self._levels, names, tasks,
        )
        return out

    def with_levels(self, levels: int) -> "MCTaskSet":
        """The same tasks viewed under a different system level count ``K``."""
        levels = _checked_levels(self._crit, levels)
        wcets = np.zeros((len(self), levels))
        keep = min(levels, self._levels)
        wcets[:, :keep] = self._wcets[:, :keep]
        out = MCTaskSet.__new__(MCTaskSet)
        out._store(
            wcets, self._periods, self._crit, levels, self._names, self._tasks
        )
        return out

    def extended(self, tasks: Iterable[MCTask]) -> "MCTaskSet":
        """This set with ``tasks`` appended as rows ``N..`` (same ``K``).

        The appended :class:`MCTask` objects are kept as given, and the
        existing rows are concatenated as arrays, not re-read task by task.
        """
        tail = MCTaskSet(tasks, levels=self._levels)
        out = MCTaskSet.__new__(MCTaskSet)
        out._store(
            np.concatenate((self._wcets, tail._wcets)),
            np.concatenate((self._periods, tail._periods)),
            np.concatenate((self._crit, tail._crit)),
            self._levels,
            None,
            self.tasks + tail.tasks,
        )
        return out

    def hyperperiod(self) -> float | None:
        """LCM of the periods, or ``None`` when any period is non-integer.

        The paper's generator draws integer periods, so exact-hyperperiod
        simulation horizons are available for its workloads; arbitrary
        float periods have no meaningful LCM and return ``None``.
        """
        if not (self._periods == np.floor(self._periods)).all():
            return None
        return float(math.lcm(*(int(p) for p in self._periods.tolist())))

    def _task_names(self) -> tuple[str, ...]:
        """Names of a set whose tasks are not materialized yet."""
        if self._names is not None:
            return self._names
        return tuple(f"tau_{i + 1}" for i in range(len(self)))


def _checked_levels(crit: np.ndarray, levels: int | None) -> int:
    """The system ``K`` for criticalities ``crit``, checked as the model requires."""
    max_crit = int(crit.max())
    if levels is None:
        levels = max_crit
    if levels < max_crit:
        raise ModelError(
            f"system criticality K={levels} is below the maximum task"
            f" criticality {max_crit}"
        )
    if levels < 1:
        raise ModelError(f"K must be >= 1, got {levels}")
    return int(levels)


def _valid_columns(crit: np.ndarray, width: int) -> np.ndarray:
    """``(N, width)`` mask of the columns ``k - 1 < l_i`` each row defines."""
    return np.arange(width) < crit[:, None]

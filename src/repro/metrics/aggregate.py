"""Aggregation of per-task-set outcomes into per-scheme statistics.

One :class:`SchemeAccumulator` per (scheme, data point).  Feed it each
task set's :class:`~repro.partition.PartitionResult`; it records the
schedulability count and the per-set ``U_sys`` / ``U_avg`` / ``Lambda``
figures over the *schedulable* sets (matching the paper: "these metrics
are obtained by considering only the schedulable task sets").

Accumulators are picklable and mergeable, so the parallel harness can
reduce per-worker partial results.  Finalization sums the per-set values
with :func:`math.fsum`, whose exactly-rounded result is independent of
summation order — merging worker shards in any order yields **bit-
identical** :class:`SchemeStats`, which is what lets the runner promise
reproducibility regardless of the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


from repro.metrics.core import (
    average_core_utilization,
    imbalance_factor,
    system_utilization,
)
from repro.partition.base import PartitionResult
from repro.types import ModelError

__all__ = ["SchemeAccumulator", "SchemeStats"]


def _nan_to_none(value: float) -> float | None:
    return None if isinstance(value, float) and math.isnan(value) else value


def _none_to_nan(value) -> float:
    return float("nan") if value is None else float(value)


@dataclass(frozen=True, slots=True)
class SchemeStats:
    """Final per-scheme figures for one data point."""

    scheme: str
    total_sets: int
    schedulable_sets: int
    sched_ratio: float
    u_sys: float  #: mean U_sys over schedulable sets (nan if none)
    u_avg: float  #: mean U_avg over schedulable sets (nan if none)
    imbalance: float  #: mean Lambda over schedulable sets (nan if none)

    def to_dict(self) -> dict:
        """Strict-JSON form: NaN means (no schedulable sets) map to null.

        Python floats round-trip exactly through ``repr`` in JSON, so
        :meth:`from_dict` rebuilds a bit-identical ``SchemeStats``.
        """
        return {
            "scheme": self.scheme,
            "total_sets": self.total_sets,
            "schedulable_sets": self.schedulable_sets,
            "sched_ratio": _nan_to_none(self.sched_ratio),
            "u_sys": _nan_to_none(self.u_sys),
            "u_avg": _nan_to_none(self.u_avg),
            "imbalance": _nan_to_none(self.imbalance),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SchemeStats":
        return cls(
            scheme=data["scheme"],
            total_sets=int(data["total_sets"]),
            schedulable_sets=int(data["schedulable_sets"]),
            sched_ratio=_none_to_nan(data["sched_ratio"]),
            u_sys=_none_to_nan(data["u_sys"]),
            u_avg=_none_to_nan(data["u_avg"]),
            imbalance=_none_to_nan(data["imbalance"]),
        )


@dataclass
class SchemeAccumulator:
    """Per-set metric values for one scheme at one data point."""

    scheme: str
    total_sets: int = 0
    u_sys_values: list[float] = field(default_factory=list)
    u_avg_values: list[float] = field(default_factory=list)
    imbalance_values: list[float] = field(default_factory=list)

    @property
    def schedulable_sets(self) -> int:
        return len(self.u_sys_values)

    def add(self, result: PartitionResult, *, check_scheme: bool = True) -> None:
        """Record one task set's outcome.

        ``check_scheme=False`` skips the name guard — used when the
        accumulator is keyed by a *label* that differs from the
        partitioner's registry name (e.g. ``ca-tpa`` alpha variants).
        """
        if check_scheme and result.scheme != self.scheme:
            raise ModelError(
                f"accumulator for {self.scheme!r} got result for {result.scheme!r}"
            )
        self.total_sets += 1
        if not result.schedulable:
            return
        utils = result.core_utilizations()
        self.u_sys_values.append(system_utilization(utils))
        self.u_avg_values.append(average_core_utilization(utils))
        self.imbalance_values.append(imbalance_factor(utils))

    def merge(self, other: "SchemeAccumulator") -> None:
        """Fold another worker's partial values into this one."""
        if other.scheme != self.scheme:
            raise ModelError(
                f"cannot merge accumulator for {other.scheme!r} into {self.scheme!r}"
            )
        self.total_sets += other.total_sets
        self.u_sys_values.extend(other.u_sys_values)
        self.u_avg_values.extend(other.u_avg_values)
        self.imbalance_values.extend(other.imbalance_values)

    def to_dict(self) -> dict:
        """Checkpoint form for the engine's shard store.

        Per-set values are recorded only for *schedulable* sets, so they
        are always finite and survive strict JSON exactly (float ``repr``
        round-trip); :meth:`finalize` on a restored accumulator is
        bit-identical to finalizing the original.
        """
        return {
            "scheme": self.scheme,
            "total_sets": self.total_sets,
            "u_sys_values": list(self.u_sys_values),
            "u_avg_values": list(self.u_avg_values),
            "imbalance_values": list(self.imbalance_values),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SchemeAccumulator":
        return cls(
            scheme=data["scheme"],
            total_sets=int(data["total_sets"]),
            u_sys_values=[float(v) for v in data["u_sys_values"]],
            u_avg_values=[float(v) for v in data["u_avg_values"]],
            imbalance_values=[float(v) for v in data["imbalance_values"]],
        )

    def finalize(self) -> SchemeStats:
        """Close the books: means over schedulable sets, ratio over all."""
        n_ok = self.schedulable_sets
        return SchemeStats(
            scheme=self.scheme,
            total_sets=self.total_sets,
            schedulable_sets=n_ok,
            sched_ratio=(n_ok / self.total_sets) if self.total_sets else math.nan,
            u_sys=(math.fsum(self.u_sys_values) / n_ok) if n_ok else math.nan,
            u_avg=(math.fsum(self.u_avg_values) / n_ok) if n_ok else math.nan,
            imbalance=math.fsum(self.imbalance_values) / n_ok if n_ok else math.nan,
        )

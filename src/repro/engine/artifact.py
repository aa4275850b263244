"""Structured result artifacts: the one schema every renderer reads.

A :class:`SweepArtifact` is the finished product of one figure sweep —
swept values, full point provenance (workload config + scheme specs),
and the finalized :class:`~repro.metrics.aggregate.SchemeStats` per
scheme.  ``format_sweep``, ``sweep_to_csv``, the weighted-schedulability
summary, and the CLI all render from this object; its JSON form is
strict (no NaN literals) and versioned via :data:`SCHEMA_VERSION`, and
floats survive the round-trip bit-exactly (Python's shortest-repr float
serialization), so ``from_json(to_json(a)) == a``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.engine.spec import PointSpec, SchemeSpec
from repro.gen.params import WorkloadConfig
from repro.metrics.aggregate import SchemeStats
from repro.types import ReproError

__all__ = ["SCHEMA_VERSION", "PointResult", "SweepArtifact"]

#: Version of the artifact/store JSON schema.  Bump on any change to the
#: serialized shape *or* to the semantics of the recorded numbers; the
#: shard store keys on it, so bumping also invalidates every checkpoint.
SCHEMA_VERSION = 1


@dataclass(frozen=True, slots=True)
class PointResult:
    """One evaluated data point, with full provenance.

    Supports mapping-style access by scheme label (``row["ca-tpa"]``,
    ``row.items()``) so renderers and tests can treat it like the plain
    ``dict[str, SchemeStats]`` it replaced.
    """

    value: object  #: the swept value this point belongs to
    config: WorkloadConfig
    schemes: tuple[SchemeSpec, ...]
    stats: tuple[SchemeStats, ...]  #: aligned with ``schemes``

    def __post_init__(self) -> None:
        if len(self.schemes) != len(self.stats):
            raise ReproError(
                f"{len(self.schemes)} schemes but {len(self.stats)} stats"
            )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.schemes)

    def __getitem__(self, label: str) -> SchemeStats:
        for spec, stats in zip(self.schemes, self.stats):
            if spec.label == label:
                return stats
        raise KeyError(label)

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def __iter__(self):
        return iter(self.labels)

    def keys(self) -> tuple[str, ...]:
        return self.labels

    def items(self):
        return [(spec.label, stats) for spec, stats in zip(self.schemes, self.stats)]

    def to_point_spec(self, sets: int, seed: int, kind: str = "stats") -> PointSpec:
        """The spec that regenerates this row (provenance is executable)."""
        return PointSpec(
            config=self.config, schemes=self.schemes, sets=sets, seed=seed, kind=kind
        )

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "config": self.config.to_dict(),
            "schemes": [s.to_dict() for s in self.schemes],
            "stats": [s.to_dict() for s in self.stats],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PointResult":
        return cls(
            value=data["value"],
            config=WorkloadConfig.from_dict(data["config"]),
            schemes=tuple(SchemeSpec.from_dict(s) for s in data["schemes"]),
            stats=tuple(SchemeStats.from_dict(s) for s in data["stats"]),
        )


@dataclass(frozen=True)
class SweepArtifact:
    """All data points of one figure, ready for any renderer."""

    figure: str  #: e.g. "fig1"
    title: str
    parameter: str  #: axis label, e.g. "NSU"
    values: tuple
    sets_per_point: int
    seed: int
    #: rows[i] corresponds to values[i]
    rows: tuple[PointResult, ...]
    schema_version: int = field(default=SCHEMA_VERSION)

    @property
    def definition(self) -> "SweepArtifact":
        """Back-compat shim: the artifact carries its own definition
        fields (``figure``/``title``/``parameter``/``values``), so old
        ``result.definition.values``-style callers keep working."""
        return self

    @property
    def schemes(self) -> list[str]:
        return list(self.rows[0].labels) if self.rows else []

    def series(self, metric: str) -> dict[str, list[float]]:
        """Per-scheme series of ``metric`` across the swept values.

        ``metric`` is one of ``sched_ratio``, ``u_sys``, ``u_avg``,
        ``imbalance``.
        """
        return {
            scheme: [getattr(row[scheme], metric) for row in self.rows]
            for scheme in self.schemes
        }

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "kind": "sweep_artifact",
            "figure": self.figure,
            "title": self.title,
            "parameter": self.parameter,
            "values": list(self.values),
            "sets_per_point": self.sets_per_point,
            "seed": self.seed,
            "rows": [row.to_dict() for row in self.rows],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, allow_nan=False)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepArtifact":
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ReproError(
                f"unsupported artifact schema version {version!r}"
                f" (this build reads version {SCHEMA_VERSION})"
            )
        return cls(
            figure=data["figure"],
            title=data["title"],
            parameter=data["parameter"],
            values=tuple(data["values"]),
            sets_per_point=int(data["sets_per_point"]),
            seed=int(data["seed"]),
            rows=tuple(PointResult.from_dict(r) for r in data["rows"]),
            schema_version=version,
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepArtifact":
        return cls.from_dict(json.loads(text))

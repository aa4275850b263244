"""Workload-generation parameters (Table IV of the paper).

:class:`WorkloadConfig` describes one *data point* of the evaluation: the
platform size, the criticality structure, and the random-workload knobs.
The class carries the paper's default values (Section IV-A: ``M = 8``,
``K = 4``, ``NSU = 0.6``, ``IFC = 0.4``; the imbalance threshold default
``alpha = 0.7`` lives with CA-TPA, not with the workload); the sweep
ranges of Table IV are exposed as module constants for the figure
harness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.types import GenerationError

__all__ = [
    "WorkloadConfig",
    "CORE_COUNTS",
    "LEVEL_RANGE",
    "ALPHA_RANGE",
    "NSU_RANGE",
    "TASK_COUNT_RANGE",
    "PERIOD_RANGES",
    "IFC_RANGE",
]

#: Table IV: number of cores (M).
CORE_COUNTS: tuple[int, ...] = (2, 4, 8, 16, 32)
#: Table IV: system criticality level (K).
LEVEL_RANGE: tuple[int, int] = (2, 6)
#: Table IV: threshold for workload imbalance (alpha).
ALPHA_RANGE: tuple[float, float] = (0.1, 0.5)
#: Table IV: normalized system utilization (NSU).
NSU_RANGE: tuple[float, float] = (0.4, 0.8)
#: Table IV: number of tasks (N); sampled uniformly per task set.
TASK_COUNT_RANGE: tuple[int, int] = (40, 200)
#: Table IV: the three period ranges; each task picks one uniformly.
PERIOD_RANGES: tuple[tuple[int, int], ...] = ((50, 200), (200, 500), (500, 2000))
#: Table IV: increment factor (IFC) between consecutive-level WCETs.
IFC_RANGE: tuple[float, float] = (0.3, 0.7)


@dataclass(frozen=True, slots=True)
class WorkloadConfig:
    """Parameters for one synthetic-workload data point.

    Attributes
    ----------
    cores:
        Number of homogeneous cores ``M``.
    levels:
        System criticality level count ``K``.
    nsu:
        Normalized system utilization: the ratio of the aggregate raw
        level-1 utilization to the number of cores.  The generator's
        sampling achieves this *in expectation*; set ``exact_nsu`` to
        rescale each set to hit it exactly.
    ifc:
        Increment factor: ``c_i(k) = c_i(k-1) * (1 + ifc)``.
    task_count_range:
        Inclusive range from which ``N`` is drawn per task set.
    period_ranges:
        Candidate inclusive period ranges; each task picks one uniformly
        and then an integer period uniformly inside it.
    exact_nsu:
        When True, level-1 WCETs are rescaled so the generated set's
        aggregate level-1 utilization is exactly ``nsu * cores``.
    crit_weights:
        Optional probability weights over the criticality levels
        ``1..K`` used when drawing each task's ``l_i``.  ``None``
        (default) is the paper's uniform draw; e.g. ``(4, 2, 1, 1)``
        skews towards low-criticality tasks, which is the realistic
        IMA mix (most functions are not DAL-A).
    """

    cores: int = 8
    levels: int = 4
    nsu: float = 0.6
    ifc: float = 0.4
    task_count_range: tuple[int, int] = TASK_COUNT_RANGE
    period_ranges: tuple[tuple[int, int], ...] = PERIOD_RANGES
    exact_nsu: bool = False
    crit_weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise GenerationError(f"cores must be >= 1, got {self.cores}")
        if self.levels < 1:
            raise GenerationError(f"levels must be >= 1, got {self.levels}")
        if not 0.0 < self.nsu:
            raise GenerationError(f"nsu must be positive, got {self.nsu}")
        if self.ifc < 0.0:
            raise GenerationError(f"ifc must be >= 0, got {self.ifc}")
        lo, hi = self.task_count_range
        if not 1 <= lo <= hi:
            raise GenerationError(
                f"invalid task count range {self.task_count_range}"
            )
        if not self.period_ranges:
            raise GenerationError("at least one period range is required")
        for plo, phi in self.period_ranges:
            if not 0 < plo <= phi:
                raise GenerationError(f"invalid period range ({plo}, {phi})")
        if self.crit_weights is not None:
            if len(self.crit_weights) != self.levels:
                raise GenerationError(
                    f"crit_weights needs one weight per level"
                    f" ({self.levels}), got {len(self.crit_weights)}"
                )
            if any(w < 0 for w in self.crit_weights) or sum(self.crit_weights) <= 0:
                raise GenerationError("crit_weights must be non-negative, sum > 0")

    def with_(self, **changes) -> "WorkloadConfig":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **changes)

    @classmethod
    def paper_default(cls) -> "WorkloadConfig":
        """The Section IV-A default configuration."""
        return cls()

    def to_dict(self) -> dict:
        """JSON-serializable form; inverse of :meth:`from_dict`.

        The engine's content-addressed store hashes this dict, so the
        field set is part of the cache-key contract: adding a workload
        knob changes every key (a full, safe invalidation).
        """
        return {
            "cores": self.cores,
            "levels": self.levels,
            "nsu": self.nsu,
            "ifc": self.ifc,
            "task_count_range": list(self.task_count_range),
            "period_ranges": [list(r) for r in self.period_ranges],
            "exact_nsu": self.exact_nsu,
            "crit_weights": (
                None if self.crit_weights is None else list(self.crit_weights)
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadConfig":
        """Rebuild a config from :meth:`to_dict` output (validates anew)."""
        return cls(
            cores=int(data["cores"]),
            levels=int(data["levels"]),
            nsu=float(data["nsu"]),
            ifc=float(data["ifc"]),
            task_count_range=tuple(data["task_count_range"]),
            period_ranges=tuple(tuple(r) for r in data["period_ranges"]),
            exact_nsu=bool(data["exact_nsu"]),
            crit_weights=(
                None
                if data["crit_weights"] is None
                else tuple(data["crit_weights"])
            ),
        )

"""Task-to-core partitioning heuristics (CA-TPA and baselines)."""

from repro.partition.ablation import CATPAVariant
from repro.partition.base import Partitioner, PartitionResult
from repro.partition.catpa import CATPA
from repro.partition.classical import (
    BestFitDecreasing,
    FirstFitDecreasing,
    WorstFitDecreasing,
)
from repro.partition.dbf_scheme import DBFFirstFit
from repro.partition.fp_schemes import FPPartitioner
from repro.partition.hybrid import HybridPartitioner
from repro.partition.lockstep import lockstep_supported, partition_lockstep
from repro.partition.registry import (
    PAPER_SCHEMES,
    available_schemes,
    get_partitioner,
    register,
)

__all__ = [
    "BestFitDecreasing",
    "CATPA",
    "CATPAVariant",
    "DBFFirstFit",
    "FPPartitioner",
    "FirstFitDecreasing",
    "HybridPartitioner",
    "PAPER_SCHEMES",
    "Partitioner",
    "PartitionResult",
    "WorstFitDecreasing",
    "available_schemes",
    "get_partitioner",
    "lockstep_supported",
    "partition_lockstep",
    "register",
]

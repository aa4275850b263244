"""Lockstep partitioning == per-set ``Partitioner.partition``, bit for bit.

Every observable of each lane's result must equal the sequential run
under the batch probe backend: assignment, order, failed task,
schedulability, core utilizations, level matrices, core counts and core
versions.  The property test mixes schemes, ragged task counts (N = 1
included), lanes that fail on their first task, and every CA-TPA /
Hybrid knob the registry exposes.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.engine import Engine, ExperimentSpec, PointSpec, SchemeSpec
from repro.engine.spec import default_schemes
from repro.gen import WorkloadConfig, generate_taskset
from repro.model import MCTask, MCTaskSet
from repro.partition import get_partitioner, lockstep
from repro.partition.catpa import TIE_EPS
from repro.partition.lockstep import lockstep_supported, partition_lockstep
from repro.types import PartitionError
from tests.conftest import random_taskset


def assert_same_result(got, ref) -> None:
    assert got.scheme == ref.scheme
    assert got.schedulable == ref.schedulable
    assert got.failed_task == ref.failed_task
    assert got.order == ref.order
    np.testing.assert_array_equal(got.assignment, ref.assignment)
    assert got.core_utilizations().tobytes() == ref.core_utilizations().tobytes()
    assert (
        got.partition.level_matrices().tobytes()
        == ref.partition.level_matrices().tobytes()
    )
    np.testing.assert_array_equal(got.partition.core_counts, ref.partition.core_counts)
    np.testing.assert_array_equal(
        got.partition.core_versions(), ref.partition.core_versions()
    )


def _overloaded(rng, levels: int) -> MCTaskSet:
    """1-3 tasks with u > 1 everywhere: every scheme fails on task one."""
    n = int(rng.integers(1, 4))
    tasks = [
        MCTask.from_utilizations(
            [1.5] * int(rng.integers(1, levels + 1)), period=10.0 + i
        )
        for i in range(n)
    ]
    return MCTaskSet(tasks, levels=levels)


def _partitioners(draw, levels: int) -> list:
    names = draw(
        st.lists(
            st.sampled_from(["ca-tpa", "ffd", "bfd", "wfd", "hybrid"]),
            min_size=1,
            max_size=6,
        )
    )
    out = []
    for name in names:
        if name == "ca-tpa":
            out.append(
                get_partitioner(
                    name,
                    alpha=draw(st.sampled_from([None, 0.0, 0.7])),
                    eq9_rule=draw(st.sampled_from(["max", "min"])),
                )
            )
        elif name == "hybrid":
            out.append(
                get_partitioner(
                    name, high_threshold=draw(st.integers(1, levels))
                )
            )
        else:
            out.append(get_partitioner(name))
    return out


@st.composite
def lane_mixes(draw):
    levels = draw(st.integers(2, 6))
    cores = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lanes = []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(["generated", "single", "overloaded"]))
        if shape == "overloaded":
            taskset = _overloaded(rng, levels)
        elif shape == "single":
            taskset = random_taskset(rng, n=1, levels=levels, max_u=0.9)
        else:
            config = WorkloadConfig(
                cores=cores,
                levels=levels,
                nsu=draw(st.sampled_from([0.3, 0.6, 0.9, 1.1])),
                task_count_range=(1, 30),
            )
            taskset = generate_taskset(config, rng)
        lanes += [(taskset, p) for p in _partitioners(draw, levels)]
    return lanes, cores


class TestLockstepEqualsSequential:
    @settings(max_examples=150, deadline=None)
    @given(lane_mixes())
    def test_every_observable_matches(self, mix):
        lanes, cores = mix
        got = partition_lockstep(lanes, cores)
        assert len(got) == len(lanes)
        for (taskset, partitioner), result in zip(lanes, got):
            assert_same_result(result, partitioner.partition(taskset, cores))

    def test_mixed_levels_in_one_call(self):
        rng = np.random.default_rng(3)
        lanes = [
            (random_taskset(rng, n=12, levels=k), get_partitioner(name))
            for k in (2, 5, 3)
            for name in ("ca-tpa", "hybrid", "wfd")
        ]
        for (taskset, p), result in zip(lanes, partition_lockstep(lanes, 3)):
            assert_same_result(result, p.partition(taskset, 3))

    def test_first_task_failure_reports_partial_state(self):
        taskset = _overloaded(np.random.default_rng(0), 3)
        (result,) = partition_lockstep([(taskset, get_partitioner("bfd"))], 2)
        assert not result.schedulable
        assert result.failed_task == result.order[0]
        assert (result.assignment == -1).all()
        assert np.isinf(result.core_utilizations()).sum() == 0

    def test_results_are_ordinary_mutable_partitions(self):
        rng = np.random.default_rng(9)
        taskset = random_taskset(rng, n=10, levels=3, max_u=0.9)
        (result,) = partition_lockstep([(taskset, get_partitioner("ffd"))], 1)
        ref = get_partitioner("ffd").partition(taskset, 1)
        assert not result.schedulable
        # The partial partition keeps working like a sequential one.
        for part in (result.partition, ref.partition):
            part.assign(result.failed_task, 0)
        assert_same_result(result, ref)
        with pytest.raises(ValueError):
            result.partition.level_matrices()[0, 0, 0] = 1.0


def _utilization_set(rows: list[list[float]], levels: int) -> MCTaskSet:
    return MCTaskSet(
        [MCTask.from_utilizations(u, period=10.0) for u in rows], levels=levels
    )


#: CA-TPA lanes (tasks, K, Eq.-(9) rule) whose min-increment step meets a
#: near tie: two feasible cores' increments differ by less than TIE_EPS,
#: and the later core is the lower one, so a plain argmin would disagree
#: with Algorithm 1's scan.  The first lane's gap is float noise (one
#: ulp); the twins in the others differ by 4e-10 and give gaps of about
#: 3e-10.
NEAR_TIE_LANES = [
    ([[0.2], [0.1]], 1, "max"),
    ([[0.11, 0.15 + 4e-10], [0.11, 0.15], [0.1, 0.14]], 2, "min"),
    ([[0.15, 0.21 + 4e-10], [0.15, 0.21], [0.16], [0.11, 0.13]], 2, "max"),
]


class TestNearTies:
    def _run(self, lanes, cores):
        """Lockstep results plus, per scan fallback row, (gap, scan != argmin)."""
        seen: list[tuple[float, bool]] = []
        scan = lockstep._scan_min_increment

        def spy(increment):
            picked = scan(increment)
            lowest = increment.min(axis=1, keepdims=True)
            for row, pick, low in zip(increment, picked, lowest):
                gap = row - low
                gap = gap[np.isfinite(gap) & (gap > 0.0)]
                seen.append((float(gap.min()), bool(pick != row.argmin())))
            return picked

        with mock.patch.object(lockstep, "_scan_min_increment", spy):
            results = partition_lockstep(lanes, cores)
        return results, seen

    def test_near_ties_resolve_as_the_sequential_scan(self):
        lanes = [
            (
                _utilization_set(rows, levels),
                get_partitioner("ca-tpa", alpha=None, eq9_rule=rule),
            )
            for rows, levels, rule in NEAR_TIE_LANES
        ]
        results, seen = self._run(lanes, 2)
        for (taskset, partitioner), result in zip(lanes, results):
            assert_same_result(result, partitioner.partition(taskset, 2))
        # The fallback ran, and on rows where the argmin alone was wrong:
        # one with a float-noise gap and one with a gap near 3e-10.
        overruled = [gap for gap, differs in seen if differs]
        assert any(gap < 1e-15 for gap in overruled)
        assert any(1e-11 < gap < TIE_EPS for gap in overruled)

    def test_near_ties_in_generated_lanes(self):
        rng = np.random.default_rng(5)
        config = WorkloadConfig(cores=4, levels=3, nsu=0.6, task_count_range=(20, 40))
        lanes = [
            (generate_taskset(config, rng), get_partitioner("ca-tpa", eq9_rule=rule))
            for rule in ("max", "min")
            for _ in range(4)
        ]
        results, seen = self._run(lanes, 4)
        assert seen
        for (taskset, partitioner), result in zip(lanes, results):
            assert_same_result(result, partitioner.partition(taskset, 4))

    def test_exact_idle_core_ties_keep_the_first_core(self):
        # Identical tasks: every idle core offers exactly the same
        # increment, which the argmin resolves to the lowest index with
        # no scan at all.
        taskset = _utilization_set([[0.1, 0.2]] * 3, 2)
        partitioner = get_partitioner("ca-tpa", alpha=None)
        (result,), seen = self._run([(taskset, partitioner)], 4)
        assert_same_result(result, partitioner.partition(taskset, 4))
        assert result.assignment[result.order[0]] == 0
        assert seen == []


class TestDispatch:
    @pytest.mark.parametrize(
        "name, kwargs, supported",
        [
            ("ca-tpa", {}, True),
            ("ffd", {}, True),
            ("bfd", {}, True),
            ("wfd", {}, True),
            ("hybrid", {"high_threshold": 3}, True),
            ("ca-tpa-variant", {}, False),
            ("dbf-ffd", {}, False),
            ("fp-ff", {}, False),
        ],
    )
    def test_exact_types_only(self, name, kwargs, supported):
        assert lockstep_supported(get_partitioner(name, **kwargs)) is supported

    def test_unsupported_lane_rejected(self):
        taskset = random_taskset(np.random.default_rng(1), n=4)
        with pytest.raises(PartitionError, match="no lockstep rule"):
            partition_lockstep([(taskset, get_partitioner("dbf-ffd"))], 2)

    def test_core_count_checked(self):
        taskset = random_taskset(np.random.default_rng(1), n=4)
        with pytest.raises(PartitionError, match="core count"):
            partition_lockstep([(taskset, get_partitioner("ffd"))], 0)


def _mixed_spec() -> ExperimentSpec:
    """A sweep whose points mix lockstep lanes with per-set-only schemes."""
    schemes = tuple(default_schemes()) + (
        SchemeSpec.make(
            "ca-tpa-variant", label="ca-tpa/wf", selection="worst-fit"
        ),
        SchemeSpec.make("dbf-ffd"),
        SchemeSpec.make("hybrid", label="hybrid-3", high_threshold=3),
    )
    config = WorkloadConfig(cores=3, levels=3, task_count_range=(4, 14))
    values = (0.5, 0.8)
    return ExperimentSpec(
        figure="figM",
        title="mixed lanes",
        parameter="NSU",
        values=values,
        points=tuple(
            PointSpec(config=config.with_(nsu=v), schemes=schemes, sets=7, seed=11)
            for v in values
        ),
    )


class TestEngineMix:
    def test_mixed_schemes_artifact_equals_per_set_artifact(self):
        fused = Engine(jobs=1).run(_mixed_spec())
        # Instrumented runs keep every lane on the per-set path.
        with obs.instrument():
            per_set = Engine(jobs=1).run(_mixed_spec())
        assert fused.to_json() == per_set.to_json()

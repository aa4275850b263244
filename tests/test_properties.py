"""Property-based tests (hypothesis) on the core data structures and
invariants of the library.

Strategies build small-but-arbitrary MC task sets; the properties assert
the algebraic identities the rest of the library leans on: utilization
bookkeeping, the Theorem-1 machinery's ranges and cross-checks, ordering
rules, partition incrementality, and generator postconditions.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    available_utilizations,
    capacity_terms,
    contribution_matrix,
    contribution_order,
    core_utilization,
    demand_terms,
    is_feasible_dual,
    is_feasible_simple,
    is_feasible_theorem1,
    lambda_factors,
    utilization_contributions,
)
from repro.analysis.dual import DualUtilizations, is_feasible_classic
from repro.metrics import imbalance_factor
from repro.model import MCTask, MCTaskSet, Partition
from repro.partition.backend import BatchBackend, IncrementalBackend
from repro.types import EPS, ModelError, fits_unit_capacity

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

finite_u = st.floats(min_value=1e-4, max_value=0.9, allow_nan=False)


@st.composite
def mc_tasks(draw, max_levels=5):
    crit = draw(st.integers(min_value=1, max_value=max_levels))
    base = draw(finite_u)
    growths = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=2.0),
            min_size=crit - 1,
            max_size=crit - 1,
        )
    )
    utils = [base]
    for g in growths:
        utils.append(utils[-1] * g)
    period = draw(st.floats(min_value=1.0, max_value=1000.0))
    return MCTask.from_utilizations(utils, period=period)


@st.composite
def mc_tasksets(draw, min_tasks=1, max_tasks=8, levels=4):
    tasks = draw(st.lists(mc_tasks(levels), min_size=min_tasks, max_size=max_tasks))
    return MCTaskSet(tasks, levels=levels)


#: Any JSON value, or :data:`_ABSENT` for a field left out.
_ABSENT = object()
field_values = st.just(_ABSENT) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
task_fields = ("name", "period", "wcets")


def _set_field(obj: dict, key: str, value) -> None:
    if value is _ABSENT:
        obj.pop(key, None)
    else:
        obj[key] = value


@st.composite
def dual_utilizations(draw):
    return DualUtilizations(
        lo_lo=draw(st.floats(min_value=0.0, max_value=1.5)),
        hi_lo=draw(st.floats(min_value=0.0, max_value=1.0)),
        hi_hi=draw(st.floats(min_value=0.0, max_value=1.5)),
    )


# ----------------------------------------------------------------------
# Model invariants
# ----------------------------------------------------------------------


class TestModelProperties:
    @given(mc_tasks())
    def test_utilization_monotone_in_level(self, task):
        utils = [task.utilization(k) for k in range(1, task.criticality + 1)]
        assert all(b >= a for a, b in zip(utils, utils[1:]))
        assert task.max_utilization == utils[-1]

    @given(mc_tasks(), st.floats(min_value=0.1, max_value=4.0))
    def test_scaling_scales_utilizations(self, task, factor):
        scaled = task.scaled(factor)
        for k in range(1, task.criticality + 1):
            assert scaled.utilization(k) == abs_approx(task.utilization(k) * factor)

    @given(mc_tasksets())
    def test_level_matrix_row_buckets(self, ts):
        # Row j of the level matrix is the sum of utilization rows of
        # tasks whose criticality is exactly j+1.
        mat = ts.level_matrix()
        for j in range(ts.levels):
            idx = [i for i in range(len(ts)) if ts.criticalities[i] == j + 1]
            expected = ts.utilization_matrix[idx].sum(axis=0)
            np.testing.assert_allclose(mat[j], expected, atol=1e-12)

    @given(mc_tasksets(min_tasks=2))
    def test_level_matrix_additive_over_disjoint_subsets(self, ts):
        half = len(ts) // 2
        a = list(range(half))
        b = list(range(half, len(ts)))
        np.testing.assert_allclose(
            ts.level_matrix(a) + ts.level_matrix(b),
            ts.level_matrix(),
            atol=1e-9,
        )

    @given(mc_tasksets())
    def test_total_utilization_counts_high_criticality_only(self, ts):
        for k in range(1, ts.levels + 1):
            expected = sum(
                t.utilization(k) for t in ts if t.criticality >= k
            )
            assert ts.total_utilization(k) == abs_approx(expected)


@st.composite
def taskset_arrays(draw):
    """``(wcets, periods, crits, levels)`` with at most one invalid row.

    Valid rows have positive non-decreasing WCETs in their first ``l_i``
    columns.  One drawn row may be corrupted: empty (``l_i = 0``), a
    non-finite or non-positive period or WCET, or decreasing WCETs; the
    drawn ``levels`` may also fall below the largest criticality.
    """
    n = draw(st.integers(min_value=0, max_value=6))
    width = draw(st.integers(min_value=1, max_value=5))
    positive = st.floats(min_value=0.01, max_value=100.0)
    bad = st.sampled_from([0.0, -1.0, float("nan"), float("inf"), -float("inf")])
    crits = np.array(
        draw(st.lists(st.integers(1, width), min_size=n, max_size=n)), dtype=np.int64
    )
    rows = [
        sorted(draw(st.lists(positive, min_size=width, max_size=width)))
        for _ in range(n)
    ]
    wcets = np.array(rows).reshape(n, width)
    periods = np.array(draw(st.lists(positive, min_size=n, max_size=n)))
    corrupt = draw(
        st.sampled_from(["none", "none", "empty", "period", "wcet", "decreasing"])
    )
    if n and corrupt != "none":
        i = draw(st.integers(0, n - 1))
        if corrupt == "empty":
            crits[i] = 0
        elif corrupt == "period":
            periods[i] = draw(bad)
        elif corrupt == "wcet":
            wcets[i, draw(st.integers(0, crits[i] - 1))] = draw(bad)
        elif crits[i] >= 2:
            k = draw(st.integers(1, crits[i] - 1))
            wcets[i, k] = wcets[i, k - 1] / 2.0
    levels = draw(st.none() | st.integers(min_value=1, max_value=width + 1))
    return wcets, periods, crits, levels


def _per_task_set(wcets, periods, crits, levels) -> MCTaskSet:
    """The object path: one validated MCTask per row, then the set."""
    tasks = [
        MCTask(tuple(wcets[i, : crits[i]]), periods[i], name=f"tau_{i + 1}")
        for i in range(len(periods))
    ]
    return MCTaskSet(tasks, levels=levels)


def _outcome(build, *args):
    try:
        return build(*args)
    except ModelError as exc:
        return ModelError, str(exc)


def assert_same_taskset(got: MCTaskSet, ref: MCTaskSet) -> None:
    assert got == ref
    assert hash(got) == hash(ref)
    assert got.levels == ref.levels
    for attr in (
        "wcet_matrix",
        "periods",
        "utilization_matrix",
        "criticalities",
        "max_utilizations",
    ):
        assert getattr(got, attr).tobytes() == getattr(ref, attr).tobytes(), attr
    assert list(got) == list(ref)
    assert [t.name for t in got] == [t.name for t in ref]
    assert got.hyperperiod() == ref.hyperperiod()


class TestArrayNativeTaskSets:
    @settings(max_examples=300)
    @given(taskset_arrays())
    def test_from_arrays_equals_per_task_build(self, arrays):
        got = _outcome(MCTaskSet.from_arrays, *arrays)
        ref = _outcome(_per_task_set, *arrays)
        if isinstance(ref, MCTaskSet):
            assert isinstance(got, MCTaskSet)
            assert_same_taskset(got, ref)
        else:
            # Same error type and the same words as the per-task path.
            assert got == ref

    @given(
        taskset_arrays(),
        st.lists(mc_tasks(max_levels=1), min_size=1, max_size=4),
        st.lists(st.text(max_size=4), min_size=4, max_size=4),
    )
    def test_extended_appends_rows(self, arrays, new, names):
        wcets, periods, crits, _ = arrays
        ts = _outcome(MCTaskSet.from_arrays, wcets, periods, crits)
        if not isinstance(ts, MCTaskSet):
            return
        new = [
            MCTask(wcets=t.wcets, period=t.period, name=name)
            for t, name in zip(new, names)
        ]
        # Extend a set whose tasks are not materialized yet, then again.
        grown = ts.extended(new)
        assert_same_taskset(grown, MCTaskSet(list(ts) + new, levels=ts.levels))
        assert_same_taskset(ts.extended(new), grown)
        # The appended objects are the caller's own.
        assert all(a is b for a, b in zip(grown.tasks[len(ts):], new))

    @given(taskset_arrays(), st.randoms())
    def test_subset_and_with_levels_slice_the_arrays(self, arrays, rnd):
        wcets, periods, crits, _ = arrays
        ts = _outcome(MCTaskSet.from_arrays, wcets, periods, crits)
        if not isinstance(ts, MCTaskSet):
            return
        idx = rnd.sample(range(len(ts)), rnd.randint(1, len(ts)))
        sub = ts.subset(idx)
        assert_same_taskset(sub, MCTaskSet([ts[i] for i in idx], levels=ts.levels))
        wider = ts.with_levels(ts.levels + 1)
        assert_same_taskset(wider, MCTaskSet(list(ts), levels=ts.levels + 1))
        assert_same_taskset(wider.with_levels(ts.levels), ts)


# ----------------------------------------------------------------------
# Analysis invariants
# ----------------------------------------------------------------------


class TestAnalysisProperties:
    @given(mc_tasksets())
    def test_lambda_factors_in_unit_interval_or_nan(self, ts):
        lambdas = lambda_factors(ts.level_matrix())
        assert lambdas[0] == 0.0
        for lam in lambdas[1:]:
            assert np.isnan(lam) or 0.0 <= lam < 1.0

    @given(mc_tasksets())
    def test_capacity_terms_at_most_one(self, ts):
        theta = capacity_terms(ts.level_matrix())
        for value in theta:
            assert np.isnan(value) or value <= 1.0 + 1e-12

    @given(mc_tasksets())
    def test_demand_terms_nonincreasing_in_k(self, ts):
        mu = demand_terms(ts.level_matrix())
        for a, b in zip(mu, mu[1:]):
            assert b <= a + 1e-12  # suffix sums shrink

    @given(mc_tasksets())
    def test_available_utilization_consistency(self, ts):
        mat = ts.level_matrix()
        avail = available_utilizations(mat)
        util = core_utilization(mat)
        if np.isfinite(util):
            assert is_feasible_theorem1(mat)
            assert util == abs_approx(float(np.max(1.0 - avail[avail >= -1e-12])))
        else:
            assert not is_feasible_theorem1(mat)

    @given(mc_tasksets())
    def test_eq4_implies_theorem1(self, ts):
        mat = ts.level_matrix()
        if is_feasible_simple(mat):
            assert is_feasible_theorem1(mat)

    @given(dual_utilizations())
    def test_dual_eq7_equals_theorem1_and_implies_classic(self, u):
        mat = np.array([[u.lo_lo, 0.0], [u.hi_lo, u.hi_hi]])
        assert is_feasible_dual(u) == is_feasible_theorem1(mat)
        if is_feasible_dual(u):
            assert is_feasible_classic(u)

    @given(mc_tasksets())
    def test_contributions_are_shares(self, ts):
        contrib = contribution_matrix(ts)
        assert (contrib >= 0.0).all()
        assert (contrib <= 1.0 + 1e-12).all()
        totals = ts.total_utilization_vector()
        for k in range(ts.levels):
            if totals[k] > 0:
                assert contrib[:, k].sum() == abs_approx(1.0)

    @given(mc_tasksets())
    def test_contribution_order_is_permutation_sorted_by_priority(self, ts):
        order = contribution_order(ts)
        assert sorted(order) == list(range(len(ts)))
        contribs = utilization_contributions(ts)
        crit = ts.criticalities
        keys = [(-contribs[i], -crit[i], i) for i in order]
        assert keys == sorted(keys)


# ----------------------------------------------------------------------
# Partition and metrics invariants
# ----------------------------------------------------------------------


class TestPartitionProperties:
    @given(mc_tasksets(min_tasks=2), st.integers(min_value=1, max_value=4), st.randoms())
    def test_incremental_matrices_match_batch(self, ts, cores, rnd):
        part = Partition(ts, cores)
        for i in range(len(ts)):
            part.assign(i, rnd.randrange(cores))
        for m in range(cores):
            np.testing.assert_allclose(
                part.level_matrix(m),
                ts.level_matrix(part.tasks_on(m)),
                atol=1e-12,
            )

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=8
        )
    )
    def test_imbalance_in_unit_interval(self, utils):
        value = imbalance_factor(np.array(utils))
        assert 0.0 <= value <= 1.0


# ----------------------------------------------------------------------
# Incremental probe-backend invariants
# ----------------------------------------------------------------------


class TestIncrementalBackendProperties:
    """The incremental backend's warm Δ-state is unobservable.

    After *any* interleaving of ``assign``/``unassign``/``extended``,
    every probe answered from the warm per-core cache must be bit-equal
    to the batch backend's answer on a from-scratch rebuild of the same
    assignment.
    """

    @given(data=st.data())
    @settings(deadline=None, max_examples=30)
    def test_interleaving_leaves_state_equal_to_rebuild(self, data):
        batch = BatchBackend()
        incremental = IncrementalBackend()
        ts = data.draw(mc_tasksets(min_tasks=2, max_tasks=6, levels=3))
        cores = data.draw(st.integers(min_value=1, max_value=3))
        part = Partition(ts, cores)
        n_ops = data.draw(st.integers(min_value=1, max_value=10))
        for _ in range(n_ops):
            assigned = [i for i in range(len(ts)) if part.core_of(i) >= 0]
            free = [i for i in range(len(ts)) if part.core_of(i) < 0]
            ops = ["probe", "extended"]
            if free:
                ops.append("assign")
            if assigned:
                ops.append("unassign")
            op = data.draw(st.sampled_from(ops))
            if op == "assign":
                task = data.draw(st.sampled_from(free))
                part.assign(task, data.draw(st.integers(0, cores - 1)))
            elif op == "unassign":
                part.unassign(data.draw(st.sampled_from(assigned)))
            elif op == "extended":
                grown = MCTaskSet(
                    list(ts) + [data.draw(mc_tasks(max_levels=3))],
                    levels=3,
                )
                part = part.extended(grown)
                ts = grown
            # Warm (or re-warm) the incremental state, then compare the
            # whole probe surface against a cold rebuild.
            idx = list(range(len(ts)))
            rebuilt = Partition.from_assignment(ts, cores, part.assignment)
            np.testing.assert_array_equal(
                incremental.probe_tasks(part, idx),
                batch.probe_tasks(rebuilt, idx),
            )
            np.testing.assert_array_equal(
                incremental.probe_feasible_tasks(part, idx),
                batch.probe_feasible_tasks(rebuilt, idx),
            )
            task = data.draw(st.sampled_from(idx))
            np.testing.assert_array_equal(
                incremental.probe(part, task), batch.probe(rebuilt, task)
            )
            np.testing.assert_array_equal(
                incremental.probe_feasible(part, task),
                batch.probe_feasible(rebuilt, task),
            )

    @given(
        st.floats(min_value=-4.0, max_value=4.0),
        st.integers(min_value=1, max_value=3),
    )
    @settings(deadline=None, max_examples=50)
    def test_eps_boundary_feasibility_agrees_with_fits_unit_capacity(
        self, offset_in_eps, cores
    ):
        # Utilizations straddling 1.0 by fractions of EPS: the probe's
        # feasibility verdict on an empty core must match the Eq.-(4)
        # capacity predicate exactly, through the warm cache too.
        util = 1.0 + offset_in_eps * EPS
        ts = MCTaskSet(
            [MCTask.from_utilizations([util], period=10.0)], levels=1
        )
        part = Partition(ts, cores)
        incremental = IncrementalBackend()
        expected = fits_unit_capacity(util)
        cold = incremental.probe_feasible(part, 0)
        warm = incremental.probe_feasible(part, 0)
        assert cold.all() == expected
        np.testing.assert_array_equal(cold, warm)


# ----------------------------------------------------------------------
# Heuristic postconditions
# ----------------------------------------------------------------------


class TestHeuristicProperties:
    @given(mc_tasksets(levels=3), st.sampled_from(["ca-tpa", "ffd", "bfd", "wfd", "hybrid"]))
    @settings(deadline=None, max_examples=40)
    def test_schedulable_results_pass_the_feasibility_test(self, ts, scheme):
        from repro.analysis import is_feasible_partition
        from repro.partition import get_partitioner

        result = get_partitioner(scheme).partition(ts, cores=3)
        if result.schedulable:
            assert result.partition.is_complete
            assert is_feasible_partition(result.partition)
        else:
            assert result.failed_task is not None
            assert result.partition.core_of(result.failed_task) == -1

    @given(mc_tasksets(levels=2, max_tasks=6))
    @settings(deadline=None, max_examples=30)
    def test_catpa_succeeds_with_one_core_per_fitting_task(self, ts):
        from repro.analysis import is_feasible_core
        from repro.partition import CATPA

        # If every task fits alone on a core and there are at least as
        # many cores as tasks, some feasible core always exists at every
        # greedy step, so CA-TPA cannot fail.
        each_fits = all(
            is_feasible_core(ts.level_matrix([i])) for i in range(len(ts))
        )
        if each_fits:
            assert CATPA().partition(ts, cores=len(ts)).schedulable


# ----------------------------------------------------------------------
# Generator postconditions
# ----------------------------------------------------------------------


class TestGeneratorProperties:
    @given(
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.1, max_value=8.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_uunifast_partition_of_total(self, n, total, seed):
        from repro.gen import uunifast

        rng = np.random.default_rng(seed)
        utils = uunifast(n, total, rng)
        assert utils.shape == (n,)
        assert (utils >= -1e-12).all()
        assert utils.sum() == abs_approx(total)

    @given(
        st.integers(min_value=2, max_value=6),
        st.floats(min_value=0.3, max_value=0.7),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(deadline=None, max_examples=25)
    def test_generator_respects_config(self, levels, ifc, seed):
        from repro.gen import WorkloadConfig, generate_taskset

        config = WorkloadConfig(levels=levels, ifc=ifc, task_count_range=(5, 15))
        ts = generate_taskset(config, np.random.default_rng(seed))
        assert 5 <= len(ts) <= 15
        assert ts.levels == levels
        for t in ts:
            for k in range(2, t.criticality + 1):
                assert t.wcet(k) == abs_approx(t.wcet(k - 1) * (1 + ifc))


def abs_approx(value, tol=1e-9):
    import pytest

    return pytest.approx(value, abs=tol, rel=1e-9)


# ----------------------------------------------------------------------
# Extension-module invariants
# ----------------------------------------------------------------------


class TestDbfProperties:
    @given(
        st.floats(min_value=0.0, max_value=500.0),
        st.floats(min_value=1.0, max_value=100.0),
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.01, max_value=50.0),
    )
    def test_dbf_step_monotone_and_consistent(self, t, period, deadline, wcet):
        from repro.analysis import dbf_step

        value = dbf_step(t, period, deadline, wcet)
        later = dbf_step(t + period, period, deadline, wcet)
        assert value >= 0.0
        assert later >= value  # monotone in t
        # One extra full period adds one job — up to float rounding at
        # exact step boundaries (floor((t+p-d)/p) vs floor((t-d)/p)+1
        # can disagree by one ulp-job when t-d is a multiple of p).
        if t >= deadline:
            assert abs(later - (value + wcet)) <= wcet + 1e-9

    @given(mc_tasksets(levels=2, min_tasks=1, max_tasks=5))
    @settings(deadline=None, max_examples=30)
    def test_tuned_plans_respect_budget_floor(self, ts):
        from repro.analysis import tune_virtual_deadlines

        plan = tune_virtual_deadlines(ts)
        if plan is None:
            return
        for i, task in enumerate(ts):
            assert task.wcet(1) - 1e-9 <= plan.deadlines[i] <= task.period + 1e-9
            if task.criticality == 1:
                assert plan.deadlines[i] == task.period


class TestGlobalProperties:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=10),
        st.integers(min_value=1, max_value=8),
    )
    def test_gfb_monotone_in_processors(self, densities, m):
        from repro.analysis import gfb_edf_schedulable

        if gfb_edf_schedulable(densities, m):
            assert gfb_edf_schedulable(densities, m + 1)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=0.9), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.0, max_value=0.5),
    )
    def test_gfb_antitone_in_load(self, densities, m, bump):
        from repro.analysis import gfb_edf_schedulable

        heavier = [min(d + bump, 1.0) for d in densities]
        if not gfb_edf_schedulable(densities, m):
            assert not gfb_edf_schedulable(heavier, m) or bump == 0.0


class TestElasticProperties:
    @given(
        st.floats(min_value=0.01, max_value=0.9),
        st.floats(min_value=1.0, max_value=5.0),
        st.floats(min_value=1.0, max_value=10.0),
    )
    def test_stretch_divides_utilization(self, u, max_stretch, factor):
        from repro.elastic import ElasticMCTask
        from repro.model import MCTask

        e = ElasticMCTask(
            task=MCTask.from_utilizations([u], 10.0),
            max_period=10.0 * max_stretch,
        )
        applied = min(factor, max_stretch)
        stretched = e.stretched(factor)
        assert stretched.utilization(1) == abs_approx(u / applied)
        assert e.service_level(factor) == abs_approx(1.0 / applied)


class TestSerializationProperties:
    @given(mc_tasksets(levels=3))
    @settings(deadline=None, max_examples=30)
    def test_taskset_json_round_trip(self, ts):
        from repro.model import taskset_from_dict, taskset_to_dict

        assert taskset_from_dict(taskset_to_dict(ts)) == ts

    # Any JSON value (or none at all) in any field of a task, task set or
    # event document either decodes or raises a typed error: ModelError
    # from the decoder and the task model, or SimulationError from an
    # event whose well-typed values are invalid.  Never another type.
    @given(
        field=st.sampled_from(
            [("taskset", f) for f in ("format", "version", "levels", "tasks")]
            + [("task", f) for f in task_fields]
        ),
        value=field_values,
    )
    @settings(deadline=None, max_examples=300)
    def test_any_json_value_in_a_taskset_field(self, field, value):
        from repro.model import taskset_from_dict
        from repro.types import ModelError

        doc = {
            "format": "repro-mc-taskset",
            "version": 1,
            "levels": 2,
            "tasks": [
                {"name": "a", "period": 10.0, "wcets": [1.0, 2.0]},
                {"name": "b", "period": 25, "wcets": [4]},
            ],
        }
        where, key = field
        _set_field(doc if where == "taskset" else doc["tasks"][0], key, value)
        try:
            taskset_from_dict(doc)
        except ModelError:
            pass

    @given(
        position=st.integers(min_value=0, max_value=5),
        key=st.sampled_from(
            ("kind", "time", "start", "end", "factor", "tasks", "task")
            + ("task_index", "core")
            + tuple(f"task.{f}" for f in task_fields)
        ),
        value=field_values,
    )
    @settings(deadline=None, max_examples=300)
    def test_any_json_value_in_an_event_field(self, position, key, value):
        from repro.model import events_from_dict
        from repro.types import ModelError, SimulationError

        events = [
            {"kind": "wcet_burst", "start": 1.0, "end": 5.0, "factor": 2.5},
            {"kind": "mode_recovery", "start": 0, "end": 3},
            {
                "kind": "task_arrival",
                "time": 2.0,
                "task": {"name": "x", "period": 10.0, "wcets": [1.0]},
            },
            {"kind": "task_departure", "time": 4.0, "task_index": 0},
            {"kind": "core_failure", "time": 3.0, "core": 1},
            {"kind": "core_hotplug", "time": 6.0, "core": 1},
        ]
        entry = events[position]
        if key.startswith("task."):
            entry, key = events[2]["task"], key[len("task.") :]
        _set_field(entry, key, value)
        try:
            events_from_dict(
                {"format": "repro-mc-events", "version": 1, "events": events}
            )
        except (ModelError, SimulationError):
            pass


"""Engine <-> observability integration.

The load-bearing guarantees: instrumentation never changes results
(bit-identical artifacts with it on or off), worker-process counters
survive the ``ProcessPoolExecutor`` boundary exactly (jobs=1 and jobs=4
agree counter-for-counter), and a misbehaving progress hook is demoted
to a warning instead of aborting the sweep.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.engine import Engine, ExperimentSpec, PointSpec, default_schemes
from repro.gen.params import WorkloadConfig

TINY = WorkloadConfig(cores=2, levels=2, nsu=0.6, task_count_range=(6, 9))


def _point(sets=8, seed=3) -> PointSpec:
    return PointSpec(
        config=TINY, schemes=tuple(default_schemes()), sets=sets, seed=seed
    )


def _spec(sets=6, seed=4) -> ExperimentSpec:
    points = tuple(
        PointSpec(
            config=TINY.with_(nsu=v),
            schemes=tuple(default_schemes()),
            sets=sets,
            seed=seed,
        )
        for v in (0.5, 0.7)
    )
    return ExperimentSpec(
        figure="figX",
        title="tiny sweep",
        parameter="NSU",
        values=(0.5, 0.7),
        points=points,
    )


class TestBitIdentical:
    def test_instrumented_artifact_identical_to_plain(self):
        plain = Engine(jobs=1).run(_spec())
        with obs.instrument():
            instrumented = Engine(jobs=1).run(_spec())
        assert plain.to_json() == instrumented.to_json()

    def test_instrumented_parallel_artifact_identical(self):
        plain = Engine(jobs=1).run(_spec())
        with obs.instrument():
            instrumented = Engine(jobs=4).run(_spec())
        assert plain.to_json() == instrumented.to_json()


class TestWorkerAggregation:
    def test_serial_and_parallel_counters_agree(self):
        with obs.instrument() as state:
            Engine(jobs=1).evaluate(_point())
            serial = dict(state.registry.snapshot()["counters"])
        with obs.instrument() as state:
            Engine(jobs=4).evaluate(_point())
            parallel = dict(state.registry.snapshot()["counters"])
        # Shard bookkeeping differs by split (1 shard vs 4), so compare
        # only the workload counters recorded inside the shards.
        serial.pop("engine.shards_computed")
        parallel.pop("engine.shards_computed")
        assert serial == parallel
        assert any(name.startswith("probe.") for name in serial)
        assert any(name.startswith("partition.") for name in serial)
        assert any(name.startswith("theorem1.") for name in serial)

    def test_shard_seconds_counts_every_shard(self):
        with obs.instrument() as state:
            engine = Engine(jobs=4)
            engine.evaluate(_point())
            snapshot = state.registry.snapshot()
        assert snapshot["counters"]["engine.shards_computed"] == 4
        # Shard times live in one histogram only: no reservoir twin.
        assert "summaries" not in snapshot
        assert "shard_seconds" not in engine.stats.as_dict()
        assert engine.stats.as_dict()["shard_seconds_hist"]["count"] == 4

    def test_shard_seconds_histogram_counts_every_shard(self):
        with obs.instrument() as state:
            engine = Engine(jobs=4)
            engine.evaluate(_point())
            hists = state.registry.snapshot()["histograms"]
        assert hists["engine.shard_seconds"]["count"] == 4
        assert engine.stats.shard_seconds_hist.count == 4
        assert engine.stats.as_dict()["shard_seconds_hist"]["count"] == 4

    def test_registry_histogram_mirrors_stats_exactly(self):
        with obs.instrument() as state:
            engine = Engine(jobs=1)
            engine.evaluate(_point())
            mirror = state.registry.histogram("engine.shard_seconds")
        assert mirror.digest() == engine.stats.shard_seconds_hist.digest()

    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=120,
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_worker_histogram_merge_is_exact(self, values, jobs):
        """jobs=1 and jobs=N over the same observations → equal digests.

        Simulates the ProcessPoolExecutor boundary: N worker registries
        each observe a chunk, dump through JSON, and merge into a parent
        — the digest must equal one registry observing everything.
        """
        serial = MetricsRegistry()
        for v in values:
            serial.histogram("engine.shard_seconds").observe(v)

        parent = MetricsRegistry()
        stride = -(-len(values) // jobs)
        for start in range(0, len(values), stride):
            worker = MetricsRegistry()
            for v in values[start : start + stride]:
                worker.histogram("engine.shard_seconds").observe(v)
            parent.merge(json.loads(json.dumps(worker.dump())))
        assert (
            parent.histogram("engine.shard_seconds").digest()
            == serial.histogram("engine.shard_seconds").digest()
        )
        assert serial.histogram("engine.shard_seconds").count == len(values)

    def test_uninstrumented_run_records_nothing(self):
        baseline = obs.OBS.registry.snapshot()
        Engine(jobs=1).evaluate(_point(sets=4))
        assert obs.OBS.registry.snapshot() == baseline


class TestEvents:
    def test_events_stream_to_sink(self, tmp_path):
        log = tmp_path / "events.jsonl"
        with obs.instrument(log_path=log):
            Engine(jobs=1).run(_spec())
        events = [json.loads(line) for line in log.read_text().splitlines()]
        names = {e["event"] for e in events}
        assert "engine.point" in names
        assert "engine.shard" in names
        assert [e["seq"] for e in events] == list(range(1, len(events) + 1))

    def test_plan_events_anchor_progress(self, tmp_path):
        """run_plan/point_plan give ``repro-mc top`` its ETA anchors."""
        log = tmp_path / "events.jsonl"
        with obs.instrument(log_path=log):
            Engine(jobs=1).run(_spec())
        events = [json.loads(line) for line in log.read_text().splitlines()]
        run_plans = [e for e in events if e["event"] == "engine.run_plan"]
        point_plans = [e for e in events if e["event"] == "engine.point_plan"]
        assert len(run_plans) == 1
        assert run_plans[0]["figure"] == "figX"
        assert run_plans[0]["points"] == 2
        assert len(point_plans) == 2
        for plan in point_plans:
            assert plan["shards"] >= 1
            assert plan["jobs"] == 1
        # The plan precedes the shards it announces.
        first_shard = next(
            i for i, e in enumerate(events) if e["event"] == "engine.shard"
        )
        assert events.index(point_plans[0]) < first_shard

    def test_cache_hits_mirrored_into_counters(self, tmp_path):
        Engine(jobs=1, store=tmp_path).evaluate(_point(sets=4))
        with obs.instrument() as state:
            Engine(jobs=1, store=tmp_path).evaluate(_point(sets=4))
            counters = state.registry.snapshot()["counters"]
        assert counters["engine.cache_hits"] == 1
        assert "engine.cache_misses" not in counters


class TestTrace:
    """Cross-process span trees: one run, one coherent rooted tree."""

    def _run_traced(self, tmp_path, jobs):
        from repro.obs import trace

        log = tmp_path / "events.jsonl"
        with obs.instrument(log_path=log):
            with obs.span("cli.figure", figure="figX"):
                Engine(jobs=jobs).run(_spec())
        return trace.load_tree(log)

    def test_parallel_run_yields_single_rooted_tree(self, tmp_path):
        tree = self._run_traced(tmp_path, jobs=4)
        assert tree.orphans == []
        assert len(tree.roots) == 1
        assert tree.root.name == "cli.figure"
        names = {node.name for node in tree.walk()}
        assert {
            "engine.run",
            "engine.point",
            "engine.shard",
            "engine.shard.compute",
            "partition.attempt",
            "probe",
        } <= names

    def test_worker_spans_reparented_under_their_shard_span(self, tmp_path):
        tree = self._run_traced(tmp_path, jobs=4)
        computes = [n for n in tree.walk() if n.name == "engine.shard.compute"]
        assert computes  # parallel path actually ran workers
        for node in computes:
            parent = tree.nodes[node.parent_id]
            assert parent.name == "engine.shard"
            # The worker's compute time fits inside the parent's
            # submit->receive window.
            assert node.seconds <= parent.seconds + 0.5

    def test_probe_time_attributed_under_scheme_attempts(self, tmp_path):
        tree = self._run_traced(tmp_path, jobs=4)
        attempts = [n for n in tree.walk() if n.name == "partition.attempt"]
        assert attempts
        assert all(n.scheme for n in attempts)
        probed = [n for n in attempts if n.children]
        assert probed  # at least some attempts recorded probe buckets
        for attempt in probed:
            for child in attempt.children:
                assert child.name == "probe"
                assert child.synthetic
                assert child.calls >= 1
                assert child.seconds <= attempt.seconds

    def test_serial_run_tree_is_rooted_too(self, tmp_path):
        tree = self._run_traced(tmp_path, jobs=1)
        assert tree.orphans == []
        assert len(tree.roots) == 1
        names = {node.name for node in tree.walk()}
        # Serial path: shards run inline, no worker compute spans.
        assert "engine.shard" in names
        assert "engine.shard.compute" not in names
        assert "partition.attempt" in names

    def test_root_span_covers_the_engine_run(self, tmp_path):
        from repro.obs import trace

        tree = self._run_traced(tmp_path, jobs=4)
        path = trace.critical_path(tree)
        assert path[0] is tree.root
        engine_run = next(n for n in tree.walk() if n.name == "engine.run")
        assert tree.root.seconds >= engine_run.seconds


class TestHookGuard:
    def test_raising_hook_warns_once_and_run_completes(self, tmp_path):
        baseline = Engine(jobs=1).run(_spec())

        events = []

        def bad_hook(event):
            events.append(event)
            if len(events) == 2:
                raise ValueError("hook bug")

        engine = Engine(jobs=1, progress=bad_hook)
        with pytest.warns(RuntimeWarning, match="progress hook raised"):
            artifact = engine.run(_spec())
        # Hook disabled after the failure: exactly 2 events delivered.
        assert len(events) == 2
        assert engine.progress is None
        # The sweep still completed, bit-identically.
        assert artifact.to_json() == baseline.to_json()

    def test_healthy_hook_sees_every_event(self):
        events = []
        engine = Engine(jobs=1, progress=events.append)
        engine.evaluate(_point(sets=4))
        assert events  # no warning path taken
        assert engine.progress is not None

    def test_keyboard_interrupt_still_propagates(self):
        def interrupting_hook(event):
            raise KeyboardInterrupt

        engine = Engine(jobs=1, progress=interrupting_hook)
        with pytest.raises(KeyboardInterrupt):
            engine.evaluate(_point(sets=4))

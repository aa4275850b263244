"""Tests for the resumable checkpointed engine.

The load-bearing guarantees: serial, parallel, cold-store, and
warm-store runs are bit-identical; an interrupted run resumes from the
checkpointed shards instead of recomputing them; and figures that share
a data point share checkpoints.
"""

import pytest

from repro.engine import (
    Engine,
    ExperimentSpec,
    PointSpec,
    ResultStore,
    default_schemes,
    shard_key,
)
from repro.experiments.compare import head_to_head
from repro.experiments.sweeps import definition_to_spec, figure1_nsu, figure2_ifc
from repro.gen.params import WorkloadConfig
from repro.types import ReproError

TINY = WorkloadConfig(cores=2, levels=2, nsu=0.6, task_count_range=(6, 9))


def _point(sets=8, seed=3, kind="stats") -> PointSpec:
    return PointSpec(
        config=TINY, schemes=tuple(default_schemes()), sets=sets, seed=seed, kind=kind
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


class TestEquivalence:
    def test_cold_warm_serial_bit_identical(self, tmp_path):
        spec = _spec()
        serial = Engine(jobs=1).run(spec)

        cold_engine = Engine(jobs=3, store=tmp_path)
        cold = cold_engine.run(spec)
        assert cold_engine.stats.cache_hits == 0
        assert cold_engine.stats.cache_misses == cold_engine.stats.shards_planned
        assert cold_engine.stats.shards_computed == cold_engine.stats.shards_planned

        warm_engine = Engine(jobs=3, store=tmp_path)
        warm = warm_engine.run(spec)
        assert warm_engine.stats.cache_hits == warm_engine.stats.shards_planned
        assert warm_engine.stats.cache_misses == 0
        assert warm_engine.stats.shards_computed == 0

        # Bit-identical artifacts, not merely approximately equal.
        assert serial.to_json() == cold.to_json() == warm.to_json()

    def test_storeless_engine_counts_no_cache_traffic(self):
        engine = Engine(jobs=1)
        engine.evaluate(_point(sets=4))
        assert engine.stats.cache_hits == 0
        assert engine.stats.cache_misses == 0
        assert engine.stats.shards_computed == 1

    def test_evaluate_matches_across_jobs(self, tmp_path):
        serial = Engine(jobs=1).evaluate(_point())
        parallel = Engine(jobs=4).evaluate(_point())
        assert serial == parallel


class _Abort(KeyboardInterrupt):
    """Stands in for SIGKILL / Ctrl-C in the resume test.

    Inherits KeyboardInterrupt: an *exception* raised by a progress hook
    is swallowed (the hook is advisory), but a genuine interrupt must
    still punch through the engine.
    """


class TestResume:
    def test_interrupted_run_resumes_from_checkpoints(self, tmp_path):
        point = _point(sets=8)
        baseline = Engine(jobs=1).evaluate(point)

        computed = []

        def die_after_two(event):
            if event["event"] == "shard" and not event["cached"]:
                computed.append(event)
                if len(computed) == 2:
                    raise _Abort("killed mid-sweep")

        first = Engine(jobs=4, store=tmp_path, progress=die_after_two)
        with pytest.raises(_Abort):
            first.evaluate(point)
        # Shards are checkpointed the moment they finish, before the
        # progress event fires — the two finished ones survived the kill.
        assert len(ResultStore(tmp_path)) == 2

        resumed = Engine(jobs=4, store=tmp_path)
        result = resumed.evaluate(point)
        assert resumed.stats.cache_hits == 2
        assert resumed.stats.cache_misses == 2
        assert resumed.stats.shards_computed == 2
        assert result == baseline

    def test_shared_point_across_figures_hits_cache(self, tmp_path):
        # Fig. 1 at NSU=0.6 and Fig. 2 at IFC=0.4 are both the Section
        # IV-A default point: same config content, same shard keys.
        fig1 = definition_to_spec(figure1_nsu(nsu_values=(0.6,)), sets=10, seed=2)
        fig2 = definition_to_spec(figure2_ifc(ifc_values=(0.4,)), sets=10, seed=2)
        assert shard_key(fig1.points[0], 0, 10) == shard_key(fig2.points[0], 0, 10)

    def test_overlapping_tiny_specs_share_checkpoints(self, tmp_path):
        shared = _point(sets=6, seed=9)
        Engine(jobs=1, store=tmp_path).evaluate(shared)

        second = Engine(jobs=1, store=tmp_path)
        second.evaluate(_point(sets=6, seed=9))
        assert second.stats.cache_hits == 1
        assert second.stats.shards_computed == 0


class TestHeadToHeadThroughEngine:
    def test_parallel_matches_serial(self):
        serial = head_to_head(TINY, default_schemes(), sets=9, seed=5, jobs=1)
        parallel = head_to_head(TINY, default_schemes(), sets=9, seed=5, jobs=3)
        assert serial == parallel

    def test_warm_run_matches_cold(self, tmp_path):
        cold = head_to_head(TINY, default_schemes(), sets=9, seed=5, store=tmp_path)
        warm = head_to_head(TINY, default_schemes(), sets=9, seed=5, store=tmp_path)
        assert warm == cold

    def test_h2h_and_stats_shards_do_not_collide(self, tmp_path):
        # Same content, different kind: the store must keep them apart.
        assert shard_key(_point(kind="stats"), 0, 8) != shard_key(
            _point(kind="h2h"), 0, 8
        )

    def test_mismatched_kind_payload_rejected(self):
        from repro.engine.core import shard_kind

        with pytest.raises(ReproError, match="kind"):
            shard_kind("stats").decode({"kind": "h2h"})


class TestShardRunKwargs:
    def test_empty_params_keep_legacy_signature(self):
        # Runners registered before `params` existed take exactly five
        # arguments; a paramless point must not pass them a sixth.
        from repro.engine.core import _shard_run_kwargs

        assert _shard_run_kwargs(()) == {}

    def test_params_delivered_as_dict(self):
        from repro.engine.core import _shard_run_kwargs

        kwargs = _shard_run_kwargs((("burst_factor", 2.0),))
        assert kwargs == {"params": {"burst_factor": 2.0}}

    def test_dynsim_kind_resolves_lazily(self):
        # The dynsim runner lives in repro.experiments.dynamic and is
        # registered on import via the provider table.
        from repro.engine.core import shard_kind

        assert shard_kind("dynsim").run is not None


class TestRunValidation:
    def test_run_rejects_h2h_points(self):
        spec = _spec(sets=2)
        bad = ExperimentSpec(
            figure=spec.figure,
            title=spec.title,
            parameter=spec.parameter,
            values=(0.5,),
            points=(_point(sets=2, kind="h2h"),),
        )
        with pytest.raises(ReproError, match="stats"):
            Engine(jobs=1).run(bad)

    def test_progress_events_cover_points_and_shards(self):
        events = []
        engine = Engine(jobs=1, progress=events.append)
        engine.run(_spec(sets=4))
        kinds = [e["event"] for e in events]
        assert kinds.count("point") == 2
        assert kinds.count("shard") == 2
        shard_events = [e for e in events if e["event"] == "shard"]
        assert all(not e["cached"] and e["seconds"] >= 0 for e in shard_events)


def _spec3(sets=5, seed=6) -> ExperimentSpec:
    values = (0.4, 0.6, 0.8)
    return ExperimentSpec(
        figure="figF",
        title="fused sweep",
        parameter="NSU",
        values=values,
        points=tuple(
            PointSpec(
                config=TINY.with_(nsu=v),
                schemes=tuple(default_schemes()),
                sets=sets,
                seed=seed,
            )
            for v in values
        ),
    )


class TestFusedSerialRun:
    """``jobs=1`` runs look up every point first, then hand every missing
    shard of the spec to one lockstep wave runner."""

    def _store_with_cached_middle_point(self, root):
        spec = _spec3()
        store = ResultStore(root)
        Engine(jobs=1, store=store).evaluate(spec.points[1])
        return spec, store

    def test_cache_hit_events_and_checkpoints(self, tmp_path):
        spec, store = self._store_with_cached_middle_point(tmp_path / "fused")
        puts = []
        put = store.put

        def recording_put(key, payload):
            puts.append(key)
            put(key, payload)

        store.put = recording_put
        events = []
        engine = Engine(jobs=1, store=store, progress=events.append)
        artifact = engine.run(spec)

        assert engine.stats.cache_hits == 1
        assert engine.stats.cache_misses == 2
        assert engine.stats.shards_computed == 2
        plans = [i for i, e in enumerate(events) if e["event"] == "point_plan"]
        shards = [i for i, e in enumerate(events) if e["event"] == "shard"]
        cached = [i for i in shards if events[i]["cached"]]
        computed = [i for i in shards if not events[i]["cached"]]
        assert len(plans) == 3 and cached == [plans[1] + 1] and len(computed) == 2
        # Every point's plan precedes its shard events.
        assert max(plans) < min(computed)

        missing = [spec.points[0], spec.points[2]]
        keys = [shard_key(p, 0, p.sets, probe_impl="batch") for p in missing]
        assert puts == keys  # one checkpoint per missing shard, in order
        reference = ResultStore(tmp_path / "per-point")
        for point, key in zip(missing, keys):
            Engine(jobs=1, store=reference).evaluate(point)
            assert store._path(key).read_bytes() == reference._path(key).read_bytes()
        assert artifact.to_json() == Engine(jobs=2).run(spec).to_json()

    def test_lanes_span_points_in_one_wave(self, monkeypatch):
        from repro.engine import core
        from repro.partition.lockstep import partition_lockstep

        waves = []

        def counting(lanes, cores):
            waves.append(len(lanes))
            return partition_lockstep(lanes, cores)

        monkeypatch.setattr(core, "partition_lockstep", counting)
        Engine(jobs=1).run(_spec3())
        assert waves == [3 * 5 * 5]  # 3 points x 5 sets x 5 schemes

    def test_waves_are_capped(self, monkeypatch):
        from repro.engine import core

        waves = []
        original = core.partition_lockstep

        def counting(lanes, cores):
            waves.append(len(lanes))
            return original(lanes, cores)

        monkeypatch.setattr(core, "partition_lockstep", counting)
        monkeypatch.setattr(core, "WAVE_LANES", 7)
        capped = Engine(jobs=1).run(_spec3())
        assert max(waves) <= 7 and sum(waves) == 3 * 5 * 5
        monkeypatch.undo()
        assert capped.to_json() == Engine(jobs=1).run(_spec3()).to_json()

    def test_top_once_shows_every_point_complete(self, tmp_path, capsys):
        from repro import cli
        from repro.obs.events import JsonlSink, make_event

        spec, store = self._store_with_cached_middle_point(tmp_path / "store")
        # Instrumented runs stay per point, so the fused run's events are
        # taken from the progress hook and written in the sink's format.
        events = []
        Engine(jobs=1, store=store, progress=events.append).run(spec)
        log = tmp_path / "events.jsonl"
        sink = JsonlSink(log)
        for seq, event in enumerate(events, 1):
            payload = dict(event)
            name = payload.pop("event")
            sink.emit(make_event("fused", seq, f"engine.{name}", payload))
        sink.close()
        assert cli.main(["top", str(log), "--once"]) == 0
        frame = capsys.readouterr().out
        assert "points          3/3" in frame
        assert "shards          3/3 done" in frame

    def test_instrumented_run_keeps_shards_under_their_point(self, tmp_path):
        from repro import obs
        from repro.obs import trace

        log = tmp_path / "events.jsonl"
        with obs.instrument(log_path=log):
            Engine(jobs=1).run(_spec3(sets=2))
        tree = trace.load_tree(log)
        shards = [n for n in tree.walk() if n.name == "engine.shard"]
        assert len(shards) == 3
        for node in shards:
            assert tree.nodes[node.parent_id].name == "engine.point"

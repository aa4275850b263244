"""Tests for the OBS singleton, spans, tagging, and event emission."""

from __future__ import annotations

import io
import json

import pytest

from repro import obs
from repro.obs.events import make_event
from repro.obs.runtime import OBS


class TestDefaults:
    def test_disabled_by_default(self):
        assert OBS.enabled is False
        assert OBS.sink is None

    def test_emit_is_noop_when_disabled(self):
        obs.emit("anything", value=1)  # must not raise
        assert OBS.seq == 0

    def test_span_runs_block_when_disabled(self):
        ran = []
        with obs.span("x"):
            ran.append(True)
        assert ran == [True]


class TestInstrument:
    def test_enables_fresh_registry_and_restores(self):
        outer_registry = OBS.registry
        with obs.instrument() as state:
            assert OBS.enabled
            assert state.registry is not outer_registry
            obs.counter("a").inc()
            assert state.registry.snapshot()["counters"] == {"a": 1}
        assert OBS.enabled is False
        assert OBS.registry is outer_registry

    def test_restores_on_exception(self):
        try:
            with obs.instrument():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert OBS.enabled is False

    def test_nested_instrument_isolates(self):
        with obs.instrument() as outer:
            obs.counter("outer").inc()
            with obs.instrument() as inner:
                obs.counter("inner").inc()
                assert "outer" not in inner.registry.counters
            assert OBS.registry is outer.registry
            assert outer.registry.snapshot()["counters"] == {"outer": 1}

    def test_log_path_writes_and_closes(self, tmp_path):
        log = tmp_path / "events.jsonl"
        with obs.instrument(log_path=log) as state:
            run_id = state.run_id
            obs.emit("hello", n=1)
            obs.emit("world", n=2)
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert [e["event"] for e in lines] == ["hello", "world"]
        assert [e["seq"] for e in lines] == [1, 2]
        assert all(e["run_id"] == run_id for e in lines)

    def test_explicit_run_id_is_used(self):
        with obs.instrument(run_id="r-fixed") as state:
            assert state.run_id == "r-fixed"

    def test_new_run_ids_are_unique(self):
        assert obs.new_run_id() != obs.new_run_id()


class TestSpanAndTag:
    def test_span_observes_histogram_and_emits(self):
        stream = io.StringIO()
        with obs.instrument(sink=obs.JsonlSink(stream)) as state:
            with obs.span("work", shard=3):
                pass
            histograms = state.registry.snapshot()["histograms"]
        assert histograms["work.seconds"]["count"] == 1
        event = json.loads(stream.getvalue().splitlines()[0])
        assert event["event"] == "span.work"
        assert event["shard"] == 3
        assert event["seconds"] >= 0.0

    def test_span_records_carry_scheme_tag(self):
        with obs.instrument() as state:
            with obs.scheme_tag("ca-tpa"):
                with obs.span("partition.attempt"):
                    pass
            # OBS.spans is part of the state instrument() restores, so
            # read it inside the block.
            record = state.spans[0]
        assert record["name"] == "partition.attempt"
        assert record["scheme"] == "ca-tpa"

    def test_scheme_tag_restores_previous(self):
        assert OBS.scheme == ""
        with obs.scheme_tag("ca-tpa"):
            assert OBS.scheme == "ca-tpa"
            with obs.scheme_tag("ffd"):
                assert OBS.scheme == "ffd"
            assert OBS.scheme == "ca-tpa"
        assert OBS.scheme == ""


class TestCollect:
    def test_collect_isolates_and_dumps(self):
        with obs.instrument() as state:
            obs.counter("parent").inc()
            with obs.collect() as worker_registry:
                obs.counter("child").inc(4)
                dump = worker_registry.dump()
            # Parent registry untouched by the worker-side counts.
            assert "child" not in state.registry.counters
            state.registry.merge(dump)
            snap = state.registry.snapshot()["counters"]
        assert snap == {"parent": 1, "child": 4}


class TestSpanTree:
    def test_nested_spans_link_parent_ids(self):
        with obs.instrument() as state:
            with obs.span("outer"):
                outer_id = obs.current_span_id()
                with obs.span("inner"):
                    assert obs.current_span_id() != outer_id
            records = {r["name"]: r for r in state.spans}
        # inner closes (and records) first; both carry the link.
        assert records["inner"]["parent_id"] == records["outer"]["span_id"]
        assert records["outer"]["parent_id"] is None
        assert records["inner"]["span_id"] != records["outer"]["span_id"]

    def test_sibling_spans_share_parent(self):
        with obs.instrument() as state:
            with obs.span("root"):
                with obs.span("a"):
                    pass
                with obs.span("b"):
                    pass
            records = {r["name"]: r for r in state.spans}
        assert records["a"]["parent_id"] == records["root"]["span_id"]
        assert records["b"]["parent_id"] == records["root"]["span_id"]
        assert records["a"]["span_id"] != records["b"]["span_id"]

    def test_current_span_id_is_none_outside_spans(self):
        with obs.instrument():
            assert obs.current_span_id() is None
        assert obs.current_span_id() is None

    def test_disabled_span_does_no_bookkeeping(self):
        assert not OBS.enabled
        with obs.span("x", field=1):
            assert obs.current_span_id() is None
        assert OBS.spans == []
        assert OBS.span_stack == []

    def test_error_span_tagged_and_exception_propagates(self):
        with obs.instrument() as state:
            with pytest.raises(ValueError, match="boom"):
                with obs.span("failing"):
                    raise ValueError("boom")
            record = state.spans[0]
        assert record["error"] is True

    def test_error_attribution_via_raising_probe(self, monkeypatch):
        """A probe raising inside a partition attempt marks the span."""
        import numpy as np

        from repro.gen import WorkloadConfig, generate_taskset
        from repro.model.partition import Partition
        from repro.partition.catpa import CATPA

        config = WorkloadConfig(cores=2, task_count_range=(5, 6))
        taskset = generate_taskset(config, np.random.default_rng(0))

        def exploding(self, task_index):
            raise RuntimeError("probe exploded")

        with obs.instrument() as state:
            monkeypatch.setattr(Partition, "candidate_stack", exploding)
            with pytest.raises(RuntimeError, match="probe exploded"):
                CATPA().partition(taskset, config.cores)
            attempts = [r for r in state.spans if r["name"] == "partition.attempt"]
        assert len(attempts) == 1
        assert attempts[0]["error"] is True
        assert attempts[0]["scheme"] == "ca-tpa"

    def test_user_fields_never_clobber_reserved_keys(self):
        with obs.instrument() as state:
            with obs.span("s", start="not-a-time", shard=7):
                pass
            record = state.spans[0]
        assert isinstance(record["start"], float)  # runtime's wall clock
        assert record["shard"] == 7

    def test_span_buffer_is_bounded(self, monkeypatch):
        from repro.obs import runtime as runtime_mod

        monkeypatch.setattr(runtime_mod, "MAX_SPAN_RECORDS", 2)
        with obs.instrument() as state:
            for _ in range(5):
                with obs.span("s"):
                    pass
            assert len(state.spans) == 2
            dropped = state.registry.snapshot()["counters"]["trace.spans_dropped"]
        assert dropped == 3


class TestSpanBuckets:
    def test_add_span_time_aggregates_into_synthetic_child(self):
        with obs.instrument() as state:
            with obs.span("parent"):
                obs.add_span_time("probe", 0.25)
                obs.add_span_time("probe", 0.75, calls=3)
            records = {r["name"]: r for r in state.spans}
        bucket = records["probe"]
        assert bucket["parent_id"] == records["parent"]["span_id"]
        assert bucket["seconds"] == pytest.approx(1.0)
        assert bucket["calls"] == 4
        assert bucket["synthetic"] is True

    def test_add_span_time_outside_spans_is_noop(self):
        with obs.instrument() as state:
            obs.add_span_time("probe", 1.0)
            assert state.spans == []

    def test_buckets_attach_to_innermost_span(self):
        with obs.instrument() as state:
            with obs.span("outer"):
                with obs.span("inner"):
                    obs.add_span_time("probe", 0.5)
            records = {r["name"]: r for r in state.spans}
        assert records["probe"]["parent_id"] == records["inner"]["span_id"]


class TestRecordSpan:
    def test_explicit_record_defaults_parent_to_open_span(self):
        with obs.instrument() as state:
            with obs.span("root"):
                span_id = obs.record_span("window", start=100.0, seconds=2.5, k=1)
            records = {r["name"]: r for r in state.spans}
        assert records["window"]["span_id"] == span_id
        assert records["window"]["parent_id"] == records["root"]["span_id"]
        assert records["window"]["start"] == 100.0
        assert records["window"]["seconds"] == 2.5
        assert records["window"]["k"] == 1

    def test_disabled_returns_none(self):
        assert obs.record_span("x", start=0.0, seconds=1.0) is None


class TestDrainAndAdopt:
    def test_drain_returns_and_clears(self):
        with obs.instrument() as state:
            with obs.span("a"):
                pass
            drained = obs.drain_spans()
            assert [r["name"] for r in drained] == ["a"]
            assert state.spans == []

    def test_adopt_remaps_ids_and_reroots(self):
        # "Worker": records in its own id namespace.
        with obs.instrument():
            with obs.span("worker.root"):
                with obs.span("worker.child"):
                    pass
            worker_records = obs.drain_spans()
        # "Parent": adopt under a local shard span.
        with obs.instrument() as state:
            shard_id = obs.record_span("engine.shard", start=0.0, seconds=1.0)
            adopted = obs.adopt_spans(worker_records, shard_id)
            records = {r["name"]: r for r in state.spans}
        assert len(adopted) == 2
        assert records["worker.root"]["parent_id"] == shard_id
        assert (
            records["worker.child"]["parent_id"] == records["worker.root"]["span_id"]
        )
        # Fresh local ids, no collision with the parent's own spans.
        ids = {r["span_id"] for r in records.values()}
        assert len(ids) == 3

    def test_adopt_when_disabled_is_noop(self):
        records = [{"span_id": 1, "parent_id": None, "name": "x"}]
        assert obs.adopt_spans(records, 99) == []

    def test_collect_ships_spans_across_the_boundary(self):
        with obs.instrument() as state:
            with obs.span("engine.point"):
                parent_span = obs.current_span_id()
                with obs.collect():
                    with obs.span("compute"):
                        pass
                    shipped = obs.drain_spans()
                # Worker spans never leak into the parent buffer...
                assert [r["name"] for r in state.spans] == []
                sid = obs.record_span("engine.shard", start=0.0, seconds=0.1)
                obs.adopt_spans(shipped, sid)
                names = {r["name"]: r for r in state.spans}
            # ...until adopted under the parent's shard span.
            assert names["compute"]["parent_id"] == names["engine.shard"]["span_id"]
            assert names["engine.shard"]["parent_id"] == parent_span


class TestMakeEventEnvelope:
    def test_payload_keys_colliding_with_envelope_are_prefixed(self):
        event = make_event(
            "r-1", 7, "weird", {"run_id": "fake", "ts": 0, "n": 3, "event": "x"}
        )
        assert event["run_id"] == "r-1"
        assert event["seq"] == 7
        assert event["event"] == "weird"
        assert event["payload_run_id"] == "fake"
        assert event["payload_ts"] == 0
        assert event["payload_event"] == "x"
        assert event["n"] == 3

    def test_plain_payload_keys_pass_through(self):
        event = make_event("r-1", 1, "e", {"alpha": 0.5})
        assert event["alpha"] == 0.5
        assert "payload_alpha" not in event


class TestJsonlSink:
    def test_non_serializable_payload_falls_back_to_repr(self):
        stream = io.StringIO()
        sink = obs.JsonlSink(stream)
        sink.emit({"event": "x", "obj": object()})
        line = json.loads(stream.getvalue())
        assert line["obj"].startswith("<object object")
        assert sink.events_written == 1

    def test_path_target_truncates(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("stale\n")
        sink = obs.JsonlSink(path)
        sink.emit({"event": "fresh"})
        sink.close()
        assert json.loads(path.read_text())["event"] == "fresh"

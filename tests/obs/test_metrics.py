"""Unit tests for the counter/histogram primitives of repro.obs."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import (
    HIST_EDGES,
    HIST_SCHEMA,
    Counter,
    Histogram,
    MetricsRegistry,
)

#: Width of one histogram bucket: the largest factor by which a
#: reported percentile may exceed the exact one.
BUCKET_RATIO = 2 ** (1 / 8)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6


class TestHistogram:
    def test_empty(self):
        h = Histogram("t")
        assert h.count == 0
        assert math.isnan(h.percentile(50))
        assert h.as_dict()["p95"] is None
        assert h.digest()["counts"] == {}
        assert math.isnan(h.mean)

    def test_exact_fields_and_bucketing(self):
        h = Histogram("t")
        for v in [0.001, 0.01, 0.1]:
            h.observe(v)
        assert h.count == 3
        assert h.total == pytest.approx(0.111)
        assert h.min == 0.001
        assert h.max == 0.1
        assert h.mean == pytest.approx(0.037)
        # Exactly one bucket per decade-separated observation.
        assert len(h.counts) == 3

    def test_percentile_quantized_to_bucket_edge(self):
        h = Histogram("t")
        for _ in range(100):
            h.observe(0.0012)
        p50 = h.percentile(50)
        # Upper edge of the bucket holding 0.0012, clamped to max.
        assert 0.0012 <= p50 <= 0.0012 * BUCKET_RATIO

    def test_percentile_clamped_to_observed_range(self):
        h = Histogram("t")
        h.observe(0.5)
        assert h.percentile(0) == 0.5
        assert h.percentile(100) == 0.5

    def test_underflow_and_overflow_buckets(self):
        h = Histogram("t")
        h.observe(0.0)  # below the smallest edge
        h.observe(-1.0)
        h.observe(1e9)  # above the largest edge
        assert h.counts[0] == 2
        assert h.counts[len(HIST_EDGES)] == 1
        assert h.as_dict()["overflow"] == 1
        # The overflow bucket has no upper edge: report the exact max.
        assert h.percentile(100) == 1e9

    def test_merge_equals_sequential(self):
        values = [10 ** (i / 7 - 4) for i in range(60)]
        seq = Histogram("seq")
        for v in values:
            seq.observe(v)
        left, right = Histogram("l"), Histogram("r")
        for v in values[:23]:
            left.observe(v)
        for v in values[23:]:
            right.observe(v)
        left.merge(right)
        assert left.digest() == seq.digest()
        assert left.total == pytest.approx(seq.total)

    def test_state_roundtrip_is_exact(self):
        h = Histogram("t")
        for v in [0.002, 0.004, 7.5]:
            h.observe(v)
        clone = Histogram("c")
        clone.merge_state(h.state())
        assert clone.digest() == h.digest()
        assert clone.total == pytest.approx(h.total)

    def test_merge_state_rejects_schema_mismatch(self):
        h = Histogram("t")
        bad = Histogram("other").state()
        bad["schema"] = "log10[-1:1:1]"
        with pytest.raises(ValueError, match="schema mismatch"):
            h.merge_state(bad)

    def test_merge_empty_is_a_noop(self):
        h = Histogram("t")
        h.observe(1.0)
        before = h.digest()
        h.merge(Histogram("empty"))
        h.merge_state(Histogram("empty").state())
        assert h.digest() == before

    def test_digest_excludes_float_total(self):
        h = Histogram("t")
        h.observe(0.1)
        assert "total" not in h.digest()
        assert h.digest()["schema"] == HIST_SCHEMA

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        st.integers(min_value=1, max_value=199),
    )
    def test_merge_is_exactly_associative(self, values, split):
        split = min(split, len(values))
        seq = Histogram("seq")
        for v in values:
            seq.observe(v)
        left, right = Histogram("l"), Histogram("r")
        for v in values[:split]:
            left.observe(v)
        for v in values[split:]:
            right.observe(v)
        left.merge(right)
        assert left.digest() == seq.digest()

    def test_edges_are_increasing(self):
        assert list(HIST_EDGES) == sorted(HIST_EDGES)
        assert len(set(HIST_EDGES)) == len(HIST_EDGES)

    def test_edge_ladder_covers_60ns_to_1024s_in_eighth_octaves(self):
        assert len(HIST_EDGES) == 273
        assert HIST_EDGES[0] == 2.0**-24
        assert HIST_EDGES[-1] == 1024.0
        ratios = [b / a for a, b in zip(HIST_EDGES, HIST_EDGES[1:])]
        assert max(ratios) == pytest.approx(BUCKET_RATIO, rel=1e-12)
        assert min(ratios) == pytest.approx(BUCKET_RATIO, rel=1e-12)

    def test_powers_of_two_report_exactly(self):
        h = Histogram("batch")
        for v in [1, 1, 2, 4, 4, 4, 8, 64]:
            h.observe(v)
        assert h.percentile(25) == 1.0
        assert h.percentile(50) == 4.0
        assert h.percentile(90) == 64.0

    def test_counts_are_sparse(self):
        h = Histogram("t")
        for v in [0.003] * 1000 + [0.5]:
            h.observe(v)
        assert len(h.counts) == 2
        assert sum(h.counts.values()) == 1001

    @given(
        st.lists(
            st.floats(min_value=HIST_EDGES[0], max_value=HIST_EDGES[-1]),
            min_size=1,
            max_size=300,
        )
    )
    def test_percentiles_within_one_bucket_of_exact(self, values):
        h = Histogram("t")
        for v in values:
            h.observe(v)
        ordered = sorted(values)
        for q in (50.0, 95.0, 99.0):
            exact = ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]
            reported = h.percentile(q)
            # Edges are rounded floats, so allow one part in 1e12 on
            # the upper bound.
            assert exact <= reported <= exact * BUCKET_RATIO * (1 + 1e-12)


class TestMetricsRegistry:
    def test_create_on_first_use(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.counter("a").inc()
        reg.histogram("s").observe(1.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 3}
        assert snap["histograms"]["s"]["count"] == 1

    def test_snapshot_keys_are_sorted(self):
        reg = MetricsRegistry()
        for name in ["zz", "aa", "mm"]:
            reg.counter(name).inc()
        assert list(reg.snapshot()["counters"]) == ["aa", "mm", "zz"]

    def test_dump_merge_roundtrip(self):
        worker = MetricsRegistry()
        worker.counter("probe.calls").inc(7)
        worker.histogram("seconds").observe(0.25)
        worker.histogram("seconds").observe(0.75)

        parent = MetricsRegistry()
        parent.counter("probe.calls").inc(3)
        parent.merge(worker.dump())
        snap = parent.snapshot()
        assert snap["counters"]["probe.calls"] == 10
        assert snap["histograms"]["seconds"]["count"] == 2
        assert snap["histograms"]["seconds"]["total"] == pytest.approx(1.0)

    def test_histogram_dump_merge_roundtrip(self):
        worker = MetricsRegistry()
        worker.histogram("lat").observe(0.002)
        worker.histogram("lat").observe(0.2)
        parent = MetricsRegistry()
        parent.histogram("lat").observe(0.02)
        parent.merge(worker.dump())
        snap = parent.snapshot()
        assert snap["histograms"]["lat"]["count"] == 3
        assert parent.histogram("lat").digest()["count"] == 3

    def test_clear(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.clear()
        assert reg.snapshot() == {"counters": {}, "histograms": {}}


class TestMergeKindCollision:
    """Counters and histograms are independent namespaces (pinned).

    The same name arriving as a Counter in one worker dump and as a
    Histogram in another must coexist — merge never raises, never
    converts one kind into the other, and never loses either side's data.
    """

    def test_same_name_as_counter_and_histogram_coexists(self):
        counter_worker = MetricsRegistry()
        counter_worker.counter("probe.time").inc(5)
        histogram_worker = MetricsRegistry()
        histogram_worker.histogram("probe.time").observe(0.5)

        parent = MetricsRegistry()
        parent.merge(counter_worker.dump())
        parent.merge(histogram_worker.dump())

        snap = parent.snapshot()
        assert snap["counters"]["probe.time"] == 5
        assert snap["histograms"]["probe.time"]["count"] == 1
        assert snap["histograms"]["probe.time"]["total"] == pytest.approx(0.5)

    def test_collision_merge_order_is_irrelevant(self):
        a = MetricsRegistry()
        a.counter("x").inc(2)
        b = MetricsRegistry()
        b.histogram("x").observe(1.0)

        forward = MetricsRegistry()
        forward.merge(a.dump())
        forward.merge(b.dump())
        backward = MetricsRegistry()
        backward.merge(b.dump())
        backward.merge(a.dump())
        assert forward.snapshot() == backward.snapshot()

    def test_local_kind_collision_also_coexists(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.histogram("x").observe(2.0)
        snap = reg.snapshot()
        assert snap["counters"]["x"] == 1
        assert snap["histograms"]["x"]["count"] == 1

    def test_dump_roundtrips_both_kinds_of_a_collided_name(self):
        reg = MetricsRegistry()
        reg.counter("x").inc(3)
        reg.histogram("x").observe(1.5)
        clone = MetricsRegistry()
        clone.merge(reg.dump())
        assert clone.snapshot() == reg.snapshot()

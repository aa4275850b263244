"""Unit tests for the live-telemetry layer (repro.obs.live).

A fake clock steps the window deterministically — no sleeps anywhere.
"""

from __future__ import annotations

import math

import pytest

from repro.obs.live import (
    LiveMetrics,
    MetricsView,
    SloMonitor,
    evaluate_slo,
    parse_slo,
    render_prometheus,
)
from repro.obs.metrics import HIST_EDGES, Histogram, MetricsRegistry
from repro.types import ReproError


class FakeClock:
    def __init__(self, t: float = 1000.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def tick(self, seconds: float) -> None:
        self.t += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def live(clock):
    return LiveMetrics(bucket_seconds=1.0, buckets=10, clock=clock)


class TestWindowedCounters:
    def test_total_accumulates_in_current_bucket(self, live):
        live.inc("x")
        live.inc("x", 4)
        assert live.total("x") == 5.0

    def test_unknown_counter_is_zero(self, live):
        assert live.total("nope") == 0.0
        assert live.rate("nope") == 0.0

    def test_window_limits_the_sum(self, live, clock):
        live.inc("x", 10)
        clock.tick(5)
        live.inc("x", 1)
        assert live.total("x", seconds=2) == 1.0
        assert live.total("x") == 11.0

    def test_old_buckets_expire(self, live, clock):
        live.inc("x", 7)
        clock.tick(10)  # a full ring revolution
        live.inc("x", 1)
        assert live.total("x") == 1.0

    def test_skipped_buckets_are_zeroed(self, live, clock):
        live.inc("x", 3)
        clock.tick(50)  # far beyond the ring: everything stale
        assert live.total("x") == 0.0

    def test_rate_divides_by_covered_span(self, live, clock):
        clock.tick(100)  # uptime >> window so the clamp is inactive
        live.inc("x", 20)
        assert live.rate("x", seconds=10) == pytest.approx(2.0)

    def test_rate_clamps_to_uptime(self, live, clock):
        # Daemon alive 2 s: a 10-burst reads 10/2, not 10/10.
        clock.tick(2)
        live.inc("x", 10)
        assert live.rate("x", seconds=10) == pytest.approx(5.0)


class TestWindowedHistograms:
    def test_window_merge_equals_single_histogram(self, live, clock):
        values = [0.001, 0.003, 0.01, 0.2, 1.5]
        expect = Histogram("expect")
        for i, v in enumerate(values):
            live.observe("lat", v)
            expect.observe(v)
            clock.tick(1)
        merged = live.window_histogram("lat")
        assert merged.digest()["counts"] == expect.digest()["counts"]
        assert merged.count == len(values)

    def test_window_histogram_expires(self, live, clock):
        live.observe("lat", 5.0)
        clock.tick(10)
        assert live.window_histogram("lat").count == 0

    def test_partial_window(self, live, clock):
        live.observe("lat", 1.0)
        clock.tick(3)
        live.observe("lat", 2.0)
        assert live.window_histogram("lat", seconds=2).count == 1

    def test_unknown_stream_is_empty(self, live):
        assert live.window_histogram("nope").count == 0


class TestGaugesAndHistory:
    def test_gauges_resolve_callables_at_scrape(self, live):
        depth = [3]
        live.gauge("q", lambda: depth[0])
        live.gauge("k", 7)
        assert live.gauges() == {"q": 3.0, "k": 7.0}
        depth[0] = 9
        assert live.gauges()["q"] == 9.0

    def test_history_schema(self, live, clock):
        live.inc("reqs", 4)
        live.observe("lat", 0.01)
        live.gauge("depth", 2)
        clock.tick(1)
        body = live.history()
        assert body["version"] == 1
        assert body["bucket_seconds"] == 1.0
        assert body["buckets"] == 10
        assert body["window_seconds"] == 10.0
        assert body["uptime_seconds"] == pytest.approx(1.0)
        reqs = body["counters"]["reqs"]
        assert len(reqs["values"]) == 10
        assert sum(reqs["values"]) == 4.0
        lat = body["histograms"]["lat"]
        assert len(lat["count"]) == 10
        assert sum(lat["count"]) == 1
        assert lat["window"]["count"] == 1
        # Empty buckets report None percentiles, occupied ones floats.
        assert any(p is not None for p in lat["p50"])
        assert body["gauges"] == {"depth": 2.0}

    def test_constructor_validation(self, clock):
        with pytest.raises(ReproError, match="bucket_seconds"):
            LiveMetrics(bucket_seconds=0.0, clock=clock)
        with pytest.raises(ReproError, match="buckets"):
            LiveMetrics(buckets=1, clock=clock)


class TestRenderPrometheus:
    def test_counter_becomes_total_family(self):
        reg = MetricsRegistry()
        reg.counter("serve.requests").inc(3)
        text = render_prometheus(reg)
        assert "# TYPE serve_requests_total counter" in text
        assert "serve_requests_total 3" in text
        assert text.endswith("\n")

    def test_scheme_tag_becomes_label(self):
        reg = MetricsRegistry()
        reg.counter("serve.admit.requests[ca-tpa]").inc()
        text = render_prometheus(reg)
        assert 'serve_admit_requests_total{scheme="ca-tpa"} 1' in text

    def test_explicit_key_value_label(self):
        reg = MetricsRegistry()
        reg.counter("probe.calls[core=3]").inc(2)
        text = render_prometheus(reg)
        assert 'probe_calls_total{core="3"} 2' in text

    def test_histogram_buckets_ordered_and_cumulative(self):
        reg = MetricsRegistry()
        for v in [1e-5, 1e-3, 1e-1, 10.0, 1e9]:
            reg.histogram("lat").observe(v)
        text = render_prometheus(reg)
        assert "# TYPE lat histogram" in text
        bounds, counts = [], []
        for line in text.splitlines():
            if line.startswith("lat_bucket"):
                bounds.append(float(line.split('le="')[1].split('"')[0]))
                counts.append(float(line.rsplit(" ", 1)[1]))
        assert len(bounds) == len(HIST_EDGES) + 1
        assert bounds == sorted(bounds)
        assert bounds[-1] == float("inf")
        assert counts == sorted(counts)
        assert counts[-1] == 5.0
        assert "lat_count 5" in text

    def test_gauges_render(self):
        text = render_prometheus(None, gauges={"serve.queue_depth": 4.0})
        assert "# TYPE serve_queue_depth gauge" in text
        assert "serve_queue_depth 4" in text

    def test_output_is_deterministic(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        reg.histogram("h").observe(0.1)
        assert render_prometheus(reg) == render_prometheus(reg)


class TestParseSlo:
    def test_latency_rule_with_ms(self):
        rule = parse_slo("p95(serve.place.seconds) < 5ms")
        assert rule.fn == "p95"
        assert rule.metric == "serve.place.seconds"
        assert rule.op == "<"
        assert rule.threshold == pytest.approx(0.005)

    def test_units(self):
        assert parse_slo("p50(x) < 3us").threshold == pytest.approx(3e-6)
        assert parse_slo("p50(x) < 2s").threshold == pytest.approx(2.0)
        assert parse_slo("p50(x) < 0.5").threshold == pytest.approx(0.5)

    def test_rate_equality_rule(self):
        rule = parse_slo("rate(serve.rejected_503) == 0")
        assert (rule.fn, rule.op, rule.threshold) == ("rate", "==", 0.0)

    def test_count_and_value_and_whitespace(self):
        assert parse_slo("  count( x )  >=  10  ").fn == "count"
        assert parse_slo("value(serve.queue_depth) <= 100").fn == "value"

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "p42(x) < 1",
            "p95(x) ~ 1",
            "p95() < 1",
            "p95(x) < 5min",
            "mean(x) < 1",
        ],
    )
    def test_bad_rules_raise(self, bad):
        with pytest.raises(ReproError, match="bad SLO rule"):
            parse_slo(bad)


class TestSloEvaluation:
    def test_against_live_window(self, live):
        for _ in range(10):
            live.observe("serve.place.seconds", 0.001)
        ok = evaluate_slo(parse_slo("p95(serve.place.seconds) < 5ms"), live)
        assert ok.ok and ok.value < 0.005
        bad = evaluate_slo(parse_slo("p95(serve.place.seconds) < 1us"), live)
        assert not bad.ok

    def test_nan_fails_every_comparison(self, live):
        # A metric that never reported is violated, not vacuously met.
        result = evaluate_slo(parse_slo("p95(ghost) < 1s"), live)
        assert math.isnan(result.value)
        assert not result.ok

    def test_rate_rule_over_live_counters(self, live, clock):
        clock.tick(30)
        assert evaluate_slo(parse_slo("rate(e503) == 0"), live).ok
        live.inc("e503")
        assert not evaluate_slo(parse_slo("rate(e503) == 0"), live).ok

    def test_value_rule_reads_gauges(self, live):
        live.gauge("serve.queue_depth", 3)
        assert evaluate_slo(parse_slo("value(serve.queue_depth) <= 5"), live).ok

    def test_monitor_is_edge_triggered(self, live):
        monitor = SloMonitor([parse_slo("count(errs) == 0")])
        _, failing, ok = monitor.check(live)
        assert not failing and not ok and monitor.alerts == 0

        live.inc("errs")
        _, failing, _ = monitor.check(live)
        assert len(failing) == 1
        assert monitor.alerts == 1
        assert monitor.failing == {"count(errs) == 0"}

        # Still failing: no re-alert.
        _, failing, _ = monitor.check(live)
        assert not failing and monitor.alerts == 1


class TestMetricsView:
    SNAPSHOT = {
        "counters": {"serve.rejected_503": 0, "serve.requests": 120},
        "histograms": {"serve.place.seconds": {"count": 9, "p95": 0.004}},
    }

    def test_count_and_rate(self):
        view = MetricsView(self.SNAPSHOT, elapsed=60.0)
        assert view.slo_value("count", "serve.requests") == 120.0
        assert view.slo_value("rate", "serve.requests") == pytest.approx(2.0)
        # Without elapsed, rate degenerates to the total count — still
        # exact for == 0 gates.
        assert MetricsView(self.SNAPSHOT).slo_value("rate", "serve.requests") == 120.0

    def test_percentiles_prefer_histograms(self):
        view = MetricsView(self.SNAPSHOT)
        assert view.slo_value("p95", "serve.place.seconds") == 0.004
        # A metric that never reported a histogram measures NaN.
        assert math.isnan(view.slo_value("p95", "old.lat"))

    def test_missing_metric_is_nan(self):
        view = MetricsView(self.SNAPSHOT)
        assert math.isnan(view.slo_value("p95", "ghost"))
        assert math.isnan(view.slo_value("value", "anything"))

    def test_post_mortem_gate(self):
        view = MetricsView(self.SNAPSHOT, elapsed=60.0)
        assert evaluate_slo(parse_slo("rate(serve.rejected_503) == 0"), view).ok
        assert evaluate_slo(parse_slo("p95(serve.place.seconds) < 5ms"), view).ok

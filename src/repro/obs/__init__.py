"""repro.obs — lightweight instrumentation for the whole stack.

A process-local registry of counters and exact-merge histograms, a JSON-lines
structured event sink carrying a per-run ``run_id``, ``span()`` timing
context managers, and run manifests with full provenance.  The default
state is **off** with near-zero overhead: instrumented call sites guard
on ``OBS.enabled`` (one attribute load + branch), which the
``benchmarks/test_bench_probe_overhead.py`` gate pins at < 2 % of the
Theorem-1 probe hot path.

Typical use::

    from repro import obs

    with obs.instrument(log_path="events.jsonl") as state:
        artifact = run_sweep(figure1_nsu(), sets=500, store=store)
        print(state.registry.snapshot()["counters"])

Metric names and the event/manifest schemas are documented in
docs/API.md ("Observability").
"""

from repro.obs.events import ENVELOPE_KEYS, EventSink, JsonlSink
from repro.obs.manifest import (
    MANIFEST_VERSION,
    build_manifest,
    format_manifest,
    git_describe,
    load_manifest,
    manifest_path_for,
    write_manifest,
)
from repro.obs.live import (
    LiveMetrics,
    MetricsView,
    SloMonitor,
    SloResult,
    SloRule,
    parse_slo,
    render_prometheus,
)
from repro.obs.metrics import HIST_EDGES, Counter, Histogram, MetricsRegistry
from repro.obs.runtime import (
    MAX_SPAN_RECORDS,
    OBS,
    SPAN_RESERVED_KEYS,
    add_span_time,
    adopt_spans,
    collect,
    counter,
    current_span_id,
    disable,
    drain_spans,
    emit,
    enable,
    histogram,
    instrument,
    new_run_id,
    record_span,
    scheme_tag,
    span,
)
from repro.obs.trace import (
    SpanNode,
    TraceTree,
    build_tree,
    critical_path,
    format_report,
    load_tree,
    to_chrome,
    to_folded,
)

__all__ = [
    "ENVELOPE_KEYS",
    "MAX_SPAN_RECORDS",
    "OBS",
    "SPAN_RESERVED_KEYS",
    "Counter",
    "EventSink",
    "HIST_EDGES",
    "Histogram",
    "JsonlSink",
    "LiveMetrics",
    "MANIFEST_VERSION",
    "MetricsRegistry",
    "MetricsView",
    "SloMonitor",
    "SloResult",
    "SloRule",
    "SpanNode",
    "TraceTree",
    "add_span_time",
    "adopt_spans",
    "build_manifest",
    "build_tree",
    "collect",
    "counter",
    "critical_path",
    "current_span_id",
    "disable",
    "drain_spans",
    "emit",
    "enable",
    "format_manifest",
    "format_report",
    "git_describe",
    "histogram",
    "instrument",
    "load_manifest",
    "load_tree",
    "manifest_path_for",
    "new_run_id",
    "parse_slo",
    "record_span",
    "render_prometheus",
    "scheme_tag",
    "span",
    "to_chrome",
    "to_folded",
    "write_manifest",
]

#!/usr/bin/env python3
"""End-to-end smoke test for the ``repro-mc serve`` admission daemon.

Starts a real daemon subprocess on an ephemeral port, then checks the
ISSUE acceptance criteria from the outside:

1.  **Offline parity** — ``POST /admit`` answers are bit-identical to
    running the same partitioner offline, for several random task sets
    and schemes; ``POST /explain`` documents match the offline
    explanation layer (modulo the recorded probe backend), and an
    impossible ``/place`` 409s with a structured margin/condition
    reason.
2.  **Throughput** — a concurrent burst of ``POST /place`` admission
    queries sustains at least ``SERVE_SMOKE_MIN_QPS`` queries/s
    (default 1000) *and* the queries actually coalesce
    (``serve.batch_size`` p50 > 1 in the exported metrics).
3.  **Live telemetry** — while the daemon is still serving:
    ``GET /metrics?format=prometheus`` parses as text exposition 0.0.4
    with ordered histogram buckets, ``GET /metrics/history`` returns
    the versioned windowed series (saved as the ``windowed-metrics``
    CI artifact), the ``serve_headroom`` gauge exposes a finite sample,
    and ``repro-mc top --once <url>`` renders a frame with a headroom
    row.
4.  **Graceful shutdown** — SIGINT drains the queue, the process exits
    0, and the metrics dump + run manifest are written.
5.  **SLO gate** — the daemon runs with ``--slo`` rules; the exported
    dump must report zero alerts and no failing rules (exit 1 here
    otherwise — this is the CI exit-code gate).
6.  **Trace tree** — the events.jsonl span stream forms one rooted
    tree (single ``serve.run`` root, zero orphans) with one
    ``serve.request`` span per burst query, each parented to a
    ``serve.flush`` span, and ``queue_wait + kernel + apply``
    reconciling with the span's own duration.

Environment overrides: ``SERVE_SMOKE_MIN_QPS``, ``SERVE_SMOKE_PLACES``,
``SERVE_SMOKE_THREADS``, ``SERVE_SMOKE_SLO_PLACE`` (the place-latency
SLO rule), ``SERVE_SMOKE_ARTIFACT_DIR`` (where the windowed-metrics
artifact lands; default: the run's temp dir, i.e. discarded).

Run from the repo root (package installed, or ``PYTHONPATH=src``):

    python scripts/serve_smoke.py
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.explain import explain_admission  # noqa: E402
from repro.gen import WorkloadConfig, generate_taskset  # noqa: E402
from repro.model.io import taskset_to_dict  # noqa: E402
from repro.partition.registry import get_partitioner  # noqa: E402

MIN_QPS = float(os.environ.get("SERVE_SMOKE_MIN_QPS", "1000"))
PLACES = int(os.environ.get("SERVE_SMOKE_PLACES", "2000"))
THREADS = int(os.environ.get("SERVE_SMOKE_THREADS", "16"))
CORES = 4
#: The place-latency SLO is machine-sensitive (queue wait scales with
#: batch size), so the committed default is deliberately loose; tighten
#: it locally via the env var.  The 503 rule is exact everywhere.
SLO_RULES = [
    os.environ.get("SERVE_SMOKE_SLO_PLACE", "p95(serve.place.seconds) < 250ms"),
    "rate(serve.rejected_503) == 0",
]
ARTIFACT_DIR = os.environ.get("SERVE_SMOKE_ARTIFACT_DIR")

_LISTEN_RE = re.compile(r"listening on http://([\d.]+):(\d+)")


def start_daemon(
    metrics_path: Path, events_path: Path
) -> tuple[subprocess.Popen, str, int]:
    """Launch ``repro-mc serve`` and wait for the listening banner."""
    argv = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--cores",
        str(CORES),
        "--port",
        "0",
        "--window-ms",
        "2",
        "--metrics",
        str(metrics_path),
        "--log-json",
        str(events_path),
    ]
    for rule in SLO_RULES:
        argv += ["--slo", rule]
    proc = subprocess.Popen(
        argv,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if not line:
            raise SystemExit(
                f"daemon exited before listening (rc={proc.poll()})"
            )
        match = _LISTEN_RE.search(line)
        if match:
            return proc, match.group(1), int(match.group(2))
    raise SystemExit("daemon never announced its port")


def request(host: str, port: int, method: str, path: str, payload=None):
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def check_admit_parity(host: str, port: int) -> None:
    """Serve answers must match the offline partitioner exactly."""
    config = WorkloadConfig(cores=CORES, levels=2, nsu=0.7, ifc=1.0)
    for seed in range(5):
        taskset = generate_taskset(config, np.random.default_rng(seed))
        for scheme in ("ca-tpa", "ffd", "wfd"):
            status, body = request(
                host,
                port,
                "POST",
                "/admit",
                {
                    "taskset": taskset_to_dict(taskset),
                    "cores": CORES,
                    "scheme": scheme,
                },
            )
            assert status == 200, f"admit {scheme} seed={seed}: HTTP {status}"
            offline = get_partitioner(scheme).partition(taskset, CORES)
            expect = {
                "schedulable": offline.schedulable,
                "assignment": offline.partition.assignment.tolist(),
                "order": list(offline.order),
                "failed_task": offline.failed_task,
                "utilizations": offline.partition.core_utilizations().tolist(),
            }
            got = {key: body[key] for key in expect}
            assert got == expect, (
                f"serve/offline divergence ({scheme}, seed={seed}):\n"
                f"  serve:   {got}\n  offline: {expect}"
            )
    print("parity: 5 task sets x 3 schemes match offline exactly")


def check_explain(host: str, port: int) -> None:
    """``POST /explain`` must match the offline explanation layer.

    The daemon explains under its incremental backend, the offline call
    under the ambient batch backend; backends are bit-identical, so the
    documents must agree on everything except the recorded
    ``probe_impl`` name.
    """
    config = WorkloadConfig(cores=CORES, levels=2, nsu=0.7, ifc=1.0)
    for seed in range(3):
        taskset = generate_taskset(config, np.random.default_rng(seed))
        status, body = request(
            host,
            port,
            "POST",
            "/explain",
            {"taskset": taskset_to_dict(taskset), "cores": CORES},
        )
        assert status == 200, f"explain seed={seed}: HTTP {status}"
        assert body["version"] == 1, body.get("version")
        assert body.pop("probe_impl") == "incremental", body
        body.pop("request_id", None)
        offline = explain_admission(taskset, CORES).to_dict()
        offline.pop("probe_impl")
        assert body == offline, (
            f"/explain diverges from offline explain (seed={seed})"
        )
        headroom = body["headroom"]
        assert headroom["system"] is not None, headroom
    print("explain: 3 task sets match the offline explanation exactly")


def check_place_rejection_reason(host: str, port: int) -> None:
    """An impossible task must 409 with a structured reason body."""
    status, body = request(
        host,
        port,
        "POST",
        "/place",
        {"task": {"period": 1.0, "wcets": [2.0, 3.0], "name": "whale"}},
    )
    assert status == 409, f"impossible task: HTTP {status}"
    reason = body.get("reason")
    assert reason is not None, f"409 body has no reason: {body}"
    assert reason["best_margin"] < 0.0, reason
    assert len(reason["cores"]) == CORES, reason
    for entry in reason["cores"]:
        assert entry["first_failing_condition"] is not None, entry
    print(
        f"place 409: structured reason (best core {reason['best_core']}, "
        f"margin {reason['best_margin']:.3f})"
    )


def run_place_burst(host: str, port: int) -> dict:
    """Concurrent /place burst; returns counts + throughput."""
    per_thread = PLACES // THREADS
    total = per_thread * THREADS
    statuses: list[list[int]] = [[] for _ in range(THREADS)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(THREADS + 1)

    def worker(tid: int) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            barrier.wait()
            for i in range(per_thread):
                # Tiny utilization so almost everything is admissible.
                payload = json.dumps(
                    {
                        "task": {
                            "period": 4000.0,
                            "wcets": [0.5, 1.0],
                            "name": f"w{tid}-{i}",
                        }
                    }
                )
                conn.request("POST", "/place", body=payload)
                resp = conn.getresponse()
                resp.read()
                statuses[tid].append(resp.status)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=worker, args=(tid,)) for tid in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.monotonic()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - start
    if errors:
        raise errors[0]

    flat = [status for per in statuses for status in per]
    accepted = flat.count(200)
    rejected = flat.count(409)
    assert accepted + rejected == total, f"unexpected statuses: {set(flat)}"
    qps = total / elapsed
    print(
        f"throughput: {total} /place queries in {elapsed:.2f}s "
        f"({qps:.0f} qps; {accepted} accepted, {rejected} rejected)"
    )
    assert qps >= MIN_QPS, f"{qps:.0f} qps < floor {MIN_QPS:.0f}"

    status, state = request(host, port, "GET", "/state")
    assert status == 200
    assert state["tasks"] == accepted, (
        f"/state tasks={state['tasks']} != accepted={accepted}"
    )
    assert len(set(state["assignment"])) > 1, "burst never left core 0"
    return {"accepted": accepted, "rejected": rejected, "qps": qps}


def request_text(host: str, port: int, path: str) -> tuple[int, str, str]:
    """GET returning (status, content-type, raw body) — for non-JSON."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return (
            resp.status,
            resp.getheader("Content-Type", ""),
            resp.read().decode("utf-8"),
        )
    finally:
        conn.close()


_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?(\d|\+Inf|NaN)"
)


def check_prometheus(host: str, port: int) -> None:
    """``/metrics?format=prometheus`` must parse as text exposition."""
    status, ctype, body = request_text(
        host, port, "/metrics?format=prometheus"
    )
    assert status == 200, f"prometheus scrape: HTTP {status}"
    assert "text/plain" in ctype and "0.0.4" in ctype, ctype
    families: set[str] = set()
    for line in body.splitlines():
        if not line:
            continue
        if line.startswith("# "):
            kind, name = line.split()[1:3]
            assert kind in ("HELP", "TYPE"), line
            families.add(name)
            continue
        assert _SAMPLE_RE.match(line), f"unparseable sample line: {line!r}"
    for required in (
        "serve_requests_total",
        "serve_place_seconds",
        "serve_headroom",
    ):
        assert required in families, f"{required} missing from {families}"
    # The headroom gauge must always expose a finite sample — the
    # bisection clamp guarantees it even for an empty daemon.
    headroom_samples = [
        float(line.rsplit(" ", 1)[1])
        for line in body.splitlines()
        if line.startswith("serve_headroom ")
    ]
    assert headroom_samples, "no serve_headroom sample"
    assert all(np.isfinite(headroom_samples)), headroom_samples
    # Histogram buckets must carry increasing le bounds and cumulative
    # (non-decreasing) counts — the exposition-format contract.
    bounds: list[float] = []
    counts: list[float] = []
    for line in body.splitlines():
        if line.startswith("serve_place_seconds_bucket"):
            le = line.split('le="', 1)[1].split('"', 1)[0]
            bounds.append(float(le))
            counts.append(float(line.rsplit(" ", 1)[1]))
    assert bounds, "no serve_place_seconds_bucket samples"
    assert bounds == sorted(bounds), "le bounds out of order"
    assert bounds[-1] == float("inf"), "missing +Inf bucket"
    assert counts == sorted(counts), "bucket counts not cumulative"
    print(
        f"prometheus: {len(families)} families parse "
        f"({len(bounds)} ordered place-latency buckets)"
    )


def check_history(host: str, port: int, artifact_dir: Path) -> None:
    """``/metrics/history`` is versioned JSON; saved as a CI artifact."""
    status, history = request(host, port, "GET", "/metrics/history")
    assert status == 200, f"history: HTTP {status}"
    assert history["version"] == 1, history.get("version")
    requests_series = history["counters"]["serve.requests"]
    assert sum(requests_series["values"]) > 0, "no requests in window"
    place = history["histograms"]["serve.place.seconds"]
    assert place["window"]["count"] > 0, "no place latency in window"
    artifact_dir.mkdir(parents=True, exist_ok=True)
    artifact = artifact_dir / "windowed-metrics.json"
    artifact.write_text(json.dumps(history, indent=2) + "\n")
    print(
        f"history: version 1, {history['buckets']}x"
        f"{history['bucket_seconds']}s window -> {artifact}"
    )


def check_top(url: str) -> None:
    """``repro-mc top --once`` renders a frame from the live daemon."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "top", url, "--once"],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert result.returncode == 0, f"top --once rc={result.returncode}: " + (
        result.stderr or result.stdout
    )
    for needle in ("qps", "place p50/p95", "queue depth", "headroom"):
        assert needle in result.stdout, (
            f"top frame missing {needle!r}:\n{result.stdout}"
        )
    print("top: --once renders the live dashboard frame")


def check_trace_tree(events_path: Path, burst: dict) -> None:
    """The span stream must form one rooted tree with linked requests."""
    spans = []
    with events_path.open("r", encoding="utf-8") as fh:
        for line in fh:
            event = json.loads(line)
            if event["event"].startswith("span."):
                spans.append(event)
    ids = {span["span_id"] for span in spans}
    by_id = {span["span_id"]: span for span in spans}
    roots = [span for span in spans if span["parent_id"] is None]
    orphans = [
        span
        for span in spans
        if span["parent_id"] is not None and span["parent_id"] not in ids
    ]
    assert len(roots) == 1, f"{len(roots)} roots (want 1): " + ", ".join(
        span["name"] for span in roots
    )
    assert roots[0]["name"] == "serve.run", roots[0]["name"]
    assert not orphans, (
        f"{len(orphans)} orphan spans, e.g. {orphans[0]['name']}"
    )
    requests_spans = [s for s in spans if s["name"] == "serve.request"]
    total = burst["accepted"] + burst["rejected"]
    assert len(requests_spans) >= total, (
        f"{len(requests_spans)} serve.request spans < {total} burst queries"
    )
    for span in requests_spans:
        parent = by_id[span["parent_id"]]
        assert parent["name"] == "serve.flush", parent["name"]
        parts = span["queue_wait"] + span["kernel"] + span["apply"]
        assert abs(parts - span["seconds"]) < 1e-9, (
            f"attribution {parts} != seconds {span['seconds']}"
        )
    flushes = {span["parent_id"] for span in requests_spans}
    print(
        f"trace: 1 root, 0 orphans, {len(requests_spans)} serve.request "
        f"spans linked to {len(flushes)} serve.flush spans, "
        f"queue/kernel/apply reconcile exactly"
    )


def check_slo_gate(dump: dict) -> None:
    """The CI exit-code gate: the burst must not trip any SLO rule."""
    slo = dump.get("slo")
    assert slo is not None, "exported dump has no slo section"
    assert slo["rules"] == SLO_RULES, slo["rules"]
    assert slo["alerts"] == 0, (
        f"SLO gate FAILED: {slo['alerts']} alert(s), failing={slo['failing']}"
    )
    assert not slo["failing"], slo["failing"]
    print(f"slo: 0 alerts across {len(slo['rules'])} rules — gate passed")


def check_shutdown(proc: subprocess.Popen, metrics_path: Path, burst: dict):
    proc.send_signal(signal.SIGINT)
    try:
        _, stderr = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise SystemExit("daemon did not drain within 30s of SIGINT")
    assert proc.returncode == 0, f"daemon exited {proc.returncode}"
    assert "drained and stopped" in stderr, stderr

    dump = json.loads(metrics_path.read_text())
    counters = dump["metrics"]["counters"]
    batch = dump["metrics"]["histograms"]["serve.batch_size"]
    assert counters["serve.place.accepted"] == burst["accepted"]
    assert batch["p50"] > 1, (
        f"serve.batch_size p50={batch['p50']} — the burst never coalesced"
    )

    manifest_path = metrics_path.with_name("serve.metrics.manifest.json")
    manifest = json.loads(manifest_path.read_text())
    assert manifest["run_id"] == dump["run_id"]
    assert manifest["figure"] == "serve"
    print(
        f"shutdown: rc=0, metrics + manifest exported "
        f"(batch p50={batch['p50']:.1f}, max={batch['max']:.0f})"
    )
    return dump


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        metrics_path = Path(tmp) / "serve.metrics.json"
        events_path = Path(tmp) / "events.jsonl"
        artifact_dir = Path(ARTIFACT_DIR) if ARTIFACT_DIR else Path(tmp)
        proc, host, port = start_daemon(metrics_path, events_path)
        try:
            status, body = request(host, port, "GET", "/healthz")
            assert status == 200 and body["ok"]
            # The daemon must run the incremental probe backend by
            # default — the offline-parity check below then proves the
            # backend choice changes no decision.
            assert body["probe_impl"] == "incremental", body
            # Run the (rejected, state-free) /place probe first: it
            # seeds serve.place.seconds before the daemon's first SLO
            # tick, which would otherwise read an empty histogram as
            # NaN and count one spurious startup alert.
            check_place_rejection_reason(host, port)
            check_admit_parity(host, port)
            check_explain(host, port)
            burst = run_place_burst(host, port)
            check_prometheus(host, port)
            check_history(host, port, artifact_dir)
            check_top(f"http://{host}:{port}")
            dump = check_shutdown(proc, metrics_path, burst)
            check_slo_gate(dump)
            check_trace_tree(events_path, burst)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    print("serve smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

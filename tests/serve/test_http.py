"""End-to-end tests of the daemon over real sockets.

Each test starts a full :class:`ServeDaemon` on an ephemeral port,
talks HTTP to it with a raw-socket client, and shuts it down
gracefully.  Covers offline parity of ``/admit``, micro-batch
coalescing of ``/place`` (``serve.batch_size`` p50 > 1 under a
concurrent burst), lock-free ``/state``, error statuses, backpressure
503s, and the shutdown manifest/metrics export.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.model.io import taskset_to_dict
from repro.obs import load_manifest
from repro.partition.registry import get_partitioner
from tests import malformed
from tests.conftest import random_taskset
from tests.serve.conftest import DaemonHarness, task_entry


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


class TestAdmitEndpoint:
    def test_matches_offline_partitioner(self):
        ts = random_taskset(np.random.default_rng(5), n=10)

        async def main():
            async with DaemonHarness(cores=3) as h:
                return await h.client.post(
                    "/admit",
                    {"taskset": taskset_to_dict(ts), "cores": 3, "scheme": "ca-tpa"},
                )

        status, body = run(main())
        offline = get_partitioner("ca-tpa").partition(ts, 3)
        assert status == 200
        assert body["schedulable"] == offline.schedulable
        assert body["assignment"] == offline.partition.assignment.tolist()
        assert body["utilizations"] == offline.partition.core_utilizations().tolist()

    def test_concurrent_admits_all_answered(self):
        tasksets = [
            random_taskset(np.random.default_rng(seed), n=8) for seed in range(8)
        ]

        async def main():
            async with DaemonHarness(cores=2) as h:
                return await asyncio.gather(
                    *[
                        h.client.post(
                            "/admit",
                            {"taskset": taskset_to_dict(ts), "cores": 2},
                        )
                        for ts in tasksets
                    ]
                )

        results = run(main())
        assert all(status == 200 for status, _ in results)
        for (_, body), ts in zip(results, tasksets):
            offline = get_partitioner("ca-tpa").partition(ts, 2)
            assert body["schedulable"] == offline.schedulable
            assert body["assignment"] == offline.partition.assignment.tolist()


class TestPlaceEndpoint:
    def test_burst_coalesces_and_balances(self):
        async def main():
            async with DaemonHarness(cores=2, window_ms=50.0) as h:
                results = await asyncio.gather(
                    *[
                        h.client.post(
                            "/place", task_entry(10.0, [0.5, 1.0], name=f"t{i}")
                        )
                        for i in range(8)
                    ]
                )
                state = await h.client.get("/state")
                metrics = await h.client.get("/metrics")
                return results, state, metrics

        results, (st_status, state), (_, metrics) = run(main())
        assert all(status == 200 for status, _ in results)
        assert st_status == 200
        assert state["tasks"] == 8
        assert sorted(state["assignment"].count(c) for c in (0, 1)) == [4, 4]
        batch = metrics["metrics"]["histograms"]["serve.batch_size"]
        assert batch["p50"] > 1  # the burst really coalesced

    def test_infeasible_placement_answers_409(self):
        async def main():
            async with DaemonHarness(cores=1) as h:
                first = await h.client.post("/place", task_entry(10.0, [6.0, 8.0]))
                second = await h.client.post("/place", task_entry(10.0, [6.0, 9.0]))
                state = await h.client.get("/state")
                return first, second, state

        (s1, b1), (s2, b2), (_, state) = run(main())
        assert s1 == 200 and b1["accepted"]
        assert s2 == 409 and not b2["accepted"] and b2["core"] is None
        assert state["tasks"] == 1  # the rejected task never joined


class TestErrorStatuses:
    def test_unknown_path_404_and_wrong_method_405(self):
        async def main():
            async with DaemonHarness() as h:
                return (
                    await h.client.get("/nope"),
                    await h.client.get("/admit"),
                    await h.client.post("/state", {}),
                )

        (s404, _), (s405a, _), (s405b, _) = run(main())
        assert (s404, s405a, s405b) == (404, 405, 405)

    def test_malformed_json_400(self):
        async def main():
            async with DaemonHarness() as h:
                reader, writer = await asyncio.open_connection(*h.daemon.bound)
                body = b"{not json"
                writer.write(
                    b"POST /place HTTP/1.1\r\nHost: t\r\nContent-Length: "
                    + str(len(body)).encode()
                    + b"\r\nConnection: close\r\n\r\n"
                    + body
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                return int(raw.split()[1])

        assert run(main()) == 400

    def test_validation_error_400(self):
        async def main():
            async with DaemonHarness() as h:
                return await h.client.post("/place", {"task": {"wcets": [1.0]}})

        status, body = run(main())
        assert status == 400 and "bad task" in body["error"]

    @pytest.mark.parametrize("row", malformed.rows("task", "taskset"))
    def test_non_finite_or_non_numeric_fields_400(self, row):
        if row.kind == "task":
            path, body = "/place", {"task": row.doc}
        else:
            path, body = row.endpoint, {"taskset": row.doc, "cores": 2}

        async def main():
            async with DaemonHarness() as h:
                answer = await h.client.post(path, body)
                return answer, await h.client.get("/healthz")

        (status, answer), (health_status, health) = run(main())
        assert status == 400
        assert answer["error"].startswith(("bad task: ", "bad taskset: "))
        assert "\n" not in answer["error"]
        assert health_status == 200 and health["ok"]

    @pytest.mark.parametrize("row", malformed.rows("bytes"))
    def test_body_that_is_not_json_400(self, row):
        async def main():
            async with DaemonHarness() as h:
                reader, writer = await asyncio.open_connection(*h.daemon.bound)
                writer.write(
                    b"POST /place HTTP/1.1\r\nHost: t\r\nContent-Length: "
                    + str(len(row.doc)).encode()
                    + b"\r\nConnection: close\r\n\r\n"
                    + row.doc
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                return raw, await h.client.get("/healthz")

        raw, (health_status, health) = run(main())
        head, _, data = raw.partition(b"\r\n\r\n")
        assert int(head.split()[1]) == 400
        assert "\n" not in json.loads(data)["error"]
        assert health_status == 200 and health["ok"]

    @pytest.mark.parametrize("declared", ["-5", "+5", "1_0", "five", ""])
    def test_bad_content_length_400(self, declared):
        async def main():
            async with DaemonHarness() as h:
                reader, writer = await asyncio.open_connection(*h.daemon.bound)
                writer.write(
                    b"POST /place HTTP/1.1\r\nHost: t\r\nContent-Length: "
                    + declared.encode()
                    + b"\r\n\r\n"
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                return raw, await h.client.get("/healthz")

        raw, (health_status, health) = run(main())
        head, _, data = raw.partition(b"\r\n\r\n")
        assert int(head.split()[1]) == 400
        assert json.loads(data) == {"error": "bad Content-Length"}
        assert health_status == 200 and health["ok"]

    def test_overcritical_task_400(self):
        async def main():
            async with DaemonHarness(levels=2) as h:
                return await h.client.post(
                    "/place", task_entry(10.0, [1.0, 2.0, 3.0])
                )

        status, body = run(main())
        assert status == 400 and "K=2" in body["error"]

    def test_backpressure_503_under_overload(self):
        async def main():
            # backlog=1 + a wide window: concurrent submitters must
            # overflow the one-slot queue while the coordinator sleeps.
            async with DaemonHarness(cores=2, backlog=1, window_ms=200.0) as h:
                results = await asyncio.gather(
                    *[
                        h.client.post(
                            "/place", task_entry(50.0, [0.1, 0.2], name=f"t{i}")
                        )
                        for i in range(10)
                    ]
                )
                metrics = await h.client.get("/metrics")
                return results, metrics

        results, (_, metrics) = run(main())
        statuses = [status for status, _ in results]
        assert 503 in statuses  # overload sheds load instead of queueing
        assert any(status == 200 for status in statuses)  # but still serves
        assert metrics["metrics"]["counters"]["serve.overflow_503"] >= 1


class TestKeepAlive:
    def test_two_requests_one_connection(self):
        async def main():
            async with DaemonHarness() as h:
                reader, writer = await asyncio.open_connection(*h.daemon.bound)
                req = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                writer.write(req)
                await writer.drain()
                first = await _read_response(reader)
                writer.write(
                    b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
                )
                await writer.drain()
                second = await _read_response(reader)
                writer.close()
                return first, second

        first, second = run(main())
        assert first["ok"] and second["ok"]


async def _read_response(reader):
    head = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in head.decode("latin-1").split("\r\n"):
        if line.lower().startswith("content-length:"):
            length = int(line.split(":", 1)[1])
    return json.loads(await reader.readexactly(length))


class TestGracefulShutdown:
    def test_shutdown_exports_manifest_and_metrics(self, tmp_path):
        metrics_path = tmp_path / "serve.metrics.json"

        async def main():
            async with DaemonHarness(
                cores=2, metrics_path=str(metrics_path)
            ) as h:
                await h.client.post("/place", task_entry(10.0, [1.0, 2.0]))
                await h.client.get("/state")
                return h.daemon.run_id

        run_id = run(main())
        dump = json.loads(metrics_path.read_text())
        assert dump["run_id"] == run_id
        assert "summaries" not in dump["metrics"]
        histograms = dump["metrics"]["histograms"]
        assert histograms["serve.batch_size"]["p50"] == 1.0  # exact edge
        assert histograms["serve.handle.seconds"]["count"] >= 2
        assert dump["metrics"]["counters"]["serve.place.accepted"] == 1
        manifest = load_manifest(tmp_path / "serve.metrics.manifest.json")
        assert manifest["run_id"] == run_id
        assert manifest["figure"] == "serve"
        assert manifest["artifact"]["path"] == "serve.metrics.json"

    def test_queued_work_drains_before_exit(self):
        async def main():
            async with DaemonHarness(cores=2, window_ms=100.0) as h:
                # Requests in flight when shutdown begins still answer.
                posts = [
                    asyncio.create_task(
                        h.client.post(
                            "/place", task_entry(20.0, [0.5, 1.0], name=f"d{i}")
                        )
                    )
                    for i in range(4)
                ]
                await asyncio.sleep(0.01)  # let them hit the queue
                await h.stop()
                return await asyncio.gather(*posts)

        results = run(main())
        assert all(status == 200 for status, _ in results)


class TestTelemetryEndpoints:
    def test_prometheus_exposition(self):
        async def main():
            async with DaemonHarness(cores=2) as h:
                await h.client.post("/place", task_entry(10.0, [1.0, 2.0]))
                return await h.client.get_raw("/metrics?format=prometheus")

        status, head, body = run(main())
        assert status == 200
        assert "text/plain" in head and "0.0.4" in head
        assert "# TYPE serve_requests_total counter" in body
        assert "# TYPE serve_place_seconds histogram" in body
        assert 'serve_place_seconds_bucket{le="+Inf"}' in body
        assert "# TYPE serve_queue_depth gauge" in body

    def test_unknown_metrics_format_is_400(self):
        async def main():
            async with DaemonHarness(cores=2) as h:
                return await h.client.get("/metrics?format=xml")

        status, body = run(main())
        assert status == 400
        assert "format" in body["error"]

    def test_json_metrics_still_default(self):
        async def main():
            async with DaemonHarness(cores=2) as h:
                await h.client.post("/place", task_entry(10.0, [1.0, 2.0]))
                return await h.client.get("/metrics")

        status, body = run(main())
        assert status == 200
        assert body["metrics"]["counters"]["serve.place.accepted"] == 1

    def test_metrics_history_schema(self):
        async def main():
            async with DaemonHarness(cores=2) as h:
                await h.client.post("/place", task_entry(10.0, [1.0, 2.0]))
                return await h.client.get("/metrics/history")

        status, body = run(main())
        assert status == 200
        assert body["version"] == 1
        assert sum(body["counters"]["serve.requests"]["values"]) >= 1
        place = body["histograms"]["serve.place.seconds"]
        assert place["window"]["count"] == 1
        assert body["gauges"]["serve.tasks"] == 1.0
        assert "serve.lambda" in body["gauges"]

"""Quick probe-throughput regression check against committed baselines.

``repro-mc bench compare`` re-runs a scaled-down version of the
``benchmarks/`` probe microbenchmarks — Theorem-1 probe throughput
(batch vs scalar), the daemon-style placement loop (incremental vs
batch), and the disabled-instrumentation overhead on the probe hot
path — and compares the result against the committed
``BENCH_partition.json`` / ``BENCH_obs_overhead.json`` baselines.

Raw wall-clock numbers are not comparable across machines, so the gates
are deliberately chosen to survive a hardware change:

* **speedup** — the measured batch/scalar speedup must be at least
  ``gate_ratio`` times the committed speedup.  Both sides of the ratio
  run on the *same* machine, so a drop means the batch path regressed
  relative to the scalar path, not that the machine is slower.
* **throughput** — measured batch probes/sec must be at least
  ``gate_ratio`` times the committed figure.  This one *is*
  machine-relative; the default ``gate_ratio`` leaves generous room for
  slower CI hardware while still catching an order-of-magnitude
  regression (e.g. the batch path silently falling back to scalar).
* **incremental column** — on the placement-loop workload, measured
  incremental hypotheses/sec must clear ``gate_ratio`` times the
  committed figure, and the incremental/batch speedup must stay above
  ``max(1.0, gate_ratio x committed)`` — i.e. the incremental backend
  must never be slower than batch on the workload it exists for,
  however slow the machine.
* **lockstep column** — on the Fig.-1 sweep through the engine at
  ``jobs=1``, the lockstep-over-batch speedup (lockstep lanes vs every
  lane on the per-set batch path, identical figures) must stay above
  ``max(1.0, gate_ratio x committed)``: lockstep may never lose to the
  per-set path on the sweep it exists for.
* **disabled overhead** — the median paired guarded/raw ratio must stay
  under ``overhead_gate``.  Machine-independent by construction; the
  quick run uses a looser default gate than the full benchmark's 1.02
  because fewer samples mean more timing noise.

The full, slow benchmarks under ``benchmarks/`` remain the source of
truth for the committed numbers; this module exists so CI (and a
developer about to touch the probe layer) gets a minutes-not-hours
regression signal.
"""

from __future__ import annotations

import json
import statistics
import time
from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro.analysis.batch import _core_utilization_stack
from repro.gen import WorkloadConfig, generate_taskset
from repro.model import Partition
from repro.partition import ordering
from repro.partition.probe import (
    batch_probe,
    batch_probe_tasks,
    use_probe_implementation,
)

__all__ = [
    "DEFAULT_E2E_SETS",
    "DEFAULT_SETS",
    "DEFAULT_PLACEMENT_SETS",
    "DEFAULT_SERVE_PLACES",
    "E2E_PASSES",
    "DEFAULT_GATE_RATIO",
    "DEFAULT_OVERHEAD_GATE",
    "PLACEMENT_TASK_RANGE",
    "end_to_end_rows",
    "placement_loop",
    "replay_probe_states",
    "run_end_to_end_bench",
    "run_placement_bench",
    "run_probe_bench",
    "run_serve_bench",
    "compare_against_baselines",
    "run_compare",
]

SEED = 2016
DEFAULT_SETS = 12
DEFAULT_PLACEMENT_SETS = 3
CHUNKS = 8  #: interleaved chunks for the paired A/B/A overhead measurement

#: Task sets per point of the end-to-end Fig.-1 sweep rows: 5 points x 4
#: sets x 5 schemes = 100 lanes in one lockstep wave.  Fixed (not scaled
#: by ``--sets``) so the measured speedup is comparable to the pin.
DEFAULT_E2E_SETS = 4
E2E_PASSES = 2  #: best-of passes of the gated end-to-end rows

#: Backlog depth of the placement-loop workload.  The incremental
#: backend's advantage grows with the number of pending rows per flush
#: (unchanged columns answer from cache); a deep backlog is the
#: daemon-under-load shape the backend exists for.
PLACEMENT_TASK_RANGE = (250, 400)

#: Measured value must be >= gate_ratio * committed value (throughput
#: and speedup gates).  0.5 tolerates a 2x slower machine / noisy CI box
#: while still catching the batch path degrading to scalar-like speed.
DEFAULT_GATE_RATIO = 0.5

#: Median guarded/raw gate for the quick disabled-overhead check.  The
#: full benchmark gates at 1.02 over 48 paired ratios; the quick run has
#: far fewer samples, so the gate is looser.
DEFAULT_OVERHEAD_GATE = 1.10

PARTITION_BASELINE = "BENCH_partition.json"
OVERHEAD_BASELINE = "BENCH_obs_overhead.json"
SERVE_BASELINE = "BENCH_serve.json"

#: Concurrent /place requests of the quick serve-latency burst.
DEFAULT_SERVE_PLACES = 256


def replay_probe_states(
    config: WorkloadConfig, sets: int, seed: int = SEED
) -> list[tuple[Partition, int]]:
    """The (partition, task_index) probe states of a greedy CA-TPA replay.

    Mirrors the state construction of ``benchmarks/`` (placement replayed
    once, every recorded state immutable) at a fraction of the set count.
    """
    rng = np.random.default_rng(seed)
    states: list[tuple[Partition, int]] = []
    for _ in range(sets):
        taskset = generate_taskset(config, rng)
        partition = Partition(taskset, config.cores)
        placed: list[tuple[int, int]] = []
        for task_index in ordering.by_contribution(taskset):
            snapshot = Partition(taskset, config.cores)
            for i, m in placed:
                snapshot.assign(i, m)
            states.append((snapshot, task_index))
            new_utils = _core_utilization_stack(
                partition.candidate_stack(task_index), "max"
            )
            finite = np.isfinite(new_utils)
            if not finite.any():
                break
            target = int(np.argmin(np.where(finite, new_utils, np.inf)))
            partition.assign(task_index, target)
            placed.append((task_index, target))
    return states


def placement_loop(taskset, cores: int, rule: str = "max") -> int:
    """One daemon-style placement loop; returns hypotheses answered.

    Mirrors the coordinator's ``/place`` flush: probe *every* pending
    task against every core, place the head of the queue on its best
    finite core, re-probe the remainder, repeat.  Under the batch
    backend each round recomputes the full ``(pending, cores)`` grid;
    under the incremental backend only the mutated core's column is
    fresh work — identical answers, different cost.
    """
    partition = Partition(taskset, cores)
    pending = list(ordering.by_contribution(taskset))
    hypotheses = 0
    while pending:
        utils = batch_probe_tasks(partition, pending, rule=rule)
        hypotheses += utils.size
        head = utils[0]
        task_index = pending.pop(0)
        finite = np.isfinite(head)
        if not finite.any():
            continue  # no feasible core: skip, keep placing the rest
        partition.assign(
            task_index, int(np.argmin(np.where(finite, head, np.inf)))
        )
    return hypotheses


def run_placement_bench(
    sets: int = DEFAULT_PLACEMENT_SETS, seed: int = SEED, passes: int = 3
) -> dict:
    """Time the placement loop under the batch and incremental backends.

    Both backends answer the exact same hypotheses (pinned bit-identical
    by the validate campaign), so ``speedup`` is a pure throughput
    ratio on provably equivalent work.
    """
    config = WorkloadConfig(task_count_range=PLACEMENT_TASK_RANGE)
    rng = np.random.default_rng(seed)
    tasksets = [generate_taskset(config, rng) for _ in range(sets)]
    timings: dict[str, float] = {}
    hypotheses = 0
    for impl in ("batch", "incremental"):
        with use_probe_implementation(impl):
            placement_loop(tasksets[0], config.cores)  # warm-up
            best = float("inf")
            for _ in range(passes):
                start = time.perf_counter()
                hypotheses = sum(
                    placement_loop(ts, config.cores) for ts in tasksets
                )
                best = min(best, time.perf_counter() - start)
            timings[impl] = best
    return {
        "benchmark": "placement-loop",
        "sets": sets,
        "seed": seed,
        "task_count_range": list(PLACEMENT_TASK_RANGE),
        "hypotheses": hypotheses,
        "batch": {
            "seconds": timings["batch"],
            "probes_per_sec": hypotheses / timings["batch"],
        },
        "incremental": {
            "seconds": timings["incremental"],
            "probes_per_sec": hypotheses / timings["incremental"],
        },
        "speedup": timings["batch"] / timings["incremental"],
    }


def end_to_end_rows(spec) -> dict[str, Callable[[], list]]:
    """The three end-to-end rows of a stats figure ``spec``.

    Each row is a callable returning the figure (per point, per scheme
    ``SchemeStats.to_dict()``); all three must return identical figures.

    * ``scalar`` — ``Engine(jobs=1, probe_impl="scalar").run``, which
      keeps every lane per set;
    * ``batch`` — the same shards with every (set, scheme) lane on the
      per-set :meth:`Partitioner.partition` path under batch probes;
    * ``lockstep`` — what users run: ``Engine(jobs=1).run`` on the
      spec, every lane of every point in lockstep waves.
    """
    from repro.engine import Engine
    from repro.engine.core import _merge_stats, _run_stats_waves

    shards = [(p.config, p.schemes, p.seed, 0, p.sets) for p in spec.points]

    def per_set() -> list:
        accs: list = []
        with use_probe_implementation("batch"):
            _run_stats_waves(
                shards, lambda _i, shard, _s: accs.append(shard), lockstep=False
            )
        return [
            [_merge_stats(p, [a])[label].to_dict() for label in p.labels]
            for p, a in zip(spec.points, accs)
        ]

    def engine(impl: str) -> list:
        artifact = Engine(jobs=1, probe_impl=impl).run(spec)
        return [[s.to_dict() for s in row.stats] for row in artifact.rows]

    return {
        "scalar": lambda: engine("scalar"),
        "batch": per_set,
        "lockstep": lambda: engine("batch"),
    }


def run_end_to_end_bench(seed: int = SEED) -> dict:
    """The Fig.-1 sweep in sets/s: scalar, per-set batch and lockstep.

    Runs :func:`end_to_end_rows` at :data:`DEFAULT_E2E_SETS` sets per
    point and checks that all three rows produce identical figures.  The
    gated batch and lockstep rows are the best of :data:`E2E_PASSES`
    runs; the slow scalar row runs once.
    """
    from repro.experiments.sweeps import definition_to_spec, figure1_nsu

    spec = definition_to_spec(figure1_nsu(), sets=DEFAULT_E2E_SETS, seed=seed)
    seconds: dict[str, float] = {}
    figures: dict[str, list] = {}
    for name, run in end_to_end_rows(spec).items():
        best = float("inf")
        for _ in range(1 if name == "scalar" else E2E_PASSES):
            start = time.perf_counter()
            figures[name] = run()
            best = min(best, time.perf_counter() - start)
        seconds[name] = best
    if not figures["scalar"] == figures["batch"] == figures["lockstep"]:
        raise AssertionError("end-to-end rows disagree across probe paths")
    total = DEFAULT_E2E_SETS * len(spec.points)
    return {
        "benchmark": "fig1-sweep",
        "schemes": list(spec.points[0].labels),
        "sets": total,
        "seed": seed,
        **{
            name: {"seconds": secs, "sets_per_sec": total / secs}
            for name, secs in seconds.items()
        },
        "speedup": seconds["scalar"] / seconds["batch"],
        "lockstep_speedup": seconds["batch"] / seconds["lockstep"],
    }


def run_serve_bench(
    places: int = DEFAULT_SERVE_PLACES, seed: int = SEED, cores: int = 8
) -> dict:
    """Serve-latency burst: an in-process daemon under concurrent /place.

    Boots a real :class:`~repro.serve.daemon.ServeDaemon` (ephemeral
    port, incremental backend — the serve defaults), fires ``places``
    concurrent HTTP ``/place`` requests at it, and reports qps plus the
    exact log-bucket p50/p95 of ``serve.place.seconds`` (queue-wait +
    kernel + apply per request, the same histogram the daemon exposes
    via Prometheus).  Everything runs in one process on one event loop,
    so the numbers are the coalescing path's, not a client fleet's.
    """
    import asyncio
    import json as json_mod

    from repro.obs.runtime import OBS
    from repro.serve.daemon import ServeConfig, ServeDaemon

    rng = np.random.default_rng(seed)
    bodies = []
    for i in range(places):
        period = float(rng.uniform(50.0, 200.0))
        lo = period * float(rng.uniform(0.001, 0.01))
        body = {
            "task": {"name": f"b{i}", "period": period, "wcets": [lo, lo * 2]}
        }
        bodies.append(json_mod.dumps(body).encode("utf-8"))

    async def _post(host: str, port: int, body: bytes) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            (
                "POST /place HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()
        await reader.read()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass

    async def _bench() -> dict:
        config = ServeConfig(
            cores=cores,
            port=0,
            backlog=places + 8,
            command=["bench", "serve"],
        )
        daemon = ServeDaemon(config)
        shutdown = asyncio.Event()
        ready = asyncio.Event()
        runner = asyncio.create_task(daemon.run(shutdown, ready=ready))
        await ready.wait()
        host, port = daemon.bound
        start = time.perf_counter()
        await asyncio.gather(*(_post(host, port, body) for body in bodies))
        elapsed = time.perf_counter() - start
        # The daemon instruments the whole process while it runs, so its
        # registry is readable here — before shutdown restores state.
        latency = OBS.registry.histogram("serve.place.seconds").as_dict()
        batch = OBS.registry.histograms.get("serve.batch_size")
        batch_p50 = batch.percentile(50.0) if batch is not None else 0.0
        accepted = OBS.registry.counter("serve.place.accepted").value
        shutdown.set()
        await runner
        return {
            "benchmark": "serve-burst",
            "places": places,
            "seed": seed,
            "cores": cores,
            "seconds": elapsed,
            "qps": places / elapsed,
            "accepted": accepted,
            "batch_p50": batch_p50,
            "place_p50_s": latency["p50"],
            "place_p95_s": latency["p95"],
        }

    return asyncio.run(_bench())


def _raw(partition: Partition, task_index: int):
    return _core_utilization_stack(partition.candidate_stack(task_index), "max")


def _time_states(fn, states, passes: int = 3) -> float:
    """Best-of-``passes`` wall time of ``fn`` over the probe states."""
    best = float("inf")
    for _ in range(passes):
        start = time.perf_counter()
        for partition, task_index in states:
            fn(partition, task_index)
        best = min(best, time.perf_counter() - start)
    return best


def run_probe_bench(sets: int = DEFAULT_SETS, seed: int = SEED) -> dict:
    """Measure batch/scalar probe throughput and the disabled overhead.

    Returns a dict with the same vocabulary as the committed baselines:
    ``probes``, ``batch``/``scalar`` seconds and probes/sec, ``speedup``,
    the median paired ``disabled_overhead_ratio``, and the placement,
    ``end_to_end`` (:func:`run_end_to_end_bench`) and serve sections.
    """
    config = WorkloadConfig()  # the Fig.-1 default point
    states = replay_probe_states(config, sets, seed)
    if not states:
        raise ValueError("probe-state replay produced no states")

    batch_seconds = _time_states(batch_probe, states)
    with use_probe_implementation("scalar"):
        scalar_seconds = _time_states(batch_probe, states)

    chunks = [states[k::CHUNKS] for k in range(CHUNKS)]
    ratios = []
    for chunk in chunks:
        before = _time_states(_raw, chunk)
        timed = _time_states(batch_probe, chunk)
        after = _time_states(_raw, chunk)
        ratios.append(timed / ((before + after) / 2))

    return {
        "benchmark": "probe-throughput-quick",
        "sets": sets,
        "seed": seed,
        "probes": len(states),
        "batch": {
            "seconds": batch_seconds,
            "probes_per_sec": len(states) / batch_seconds,
        },
        "scalar": {
            "seconds": scalar_seconds,
            "probes_per_sec": len(states) / scalar_seconds,
        },
        "speedup": scalar_seconds / batch_seconds,
        "placement": run_placement_bench(seed=seed),
        "end_to_end": run_end_to_end_bench(seed=seed),
        "serve": run_serve_bench(seed=seed),
        "disabled_overhead_ratio": statistics.median(ratios),
        "overhead_samples": len(ratios),
    }


def _load_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def compare_against_baselines(
    measured: dict,
    baseline_dir: str | Path,
    *,
    gate_ratio: float = DEFAULT_GATE_RATIO,
    overhead_gate: float = DEFAULT_OVERHEAD_GATE,
) -> tuple[list[str], list[str]]:
    """Gate the measurement against the committed baselines.

    Returns ``(failures, lines)``: human-readable report lines plus a
    list of failed-gate descriptions (empty = all gates passed).  A
    missing baseline file is itself a failure — a silently absent
    baseline would make the gate vacuous.
    """
    baseline_dir = Path(baseline_dir)
    failures: list[str] = []
    lines = [
        f"bench compare: {measured['probes']} probes "
        f"({measured['sets']} sets, seed {measured['seed']})",
        "",
        f"  {'metric':<26} {'measured':>12} {'committed':>12} {'gate':>16}",
    ]

    def check(metric: str, value: float, committed: float, floor: float) -> None:
        ok = value >= floor
        lines.append(
            f"  {metric:<26} {value:>12.2f} {committed:>12.2f} "
            f"{'>= ' + format(floor, '.2f'):>14} {'ok' if ok else 'FAIL'}"
        )
        if not ok:
            failures.append(
                f"{metric}: measured {value:.2f} < gate {floor:.2f} "
                f"(committed {committed:.2f} x ratio {gate_ratio})"
            )

    partition = _load_json(baseline_dir / PARTITION_BASELINE)
    if partition is None:
        failures.append(f"missing/unreadable baseline {PARTITION_BASELINE}")
        lines.append(f"  !! no {PARTITION_BASELINE} in {baseline_dir}")
    else:
        committed_pps = float(partition["probe"]["batch"]["probes_per_sec"])
        committed_speedup = float(partition["probe"]["speedup"])
        check(
            "batch probes/sec",
            measured["batch"]["probes_per_sec"],
            committed_pps,
            gate_ratio * committed_pps,
        )
        check(
            "batch/scalar speedup",
            measured["speedup"],
            committed_speedup,
            gate_ratio * committed_speedup,
        )
        placement = partition.get("placement")
        if placement is None:
            # A vacuously-green incremental gate is itself a failure.
            failures.append(
                f"baseline {PARTITION_BASELINE} has no 'placement' section"
            )
            lines.append(f"  !! no placement section in {PARTITION_BASELINE}")
        else:
            committed_inc = float(
                placement["incremental"]["probes_per_sec"]
            )
            committed_inc_speedup = float(placement["speedup"])
            check(
                "incremental probes/sec",
                measured["placement"]["incremental"]["probes_per_sec"],
                committed_inc,
                gate_ratio * committed_inc,
            )
            # Machine-relative floor, but never below 1.0: whatever the
            # hardware, incremental must not lose to batch on the
            # placement workload.
            check(
                "incremental/batch speedup",
                measured["placement"]["speedup"],
                committed_inc_speedup,
                max(1.0, gate_ratio * committed_inc_speedup),
            )

        end_to_end = partition.get("end_to_end", {})
        if "lockstep_speedup" not in end_to_end:
            failures.append(
                f"baseline {PARTITION_BASELINE} has no end_to_end lockstep row"
            )
            lines.append(f"  !! no end_to_end lockstep row in {PARTITION_BASELINE}")
        else:
            committed_lockstep = float(end_to_end["lockstep_speedup"])
            # Never below 1.0: lockstep must not lose to the per-set
            # path on the sweep, whatever the hardware.
            check(
                "lockstep/batch sweep speedup",
                measured["end_to_end"]["lockstep_speedup"],
                committed_lockstep,
                max(1.0, gate_ratio * committed_lockstep),
            )

    serve_baseline = _load_json(baseline_dir / SERVE_BASELINE)
    serve_measured = measured.get("serve")
    if serve_baseline is None:
        # Same policy as the placement section: a silently absent
        # baseline would make the serve-latency gate vacuous.
        failures.append(f"missing/unreadable baseline {SERVE_BASELINE}")
        lines.append(f"  !! no {SERVE_BASELINE} in {baseline_dir}")
    elif serve_measured is not None:
        committed_qps = float(serve_baseline["qps"])
        check(
            "serve qps",
            serve_measured["qps"],
            committed_qps,
            gate_ratio * committed_qps,
        )
        # Latency gates from above: a slower machine is allowed
        # 1/gate_ratio times the committed p95, no more.
        committed_p95 = float(serve_baseline["place_p95_s"])
        measured_p95 = float(serve_measured["place_p95_s"])
        ceiling = committed_p95 / gate_ratio
        ok = measured_p95 <= ceiling
        lines.append(
            f"  {'serve place p95 (s)':<26} {measured_p95:>12.5f} "
            f"{committed_p95:>12.5f} "
            f"{'<= ' + format(ceiling, '.5f'):>14} {'ok' if ok else 'FAIL'}"
        )
        if not ok:
            failures.append(
                f"serve place p95: measured {measured_p95:.5f}s exceeds "
                f"gate {ceiling:.5f}s (committed {committed_p95:.5f}s / "
                f"ratio {gate_ratio})"
            )

    overhead = _load_json(baseline_dir / OVERHEAD_BASELINE)
    measured_overhead = measured["disabled_overhead_ratio"]
    committed_overhead = (
        float(overhead["disabled_overhead_ratio"]) if overhead else float("nan")
    )
    ok = measured_overhead <= overhead_gate
    lines.append(
        f"  {'disabled overhead':<26} {measured_overhead:>12.3f} "
        f"{committed_overhead:>12.3f} "
        f"{'<= ' + format(overhead_gate, '.2f'):>14} {'ok' if ok else 'FAIL'}"
    )
    if not ok:
        failures.append(
            f"disabled overhead: median guarded/raw {measured_overhead:.3f} "
            f"exceeds gate {overhead_gate:.2f}"
        )
    if overhead is None:
        failures.append(f"missing/unreadable baseline {OVERHEAD_BASELINE}")
        lines.append(f"  !! no {OVERHEAD_BASELINE} in {baseline_dir}")

    lines.append("")
    if failures:
        lines.append(f"{len(failures)} gate(s) FAILED:")
        lines.extend(f"  - {failure}" for failure in failures)
    else:
        lines.append("all gates passed")
    return failures, lines


def run_compare(
    *,
    sets: int = DEFAULT_SETS,
    seed: int = SEED,
    baseline_dir: str | Path | None = None,
    gate_ratio: float = DEFAULT_GATE_RATIO,
    overhead_gate: float = DEFAULT_OVERHEAD_GATE,
) -> tuple[int, str]:
    """Run the quick bench and gate it; returns ``(exit_code, report)``.

    ``baseline_dir`` defaults to the current working directory (where CI
    checks out the repo root with the committed ``BENCH_*.json`` files).
    """
    measured = run_probe_bench(sets=sets, seed=seed)
    failures, lines = compare_against_baselines(
        measured,
        Path.cwd() if baseline_dir is None else baseline_dir,
        gate_ratio=gate_ratio,
        overhead_gate=overhead_gate,
    )
    return (1 if failures else 0), "\n".join(lines)

"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-fig1 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload serve-place --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload serve-admit --seed 1 --steadiness 10

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` spends half the time untraced and then replays the same
inputs with every layer boundary traced (see ``spans.py``); it prints
the self-time table and reports the per-layer metrics plus the tracing
overhead.  Every run checks the program's outputs outside the timed
region.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the metric
names and units declared in ``BENCHMARK.json``.

``--steadiness N`` repeats the workload N times with seeds ``seed`` ..
``seed+N-1`` and prints each metric's median, quartiles and spread
(quartile distance over median) against its bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-fig1", "serve-place", "serve-admit")
SCHEMES = ("ca-tpa", "ffd", "bfd", "wfd", "hybrid")
#: Layers whose self time is reported by name (``<layer>.self_s``).
SELF_TIME_LAYERS = (
    "partition.probe",
    "partition.attempt",
    "partition.order",
    "model.assign",
    "gen.generate",
    "metrics.accumulate",
    "engine",
    "experiments.sweep",
    "experiments.render",
    "model.taskset_build",
    "model.extend",
    "serve.commit",
    "analysis.reject_reason",
    "serve.decode",
    "serve.encode",
    "serve.flush",
)
#: Per-layer metrics that only the daemon workloads measure.
SERVE_ONLY = {
    "serve.unattributed_s": 0.0,
    "serve.place.accept_ratio": 0.0,
    "serve.overflow_503.count": 0,
    "serve.daemon_over_client_p95": 0.0,
}
#: Percentile reported as the tail: the highest one with at least ten
#: samples beyond it in a run (about 120 figure chunks for the sweep,
#: thousands of requests for the daemon).
TAIL_PERCENTILE = {"sweep-fig1": 90, "serve-place": 99, "serve-admit": 99}


def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads, metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end(raw: dict) -> dict:
    return {
        "setup_s": statistics.median(raw["setup"]),
        "throughput_per_s": raw["attempted"] / raw["busy_s"],
        "p50_ms": statistics.median(raw["latencies"]) * 1e3,
        "peak_rss_mb": max(raw["rss"]),
    }


def tail_ms(workload: str, raw: dict) -> float:
    cuts = statistics.quantiles(raw["latencies"], n=100, method="inclusive")
    return cuts[TAIL_PERCENTILE[workload] - 1] * 1e3


# ----------------------------------------------------------------------
# Per-layer metrics from aggregated spans
# ----------------------------------------------------------------------
def merge_dumps(paths: list[Path]) -> dict:
    """Sum the span aggregates the traced daemons wrote at exit."""
    merged = {"layers": {}, "inclusive_s": {}, "counts": {}, "window_s": 0.0}
    for path in paths:
        dump = json.loads(path.read_text())
        for name, rec in dump["layers"].items():
            into = merged["layers"].setdefault(name, dict.fromkeys(rec, 0))
            for field, value in rec.items():
                into[field] += value
        for section in ("inclusive_s", "counts"):
            for name, value in dump[section].items():
                merged[section][name] = merged[section].get(name, 0) + value
        merged["window_s"] += dump["window_s"]
    return merged


def per_layer(dump: dict, wall: float, unattributed: float, extra: dict) -> dict:
    layers, counts = dump["layers"], dump["counts"]

    def get(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    probes = get("partition.probe", "calls")
    rows = counts.get("partition.probe.rows", 0)
    attempts = get("partition.attempt", "calls")
    flushes = get("serve.flush", "calls")
    items = counts.get("serve.batch_items", 0)
    m = {f"{name}.self_s": float(get(name, "self_s")) for name in SELF_TIME_LAYERS}
    m.update(
        {
            "partition.probe.calls": probes,
            "partition.probe.rows_per_call": ratio(rows, probes),
            "partition.probe.feasible_ratio": ratio(
                counts.get("partition.probe.feasible", 0), rows
            ),
            "partition.attempt.calls": attempts,
            "partition.attempt.schedulable_ratio": ratio(
                counts.get("partition.attempt.schedulable", 0), attempts
            ),
            "analysis.reject_reason.calls": get("analysis.reject_reason", "calls"),
            "serve.flush.calls": flushes,
            "serve.batch_size.mean": ratio(items, flushes),
            "serve.queue_wait.mean_s": ratio(
                counts.get("serve.queue_wait_s", 0), items
            ),
            "trace.wall_s": wall,
            "trace.unattributed_s": unattributed,
        }
    )
    for scheme in SCHEMES:
        key = f"partition.{scheme}"
        m[f"{key}.total_s"] = dump["inclusive_s"].get(key, 0.0)
    m.update(SERVE_ONLY)
    m.update(extra)
    return m


def self_time_table(
    dump: dict, wall: float, unattributed: float, label: str
) -> list[str]:
    """Self time per layer; the rows add up to the traced wall time."""
    lines = [
        f"self time, traced {label} (wall {wall:.3f} s)",
        f"  {'layer':<26}{'calls':>9}{'self_s':>10}{'share':>8}",
    ]
    rows = sorted(dump["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    rows += [("(unattributed)", {"calls": "", "self_s": unattributed})]
    for name, rec in rows:
        seconds = rec["self_s"]
        share = seconds / wall
        lines.append(f"  {name:<26}{rec['calls']:>9}{seconds:>10.4f}{share:>8.1%}")
    total = sum(rec["self_s"] for _, rec in rows)
    lines.append(f"  {'total':<26}{'':>9}{total:>10.4f}{total / wall:>8.1%}")
    return lines


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def run_sweep_workload(seed: int, seconds: float, trace: bool) -> dict:
    import sweep

    raw = sweep.run(seed, seconds, trace, ROOT)
    if not trace:
        return {**raw, "metrics": end_to_end(raw)}
    dump = raw["tracer"].dump()
    wall = raw["traced_s"]
    # The root span is the benchmark's own chunk loop.
    unattributed = dump["layers"].pop("bench")["self_s"]
    extra = {
        "client.tail_ms": tail_ms("sweep-fig1", raw),
        "trace.overhead_ratio": wall / raw["busy_s"],
    }
    return {
        **raw,
        "metrics": per_layer(dump, wall, unattributed, extra),
        "table": self_time_table(dump, wall, unattributed, "sweep-fig1"),
    }


def run_serve_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import serve_load

    runner = serve_load.run_place if workload == "serve-place" else serve_load.run_admit
    serve_load.pin_client()
    if not trace:
        raw = runner(seed, seconds, ROOT)
        raw["setup"] = serve_load.extra_setup(ROOT, raw["setup"])
        return {**raw, "metrics": end_to_end(raw)}
    plain = runner(seed, seconds / 2, ROOT)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        if workload == "serve-place":
            traced = runner(seed, 0, ROOT, rounds=plain["rounds"], trace_dir=Path(tmp))
        else:
            count = plain["attempted"]
            traced = runner(seed, 0, ROOT, count=count, trace_dir=Path(tmp))
        dump = merge_dumps(traced["dumps"])
    layer_self = sum(rec["self_s"] for rec in dump["layers"].values())
    window = dump["window_s"]
    client_mean = statistics.fmean(traced["latencies"])
    extra = {
        "client.tail_ms": tail_ms(workload, plain),
        "trace.overhead_ratio": traced["busy_s"] / plain["busy_s"],
        "serve.unattributed_s": client_mean - layer_self / traced["attempted"],
        "serve.place.accept_ratio": plain.get("accept_ratio", 0.0),
        "serve.overflow_503.count": plain["overflow_503"] + traced["overflow_503"],
        "serve.daemon_over_client_p95": plain["daemon_over_client_p95"],
    }
    unattributed = window - layer_self
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "problems": plain["problems"] + traced["problems"],
        "latencies": plain["latencies"],
        "metrics": per_layer(dump, window, unattributed, extra),
        "table": self_time_table(dump, window, unattributed, f"{workload} daemon"),
    }


# ----------------------------------------------------------------------
# Steadiness
# ----------------------------------------------------------------------
def steadiness(
    workload: str, first_seed: int, runs: int, seconds: float, trace: int
) -> int:
    declared = load_spec()["per_layer" if trace else "end_to_end"]
    values: dict[str, list[float]] = {m["name"]: [] for m in declared}
    for seed in range(first_seed, first_seed + runs):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload]
        argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(
            argv, cwd=ROOT, capture_output=True, text=True, timeout=600
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    last = first_seed + runs - 1
    print(f"{workload}: {runs} runs, seeds {first_seed}..{last}, {seconds:g} s each")
    print(
        f"  {'metric':<36}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}"
    )
    summary = {}
    for m in declared:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = m.get("bound")
        verdict = ""
        if bound is not None:
            verdict = "steady" if spread < bound / 3 else "within bound"
            verdict = verdict if spread <= bound else "TOO NOISY"
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "values": vals}
        print(
            f"  {m['name']:<36}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.2%}"
            f"{'' if bound is None else bound:>7}  {verdict}"
        )
    print(json.dumps({"workload": workload, "runs": runs, "metrics": summary}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS", default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.steadiness:
        return steadiness(
            args.workload, args.seed, args.steadiness, args.seconds, args.trace
        )

    start = time.perf_counter()
    trace = bool(args.trace)
    if args.workload == "sweep-fig1":
        result = run_sweep_workload(args.seed, args.seconds, trace)
    else:
        result = run_serve_workload(args.workload, args.seed, args.seconds, trace)
    for line in result.get("table", []):
        print(line)
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}")
    print(
        f"{args.workload} seed {args.seed}: {result['attempted']} attempted, "
        f"{result['failed']} failed (error ratio "
        f"{result['failed'] / result['attempted']:.4f}), "
        f"p{TAIL_PERCENTILE[args.workload]} {tail_ms(args.workload, result):.3f} ms "
        f"over {len(result['latencies'])} untraced samples, "
        f"{time.perf_counter() - start:.1f} s in all"
    )
    metrics = result["metrics"]
    declared = load_spec()["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(metrics):
        raise RuntimeError("measured metrics differ from BENCHMARK.json's")
    line = {
        "correct": not result["problems"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

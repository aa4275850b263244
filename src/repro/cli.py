"""Command-line interface: regenerate any figure or table of the paper.

All figure subcommands run on the resumable :class:`~repro.engine.Engine`:
completed shards are checkpointed to a content-addressed store (default
``$REPRO_MC_STORE`` or ``~/.cache/repro-mc/store``), so an interrupted
``repro-mc all --sets 2000`` resumes from where it stopped and re-runs
answer instantly from cache.  ``--no-store`` opts out; ``--progress``
streams per-shard timing and cache hit/miss counters to stderr.

Examples
--------
Regenerate Figure 1 with 1000 task sets per data point on 8 workers::

    repro-mc fig1 --sets 1000 --jobs 8

Print the worked example (Tables I-III)::

    repro-mc tables

Run everything the paper reports (this is the long one; interrupting it
is safe — a re-run resumes from the checkpointed shards)::

    repro-mc all --sets 2000 --jobs 0 --progress

Fuzz the cross-layer invariant oracles (scalar vs. batch probes,
analysis vs. simulation, reports vs. counters) and shrink any failure
to a minimal JSON repro under ``--repro-dir``::

    repro-mc validate --sets 200 --seed 0

Instrumented runs write full provenance: ``--json DIR`` drops a
``<figure>.manifest.json`` run manifest next to each artifact,
``--metrics PATH`` dumps the merged counter/summary snapshot, and
``--log-json PATH`` streams structured JSONL events.  ``repro-mc
inspect out/fig1.json`` pretty-prints the manifest of a past run.

Diagnose where an instrumented run spent its time (critical path,
self-time table, flamegraph/Perfetto exports — all reconstructed
offline from the events file)::

    repro-mc fig1 --sets 1000 --jobs 8 --log-json events.jsonl
    repro-mc trace events.jsonl --report
    repro-mc trace events.jsonl --chrome trace.json --folded stacks.folded

Gate probe throughput/overhead against the committed ``BENCH_*.json``
baselines (exits non-zero on regression; CI runs this)::

    repro-mc bench compare
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from repro import bench as bench_defaults
from repro._version import __version__
from repro.engine import Engine, ResultStore, default_store_root
from repro.experiments.report import (
    format_allocation_trace,
    format_sweep,
    format_table1,
)
from repro.experiments.sweeps import FIGURES, definition_to_spec
from repro.experiments.tables import allocation_trace, paper_example_taskset
from repro.obs import (
    JsonlSink,
    MetricsRegistry,
    build_manifest,
    format_manifest,
    git_describe,
    load_manifest,
    manifest_path_for,
    new_run_id,
    write_manifest,
)
from repro.obs import runtime as obs_runtime
from repro.partition.backend import available_backends, get_backend
from repro.partition.catpa import CATPA
from repro.partition.classical import FirstFitDecreasing
from repro.partition.probe import use_probe_implementation
from repro.types import ReproError

__all__ = ["main", "build_parser", "version_string"]


def version_string() -> str:
    """``repro-mc <version>``, with git describe when in a work tree."""
    described = git_describe()
    base = f"repro-mc {__version__}"
    return f"{base} ({described})" if described else base


class _LazyOutput:
    """``--out`` target that opens (and truncates) only on first write.

    ``argparse.FileType("w")`` used to create/truncate the target at
    *parse* time, so a run that failed validation had already clobbered
    an existing report — and the handle was never explicitly closed.
    This wrapper is stdout when no path was given, otherwise a file that
    comes into existence with the first report byte and is closed by
    :func:`main`'s ``finally``.
    """

    def __init__(self, path: str | None):
        self.path = path
        self._file = None

    def write(self, text: str) -> int:
        if self.path is None:
            return sys.stdout.write(text)
        if self._file is None:
            self._file = open(self.path, "w")
        return self._file.write(text)

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()
        elif self.path is None:
            sys.stdout.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one ``repro-mc: error: ...`` line
    (exit 2) instead of the multi-line usage block."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return value


class _VersionAction(argparse.Action):
    """Like ``action="version"`` but resolves git describe lazily, so
    building the parser never shells out."""

    def __init__(self, option_strings, dest, **kwargs):
        kwargs.setdefault("nargs", 0)
        kwargs.setdefault("help", "print the version (with git describe) and exit")
        super().__init__(option_strings, dest, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        print(version_string())
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro-mc",
        description=(
            "Criticality-aware partitioning for multicore mixed-criticality "
            "systems: regenerate the paper's figures and tables."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[
            *FIGURES.keys(),
            "tables",
            "all",
            "dynamic",
            "validate",
            "simulate",
            "explain",
            "inspect",
            "trace",
            "bench",
            "serve",
            "top",
        ],
        help=(
            "which paper artifact to regenerate, 'dynamic' for the "
            "injected-event resilience sweep, 'validate' to fuzz the "
            "cross-layer invariant oracles, 'simulate' to run one "
            "partitioned EDF-VD simulation (optionally with an injected "
            "event script), 'explain' to decompose one admission decision "
            "(per-core Theorem-1 condition margins, headroom, rejection "
            "sensitivity), 'inspect' to pretty-print "
            "the run manifest of an existing artifact, 'trace' to analyse "
            "the span tree of an instrumented run, 'bench' to gate "
            "probe throughput against the committed baselines, 'serve' "
            "to run the online admission-control daemon, or 'top' for a "
            "live dashboard over a daemon URL or a sweep's events.jsonl"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help=(
            "artifact or manifest paths (inspect), an events.jsonl file or "
            "run directory (trace), the action 'compare' (bench), or a "
            "daemon URL / events.jsonl / run directory (top)"
        ),
    )
    parser.add_argument("--version", action=_VersionAction)
    parser.add_argument(
        "--sets",
        type=_positive_int,
        default=500,
        help="random task sets per data point (paper: 50000; default 500)",
    )
    parser.add_argument("--seed", type=int, default=2016, help="root RNG seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; 0 = all CPU cores (default 1)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help=(
            "write the report to PATH instead of stdout; the file is "
            "opened only when the first report line is ready, so a "
            "failing command never clobbers an existing report"
        ),
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write each figure's data as <DIR>/<figure>.csv",
    )
    parser.add_argument(
        "--json",
        metavar="DIR",
        nargs="?",
        const="-",
        default=None,
        help=(
            "also write each figure's SweepArtifact as <DIR>/<figure>.json; "
            "for 'explain', bare --json prints the explanation document to "
            "stdout instead of the text report (a DIR writes "
            "<DIR>/explain.json)"
        ),
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help=(
            "checkpoint store for completed shards (default: $REPRO_MC_STORE "
            "or ~/.cache/repro-mc/store); interrupted sweeps resume from it"
        ),
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="disable shard checkpointing (always recompute)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream per-shard timing and cache hit/miss counts to stderr",
    )
    parser.add_argument(
        "--log-json",
        metavar="PATH",
        default=None,
        help="stream structured run events (JSON lines) to PATH",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help=(
            "write the merged instrumentation counters/histograms of the "
            "whole invocation to PATH as JSON"
        ),
    )
    parser.add_argument(
        "--probe-impl",
        metavar="NAME",
        default=None,
        help=(
            "probe backend for every schedulability probe of this "
            "invocation (figures, validate, serve); one of: "
            f"{', '.join(available_backends())}.  Defaults: batch for "
            "sweeps/validate, incremental for serve.  All backends are "
            "pinned bit-identical, so results never depend on the choice"
        ),
    )
    parser.add_argument(
        "--repro-dir",
        metavar="DIR",
        default="counterexamples",
        help=(
            "where 'validate' writes shrunk counterexample JSON files "
            "(default: counterexamples/)"
        ),
    )
    sim_group = parser.add_argument_group("simulate options")
    sim_group.add_argument(
        "--taskset",
        metavar="PATH",
        default=None,
        help=(
            "simulate/explain: task-set JSON (repro-mc-taskset format) to "
            "partition (--scheme, --cores) and simulate or explain"
        ),
    )
    sim_group.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help=(
            "simulate: injected-event script JSON (repro-mc-events "
            "format); validated up front against the partition"
        ),
    )
    sim_group.add_argument(
        "--scheme",
        default="ca-tpa",
        help=(
            "simulate/explain: partitioning scheme from the registry "
            "(default ca-tpa)"
        ),
    )
    sim_group.add_argument(
        "--scenario",
        choices=("honest", "random", "level"),
        default="random",
        help=(
            "simulate: execution-demand scenario; 'random' overruns "
            "with --overrun-prob (default random)"
        ),
    )
    sim_group.add_argument(
        "--overrun-prob",
        type=float,
        default=0.1,
        help="simulate: per-job overrun probability of --scenario random",
    )
    sim_group.add_argument(
        "--cycles",
        type=float,
        default=20.0,
        help=(
            "simulate: horizon in multiples of the longest period "
            "(default 20)"
        ),
    )
    sim_group.add_argument(
        "--allow-infeasible",
        action="store_true",
        help=(
            "simulate: run cores that fail the Theorem-1 analysis under "
            "plain EDF instead of refusing (misses are then expected)"
        ),
    )
    dynamic_group = parser.add_argument_group("dynamic options")
    dynamic_group.add_argument(
        "--burst-factors",
        metavar="CSV",
        default=None,
        help=(
            "dynamic: comma-separated WCET burst factors to sweep "
            "(default 1.0,1.5,2.0,3.0,4.0)"
        ),
    )
    trace_group = parser.add_argument_group("trace options")
    trace_group.add_argument(
        "--report",
        action="store_true",
        help=(
            "trace: print the critical-path + self-time report "
            "(default when no export flag is given)"
        ),
    )
    trace_group.add_argument(
        "--folded",
        metavar="PATH",
        default=None,
        help=(
            "trace: write folded stacks (flamegraph.pl/speedscope input) "
            "to PATH ('-' for stdout)"
        ),
    )
    trace_group.add_argument(
        "--chrome",
        metavar="PATH",
        default=None,
        help=(
            "trace: write Chrome trace-event JSON (chrome://tracing / "
            "Perfetto) to PATH ('-' for stdout)"
        ),
    )
    trace_group.add_argument(
        "--top",
        type=int,
        default=15,
        help="trace: rows in the self-time table (default 15)",
    )
    serve_group = parser.add_argument_group("serve options")
    serve_group.add_argument(
        "--cores",
        type=int,
        default=4,
        help=(
            "serve/simulate/explain: cores of the target system (default 4)"
        ),
    )
    serve_group.add_argument(
        "--levels",
        type=int,
        default=2,
        help="serve: criticality levels K of the live system (default 2)",
    )
    serve_group.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve: bind address (default 127.0.0.1)",
    )
    serve_group.add_argument(
        "--port",
        type=int,
        default=8787,
        help="serve: TCP port; 0 picks an ephemeral port (default 8787)",
    )
    serve_group.add_argument(
        "--window-ms",
        type=float,
        default=1.0,
        help=(
            "serve: micro-batch coalescing window in milliseconds; "
            "concurrent requests arriving within it share one probe "
            "kernel call (default 1.0)"
        ),
    )
    serve_group.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="serve: max requests per flush (default 64)",
    )
    serve_group.add_argument(
        "--backlog",
        type=int,
        default=256,
        help=(
            "serve: bounded request queue size; a full queue answers 503 "
            "(default 256)"
        ),
    )
    serve_group.add_argument(
        "--slo",
        action="append",
        metavar="RULE",
        default=None,
        help=(
            "serve: SLO rule over the live window, e.g. "
            "'p95(serve.place.seconds) < 5ms' or "
            "'rate(serve.rejected_503) == 0'; repeatable.  Violations "
            "emit slo.alert events and bump the serve.slo.alerts counter"
        ),
    )
    top_group = parser.add_argument_group("top options")
    top_group.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="top: refresh interval in seconds (default 2.0)",
    )
    top_group.add_argument(
        "--once",
        action="store_true",
        help=(
            "top: render a single frame without terminal control codes "
            "and exit (for scripts/CI)"
        ),
    )
    bench_group = parser.add_argument_group("bench options")
    bench_group.add_argument(
        "--gate-ratio",
        type=float,
        default=None,
        help=(
            "bench compare: measured throughput/speedup must be at least "
            "this fraction of the committed baseline (default "
            f"{bench_defaults.DEFAULT_GATE_RATIO})"
        ),
    )
    bench_group.add_argument(
        "--overhead-gate",
        type=float,
        default=None,
        help=(
            "bench compare: max median disabled guarded/raw probe ratio "
            f"(default {bench_defaults.DEFAULT_OVERHEAD_GATE})"
        ),
    )
    bench_group.add_argument(
        "--baseline-dir",
        metavar="DIR",
        default=None,
        help=(
            "bench compare: directory holding the committed BENCH_*.json "
            "baselines (default: current directory)"
        ),
    )
    return parser


def _render_tables() -> str:
    ts = paper_example_taskset()
    out = [format_table1(ts), ""]
    ffd_steps = allocation_trace(FirstFitDecreasing(), ts, cores=2)
    out.append(
        format_allocation_trace("Table II: allocations under FFD", ts, ffd_steps)
    )
    out.append("")
    ca_steps = allocation_trace(CATPA(), ts, cores=2)
    out.append(
        format_allocation_trace("Table III: allocations under CA-TPA", ts, ca_steps)
    )
    return "\n".join(out)


def _progress_hook(stream):
    """Render engine events as human-readable stderr lines."""

    def hook(event: dict) -> None:
        if event["event"] == "point":
            print(
                f"[{event['figure']} {event['parameter']}={event['value']}]",
                file=stream,
            )
        elif event["event"] == "shard":
            stop = event["start"] + event["count"]
            source = (
                "cache hit"
                if event["cached"]
                else f"computed in {event['seconds']:.2f}s"
            )
            print(
                f"  shard [{event['start']}, {stop}) {source}",
                file=stream,
            )

    return hook


def _inspect(paths: list[str], out) -> int:
    """Pretty-print the run manifest next to each artifact path."""
    if not paths:
        print(
            "repro-mc inspect: pass at least one artifact or manifest path",
            file=sys.stderr,
        )
        return 2
    for i, raw in enumerate(paths):
        path = Path(raw)
        if not path.name.endswith(".manifest.json"):
            path = manifest_path_for(path)
        try:
            manifest = load_manifest(path)
        except ReproError as exc:
            print(f"repro-mc inspect: {exc}", file=sys.stderr)
            return 1
        if i:
            print("", file=out)
        print(format_manifest(manifest), file=out)
    return 0


def _write_export(target: str, text: str, out) -> None:
    """Write an exporter's output to a path, or stdout when ``-``."""
    if target == "-":
        print(text, file=out)
        return
    path = Path(target)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def _trace(args) -> int:
    """``repro-mc trace``: analyse/export the span tree of a past run."""
    from repro.obs import trace as trace_mod

    if len(args.paths) != 1:
        print(
            "repro-mc trace: pass exactly one events.jsonl file or run directory",
            file=sys.stderr,
        )
        return 2
    try:
        tree = trace_mod.load_tree(args.paths[0])
    except ReproError as exc:
        print(f"repro-mc trace: {exc}", file=sys.stderr)
        return 1
    if not tree.roots:
        print(
            f"repro-mc trace: no span events in {args.paths[0]} "
            "(was the run instrumented with --log-json?)",
            file=sys.stderr,
        )
        return 1
    if tree.orphans:
        print(
            f"repro-mc trace: warning: {len(tree.orphans)} orphan span(s) "
            "whose parent never closed; attached as extra roots",
            file=sys.stderr,
        )
    exported = False
    if args.folded is not None:
        _write_export(args.folded, trace_mod.to_folded(tree), args.out)
        exported = True
    if args.chrome is not None:
        chrome = json.dumps(trace_mod.to_chrome(tree), separators=(",", ":"))
        _write_export(args.chrome, chrome, args.out)
        exported = True
    if args.report or not exported:
        print(trace_mod.format_report(tree, top=args.top), file=args.out)
    return 0


def _bench(args) -> int:
    """``repro-mc bench compare``: quick probe bench vs committed baselines."""
    from repro import bench

    if args.paths != ["compare"]:
        print(
            "repro-mc bench: the only supported action is 'compare' "
            "(repro-mc bench compare)",
            file=sys.stderr,
        )
        return 2
    code, report = bench.run_compare(
        sets=args.sets if args.sets != 500 else bench.DEFAULT_SETS,
        seed=args.seed,
        baseline_dir=args.baseline_dir,
        gate_ratio=(
            bench.DEFAULT_GATE_RATIO if args.gate_ratio is None else args.gate_ratio
        ),
        overhead_gate=(
            bench.DEFAULT_OVERHEAD_GATE
            if args.overhead_gate is None
            else args.overhead_gate
        ),
    )
    print(report, file=args.out)
    return code


def _write_metrics(args, run_id, command, snapshot) -> None:
    """Dump the merged instrumentation snapshot to ``--metrics PATH``."""
    metrics_path = Path(args.metrics)
    metrics_path.parent.mkdir(parents=True, exist_ok=True)
    metrics_path.write_text(
        json.dumps(
            {
                "run_id": run_id,
                "repro_version": __version__,
                "command": command,
                "metrics": snapshot,
            },
            indent=2,
        )
        + "\n"
    )


def _read_taskset(command: str, path: str):
    """Load a task-set document for ``command``: ``(taskset, exit code)``.

    On success the code is 0.  Otherwise the taskset is ``None``, one
    stderr line names the error, and the code is 2 for a malformed
    document (a usage error) or 1 for an unreadable path.
    """
    from repro.model import load_taskset

    try:
        return load_taskset(path), 0
    except OSError as exc:
        print(
            f"repro-mc {command}: cannot read {path}: {exc.strerror}",
            file=sys.stderr,
        )
        return None, 1
    except (ReproError, ValueError) as exc:
        print(f"repro-mc {command}: bad task set {path}: {exc}", file=sys.stderr)
        return None, 2


def _simulate(args, command: list[str]) -> int:
    """``repro-mc simulate``: one partitioned EDF-VD run, optionally
    under an injected-event script (``--events``)."""
    from repro.model import load_events
    from repro.partition.registry import get_partitioner
    from repro.sched import (
        EventInjectionRuntime,
        HonestScenario,
        LevelScenario,
        RandomScenario,
        SystemSimulator,
        default_horizon,
    )

    if args.paths:
        print(
            f"repro-mc simulate: unexpected positional arguments {args.paths}",
            file=sys.stderr,
        )
        return 2
    if args.taskset is None:
        print(
            "repro-mc simulate: --taskset PATH is required",
            file=sys.stderr,
        )
        return 2
    taskset, code = _read_taskset("simulate", args.taskset)
    if taskset is None:
        return code
    result = get_partitioner(args.scheme).partition(taskset, args.cores)
    if not result.partition.is_complete:
        print(
            f"repro-mc simulate: {args.scheme} could not place every task "
            f"on {args.cores} cores (failed at task {result.failed_task}); "
            "nothing to simulate",
            file=sys.stderr,
        )
        return 1
    if not result.schedulable and not args.allow_infeasible:
        print(
            f"repro-mc simulate: the {args.scheme} partition fails the "
            "schedulability analysis; pass --allow-infeasible to simulate "
            "it anyway",
            file=sys.stderr,
        )
        return 1
    horizon = default_horizon(result.partition, cycles=args.cycles)
    runtime = None
    if args.events is not None:
        runtime = EventInjectionRuntime(
            load_events(args.events), horizon=horizon
        )
    scenario = {
        "honest": lambda: HonestScenario(),
        "random": lambda: RandomScenario(overrun_prob=args.overrun_prob),
        "level": lambda: LevelScenario(target=taskset.levels),
    }[args.scenario]()
    sim = SystemSimulator(
        result.partition,
        scenario,
        horizon=horizon,
        allow_infeasible=args.allow_infeasible,
        events=runtime,
    )

    instrumented = bool(args.log_json or args.metrics)
    run_id = new_run_id() if instrumented else None
    sink = JsonlSink(args.log_json) if args.log_json else None
    snapshot = None
    try:
        if instrumented:
            with obs_runtime.instrument(sink=sink, run_id=run_id) as state:
                obs_runtime.emit(
                    "cli.simulate_start",
                    taskset=args.taskset,
                    events=args.events,
                    scheme=args.scheme,
                )
                with obs_runtime.span("cli.simulate"):
                    report = sim.run(seed=args.seed)
                snapshot = state.registry.snapshot()
        else:
            report = sim.run(seed=args.seed)
    finally:
        if sink is not None:
            sink.close()

    lines = [
        f"simulate: {len(taskset)} tasks on {args.cores} cores "
        f"({args.scheme}), horizon {horizon:g}, scenario {args.scenario}, "
        f"seed {args.seed}",
        f"  schedulable offline: {result.schedulable}",
    ]
    for key, value in sorted(report.telemetry().items()):
        lines.append(f"  {key}: {value}")
    for key, value in sorted(report.event_telemetry().items()):
        lines.append(f"  {key}: {value}")
    print("\n".join(lines), file=args.out)
    if args.metrics is not None:
        _write_metrics(args, run_id, command, snapshot)
    return 0


def _run_dynamic(args, jobs, store, progress, command) -> int:
    """``repro-mc dynamic``: the injected-event resilience sweep."""
    from repro.experiments.dynamic import (
        DEFAULT_BURST_FACTORS,
        format_dynamic,
        run_dynamic_sweep,
    )

    if args.burst_factors is None:
        factors = DEFAULT_BURST_FACTORS
    else:
        try:
            factors = tuple(
                float(tok) for tok in args.burst_factors.split(",") if tok
            )
        except ValueError:
            print(
                f"repro-mc dynamic: --burst-factors must be a comma-"
                f"separated float list, got {args.burst_factors!r}",
                file=sys.stderr,
            )
            return 2
        if not factors:
            print(
                "repro-mc dynamic: --burst-factors is empty", file=sys.stderr
            )
            return 2
    instrumented = bool(args.log_json or args.metrics)
    run_id = new_run_id() if instrumented else None
    sink = JsonlSink(args.log_json) if args.log_json else None
    snapshot = None
    start = time.perf_counter()
    try:
        if instrumented:
            with obs_runtime.instrument(sink=sink, run_id=run_id) as state:
                obs_runtime.emit(
                    "cli.dynamic_start", sets=args.sets, seed=args.seed
                )
                with obs_runtime.span("cli.dynamic"):
                    result = run_dynamic_sweep(
                        factors,
                        sets=args.sets,
                        seed=args.seed,
                        jobs=jobs,
                        store=store,
                        progress=progress,
                        probe_impl=args.probe_impl,
                    )
                snapshot = state.registry.snapshot()
        else:
            result = run_dynamic_sweep(
                factors,
                sets=args.sets,
                seed=args.seed,
                jobs=jobs,
                store=store,
                progress=progress,
                probe_impl=args.probe_impl,
            )
    finally:
        if sink is not None:
            sink.close()
    print(format_dynamic(result), file=args.out)
    print(
        f"[dynamic regenerated in {time.perf_counter() - start:.1f}s]",
        file=args.out,
    )
    if args.json is not None:
        directory = Path(args.json)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "dynamic.json").write_text(
            json.dumps(result.to_dict(), indent=2) + "\n"
        )
    if args.metrics is not None:
        _write_metrics(args, run_id, command, snapshot)
    return 0


def _run_validate(args, jobs, store, progress, command) -> int:
    """``repro-mc validate``: fuzz the oracle registry, shrink failures."""
    from repro.validate import run_campaign, shrink_failure, write_repro

    instrumented = bool(args.log_json or args.metrics)
    run_id = new_run_id() if instrumented else None
    sink = JsonlSink(args.log_json) if args.log_json else None
    snapshot = None
    start = time.perf_counter()
    # --probe-impl rides the contextvar: the campaign engine resolves it
    # per evaluate() and forwards it into worker processes + shard keys.
    impl_ctx = (
        use_probe_implementation(args.probe_impl)
        if args.probe_impl
        else nullcontext()
    )
    try:
        with impl_ctx:
            if instrumented:
                with obs_runtime.instrument(sink=sink, run_id=run_id) as state:
                    obs_runtime.emit(
                        "cli.validate_start", sets=args.sets, seed=args.seed
                    )
                    with obs_runtime.span("cli.validate"):
                        result = run_campaign(
                            args.sets,
                            args.seed,
                            jobs=jobs,
                            store=store,
                            progress=progress,
                        )
                    snapshot = state.registry.snapshot()
            else:
                result = run_campaign(
                    args.sets, args.seed, jobs=jobs, store=store, progress=progress
                )
    finally:
        if sink is not None:
            sink.close()
    print(result.summary(), file=args.out)
    for failure in result.failures:
        doc = shrink_failure(failure)
        path = write_repro(doc, args.repro_dir)
        print(
            f"  repro written: {path} ({len(doc['taskset']['tasks'])} tasks)",
            file=args.out,
        )
    print(
        f"[validate done in {time.perf_counter() - start:.1f}s]",
        file=args.out,
    )
    if args.metrics is not None:
        metrics_path = Path(args.metrics)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(
            json.dumps(
                {
                    "run_id": run_id,
                    "repro_version": __version__,
                    "command": command,
                    "metrics": snapshot,
                },
                indent=2,
            )
            + "\n"
        )
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = list(argv) if argv is not None else sys.argv[1:]
    # The report target opens lazily on first write and is always closed
    # here, whatever exit path the subcommand takes.
    args.out = _LazyOutput(args.out)
    try:
        return _dispatch(args, command)
    finally:
        args.out.close()


def _serve(args, command: list[str]) -> int:
    """``repro-mc serve``: run the online admission-control daemon."""
    from repro.obs.live import parse_slo
    from repro.serve import ServeConfig
    from repro.serve.daemon import run_forever

    for rule in args.slo or []:
        try:
            parse_slo(rule)
        except ReproError as exc:
            print(f"repro-mc serve: {exc}", file=sys.stderr)
            return 2
    config = ServeConfig(
        cores=args.cores,
        levels=args.levels,
        host=args.host,
        port=args.port,
        window_ms=args.window_ms,
        max_batch=args.max_batch,
        backlog=args.backlog,
        probe_impl=args.probe_impl or "incremental",
        metrics_path=args.metrics,
        log_json=args.log_json,
        slo=args.slo or [],
        command=command,
    )
    return run_forever(config)


def _top(args) -> int:
    """``repro-mc top``: live dashboard over a daemon URL or events file."""
    from repro.obs.top import run_top

    if len(args.paths) != 1:
        print(
            "repro-mc top: pass exactly one daemon URL "
            "(e.g. http://127.0.0.1:8787) or an events.jsonl file / run "
            "directory",
            file=sys.stderr,
        )
        return 2
    try:
        return run_top(
            args.paths[0],
            interval=args.interval,
            once=args.once,
            stream=sys.stdout,
        )
    except ReproError as exc:
        print(f"repro-mc top: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0


def _explain_cmd(args) -> int:
    """``repro-mc explain``: decompose one admission decision.

    The task set comes from ``--taskset PATH`` or a single positional
    path.  ``--json`` (bare) prints the :class:`ProbeExplanation`
    document to stdout; ``--json DIR`` writes ``<DIR>/explain.json``
    and still prints the text report; neither prints the report only.
    """
    from repro.analysis.explain import explain_admission, format_explanation

    if args.taskset is not None and args.paths:
        print(
            "repro-mc explain: pass the task set either as --taskset PATH "
            "or as one positional path, not both",
            file=sys.stderr,
        )
        return 2
    path = args.taskset if args.taskset is not None else (
        args.paths[0] if len(args.paths) == 1 else None
    )
    if path is None:
        print(
            "repro-mc explain: exactly one task-set JSON is required "
            "(--taskset PATH or a positional path)",
            file=sys.stderr,
        )
        return 2
    taskset, code = _read_taskset("explain", path)
    if taskset is None:
        return code
    exp = explain_admission(
        taskset,
        args.cores,
        args.scheme,
        probe_impl=args.probe_impl,
    )
    if args.json == "-":
        print(
            json.dumps(exp.to_dict(), indent=2, allow_nan=False),
            file=args.out,
        )
        return 0
    if args.json is not None:
        out_dir = Path(args.json)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "explain.json").write_text(
            json.dumps(exp.to_dict(), indent=2, allow_nan=False) + "\n"
        )
    print(format_explanation(exp), file=args.out)
    return 0


def _dispatch(args, command: list[str]) -> int:
    if args.probe_impl is not None:
        try:
            get_backend(args.probe_impl)
        except ReproError as exc:
            print(f"repro-mc: {exc}", file=sys.stderr)
            return 2
    if args.experiment == "explain":
        try:
            return _explain_cmd(args)
        except ReproError as exc:
            print(f"repro-mc explain: {exc}", file=sys.stderr)
            return 1
    if args.json == "-":
        print(
            "repro-mc: bare --json (print to stdout) is only supported by "
            "'explain'; pass --json DIR",
            file=sys.stderr,
        )
        return 2
    if args.experiment == "inspect":
        return _inspect(args.paths, args.out)
    if args.experiment == "trace":
        return _trace(args)
    if args.experiment == "bench":
        return _bench(args)
    if args.experiment == "serve":
        return _serve(args, command)
    if args.experiment == "top":
        return _top(args)
    if args.experiment == "simulate":
        try:
            return _simulate(args, command)
        except ReproError as exc:
            print(f"repro-mc simulate: {exc}", file=sys.stderr)
            return 1
    if args.paths:
        print(
            f"repro-mc {args.experiment}: unexpected positional arguments "
            f"{args.paths} (paths are for the inspect subcommand)",
            file=sys.stderr,
        )
        return 2
    jobs = None if args.jobs == 0 else args.jobs
    names = list(FIGURES) + ["tables"] if args.experiment == "all" else [args.experiment]

    store = None
    if not args.no_store:
        root = Path(args.store).expanduser() if args.store else default_store_root()
        store = ResultStore(root)
    progress = _progress_hook(sys.stderr) if args.progress else None

    if args.experiment == "validate":
        return _run_validate(args, jobs, store, progress, command)
    if args.experiment == "dynamic":
        return _run_dynamic(args, jobs, store, progress, command)

    # One run id + (optional) shared event log per invocation; each
    # figure gets a fresh registry whose dump is merged into the totals
    # that --metrics writes at the end.
    instrumented = bool(args.log_json or args.metrics or args.json)
    run_id = new_run_id() if instrumented else None
    sink = JsonlSink(args.log_json) if args.log_json else None
    totals = MetricsRegistry()

    try:
        for name in names:
            start = time.perf_counter()
            if name == "tables":
                text = _render_tables()
            else:
                engine = Engine(
                    jobs=jobs,
                    store=store,
                    progress=progress,
                    probe_impl=args.probe_impl,
                )
                spec = definition_to_spec(
                    FIGURES[name](), sets=args.sets, seed=args.seed
                )
                figure_metrics = None
                if instrumented:
                    with obs_runtime.instrument(sink=sink, run_id=run_id) as state:
                        obs_runtime.emit("cli.figure_start", figure=name)
                        # The run's root span: every engine/worker span of
                        # this figure hangs off it, so `repro-mc trace`
                        # sees one rooted tree whose duration is the
                        # figure's wall clock.
                        with obs_runtime.span("cli.figure", figure=name):
                            artifact = engine.run(spec)
                        figure_metrics = state.registry.snapshot()
                        totals.merge(state.registry.dump())
                else:
                    artifact = engine.run(spec)
                text = format_sweep(artifact)
                if args.csv is not None:
                    from repro.experiments.export import save_sweep_csv

                    directory = Path(args.csv)
                    directory.mkdir(parents=True, exist_ok=True)
                    save_sweep_csv(artifact, directory / f"{name}.csv")
                if args.json is not None:
                    directory = Path(args.json)
                    directory.mkdir(parents=True, exist_ok=True)
                    artifact_path = directory / f"{name}.json"
                    artifact_path.write_text(artifact.to_json() + "\n")
                    manifest = build_manifest(
                        run_id=run_id,
                        command=command,
                        figure=name,
                        sets=args.sets,
                        seed=args.seed,
                        jobs=args.jobs,
                        artifact_path=artifact_path,
                        engine_stats=engine.stats.as_dict(),
                        metrics=figure_metrics,
                        events_log=args.log_json,
                    )
                    write_manifest(manifest_path_for(artifact_path), manifest)
                if args.progress:
                    s = engine.stats
                    print(
                        f"[{name}: {s.shards_planned} shards planned, "
                        f"{s.cache_hits} cache hits, {s.cache_misses} misses, "
                        f"{s.shards_computed} computed in {s.compute_seconds:.2f}s]",
                        file=sys.stderr,
                    )
            elapsed = time.perf_counter() - start
            print(text, file=args.out)
            print(f"[{name} regenerated in {elapsed:.1f}s]\n", file=args.out)
    finally:
        if sink is not None:
            sink.close()

    if args.metrics is not None:
        metrics_path = Path(args.metrics)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(
            json.dumps(
                {
                    "run_id": run_id,
                    "repro_version": __version__,
                    "command": command,
                    "metrics": totals.snapshot(),
                },
                indent=2,
            )
            + "\n"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

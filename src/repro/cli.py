"""Command-line interface: regenerate any figure or table of the paper.

All figure subcommands run on the resumable :class:`~repro.engine.Engine`:
completed shards are checkpointed to a content-addressed store (default
``$REPRO_MC_STORE`` or ``~/.cache/repro-mc/store``), so an interrupted
``repro-mc all --sets 2000`` resumes from where it stopped and re-runs
answer instantly from cache.  ``--no-store`` opts out; ``--progress``
streams per-shard timing and cache hit/miss counters to stderr.

Each subcommand has its own parser: a flag another subcommand owns is a
usage error (exit 2, one ``repro-mc <cmd>: error:`` line), as is a
numeric flag outside its range.

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
``--metrics PATH`` dumps the merged counter/histogram snapshot, and
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
import math
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from repro import bench
from repro._version import __version__
from repro.engine import Engine, ResultStore, default_store_root
from repro.experiments.report import (
    format_allocation_trace,
    format_sweep,
    format_table1,
)
from repro.experiments.sweeps import FIGURES, definition_to_spec
from repro.experiments.tables import allocation_trace, paper_example_taskset
from repro.model.io import MAX_LEVELS, load_events, load_taskset
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
from repro.obs.live import parse_slo
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
    """Reports a bad command line as one ``repro-mc[ <cmd>]: error: ...``
    line (exit 2) instead of the multi-line usage block; a subcommand
    reports the arguments it does not know under its own prog."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _checked(convert, accept, expected: str):
    """An argparse ``type=`` that converts with ``convert`` and rejects,
    as one usage-error line, any text that does not convert or any
    value ``accept`` refuses."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_non_negative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_level_count = _checked(
    int, lambda v: 1 <= v <= MAX_LEVELS, f"an integer in [1, {MAX_LEVELS}]"
)
_non_negative_float = _checked(
    float, lambda v: 0 <= v < math.inf, "a finite number >= 0"
)
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_probability = _checked(float, lambda v: 0 <= v <= 1, "a probability in [0, 1]")


def _probe_impl(name: str) -> str:
    try:
        get_backend(name)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return name


def _slo_rule(text: str) -> str:
    try:
        parse_slo(text)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _burst_factors(text: str) -> tuple[float, ...]:
    try:
        factors = tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a comma-separated float list, got {text!r}"
        ) from None
    if not factors:
        raise argparse.ArgumentTypeError("is empty")
    return factors


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


def _flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """An option group that subcommand parsers attach via ``parents=``."""
    return argparse.ArgumentParser(add_help=False, parents=parents)


def _probe_flags(default: str | None) -> argparse.ArgumentParser:
    """``--probe-impl``; ``None`` defers to the library default (batch)."""
    probe = _flags()
    probe.add_argument(
        "--probe-impl",
        metavar="NAME",
        type=_probe_impl,
        default=default,
        help=(
            "probe backend for every schedulability probe of this "
            f"invocation; one of: {', '.join(available_backends())} "
            f"(default {default or 'batch'}).  All backends are pinned "
            "bit-identical, so results never depend on the choice"
        ),
    )
    return probe


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro-mc",
        description=(
            "Criticality-aware partitioning for multicore mixed-criticality "
            "systems: regenerate the paper's figures and tables."
        ),
    )
    parser.add_argument("--version", action=_VersionAction)
    commands = parser.add_subparsers(dest="experiment", required=True)

    def command(name, handler, summary, *parents):
        sub = commands.add_parser(
            name, help=summary, description=summary, parents=parents
        )
        sub.set_defaults(handler=handler)
        return sub

    seed = _flags()
    seed.add_argument(
        "--seed", metavar="S", type=int, default=2016, help="root RNG seed"
    )
    sweep = _flags(seed)
    sweep.add_argument(
        "--sets",
        metavar="N",
        type=_positive_int,
        default=500,
        help="random task sets per data point (paper: 50000; default 500)",
    )
    sweep.add_argument(
        "--jobs",
        metavar="J",
        type=_non_negative_int,
        default=1,
        help="worker processes; 0 = all CPU cores (default 1)",
    )
    sweep.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help=(
            "checkpoint store for completed shards (default: $REPRO_MC_STORE "
            "or ~/.cache/repro-mc/store); interrupted sweeps resume from it"
        ),
    )
    sweep.add_argument(
        "--no-store",
        action="store_true",
        help="disable shard checkpointing (always recompute)",
    )
    sweep.add_argument(
        "--progress",
        action="store_true",
        help="stream per-shard timing and cache hit/miss counts to stderr",
    )
    report = _flags()
    report.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help=(
            "write the report to PATH instead of stdout; the file is "
            "opened only when the first report line is ready, so a "
            "failing command never clobbers an existing report"
        ),
    )
    obs = _flags()
    obs.add_argument(
        "--log-json",
        metavar="PATH",
        default=None,
        help="stream structured run events (JSON lines) to PATH",
    )
    obs.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help=(
            "write the merged instrumentation counters/histograms of the "
            "whole invocation to PATH as JSON"
        ),
    )
    probe = _probe_flags(None)
    cores = _flags()
    cores.add_argument(
        "--cores",
        metavar="M",
        type=_positive_int,
        default=4,
        help="cores of the target system (default 4)",
    )
    taskset = _flags()
    taskset.add_argument(
        "--taskset",
        metavar="PATH",
        required=True,
        help="task-set JSON (repro-mc-taskset format) to partition",
    )
    taskset.add_argument(
        "--scheme",
        metavar="NAME",
        default="ca-tpa",
        help="partitioning scheme from the registry (default ca-tpa)",
    )

    artifacts = {name: f"regenerate {name} of the paper" for name in FIGURES}
    artifacts["tables"] = "print the worked example (Tables I-III)"
    artifacts["all"] = "regenerate every figure and table"
    for name, summary in artifacts.items():
        figure = command(name, _run_figures, summary, sweep, report, obs, probe)
        figure.add_argument(
            "--csv",
            metavar="DIR",
            default=None,
            help="also write each figure's data as <DIR>/<figure>.csv",
        )
        figure.add_argument(
            "--json",
            metavar="DIR",
            default=None,
            help=(
                "also write each figure's SweepArtifact as <DIR>/<figure>.json "
                "plus its run manifest"
            ),
        )

    dynamic = command(
        "dynamic",
        _run_dynamic,
        "the injected-event resilience sweep",
        sweep,
        report,
        obs,
        probe,
    )
    dynamic.add_argument(
        "--burst-factors",
        metavar="CSV",
        type=_burst_factors,
        default=None,
        help="comma-separated WCET burst factors (default 1.0,1.5,2.0,3.0,4.0)",
    )
    dynamic.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also write the sweep's tallies as <DIR>/dynamic.json",
    )

    validate = command(
        "validate",
        _run_validate,
        "fuzz the cross-layer invariant oracles and shrink any failure",
        sweep,
        report,
        obs,
        probe,
    )
    validate.add_argument(
        "--repro-dir",
        metavar="DIR",
        default="counterexamples",
        help="where shrunk counterexample JSON files go (default: counterexamples/)",
    )

    simulate = command(
        "simulate",
        _simulate,
        "one partitioned EDF-VD simulation, optionally under injected events",
        taskset,
        cores,
        seed,
        report,
        obs,
    )
    simulate.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help=(
            "injected-event script JSON (repro-mc-events format); "
            "validated up front against the partition"
        ),
    )
    simulate.add_argument(
        "--scenario",
        choices=("honest", "random", "level"),
        default="random",
        help=(
            "execution-demand scenario; 'random' overruns with "
            "--overrun-prob (default random)"
        ),
    )
    simulate.add_argument(
        "--overrun-prob",
        metavar="P",
        type=_probability,
        default=0.1,
        help="per-job overrun probability of --scenario random (default 0.1)",
    )
    simulate.add_argument(
        "--cycles",
        metavar="C",
        type=_positive_float,
        default=20.0,
        help="horizon in multiples of the longest period (default 20)",
    )
    simulate.add_argument(
        "--allow-infeasible",
        action="store_true",
        help=(
            "run cores that fail the Theorem-1 analysis under plain EDF "
            "instead of refusing (misses are then expected)"
        ),
    )

    explain = command(
        "explain",
        _explain,
        "decompose one admission decision (per-core Theorem-1 margins, "
        "headroom, rejection sensitivity)",
        taskset,
        cores,
        probe,
        report,
    )
    explain.add_argument(
        "--json",
        metavar="DIR|-",
        nargs="?",
        const="-",
        default=None,
        help=(
            "bare --json (or '-') prints the explanation document instead "
            "of the text report; a DIR writes <DIR>/explain.json too"
        ),
    )

    inspect = command(
        "inspect", _inspect, "pretty-print the run manifest of artifacts", report
    )
    inspect.add_argument(
        "paths", nargs="+", metavar="PATH", help="artifact or manifest paths"
    )

    trace = command(
        "trace", _trace, "analyse the span tree of an instrumented run", report
    )
    trace.add_argument(
        "path", metavar="EVENTS", help="an events.jsonl file or run directory"
    )
    trace.add_argument(
        "--report",
        action="store_true",
        help=(
            "print the critical-path + self-time report (default when no "
            "export flag is given)"
        ),
    )
    trace.add_argument(
        "--folded",
        metavar="PATH",
        default=None,
        help=(
            "write folded stacks (flamegraph.pl/speedscope input) to PATH "
            "('-' for stdout)"
        ),
    )
    trace.add_argument(
        "--chrome",
        metavar="PATH",
        default=None,
        help=(
            "write Chrome trace-event JSON (chrome://tracing / Perfetto) "
            "to PATH ('-' for stdout)"
        ),
    )
    trace.add_argument(
        "--top",
        metavar="N",
        type=_positive_int,
        default=15,
        help="rows in the self-time table (default 15)",
    )

    bench_cmd = command(
        "bench",
        _bench,
        "gate probe throughput against the committed baselines",
        seed,
        report,
    )
    bench_cmd.add_argument("action", choices=["compare"], metavar="compare")
    bench_cmd.add_argument(
        "--sets",
        metavar="N",
        type=_positive_int,
        default=bench.DEFAULT_SETS,
        help=f"task sets of the quick bench (default {bench.DEFAULT_SETS})",
    )
    bench_cmd.add_argument(
        "--gate-ratio",
        metavar="R",
        type=float,
        default=bench.DEFAULT_GATE_RATIO,
        help=(
            "measured throughput/speedup must be at least this fraction "
            f"of the committed baseline (default {bench.DEFAULT_GATE_RATIO})"
        ),
    )
    bench_cmd.add_argument(
        "--overhead-gate",
        metavar="R",
        type=float,
        default=bench.DEFAULT_OVERHEAD_GATE,
        help=(
            "max median disabled guarded/raw probe ratio "
            f"(default {bench.DEFAULT_OVERHEAD_GATE})"
        ),
    )
    bench_cmd.add_argument(
        "--baseline-dir",
        metavar="DIR",
        default=None,
        help=(
            "directory holding the committed BENCH_*.json baselines "
            "(default: current directory)"
        ),
    )

    serve = command(
        "serve",
        _serve,
        "run the online admission-control daemon",
        cores,
        obs,
        _probe_flags("incremental"),
    )
    serve.add_argument(
        "--levels",
        metavar="K",
        type=_level_count,
        default=2,
        help="criticality levels K of the live system (default 2)",
    )
    serve.add_argument(
        "--host",
        metavar="H",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        metavar="P",
        type=int,
        default=8787,
        help="TCP port; 0 picks an ephemeral port (default 8787)",
    )
    serve.add_argument(
        "--window-ms",
        metavar="W",
        type=_non_negative_float,
        default=1.0,
        help=(
            "micro-batch coalescing window in milliseconds; concurrent "
            "requests arriving within it share one probe kernel call "
            "(default 1.0)"
        ),
    )
    serve.add_argument(
        "--max-batch",
        metavar="N",
        type=_positive_int,
        default=64,
        help="max requests per flush (default 64)",
    )
    serve.add_argument(
        "--backlog",
        metavar="N",
        type=_positive_int,
        default=256,
        help="bounded request queue size; a full queue answers 503 (default 256)",
    )
    serve.add_argument(
        "--slo",
        action="append",
        metavar="RULE",
        type=_slo_rule,
        default=None,
        help=(
            "SLO rule over the live window, e.g. "
            "'p95(serve.place.seconds) < 5ms' or "
            "'rate(serve.rejected_503) == 0'; repeatable.  Violations "
            "emit slo.alert events and bump the serve.slo.alerts counter"
        ),
    )

    top = command(
        "top",
        _top,
        "live dashboard over a daemon URL or a sweep's events.jsonl",
    )
    top.add_argument(
        "target",
        metavar="TARGET",
        help=(
            "daemon URL (e.g. http://127.0.0.1:8787), events.jsonl file "
            "or run directory"
        ),
    )
    top.add_argument(
        "--interval",
        metavar="S",
        type=_positive_float,
        default=2.0,
        help="refresh interval in seconds (default 2.0)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help=(
            "render a single frame without terminal control codes and "
            "exit (for scripts/CI)"
        ),
    )
    return parser


class _Telemetry:
    """One invocation's instrumentation: a run id, the ``--log-json``
    sink and the merged registry that ``--metrics`` dumps.

    Enabled by ``--log-json``/``--metrics`` (or ``enabled=True``);
    otherwise every :meth:`section` runs its block plainly.
    """

    def __init__(self, args, enabled: bool = False):
        self.args = args
        self.enabled = bool(enabled or args.log_json or args.metrics)
        self.run_id = new_run_id() if self.enabled else None
        self.sink = JsonlSink(args.log_json) if args.log_json else None
        self.totals = MetricsRegistry()
        #: Registry snapshot of the most recent section.
        self.snapshot = None

    def __enter__(self) -> _Telemetry:
        return self

    def __exit__(self, *exc_info) -> None:
        if self.sink is not None:
            self.sink.close()

    @contextmanager
    def section(self, name: str, span_fields: dict | None = None, **start_fields):
        """Instrument the block: emit ``<name>_start`` with
        ``start_fields``, then run it inside the ``name`` span — the
        root of every span the block opens — under a fresh registry
        that is merged into :attr:`totals`."""
        if not self.enabled:
            yield
            return
        with obs_runtime.instrument(sink=self.sink, run_id=self.run_id) as state:
            obs_runtime.emit(f"{name}_start", **start_fields)
            with obs_runtime.span(name, **(span_fields or {})):
                yield
            self.snapshot = state.registry.snapshot()
            self.totals.merge(state.registry.dump())

    def write_metrics(self) -> None:
        """Dump the merged snapshot to ``--metrics PATH``, if given."""
        if self.args.metrics is None:
            return
        metrics_path = Path(self.args.metrics)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(
            json.dumps(
                {
                    "run_id": self.run_id,
                    "repro_version": __version__,
                    "command": self.args.command,
                    "metrics": self.totals.snapshot(),
                },
                indent=2,
            )
            + "\n"
        )


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


def _engine_options(args):
    """``(jobs, store, progress)`` of the engine, from the sweep flags."""
    store = None
    if not args.no_store:
        root = Path(args.store).expanduser() if args.store else default_store_root()
        store = ResultStore(root)
    progress = _progress_hook(sys.stderr) if args.progress else None
    return args.jobs or None, store, progress


def _inspect(args) -> int:
    """Pretty-print the run manifest next to each artifact path."""
    for i, raw in enumerate(args.paths):
        path = Path(raw)
        if not path.name.endswith(".manifest.json"):
            path = manifest_path_for(path)
        try:
            manifest = load_manifest(path)
        except ReproError as exc:
            print(f"repro-mc inspect: {exc}", file=sys.stderr)
            return 1
        if i:
            print("", file=args.out)
        print(format_manifest(manifest), file=args.out)
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

    try:
        tree = trace_mod.load_tree(args.path)
    except ReproError as exc:
        print(f"repro-mc trace: {exc}", file=sys.stderr)
        return 1
    if not tree.roots:
        print(
            f"repro-mc trace: no span events in {args.path} "
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
    code, report = bench.run_compare(
        sets=args.sets,
        seed=args.seed,
        baseline_dir=args.baseline_dir,
        gate_ratio=args.gate_ratio,
        overhead_gate=args.overhead_gate,
    )
    print(report, file=args.out)
    return code


def _read_document(command: str, path: str, load, what: str):
    """``load(path)`` for ``command``: ``(document, exit code)``.

    On success the code is 0.  Otherwise the document is ``None``, one
    stderr line names the error, and the code is 2 for a malformed
    document (a usage error) or 1 for an unreadable path.
    """
    try:
        return load(path), 0
    except OSError as exc:
        print(
            f"repro-mc {command}: cannot read {path}: {exc.strerror}",
            file=sys.stderr,
        )
        return None, 1
    except ReproError as exc:
        print(f"repro-mc {command}: bad {what} {path}: {exc}", file=sys.stderr)
        return None, 2


def _simulate(args) -> int:
    """``repro-mc simulate``: one partitioned EDF-VD run, optionally
    under an injected-event script (``--events``)."""
    from repro.partition.registry import get_partitioner
    from repro.sched import (
        EventInjectionRuntime,
        HonestScenario,
        LevelScenario,
        RandomScenario,
        SystemSimulator,
        default_horizon,
    )

    taskset, code = _read_document("simulate", args.taskset, load_taskset, "task set")
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
        events, code = _read_document(
            "simulate", args.events, load_events, "event script"
        )
        if events is None:
            return code
        runtime = EventInjectionRuntime(events, horizon=horizon)
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

    with _Telemetry(args) as telemetry, telemetry.section(
        "cli.simulate",
        taskset=args.taskset,
        events=args.events,
        scheme=args.scheme,
    ):
        report = sim.run(seed=args.seed)

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
    telemetry.write_metrics()
    return 0


def _run_dynamic(args) -> int:
    """``repro-mc dynamic``: the injected-event resilience sweep."""
    from repro.experiments.dynamic import (
        DEFAULT_BURST_FACTORS,
        format_dynamic,
        run_dynamic_sweep,
    )

    jobs, store, progress = _engine_options(args)
    start = time.perf_counter()
    with _Telemetry(args) as telemetry, telemetry.section(
        "cli.dynamic", sets=args.sets, seed=args.seed
    ):
        result = run_dynamic_sweep(
            args.burst_factors or DEFAULT_BURST_FACTORS,
            sets=args.sets,
            seed=args.seed,
            jobs=jobs,
            store=store,
            progress=progress,
            probe_impl=args.probe_impl,
        )
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
    telemetry.write_metrics()
    return 0


def _run_validate(args) -> int:
    """``repro-mc validate``: fuzz the oracle registry, shrink failures."""
    from repro.validate import run_campaign, shrink_failure, write_repro

    jobs, store, progress = _engine_options(args)
    start = time.perf_counter()
    # --probe-impl rides the contextvar: the campaign engine resolves it
    # per evaluate() and forwards it into worker processes + shard keys.
    impl_ctx = (
        use_probe_implementation(args.probe_impl)
        if args.probe_impl
        else nullcontext()
    )
    with impl_ctx, _Telemetry(args) as telemetry, telemetry.section(
        "cli.validate", sets=args.sets, seed=args.seed
    ):
        result = run_campaign(
            args.sets, args.seed, jobs=jobs, store=store, progress=progress
        )
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
    telemetry.write_metrics()
    return 0 if result.ok else 1


def _serve(args) -> int:
    """``repro-mc serve``: run the online admission-control daemon."""
    from repro.serve import ServeConfig
    from repro.serve.daemon import run_forever

    config = ServeConfig(
        cores=args.cores,
        levels=args.levels,
        host=args.host,
        port=args.port,
        window_ms=args.window_ms,
        max_batch=args.max_batch,
        backlog=args.backlog,
        probe_impl=args.probe_impl,
        metrics_path=args.metrics,
        log_json=args.log_json,
        slo=args.slo or [],
        command=args.command,
    )
    return run_forever(config)


def _top(args) -> int:
    """``repro-mc top``: live dashboard over a daemon URL or events file."""
    from repro.obs.top import run_top

    try:
        return run_top(
            args.target,
            interval=args.interval,
            once=args.once,
            stream=sys.stdout,
        )
    except ReproError as exc:
        print(f"repro-mc top: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0


def _explain(args) -> int:
    """``repro-mc explain``: decompose one admission decision.

    ``--json`` (bare) prints the :class:`ProbeExplanation` document to
    stdout; ``--json DIR`` writes ``<DIR>/explain.json`` and still
    prints the text report; neither prints the report only.
    """
    from repro.analysis.explain import explain_admission, format_explanation

    taskset, code = _read_document("explain", args.taskset, load_taskset, "task set")
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


def _run_figures(args) -> int:
    """``repro-mc fig1..fig5|tables|all``: regenerate paper artifacts."""
    names = [*FIGURES, "tables"] if args.experiment == "all" else [args.experiment]
    jobs, store, progress = _engine_options(args)
    # One run id + (optional) shared event log per invocation; each
    # figure gets a fresh registry whose dump is merged into the totals
    # that --metrics writes at the end.  A --json run is instrumented
    # too, so its manifests carry each figure's metrics.
    with _Telemetry(args, enabled=args.json is not None) as telemetry:
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
                # The run's root span: every engine/worker span of this
                # figure hangs off it, so `repro-mc trace` sees one rooted
                # tree whose duration is the figure's wall clock.
                with telemetry.section(
                    "cli.figure", {"figure": name}, figure=name
                ):
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
                        run_id=telemetry.run_id,
                        command=args.command,
                        figure=name,
                        sets=args.sets,
                        seed=args.seed,
                        jobs=args.jobs,
                        artifact_path=artifact_path,
                        engine_stats=engine.stats.as_dict(),
                        metrics=telemetry.snapshot,
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
    telemetry.write_metrics()
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # A usage error (2), --help or --version (0); argparse has
        # already printed the message.
        return exc.code
    args.command = list(argv) if argv is not None else sys.argv[1:]
    # The report target opens lazily on first write and is always closed
    # here, whatever exit path the subcommand takes.
    args.out = _LazyOutput(getattr(args, "out", None))
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"repro-mc {args.experiment}: {exc}", file=sys.stderr)
        return 1
    finally:
        args.out.close()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

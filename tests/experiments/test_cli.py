"""CLI smoke tests: parser round-trips and tiny end-to-end runs."""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from repro import cli
from repro._version import __version__
from repro.engine import SweepArtifact
from repro.experiments import sweeps
from repro.model.io import MAX_LEVELS
from repro.obs import load_manifest
from tests import malformed

SUBCOMMANDS = ["fig1", "fig2", "fig3", "fig4", "fig5", "tables", "all", "validate"]
COMMANDS = [
    *SUBCOMMANDS,
    "dynamic",
    "simulate",
    "explain",
    "inspect",
    "trace",
    "bench",
    "serve",
    "top",
]


def _usage_error(capsys) -> str:
    """The stderr of a rejected command line: one line, no traceback."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


def _tiny_fig1():
    d = sweeps.figure1_nsu(nsu_values=(0.5,))
    base_point = d.point

    def small_point(v):
        config, schemes = base_point(v)
        return config.with_(cores=2, task_count_range=(5, 6)), schemes

    return dataclasses.replace(d, point=small_point)


@pytest.fixture
def tiny_fig1(monkeypatch, tmp_path):
    """Shrink fig1 and sandbox the checkpoint store."""
    monkeypatch.setitem(cli.FIGURES, "fig1", _tiny_fig1)
    monkeypatch.setenv("REPRO_MC_STORE", str(tmp_path / "store"))
    return tmp_path


class TestParser:
    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_every_subcommand_round_trips(self, name):
        args = cli.build_parser().parse_args([name, "--sets", "2", "--jobs", "2"])
        assert args.experiment == name
        assert args.sets == 2
        assert args.jobs == 2

    def test_defaults(self):
        args = cli.build_parser().parse_args(["fig1"])
        assert args.sets == 500
        assert args.seed == 2016
        assert args.jobs == 1
        assert args.csv is None
        assert args.json is None
        assert args.store is None
        assert not args.no_store
        assert not args.progress

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["fig9"])

    @pytest.mark.parametrize("sets", ["0", "-3", "many"])
    def test_non_positive_sets_rejected_in_one_line(self, sets, capsys):
        assert cli.main(["fig1", "--sets", sets]) == 2
        err = capsys.readouterr().err
        assert err == (
            "repro-mc fig1: error: argument --sets: "
            f"must be a positive integer, got {sets!r}\n"
        )

    def test_store_flags_round_trip(self, tmp_path):
        args = cli.build_parser().parse_args(
            ["fig2", "--store", str(tmp_path), "--progress"]
        )
        assert args.store == str(tmp_path)
        assert args.progress

    def test_no_store_round_trips(self):
        assert cli.build_parser().parse_args(["all", "--no-store"]).no_store

    def test_version_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert f"repro-mc {__version__}" in out

    def test_obs_flags_round_trip(self):
        args = cli.build_parser().parse_args(
            ["fig1", "--log-json", "events.jsonl", "--metrics", "m.json"]
        )
        assert args.log_json == "events.jsonl"
        assert args.metrics == "m.json"

    def test_inspect_accepts_paths(self):
        args = cli.build_parser().parse_args(["inspect", "a.json", "b.json"])
        assert args.experiment == "inspect"
        assert args.paths == ["a.json", "b.json"]

    def test_trace_flags_round_trip(self):
        args = cli.build_parser().parse_args(
            [
                "trace",
                "events.jsonl",
                "--report",
                "--folded",
                "out.folded",
                "--chrome",
                "out.json",
                "--top",
                "5",
            ]
        )
        assert args.experiment == "trace"
        assert args.path == "events.jsonl"
        assert args.report
        assert args.folded == "out.folded"
        assert args.chrome == "out.json"
        assert args.top == 5

    def test_bench_flags_round_trip(self):
        args = cli.build_parser().parse_args(
            [
                "bench",
                "compare",
                "--gate-ratio",
                "0.5",
                "--overhead-gate",
                "1.2",
                "--baseline-dir",
                "baselines",
            ]
        )
        assert args.experiment == "bench"
        assert args.action == "compare"
        assert args.gate_ratio == 0.5
        assert args.overhead_gate == 1.2
        assert args.baseline_dir == "baselines"

    def test_probe_impl_round_trips(self):
        args = cli.build_parser().parse_args(
            ["fig1", "--probe-impl", "incremental"]
        )
        assert args.probe_impl == "incremental"
        # Default: defer to the library's contextvar default.
        assert cli.build_parser().parse_args(["fig1"]).probe_impl is None


SIMULATE = ["simulate", "--taskset", "t.json"]


class TestUsageErrors:
    """Each subcommand owns its flags and their ranges: anything else
    exits 2 with one stderr line before any work starts."""

    @pytest.fixture(autouse=True)
    def _no_work(self, monkeypatch):
        # A command line that wrongly parses must not start a daemon or
        # a sweep inside the test run.
        def ran(args):
            pytest.fail(f"{args.experiment} ran")

        handlers = ("_run_figures", "_simulate", "_explain", "_trace", "_serve", "_top")
        for handler in handlers:
            monkeypatch.setattr(cli, handler, ran)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["serve", "--max-batch", "0"], "--max-batch"),
            (["serve", "--cores", "0"], "--cores"),
            (["serve", "--levels", "0"], "--levels"),
            (["serve", "--levels", str(MAX_LEVELS + 1)], "--levels"),
            (["serve", "--backlog", "0"], "--backlog"),
            (["serve", "--window-ms", "-1"], "--window-ms"),
            (["serve", "--window-ms", "nan"], "--window-ms"),
            (["fig1", "--jobs", "-2"], "--jobs"),
            (["trace", "e.jsonl", "--top", "0"], "--top"),
            (["top", "e.jsonl", "--interval", "0"], "--interval"),
            (SIMULATE + ["--cycles", "0"], "--cycles"),
            (SIMULATE + ["--overrun-prob", "-0.1"], "--overrun-prob"),
            (SIMULATE + ["--overrun-prob", "1.5"], "--overrun-prob"),
            (["explain", "--taskset", "t.json", "--cores", "0"], "--cores"),
        ],
    )
    def test_out_of_range_flag_exits_two(self, capsys, argv, flag):
        assert cli.main(argv) == 2
        err = _usage_error(capsys)
        assert err.startswith(f"repro-mc {argv[0]}: error: argument {flag}: must be")

    @pytest.mark.parametrize(
        "argv, dest, value",
        [
            (["serve", "--levels", str(MAX_LEVELS)], "levels", MAX_LEVELS),
            (["serve", "--window-ms", "0"], "window_ms", 0.0),
            (["fig1", "--jobs", "0"], "jobs", 0),
            (SIMULATE + ["--overrun-prob", "0"], "overrun_prob", 0.0),
            (SIMULATE + ["--overrun-prob", "1"], "overrun_prob", 1.0),
        ],
    )
    def test_inclusive_bounds_parse(self, argv, dest, value):
        assert getattr(cli.build_parser().parse_args(argv), dest) == value

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["serve", "--sets", "5"], "--sets"),
            (["serve", "--out", "r.txt"], "--out"),
            (["top", "x", "--jobs", "2"], "--jobs"),
            (["top", "x", "--out", "r.txt"], "--out"),
            (["inspect", "a.json", "--probe-impl", "batch"], "--probe-impl"),
            (["fig1", "--taskset", "t.json"], "--taskset"),
            (["tables", "--cores", "2"], "--cores"),
            (["validate", "--csv", "d"], "--csv"),
            (["bench", "compare", "--probe-impl", "batch"], "--probe-impl"),
            (SIMULATE + ["--sets", "3"], "--sets"),
            (["explain", "--taskset", "t.json", "--metrics", "m.json"], "--metrics"),
            (["trace", "e.jsonl", "--jobs", "2"], "--jobs"),
            (["fig1", "--bogus"], "--bogus"),
        ],
    )
    def test_flag_of_another_command_rejected(self, capsys, argv, flag):
        assert cli.main(argv) == 2
        assert _usage_error(capsys).startswith(
            f"repro-mc {argv[0]}: error: unrecognized arguments: {flag}"
        )

    def test_bare_json_needs_a_directory_outside_explain(self, capsys):
        assert cli.main(["fig1", "--json"]) == 2
        err = _usage_error(capsys)
        assert err.startswith("repro-mc fig1: error: argument --json:")

    @pytest.mark.parametrize("name", COMMANDS)
    def test_every_command_has_help(self, capsys, name):
        assert cli.main([name, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: repro-mc {name} ")


class TestProbeImpl:
    def test_unknown_backend_exits_two_with_clean_message(self, capsys):
        assert cli.main(["fig1", "--sets", "2", "--probe-impl", "simd"]) == 2
        err = capsys.readouterr().err
        assert "unknown probe implementation 'simd'" in err
        assert "available" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("impl", ["scalar", "incremental"])
    def test_backend_artifact_matches_default_run(self, tiny_fig1, capsys, impl):
        base_dir = tiny_fig1 / "default"
        impl_dir = tiny_fig1 / impl
        argv = ["fig1", "--sets", "2", "--no-store", "--json"]
        assert cli.main(argv + [str(base_dir)]) == 0
        assert cli.main(argv + [str(impl_dir), "--probe-impl", impl]) == 0
        assert (base_dir / "fig1.json").read_text() == (
            impl_dir / "fig1.json"
        ).read_text()

    def test_validate_accepts_probe_impl(self, capsys):
        assert (
            cli.main(
                [
                    "validate",
                    "--sets",
                    "2",
                    "--seed",
                    "0",
                    "--no-store",
                    "--probe-impl",
                    "incremental",
                ]
            )
            == 0
        )
        assert "all green" in capsys.readouterr().out


class TestMain:
    def test_fig1_tiny_run_exits_zero_with_markers(self, tiny_fig1, capsys):
        assert cli.main(["fig1", "--sets", "2"]) == 0
        out = capsys.readouterr().out
        assert "FIG1: Performance of the algorithms with varying NSU" in out
        assert "(2 task sets per data point, seed 2016)" in out
        assert "(a) Schedulability ratio" in out
        assert "(d) Workload imbalance Lambda" in out
        assert "[fig1 regenerated in" in out

    def test_tables_run_exits_zero_with_markers(self, capsys):
        assert cli.main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I: timing parameters" in out
        assert "Table II: allocations under FFD" in out
        assert "Table III: allocations under CA-TPA" in out

    def test_progress_reports_cache_hits_on_rerun(self, tiny_fig1, capsys):
        assert cli.main(["fig1", "--sets", "2", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[fig1 NSU=0.5]" in err
        assert "computed in" in err
        assert "1 misses" in err

        assert cli.main(["fig1", "--sets", "2", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "cache hit" in err
        assert "1 cache hits, 0 misses, 0 computed" in err

    def test_no_store_disables_checkpointing(self, tiny_fig1, capsys):
        assert cli.main(["fig1", "--sets", "2", "--no-store"]) == 0
        assert not (tiny_fig1 / "store").exists()

    def test_json_flag_writes_loadable_artifact(self, tiny_fig1, capsys):
        out_dir = tiny_fig1 / "artifacts"
        assert cli.main(["fig1", "--sets", "2", "--json", str(out_dir)]) == 0
        artifact = SweepArtifact.from_json((out_dir / "fig1.json").read_text())
        assert artifact.figure == "fig1"
        assert artifact.sets_per_point == 2
        assert artifact.values == (0.5,)

    def test_store_flag_overrides_env(self, tiny_fig1, capsys):
        custom = tiny_fig1 / "custom-store"
        assert cli.main(["fig1", "--sets", "2", "--store", str(custom)]) == 0
        assert custom.exists()
        assert not (tiny_fig1 / "store").exists()

    def test_stray_paths_on_figure_subcommand_rejected(self, capsys):
        assert cli.main(["fig1", "whoops.json"]) == 2
        assert "unrecognized arguments: whoops.json" in _usage_error(capsys)


class TestObservability:
    def test_json_flag_also_writes_manifest(self, tiny_fig1, capsys):
        out_dir = tiny_fig1 / "artifacts"
        argv = ["fig1", "--sets", "2", "--jobs", "2", "--json", str(out_dir)]
        assert cli.main(argv) == 0
        manifest = load_manifest(out_dir / "fig1.manifest.json")
        assert manifest["figure"] == "fig1"
        assert manifest["sets"] == 2
        assert manifest["seed"] == 2016
        assert manifest["command"] == argv
        assert manifest["repro_version"] == __version__
        assert manifest["artifact"]["path"] == "fig1.json"
        assert manifest["engine"]["shards_computed"] > 0
        assert manifest["engine"]["shard_seconds_hist"]["count"] > 0
        # Workload counters survived the worker-process boundary.
        counters = manifest["metrics"]["counters"]
        assert any(name.startswith("probe.") for name in counters)

    def test_metrics_flag_writes_merged_snapshot(self, tiny_fig1, capsys):
        metrics_path = tiny_fig1 / "out" / "metrics.json"
        assert (
            cli.main(
                ["fig1", "--sets", "2", "--no-store", "--metrics", str(metrics_path)]
            )
            == 0
        )
        payload = json.loads(metrics_path.read_text())
        assert payload["run_id"].startswith("r-")
        assert payload["metrics"]["counters"]["engine.shards_computed"] >= 1
        assert "summaries" not in payload["metrics"]
        shard = payload["metrics"]["histograms"]["engine.shard_seconds"]
        assert shard["count"] >= 1
        assert math.isfinite(shard["p95"])

    def test_log_json_streams_engine_events(self, tiny_fig1, capsys):
        log = tiny_fig1 / "events.jsonl"
        assert cli.main(["fig1", "--sets", "2", "--log-json", str(log)]) == 0
        events = [json.loads(line) for line in log.read_text().splitlines()]
        names = [e["event"] for e in events]
        assert names[0] == "cli.figure_start"
        assert "engine.point" in names
        assert "engine.shard" in names
        run_ids = {e["run_id"] for e in events}
        assert len(run_ids) == 1

    def test_instrumented_artifact_matches_plain_run(self, tiny_fig1, capsys):
        plain_dir = tiny_fig1 / "plain"
        inst_dir = tiny_fig1 / "instrumented"
        assert cli.main(["fig1", "--sets", "2", "--no-store", "--json", str(plain_dir)]) == 0
        # A --json run is itself instrumented; add every other flag too.
        assert (
            cli.main(
                [
                    "fig1",
                    "--sets",
                    "2",
                    "--no-store",
                    "--json",
                    str(inst_dir),
                    "--metrics",
                    str(tiny_fig1 / "m.json"),
                    "--log-json",
                    str(tiny_fig1 / "e.jsonl"),
                ]
            )
            == 0
        )
        assert (plain_dir / "fig1.json").read_text() == (
            inst_dir / "fig1.json"
        ).read_text()


class TestValidate:
    def test_green_campaign_exits_zero(self, capsys):
        assert cli.main(["validate", "--sets", "2", "--seed", "0", "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "all green" in out
        assert "[validate done in" in out

    def test_failing_campaign_writes_shrunk_repro_and_exits_one(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro import validate as validate_pkg
        from repro.gen import WorkloadConfig
        from repro.validate import CampaignResult, OracleFailure

        failure = OracleFailure(
            oracle="schedulable-no-miss",
            config=WorkloadConfig(cores=2, levels=2),
            schemes=(),
            seed=0,
            set_index=3,
            messages=("2 deadline miss(es)",),
            taskset_doc={},
        )
        result = CampaignResult(points=(), cases=1, checks=7, failures=(failure,))
        doc = {
            "oracle": "schedulable-no-miss",
            "seed": 0,
            "set_index": 3,
            "config": {"cores": 2, "levels": 2, "nsu": 0.6},
            "taskset": {"tasks": [{}, {}]},
        }
        monkeypatch.setattr(validate_pkg, "run_campaign", lambda *a, **k: result)
        monkeypatch.setattr(validate_pkg, "shrink_failure", lambda f: doc)
        repro_dir = tmp_path / "counterexamples"
        argv = ["validate", "--sets", "1", "--no-store", "--repro-dir", str(repro_dir)]
        assert cli.main(argv) == 1
        out = capsys.readouterr().out
        assert "1 FAILURE(S)" in out
        assert "2 deadline miss(es)" in out
        assert "(2 tasks)" in out
        written = list(repro_dir.glob("*.json"))
        assert len(written) == 1
        assert written[0].name == "schedulable-no-miss-seed0-set3-M2K2-nsu0p6.json"

    def test_metrics_snapshot_counts_validate_cases(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        argv = [
            "validate",
            "--sets",
            "1",
            "--seed",
            "0",
            "--no-store",
            "--metrics",
            str(metrics_path),
        ]
        assert cli.main(argv) == 0
        payload = json.loads(metrics_path.read_text())
        counters = payload["metrics"]["counters"]
        # 4 campaign configs x 1 set each, every registered oracle per case.
        from repro.validate import all_oracles

        assert counters["validate.cases"] == 4
        assert counters["validate.checks"] == 4 * len(all_oracles())


class TestTraceCommand:
    """End-to-end: instrumented run -> events.jsonl -> repro-mc trace."""

    def _traced_run(self, tiny_fig1, capsys, jobs="4"):
        log = tiny_fig1 / "events.jsonl"
        argv = [
            "fig1",
            "--sets",
            "2",
            "--jobs",
            jobs,
            "--no-store",
            "--log-json",
            str(log),
        ]
        assert cli.main(argv) == 0
        capsys.readouterr()
        return log

    def test_report_prints_rooted_critical_path(self, tiny_fig1, capsys):
        log = self._traced_run(tiny_fig1, capsys)
        assert cli.main(["trace", str(log), "--report"]) == 0
        out, err = capsys.readouterr()
        assert "Critical path" in out
        assert "cli.figure" in out
        assert "100.0%" in out
        assert "0 orphan(s)" in out
        assert "orphan span" not in err  # no warning emitted

    def test_critical_path_total_matches_wall_clock(self, tiny_fig1, capsys):
        from repro.obs import trace

        log = self._traced_run(tiny_fig1, capsys)
        tree = trace.load_tree(log)
        assert tree.orphans == []
        assert len(tree.roots) == 1
        # The events file brackets the run: its timestamp span is the
        # wall clock the root span must match within 5%.
        events = trace.read_events(log)
        wall = max(e["ts"] for e in events) - min(e["ts"] for e in events)
        root_seconds = trace.critical_path(tree)[0].seconds
        assert root_seconds == pytest.approx(wall, rel=0.05)

    def test_default_action_is_report(self, tiny_fig1, capsys):
        log = self._traced_run(tiny_fig1, capsys, jobs="1")
        assert cli.main(["trace", str(log)]) == 0
        assert "Critical path" in capsys.readouterr().out

    def test_folded_export(self, tiny_fig1, capsys):
        log = self._traced_run(tiny_fig1, capsys, jobs="1")
        folded_path = tiny_fig1 / "out" / "stacks.folded"
        assert cli.main(["trace", str(log), "--folded", str(folded_path)]) == 0
        lines = folded_path.read_text().splitlines()
        assert lines
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert stack.startswith("cli.figure")
            assert int(value) > 0

    def test_chrome_export_is_loadable(self, tiny_fig1, capsys):
        log = self._traced_run(tiny_fig1, capsys)
        chrome_path = tiny_fig1 / "out" / "trace.json"
        assert cli.main(["trace", str(log), "--chrome", str(chrome_path)]) == 0
        doc = json.loads(chrome_path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slices
        assert all(
            e["ts"] >= 0 and e["dur"] >= 0 and isinstance(e["tid"], int)
            for e in slices
        )
        assert any(e["name"] == "cli.figure" for e in slices)

    def test_trace_without_path_errors(self, capsys):
        assert cli.main(["trace"]) == 2
        err = _usage_error(capsys)
        assert err.startswith("repro-mc trace: error:")
        assert "required: EVENTS" in err

    def test_trace_missing_file_errors(self, tmp_path, capsys):
        assert cli.main(["trace", str(tmp_path / "nope.jsonl")]) == 1
        assert "no such events file" in capsys.readouterr().err

    def test_trace_spanless_events_file_errors(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text('{"event": "cli.figure_start", "run_id": "r-1"}\n')
        assert cli.main(["trace", str(log)]) == 1
        assert "no span events" in capsys.readouterr().err


class TestBenchCommand:
    def test_compare_passes_with_loose_gates(self, capsys):
        repo_root = Path(cli.__file__).resolve().parents[2]
        argv = [
            "bench",
            "compare",
            "--sets",
            "1",
            "--gate-ratio",
            "0.000001",
            "--overhead-gate",
            "1000",
            "--baseline-dir",
            str(repo_root),
        ]
        assert cli.main(argv) == 0
        assert "all gates passed" in capsys.readouterr().out

    def test_compare_fails_on_impossible_gate(self, capsys):
        repo_root = Path(cli.__file__).resolve().parents[2]
        argv = [
            "bench",
            "compare",
            "--sets",
            "1",
            "--gate-ratio",
            "1000000",
            "--baseline-dir",
            str(repo_root),
        ]
        assert cli.main(argv) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bench_without_compare_action_errors(self, capsys):
        assert cli.main(["bench"]) == 2
        assert "compare" in capsys.readouterr().err

    def test_sets_reaches_run_compare_verbatim(self, monkeypatch, capsys):
        from repro import bench

        seen = []

        def fake_run_compare(**kwargs):
            seen.append(kwargs["sets"])
            return 0, "ok"

        monkeypatch.setattr(bench, "run_compare", fake_run_compare)
        assert cli.main(["bench", "compare", "--sets", "500"]) == 0
        assert cli.main(["bench", "compare"]) == 0
        assert seen == [500, 12]
        assert bench.DEFAULT_SETS == 12


class TestInspect:
    def test_inspect_pretty_prints_manifest(self, tiny_fig1, capsys):
        out_dir = tiny_fig1 / "artifacts"
        assert cli.main(["fig1", "--sets", "2", "--json", str(out_dir)]) == 0
        capsys.readouterr()
        assert cli.main(["inspect", str(out_dir / "fig1.json")]) == 0
        out = capsys.readouterr().out
        assert "Run manifest (v1)" in out
        assert "figure        fig1" in out
        assert "Counters" in out

    def test_inspect_accepts_manifest_path_directly(self, tiny_fig1, capsys):
        out_dir = tiny_fig1 / "artifacts"
        assert cli.main(["fig1", "--sets", "2", "--json", str(out_dir)]) == 0
        capsys.readouterr()
        assert cli.main(["inspect", str(out_dir / "fig1.manifest.json")]) == 0
        assert "Run manifest (v1)" in capsys.readouterr().out

    def test_inspect_without_paths_errors(self, capsys):
        assert cli.main(["inspect"]) == 2
        err = _usage_error(capsys)
        assert err.startswith("repro-mc inspect: error:")
        assert "required: PATH" in err

    def test_inspect_missing_manifest_errors(self, tmp_path, capsys):
        assert cli.main(["inspect", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestLazyOut:
    """Regression: ``--out`` used ``argparse.FileType("w")``, which
    created/truncated the target at *parse* time — a command that then
    failed had already destroyed the previous report."""

    def test_failing_command_leaves_existing_out_untouched(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        out.write_text("previous good report\n")
        rc = cli.main(["inspect", str(tmp_path / "nope.json"), "--out", str(out)])
        capsys.readouterr()
        assert rc == 1
        assert out.read_text() == "previous good report\n"

    def test_parse_error_does_not_create_out(self, tmp_path, capsys):
        out = tmp_path / "never.txt"
        assert cli.main(["no-such-experiment", "--out", str(out)]) == 2
        assert "invalid choice: 'no-such-experiment'" in _usage_error(capsys)
        assert not out.exists()

    def test_successful_command_writes_out(self, tmp_path, capsys):
        out = tmp_path / "tables.txt"
        out.write_text("stale content")
        assert cli.main(["tables", "--out", str(out)]) == 0
        capsys.readouterr()
        text = out.read_text()
        assert "Table I" in text and "stale content" not in text


class TestServeParser:
    def test_serve_options_parse(self):
        args = cli.build_parser().parse_args(
            [
                "serve",
                "--cores", "8",
                "--levels", "3",
                "--port", "0",
                "--window-ms", "2.5",
                "--max-batch", "16",
                "--backlog", "32",
            ]
        )
        assert args.experiment == "serve"
        assert (args.cores, args.levels, args.port) == (8, 3, 0)
        assert (args.window_ms, args.max_batch, args.backlog) == (2.5, 16, 32)

    def test_serve_defaults(self):
        args = cli.build_parser().parse_args(["serve"])
        assert args.cores == 4 and args.port == 8787
        assert args.window_ms == 1.0 and args.backlog == 256


class TestServeSloFlags:
    def test_slo_rules_round_trip(self):
        args = cli.build_parser().parse_args(
            [
                "serve",
                "--slo",
                "p95(serve.place.seconds) < 5ms",
                "--slo",
                "rate(serve.rejected_503) == 0",
            ]
        )
        assert args.slo == [
            "p95(serve.place.seconds) < 5ms",
            "rate(serve.rejected_503) == 0",
        ]

    def test_no_slo_flag_defaults_to_none(self):
        assert cli.build_parser().parse_args(["serve"]).slo is None

    def test_bad_slo_rule_exits_two_before_binding(self, capsys):
        assert cli.main(["serve", "--slo", "p95(x) ~ 1"]) == 2
        assert "bad SLO rule" in capsys.readouterr().err


class TestTopCommand:
    def test_flags_round_trip(self):
        args = cli.build_parser().parse_args(
            ["top", "http://127.0.0.1:8787", "--interval", "0.5", "--once"]
        )
        assert args.experiment == "top"
        assert args.target == "http://127.0.0.1:8787"
        assert args.interval == 0.5
        assert args.once

    def test_requires_exactly_one_target(self, capsys):
        assert cli.main(["top"]) == 2
        err = _usage_error(capsys)
        assert err.startswith("repro-mc top: error:")
        assert "required: TARGET" in err
        assert cli.main(["top", "a", "b"]) == 2
        assert "unrecognized arguments: b" in _usage_error(capsys)

    def test_renders_once_from_sweep_events(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text(
            json.dumps(
                {
                    "run_id": "r1",
                    "seq": 1,
                    "ts": 100.0,
                    "event": "engine.run_plan",
                    "figure": "fig1",
                    "points": 1,
                    "sets_per_point": 2,
                }
            )
            + "\n"
        )
        assert cli.main(["top", str(log), "--once"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert "\x1b" not in out

    def test_missing_events_file_exits_one(self, tmp_path, capsys):
        assert cli.main(["top", str(tmp_path / "nope.jsonl"), "--once"]) == 1
        assert "no events file" in capsys.readouterr().err


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


class TestTasksetLoaders:
    """explain/simulate read task-set and event files through one decoder: a bad
    document exits 2 with one line, an unreadable path exits 1."""

    DEMO_SIMULATE = [
        "simulate",
        "--taskset",
        str(EXAMPLES / "taskset_demo.json"),
        "--cores",
        "2",
    ]

    def _doc(self, path, levels):
        path.write_text(
            json.dumps(
                {
                    "format": "repro-mc-taskset",
                    "version": 1,
                    "levels": levels,
                    "tasks": [{"period": 10, "wcets": [1, 2]}] * 2,
                }
            )
        )
        return str(path)

    @pytest.mark.parametrize("command", ["explain", "simulate"])
    @pytest.mark.parametrize("levels", [2000, 0, "2"])
    def test_bad_levels_exit_2_with_one_line(self, tmp_path, capsys, command, levels):
        path = self._doc(tmp_path / "ts.json", levels)
        assert cli.main([command, "--taskset", path, "--cores", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"repro-mc {command}: bad task set")
        assert "levels must be an integer in [1, 64]" in err

    def test_unreadable_path_exits_1_with_one_line(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert cli.main(["explain", "--taskset", missing, "--cores", "2"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot read" in err

    @pytest.mark.parametrize("row", malformed.rows("task", "taskset", "bytes"))
    def test_malformed_task_set_exits_2_with_one_line(self, tmp_path, capsys, row):
        path = tmp_path / "ts.json"
        path.write_bytes(malformed.file_bytes(row))
        assert cli.main(["explain", "--taskset", str(path), "--cores", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"repro-mc explain: bad task set {path}: ")

    @pytest.mark.parametrize("row", malformed.rows("events", "bytes"))
    def test_malformed_event_script_exits_2_with_one_line(self, tmp_path, capsys, row):
        path = tmp_path / "events.json"
        path.write_bytes(malformed.file_bytes(row))
        assert cli.main([*self.DEMO_SIMULATE, "--events", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"repro-mc simulate: bad event script {path}: ")

    def test_unreadable_event_script_exits_1_with_one_line(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert cli.main([*self.DEMO_SIMULATE, "--events", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"repro-mc simulate: cannot read {missing}: ")


class TestSimulateCommand:
    def _args(self, *extra):
        return [
            "simulate",
            "--taskset",
            str(EXAMPLES / "taskset_demo.json"),
            "--cores",
            "2",
            "--scenario",
            "honest",
            *extra,
        ]

    def test_flags_round_trip(self):
        args = cli.build_parser().parse_args(
            [
                "simulate",
                "--taskset",
                "t.json",
                "--events",
                "e.json",
                "--scheme",
                "ffd",
                "--scenario",
                "level",
                "--overrun-prob",
                "0.3",
                "--cycles",
                "5",
                "--allow-infeasible",
            ]
        )
        assert args.experiment == "simulate"
        assert args.taskset == "t.json"
        assert args.events == "e.json"
        assert args.scheme == "ffd"
        assert args.scenario == "level"
        assert args.overrun_prob == 0.3
        assert args.cycles == 5.0
        assert args.allow_infeasible

    def test_requires_taskset(self, capsys):
        assert cli.main(["simulate"]) == 2
        err = _usage_error(capsys)
        assert err.startswith("repro-mc simulate: error:")
        assert "required: --taskset" in err

    def test_stray_paths_rejected(self, capsys):
        assert cli.main(self._args("whoops.json")) == 2
        assert "unrecognized arguments: whoops.json" in _usage_error(capsys)

    def test_plain_run_prints_telemetry(self, capsys):
        assert cli.main(self._args()) == 0
        out = capsys.readouterr().out
        assert "simulate: 6 tasks on 2 cores (ca-tpa)" in out
        assert "schedulable offline: True" in out
        assert "sim.released:" in out
        assert "sim.event." not in out  # no script attached

    def test_events_run_reports_event_counters(self, capsys):
        assert cli.main(
            self._args("--events", str(EXAMPLES / "events_demo.json"))
        ) == 0
        out = capsys.readouterr().out
        assert "sim.event.injected: 6" in out
        assert "sim.event.core_failures: 1" in out
        assert "sim.event.arrival_admitted" in out

    def test_events_metrics_snapshot_matches_stdout(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        assert cli.main(
            self._args(
                "--events",
                str(EXAMPLES / "events_demo.json"),
                "--metrics",
                str(metrics),
            )
        ) == 0
        doc = json.loads(metrics.read_text())
        counters = doc["metrics"]["counters"]
        assert counters["sim.event.injected"] == 6
        histograms = doc["metrics"]["histograms"]
        assert "cli.simulate.seconds" in histograms
        assert "sim.events.compile.seconds" in histograms
        assert "sim.core_utilization_observed" in histograms

    def test_unschedulable_partition_needs_allow_infeasible(
        self, tmp_path, capsys
    ):
        # One core cannot hold the demo set; the honest message tells
        # the user which gate tripped.
        rc = cli.main(
            [
                "simulate",
                "--taskset",
                str(EXAMPLES / "taskset_demo.json"),
                "--cores",
                "1",
                "--scenario",
                "honest",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert (
            "could not place every task" in captured.err
            or "fails the schedulability analysis" in captured.err
        )


class TestDynamicCommand:
    def test_burst_factors_round_trip(self):
        args = cli.build_parser().parse_args(
            ["dynamic", "--burst-factors", "1.0,2.5"]
        )
        assert args.experiment == "dynamic"
        assert args.burst_factors == (1.0, 2.5)

    def test_bad_burst_factors_exit_two(self, capsys):
        assert cli.main(["dynamic", "--burst-factors", "1.0,oops"]) == 2
        assert "comma-separated float list" in _usage_error(capsys)
        assert cli.main(["dynamic", "--burst-factors", ","]) == 2
        assert "--burst-factors: is empty" in _usage_error(capsys)

    def test_tiny_run_prints_table_and_json(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert (
            cli.main(
                [
                    "dynamic",
                    "--sets",
                    "1",
                    "--burst-factors",
                    "2.0",
                    "--no-store",
                    "--json",
                    str(out_dir),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Dynamic scenario sweep" in out
        assert "[dynamic regenerated in" in out
        doc = json.loads((out_dir / "dynamic.json").read_text())
        assert doc["figure"] == "dynamic"
        assert doc["factors"] == [2.0]
        assert doc["rows"][0]["simulated"] == 1

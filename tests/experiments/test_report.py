"""Tests for text rendering of figures and tables."""

import dataclasses

import pytest

from repro.experiments import (
    allocation_trace,
    figure1_nsu,
    format_allocation_trace,
    format_panel,
    format_sweep,
    format_table1,
    paper_example_taskset,
    run_sweep,
)
from repro.partition import CATPA, FirstFitDecreasing


@pytest.fixture(scope="module")
def tiny_result():
    d = figure1_nsu(nsu_values=(0.4, 0.8))
    base_point = d.point

    def small_point(v):
        config, schemes = base_point(v)
        return config.with_(cores=2, task_count_range=(6, 10)), schemes

    return run_sweep(dataclasses.replace(d, point=small_point), sets=6, seed=2)


class TestSweepRendering:
    def test_all_panels_present(self, tiny_result):
        text = format_sweep(tiny_result)
        for marker in (
            "(a) Schedulability ratio",
            "(b) System utilization",
            "(c) Average core utilization",
            "(d) Workload imbalance",
        ):
            assert marker in text

    def test_values_and_schemes_in_panel(self, tiny_result):
        text = format_panel(tiny_result, "sched_ratio", "(a) ratio")
        assert "0.4" in text and "0.8" in text
        for scheme in ("ca-tpa", "ffd", "bfd", "wfd", "hybrid"):
            assert scheme in text

    def test_nan_rendered_as_dash(self, tiny_result):
        # At NSU=0.8 on 2 cores nothing is schedulable with these sizes;
        # quality panels show '-' rather than 'nan'.
        text = format_sweep(tiny_result)
        assert "nan" not in text

    def test_header_mentions_sets_and_seed(self, tiny_result):
        text = format_sweep(tiny_result)
        assert "6 task sets" in text
        assert "seed 2" in text


class TestTableRendering:
    def test_table1_lists_tasks(self):
        ts = paper_example_taskset()
        text = format_table1(ts)
        for i in range(1, 6):
            assert f"tau_{i}" in text
        assert "C_i" in text

    def test_ffd_trace_shows_failure(self):
        ts = paper_example_taskset()
        steps = allocation_trace(FirstFitDecreasing(), ts, cores=2)
        text = format_allocation_trace("Table II", ts, steps)
        assert "FAILS" in text

    def test_catpa_trace_shows_cores(self):
        ts = paper_example_taskset()
        steps = allocation_trace(CATPA(), ts, cores=2)
        text = format_allocation_trace("Table III", ts, steps)
        assert "FAILS" not in text
        assert "-> P1" in text and "-> P2" in text


class TestCLI:
    def test_tables_subcommand(self, capsys):
        from repro.cli import main

        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table III" in out

    def test_figure_subcommand_small(self, capsys, monkeypatch):
        from repro import cli
        from repro.experiments import sweeps

        # Shrink fig1 for the test.
        def tiny_fig1():
            d = sweeps.figure1_nsu(nsu_values=(0.5,))
            base_point = d.point

            def small_point(v):
                config, schemes = base_point(v)
                return config.with_(cores=2, task_count_range=(6, 8)), schemes

            return dataclasses.replace(d, point=small_point)

        monkeypatch.setitem(cli.FIGURES, "fig1", tiny_fig1)
        assert cli.main(["fig1", "--sets", "4"]) == 0
        out = capsys.readouterr().out
        assert "FIG1" in out
        assert "Schedulability ratio" in out

    def test_unknown_experiment_rejected(self, capsys):
        from repro.cli import main

        assert main(["not-a-figure"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "invalid choice: 'not-a-figure'" in err


class TestCLIOutput:
    def test_out_flag_writes_file(self, tmp_path, monkeypatch):
        import dataclasses as dc

        from repro import cli
        from repro.experiments import sweeps

        def tiny_fig2():
            d = sweeps.figure2_ifc(ifc_values=(0.3,))
            base_point = d.point

            def small_point(v):
                config, schemes = base_point(v)
                return config.with_(cores=2, task_count_range=(5, 6)), schemes

            return dc.replace(d, point=small_point)

        monkeypatch.setitem(cli.FIGURES, "fig2", tiny_fig2)
        out = tmp_path / "fig2.txt"
        assert cli.main(["fig2", "--sets", "3", "--out", str(out)]) == 0
        text = out.read_text()
        assert "FIG2" in text and "regenerated" in text

    def test_jobs_zero_means_all_cores(self, capsys, monkeypatch):
        import dataclasses as dc

        from repro import cli
        from repro.experiments import sweeps

        def tiny_fig1():
            d = sweeps.figure1_nsu(nsu_values=(0.5,))
            base_point = d.point

            def small_point(v):
                config, schemes = base_point(v)
                return config.with_(cores=2, task_count_range=(5, 6)), schemes

            return dc.replace(d, point=small_point)

        monkeypatch.setitem(cli.FIGURES, "fig1", tiny_fig1)
        assert cli.main(["fig1", "--sets", "2", "--jobs", "0"]) == 0
        assert "FIG1" in capsys.readouterr().out

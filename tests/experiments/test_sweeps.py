"""Tests for the figure sweep definitions."""

from unittest import mock

import pytest

from repro.experiments import (
    FIGURES,
    figure1_nsu,
    figure3_alpha,
    figure4_cores,
    figure5_levels,
    run_sweep,
)
from repro.model import MCTask


class TestDefinitions:
    def test_all_five_figures_registered(self):
        assert set(FIGURES) == {"fig1", "fig2", "fig3", "fig4", "fig5"}

    def test_fig1_points_vary_nsu(self):
        d = figure1_nsu()
        assert d.values == (0.4, 0.5, 0.6, 0.7, 0.8)
        config, schemes = d.point(0.7)
        assert config.nsu == 0.7
        assert len(schemes) == 5

    def test_fig3_points_vary_alpha_only_in_catpa(self):
        d = figure3_alpha()
        config, schemes = d.point(0.2)
        assert config.nsu == 0.6  # defaults untouched
        ca = [s for s in schemes if s.name == "ca-tpa"][0]
        assert dict(ca.kwargs)["alpha"] == 0.2

    def test_fig4_core_values_match_table_iv(self):
        assert figure4_cores().values == (2, 4, 8, 16, 32)

    def test_fig5_level_range(self):
        assert figure5_levels().values == (2, 3, 4, 5, 6)

    def test_custom_values(self):
        d = figure1_nsu(nsu_values=[0.5])
        assert d.values == (0.5,)


class TestRunSweep:
    @pytest.fixture(scope="class")
    def tiny_result(self):
        d = figure1_nsu(nsu_values=(0.4, 0.6))
        # shrink the workload so the test is fast
        base_point = d.point

        def small_point(v):
            config, schemes = base_point(v)
            return config.with_(cores=2, task_count_range=(8, 12)), schemes

        import dataclasses

        d = dataclasses.replace(d, point=small_point)
        return run_sweep(d, sets=10, seed=1)

    def test_rows_align_with_values(self, tiny_result):
        assert len(tiny_result.rows) == 2
        assert tiny_result.schemes == ["ca-tpa", "ffd", "bfd", "wfd", "hybrid"]

    def test_series_extraction(self, tiny_result):
        series = tiny_result.series("sched_ratio")
        assert set(series) == set(tiny_result.schemes)
        assert all(len(v) == 2 for v in series.values())

    def test_ratio_declines_with_load(self, tiny_result):
        series = tiny_result.series("sched_ratio")
        for scheme, values in series.items():
            assert values[0] >= values[1], scheme


def test_lockstep_sweep_builds_no_task_objects():
    # Task sets stay arrays from the generator to the probe kernel: an
    # uninstrumented jobs=1 sweep never constructs one MCTask.
    calls = []
    post_init = MCTask.__post_init__

    def counting(task):
        calls.append(task)
        post_init(task)

    with mock.patch.object(MCTask, "__post_init__", counting):
        artifact = run_sweep(figure1_nsu(), sets=1, seed=7, jobs=1)
    assert len(artifact.rows) == 5
    assert calls == []

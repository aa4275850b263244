"""Unit tests for the bench-compare gate logic (no timing involved)."""

from __future__ import annotations

import json

import pytest

from repro import bench


def _measured(
    pps=10_000.0,
    speedup=3.0,
    overhead=1.01,
    inc_pps=3_000_000.0,
    inc_speedup=3.2,
    serve_qps=1_000.0,
    serve_p95=0.005,
    lockstep_speedup=9.0,
):
    return {
        "end_to_end": {
            "benchmark": "fig1-sweep",
            "batch": {"seconds": 1.0, "sets_per_sec": 20.0},
            "lockstep": {"seconds": 0.1, "sets_per_sec": 20.0 * lockstep_speedup},
            "lockstep_speedup": lockstep_speedup,
        },
        "serve": {
            "benchmark": "serve-burst",
            "places": 256,
            "qps": serve_qps,
            "place_p95_s": serve_p95,
        },
        "benchmark": "probe-throughput-quick",
        "sets": 2,
        "seed": 2016,
        "probes": 100,
        "batch": {"seconds": 0.01, "probes_per_sec": pps},
        "scalar": {"seconds": 0.03, "probes_per_sec": pps / speedup},
        "speedup": speedup,
        "placement": {
            "benchmark": "placement-loop",
            "sets": 2,
            "seed": 2016,
            "task_count_range": list(bench.PLACEMENT_TASK_RANGE),
            "hypotheses": 100_000,
            "batch": {
                "seconds": 0.1,
                "probes_per_sec": inc_pps / inc_speedup,
            },
            "incremental": {"seconds": 0.03, "probes_per_sec": inc_pps},
            "speedup": inc_speedup,
        },
        "disabled_overhead_ratio": overhead,
        "overhead_samples": 8,
    }


@pytest.fixture
def baselines(tmp_path):
    """Committed-baseline stand-ins: 12000 pps, 3x speedup, 1.01 overhead."""
    (tmp_path / bench.PARTITION_BASELINE).write_text(
        json.dumps(
            {
                "probe": {
                    "batch": {"probes_per_sec": 12_000.0},
                    "speedup": 3.0,
                },
                "placement": {
                    "incremental": {"probes_per_sec": 3_000_000.0},
                    "speedup": 3.2,
                },
                "end_to_end": {"lockstep_speedup": 9.0},
            }
        )
    )
    (tmp_path / bench.OVERHEAD_BASELINE).write_text(
        json.dumps({"disabled_overhead_ratio": 1.01, "gate": 1.02})
    )
    (tmp_path / bench.SERVE_BASELINE).write_text(
        json.dumps({"qps": 1_000.0, "place_p95_s": 0.005})
    )
    return tmp_path


class TestCompare:
    def test_all_gates_pass(self, baselines):
        failures, lines = bench.compare_against_baselines(
            _measured(), baselines, gate_ratio=0.5, overhead_gate=1.10
        )
        assert failures == []
        assert any("all gates passed" in line for line in lines)

    def test_throughput_regression_fails(self, baselines):
        failures, _ = bench.compare_against_baselines(
            _measured(pps=1_000.0), baselines, gate_ratio=0.5, overhead_gate=1.10
        )
        assert any("batch probes/sec" in f for f in failures)

    def test_speedup_regression_fails(self, baselines):
        failures, _ = bench.compare_against_baselines(
            _measured(speedup=1.0), baselines, gate_ratio=0.5, overhead_gate=1.10
        )
        assert any("speedup" in f for f in failures)

    def test_overhead_regression_fails(self, baselines):
        failures, _ = bench.compare_against_baselines(
            _measured(overhead=1.5), baselines, gate_ratio=0.5, overhead_gate=1.10
        )
        assert any("disabled overhead" in f for f in failures)

    def test_gate_ratio_is_configurable(self, baselines):
        # 6000 pps vs 12000 committed: fails at 0.9, passes at 0.4.
        strict, _ = bench.compare_against_baselines(
            _measured(pps=6_000.0), baselines, gate_ratio=0.9, overhead_gate=1.10
        )
        loose, _ = bench.compare_against_baselines(
            _measured(pps=6_000.0), baselines, gate_ratio=0.4, overhead_gate=1.10
        )
        assert strict and not loose

    def test_incremental_throughput_regression_fails(self, baselines):
        failures, _ = bench.compare_against_baselines(
            _measured(inc_pps=100_000.0),
            baselines,
            gate_ratio=0.5,
            overhead_gate=1.10,
        )
        assert any("incremental probes/sec" in f for f in failures)

    def test_incremental_slower_than_batch_fails(self, baselines):
        # 0.9x "speedup" clears gate_ratio x committed (0.4 x 3.2) but
        # not the absolute incremental >= batch floor.
        failures, _ = bench.compare_against_baselines(
            _measured(inc_speedup=0.9),
            baselines,
            gate_ratio=0.4,
            overhead_gate=1.10,
        )
        assert any("incremental/batch speedup" in f for f in failures)

    def test_lockstep_regression_fails(self, baselines):
        # 3x clears the absolute floor but not gate_ratio x committed 9x.
        failures, _ = bench.compare_against_baselines(
            _measured(lockstep_speedup=3.0),
            baselines,
            gate_ratio=0.5,
            overhead_gate=1.10,
        )
        assert any("lockstep/batch sweep speedup" in f for f in failures)

    def test_lockstep_slower_than_batch_fails(self, baselines):
        # 0.95x clears gate_ratio x committed (0.1 x 9) but not the
        # absolute lockstep >= per-set batch floor.
        failures, _ = bench.compare_against_baselines(
            _measured(lockstep_speedup=0.95),
            baselines,
            gate_ratio=0.1,
            overhead_gate=1.10,
        )
        assert any("lockstep/batch sweep speedup" in f for f in failures)

    def test_missing_lockstep_row_is_a_failure(self, baselines):
        stale = json.loads((baselines / bench.PARTITION_BASELINE).read_text())
        del stale["end_to_end"]
        (baselines / bench.PARTITION_BASELINE).write_text(json.dumps(stale))
        failures, _ = bench.compare_against_baselines(
            _measured(), baselines, gate_ratio=0.5, overhead_gate=1.10
        )
        assert any("end_to_end lockstep row" in f for f in failures)

    def test_missing_placement_section_is_a_failure(self, baselines):
        stale = json.loads(
            (baselines / bench.PARTITION_BASELINE).read_text()
        )
        del stale["placement"]
        (baselines / bench.PARTITION_BASELINE).write_text(json.dumps(stale))
        failures, _ = bench.compare_against_baselines(
            _measured(), baselines, gate_ratio=0.5, overhead_gate=1.10
        )
        assert any("placement" in f for f in failures)

    def test_missing_baselines_are_failures(self, tmp_path):
        failures, lines = bench.compare_against_baselines(
            _measured(), tmp_path, gate_ratio=0.5, overhead_gate=1.10
        )
        assert any(bench.PARTITION_BASELINE in f for f in failures)
        assert any(bench.OVERHEAD_BASELINE in f for f in failures)
        assert any(bench.SERVE_BASELINE in f for f in failures)

    def test_serve_qps_regression_fails(self, baselines):
        failures, _ = bench.compare_against_baselines(
            _measured(serve_qps=100.0),
            baselines,
            gate_ratio=0.5,
            overhead_gate=1.10,
        )
        assert any("serve qps" in f for f in failures)

    def test_serve_p95_latency_regression_fails(self, baselines):
        # Ceiling is committed / gate_ratio = 0.005 / 0.5 = 0.010s.
        failures, _ = bench.compare_against_baselines(
            _measured(serve_p95=0.011),
            baselines,
            gate_ratio=0.5,
            overhead_gate=1.10,
        )
        assert any("serve place p95" in f for f in failures)

    def test_serve_p95_just_under_ceiling_passes(self, baselines):
        failures, _ = bench.compare_against_baselines(
            _measured(serve_p95=0.009),
            baselines,
            gate_ratio=0.5,
            overhead_gate=1.10,
        )
        assert not any("serve" in f for f in failures)

    def test_report_lines_mark_failures(self, baselines):
        _, lines = bench.compare_against_baselines(
            _measured(pps=1.0), baselines, gate_ratio=0.5, overhead_gate=1.10
        )
        report = "\n".join(lines)
        assert "FAIL" in report
        assert "gate(s) FAILED" in report


class TestRunProbeBench:
    def test_tiny_measurement_has_expected_shape(self, monkeypatch):
        monkeypatch.setattr(bench, "DEFAULT_E2E_SETS", 1)
        measured = bench.run_probe_bench(sets=1)
        assert measured["probes"] > 0
        assert measured["batch"]["probes_per_sec"] > 0
        assert measured["scalar"]["probes_per_sec"] > 0
        assert measured["speedup"] > 0
        assert measured["disabled_overhead_ratio"] > 0
        placement = measured["placement"]
        assert placement["hypotheses"] > 0
        assert placement["batch"]["probes_per_sec"] > 0
        assert placement["incremental"]["probes_per_sec"] > 0
        assert placement["speedup"] > 0
        end_to_end = measured["end_to_end"]
        for row in ("scalar", "batch", "lockstep"):
            assert end_to_end[row]["sets_per_sec"] > 0
        assert end_to_end["lockstep_speedup"] > 0
        serve = measured["serve"]
        assert serve["qps"] > 0
        assert serve["accepted"] > 0
        assert 0 < serve["place_p50_s"] <= serve["place_p95_s"]

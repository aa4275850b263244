"""Tests for run manifests: build/write/load/inspect rendering."""

from __future__ import annotations

import json

import pytest

from repro._version import __version__
from repro.obs import (
    MANIFEST_VERSION,
    build_manifest,
    format_manifest,
    git_describe,
    load_manifest,
    manifest_path_for,
    write_manifest,
)
from repro.types import ReproError


def _manifest(tmp_path, **overrides):
    artifact = tmp_path / "fig1.json"
    artifact.write_text('{"figure": "fig1"}\n')
    kwargs = dict(
        run_id="r-test",
        command=["fig1", "--sets", "4"],
        figure="fig1",
        sets=4,
        seed=2016,
        jobs=2,
        artifact_path=artifact,
        engine_stats={
            "points": 5,
            "shards_planned": 10,
            "cache_hits": 1,
            "cache_misses": 9,
            "shards_computed": 9,
            "compute_seconds": 1.25,
            "worker_retries": 0,
            "shard_seconds_hist": {
                "count": 9,
                "total": 1.25,
                "min": 0.1,
                "max": 0.3,
                "p50": 0.12,
                "p95": 0.29,
                "p99": 0.3,
                "overflow": 0,
            },
        },
        metrics={"counters": {"probe.cores_probed": 42}, "histograms": {}},
        events_log="events.jsonl",
    )
    kwargs.update(overrides)
    return build_manifest(**kwargs)


class TestBuild:
    def test_contains_provenance(self, tmp_path):
        m = _manifest(tmp_path)
        assert m["manifest_version"] == MANIFEST_VERSION
        assert m["run_id"] == "r-test"
        assert m["repro_version"] == __version__
        assert m["artifact"]["path"] == "fig1.json"
        assert len(m["artifact"]["sha256"]) == 64

    def test_minimal_build(self):
        m = build_manifest(run_id="r-min")
        assert m["artifact"] is None
        assert m["figure"] is None

    def test_git_describe_is_string_or_none(self):
        described = git_describe()
        assert described is None or (isinstance(described, str) and described)


class TestRoundtrip:
    def test_write_load(self, tmp_path):
        m = _manifest(tmp_path)
        path = manifest_path_for(tmp_path / "fig1.json")
        assert path.name == "fig1.manifest.json"
        write_manifest(path, m)
        assert load_manifest(path) == m

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.manifest.json"
        path.write_text(json.dumps({"manifest_version": 999}))
        with pytest.raises(ReproError, match="unsupported manifest version"):
            load_manifest(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            load_manifest(tmp_path / "absent.manifest.json")

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.manifest.json"
        path.write_text("{not json")
        with pytest.raises(ReproError, match="cannot read"):
            load_manifest(path)


class TestFormat:
    def test_renders_key_sections(self, tmp_path):
        text = format_manifest(_manifest(tmp_path))
        assert "run_id        r-test" in text
        assert "figure        fig1" in text
        assert "repro-mc fig1 --sets 4" in text
        assert "1 cache hits" in text
        assert "probe.cores_probed" in text
        assert "shard_seconds" in text

    def test_counter_truncation(self, tmp_path):
        metrics = {
            "counters": {f"c{i:03}": i for i in range(50)},
            "histograms": {},
        }
        text = format_manifest(_manifest(tmp_path, metrics=metrics), top=5)
        assert "top 5 of 50" in text
        # Ranked by value descending: c049 shown, c001 cut.
        assert "c049" in text
        assert "c001" not in text

    def test_renders_engine_histogram_row(self, tmp_path):
        m = _manifest(tmp_path)
        m["engine"]["shard_seconds_hist"] = {
            "count": 9,
            "total": 1.25,
            "min": 0.1,
            "max": 0.3,
            "p50": 0.12,
            "p95": 0.29,
            "p99": 0.3,
            "overflow": 0,
        }
        text = format_manifest(m)
        assert "shard_seconds_hist" in text
        assert "p99=0.3" in text
        # Zero overflow stays silent — it is the healthy steady state.
        assert "overflow" not in text

    def test_renders_metrics_histograms_section(self, tmp_path):
        metrics = {
            "counters": {},
            "histograms": {
                "serve.place.seconds": {
                    "count": 120,
                    "total": 0.6,
                    "min": 0.001,
                    "max": 9.0,
                    "p50": 0.004,
                    "p95": 0.02,
                    "p99": 0.05,
                    "overflow": 3,
                },
                "serve.empty": {
                    "count": 0,
                    "total": 0.0,
                    "min": None,
                    "max": None,
                    "p50": None,
                    "p95": None,
                    "p99": None,
                    "overflow": 0,
                },
            },
        }
        text = format_manifest(_manifest(tmp_path, metrics=metrics))
        assert "Histograms" in text
        assert "serve.place.seconds" in text
        assert "overflow=3" in text
        assert "serve.empty" in text and "(empty)" in text

"""Drift guards for the committed benchmark outputs.

``benchmarks/output/<figure>.txt`` is rendered from
``benchmarks/output/<figure>.artifact.json`` by ``format_sweep``.  These
tests re-render each committed artifact and require the committed text
to match byte-for-byte — so a renderer change that would silently alter
the published figures fails here without re-running any sweep.  One
test also re-runs the Fig. 1 sweep that produced its artifact and
requires the same bytes, so a generator or partitioner change that
moves any figure number fails here too (CI regenerates all five).
"""

from pathlib import Path

import pytest

from repro.engine import SCHEMA_VERSION, SweepArtifact
from repro.experiments import figure1_nsu, format_sweep, run_sweep, sweep_to_csv

OUTPUT_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "output"
ARTIFACTS = sorted(OUTPUT_DIR.glob("*.artifact.json"))
FIGURE_NAMES = ("fig1_nsu", "fig2_ifc", "fig3_alpha", "fig4_cores", "fig5_levels")


def test_every_figure_has_a_committed_artifact():
    names = {p.name[: -len(".artifact.json")] for p in ARTIFACTS}
    assert set(FIGURE_NAMES) <= names


@pytest.mark.parametrize("path", ARTIFACTS, ids=lambda p: p.name)
def test_committed_text_matches_rendered_artifact(path):
    artifact = SweepArtifact.from_json(path.read_text())
    assert artifact.schema_version == SCHEMA_VERSION
    committed = path.with_name(path.name.replace(".artifact.json", ".txt"))
    assert committed.read_text() == format_sweep(artifact) + "\n"


@pytest.mark.parametrize("path", ARTIFACTS, ids=lambda p: p.name)
def test_committed_artifacts_round_trip_and_export(path):
    artifact = SweepArtifact.from_json(path.read_text())
    assert SweepArtifact.from_json(artifact.to_json()).to_json() == artifact.to_json()
    # The CSV exporter must accept every committed artifact too.
    csv_text = sweep_to_csv(artifact)
    lines = csv_text.strip().splitlines()
    # header + values x schemes x 4 metrics
    expected = len(artifact.values) * len(artifact.schemes) * 4
    assert len(lines) == expected + 1


def test_fig1_artifact_regenerates_byte_for_byte():
    # The committed artifacts are 150 sets per point from root seed 2016.
    committed = (OUTPUT_DIR / "fig1_nsu.artifact.json").read_text()
    artifact = run_sweep(figure1_nsu(), sets=150, seed=2016, jobs=1)
    assert artifact.to_json() + "\n" == committed

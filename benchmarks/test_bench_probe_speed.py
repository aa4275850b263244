"""Theorem-1 probe engine throughput: scalar per-core probing vs batch.

Replays the placement decisions of a CA-TPA run on the Fig.-1 default
workload (paper parameters, seed 2016) and times every Eq.-(15) probe
twice on the *identical* partition state: once through the legacy
scalar path (one ``(K, K)`` candidate matrix and one Theorem-1 chain
per core — what every scheme did before the batch engine) and once
through the vectorized batch path (one broadcasted ``(M, K, K)`` stack,
one NumPy pass).  Each pair of probes is asserted bit-equal, so the
speedup is measured on provably equivalent work.

An end-to-end timing of the Fig.-1 sweep (all five schemes, jobs=1) is
reported alongside in three rows: scalar probes, per-set batch probes,
and the engine's lockstep lanes (:func:`repro.bench.run_end_to_end_bench`).
The scalar/batch ratio is diluted by the probe-independent pipeline
(task-set generation, sorting, bookkeeping) and by the scalar path's
lazy early-exit in the feasibility scans; the lockstep row removes the
per-lane dispatch cost that dilution comes from.

The third section pins the **incremental** backend: a daemon-style
placement loop (probe every pending task, place one, re-probe — the
coordinator's ``/place`` flush) timed under the batch and incremental
backends on identical work.  The batch path recomputes the full
``(pending, cores)`` grid every round; the incremental path answers
unchanged columns from the warm per-core Theorem-1 state, so only the
mutated core is fresh kernel work.

Results land in ``BENCH_partition.json`` at the repo root (schema in
docs/API.md).  The acceptance gate is the probe-engine throughput.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time

import numpy as np
from conftest import bench_sets

from repro.bench import end_to_end_rows, run_end_to_end_bench, run_placement_bench
from repro.experiments.sweeps import definition_to_spec, figure1_nsu
from repro.gen import WorkloadConfig, generate_taskset
from repro.model import Partition
from repro.partition import ordering
from repro.partition.probe import batch_probe, use_probe_implementation

REPO_ROOT = pathlib.Path(__file__).parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_partition.json"
SEED = 2016


def _replay_probe_timings(config: WorkloadConfig, sets: int):
    """Time scalar vs batch probes on identical replayed CA-TPA states."""
    rng = np.random.default_rng(SEED)
    probes = 0
    scalar_s = 0.0
    batch_s = 0.0
    for _ in range(sets):
        taskset = generate_taskset(config, rng)
        partition = Partition(taskset, config.cores)
        for task_index in ordering.by_contribution(taskset):
            with use_probe_implementation("batch"):
                start = time.perf_counter()
                new_utils = batch_probe(partition, task_index)
                batch_s += time.perf_counter() - start
            with use_probe_implementation("scalar"):
                start = time.perf_counter()
                scalar_utils = batch_probe(partition, task_index)
                scalar_s += time.perf_counter() - start
            np.testing.assert_array_equal(new_utils, scalar_utils)
            probes += 1
            # Greedy min-increment placement, as in Algorithm 1.
            finite = np.isfinite(new_utils)
            if not finite.any():
                break  # task set not schedulable; next set
            target = int(np.argmin(np.where(finite, new_utils, np.inf)))
            partition.assign(task_index, target)
    return probes, scalar_s, batch_s


def test_probe_throughput(emit):
    config = WorkloadConfig()  # the Fig.-1 default point
    sets = bench_sets(60)

    probes, probe_scalar_s, probe_batch_s = _replay_probe_timings(config, sets)
    probe_speedup = probe_scalar_s / probe_batch_s

    # All three end-to-end rows produce identical figures: checked over
    # ``sets`` sets of the Fig.-1 sweep here, and again on the fixed
    # timing workload inside run_end_to_end_bench.
    spec = definition_to_spec(
        figure1_nsu(), sets=max(1, sets // len(figure1_nsu().values)), seed=SEED
    )
    figures = {name: run() for name, run in end_to_end_rows(spec).items()}
    assert figures["scalar"] == figures["batch"] == figures["lockstep"]
    e2e = run_end_to_end_bench(seed=SEED)

    placement = run_placement_bench(sets=bench_sets(6), seed=SEED)

    payload = {
        "benchmark": "theorem1-probe-throughput",
        "workload": dataclasses.asdict(config),
        "sets": sets,
        "seed": SEED,
        "probe": {
            "count": probes,
            "scalar": {
                "seconds": probe_scalar_s,
                "probes_per_sec": probes / probe_scalar_s,
            },
            "batch": {
                "seconds": probe_batch_s,
                "probes_per_sec": probes / probe_batch_s,
            },
            "speedup": probe_speedup,
        },
        "placement": placement,
        "end_to_end": e2e,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        "Theorem-1 probe engine throughput "
        f"(Fig.-1 default workload, {sets} task sets, seed {SEED})",
        "",
        f"Eq.-(15) probes on replayed CA-TPA states ({probes} probes, "
        f"{config.cores} cores each):",
        f"  {'path':<8} {'seconds':>10} {'probes/sec':>12}",
        f"  {'scalar':<8} {probe_scalar_s:>10.3f} "
        f"{probes / probe_scalar_s:>12.0f}",
        f"  {'batch':<8} {probe_batch_s:>10.3f} "
        f"{probes / probe_batch_s:>12.0f}",
        f"  speedup: {probe_speedup:.2f}x",
        "",
        "Placement loop (daemon /place flush shape, "
        f"{placement['sets']} sets, {placement['hypotheses']} hypotheses, "
        f"backlog {placement['task_count_range']}):",
        f"  {'path':<12} {'seconds':>10} {'probes/sec':>12}",
        f"  {'batch':<12} {placement['batch']['seconds']:>10.3f} "
        f"{placement['batch']['probes_per_sec']:>12.0f}",
        f"  {'incremental':<12} {placement['incremental']['seconds']:>10.3f} "
        f"{placement['incremental']['probes_per_sec']:>12.0f}",
        f"  speedup: {placement['speedup']:.2f}x",
        "",
        f"End-to-end Fig.-1 sweep, 5 schemes, jobs=1 ({e2e['sets']} sets):",
        f"  {'path':<9} {'seconds':>10} {'sets/sec':>12}",
        *(
            f"  {row:<9} {e2e[row]['seconds']:>10.3f} "
            f"{e2e[row]['sets_per_sec']:>12.2f}"
            for row in ("scalar", "batch", "lockstep")
        ),
        f"  batch/scalar speedup: {e2e['speedup']:.2f}x",
        f"  lockstep/batch speedup: {e2e['lockstep_speedup']:.2f}x",
        "",
        f"[written to {RESULT_PATH.name}]",
    ]
    emit("probe_speed", "\n".join(lines))

    assert probe_speedup >= 3.0, (
        f"batch probe engine only {probe_speedup:.2f}x faster than scalar"
    )
    assert placement["speedup"] >= 3.0, (
        f"incremental backend only {placement['speedup']:.2f}x faster "
        f"than batch on the placement loop"
    )
    assert e2e["lockstep_speedup"] >= 2.0, (
        f"lockstep lanes only {e2e['lockstep_speedup']:.2f}x faster than "
        "the per-set batch path on the Fig.-1 sweep"
    )

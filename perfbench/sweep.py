"""The ``sweep-fig1`` workload: the paper's Fig. 1 NSU sweep, in process.

One *chunk* is what ``repro-mc fig1 --sets 1 --jobs 1 --no-store``
computes: ``run_sweep`` over the five NSU points (0.4-0.8; M=8, K=4,
IFC 0.4, 40-200 tasks per set) with all five paper schemes, no result
store, and the figure rendered by ``format_sweep``.  Chunks run back to
back for the requested time; chunk ``c`` of seed ``s`` sweeps root seed
``s * CHUNK_STRIDE + c``, so a seed fixes every input.  A chunk of one
set per point keeps the engine's share of the run at what a large
``--sets`` run shows (a few percent), while giving enough chunks for a
median.
"""

from __future__ import annotations

import contextlib
import subprocess
import sys
import time

import numpy as np

from serve_load import peak_rss_mb
from spans import Tracer, install_sweep_layers

#: Root seeds of consecutive chunks of one run are this far apart.
CHUNK_STRIDE = 100_003
#: Chunks re-run to prove the rows are bit-identical across runs.
REPLAY_CHUNKS = 3
#: Chunks whose sets are re-partitioned with the scalar probe backend.
SCALAR_CHUNKS = 2
#: Interpreter starts timed for ``setup_s``.
SETUP_SAMPLES = 3
#: Task sets in one chunk: one per NSU point.
SETS_PER_CHUNK = 5

_SETUP_PROBE = """
import sys
sys.path.insert(0, 'src')
from repro.experiments import definition_to_spec, figure1_nsu
definition_to_spec(figure1_nsu(), sets=1, seed=0)
print('ready', flush=True)
"""


def chunk_seed(seed: int, chunk: int) -> int:
    return seed * CHUNK_STRIDE + chunk


def measure_setup(root) -> list[float]:
    """Interpreter start to fig1 spec ready, in a fresh process each time."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(time.perf_counter() - start)
        if out.stdout.strip() != "ready":
            raise RuntimeError(f"setup probe printed {out.stdout!r}")
    return samples


def run_chunk(seed: int, chunk: int, tracer: Tracer | None = None):
    """One fig1 regeneration at one set per point; returns (rows, text)."""
    from repro.experiments import figure1_nsu, format_sweep, run_sweep

    root_seed = chunk_seed(seed, chunk)
    if tracer is None:
        artifact = run_sweep(figure1_nsu(), sets=1, seed=root_seed, jobs=1)
        return artifact, format_sweep(artifact)
    with tracer.span("experiments.sweep"):
        artifact = run_sweep(figure1_nsu(), sets=1, seed=root_seed, jobs=1)
    with tracer.span("experiments.render"):
        text = format_sweep(artifact)
    return artifact, text


def timed_chunks(seed: int, seconds: float, count: int | None = None, tracer=None):
    """Run chunks for ``seconds`` (or exactly ``count`` chunks).

    Returns ``(latencies, artifacts, elapsed)``.  With a tracer the whole
    loop is one root ``bench`` span, so the layers' self times add up to
    ``elapsed``.
    """
    latencies: list[float] = []
    artifacts = []
    start = time.perf_counter()
    with tracer.span("bench") if tracer is not None else contextlib.nullcontext():
        chunk = 0
        while (count is None and time.perf_counter() - start < seconds) or (
            count is not None and chunk < count
        ):
            t0 = time.perf_counter()
            artifact, text = run_chunk(seed, chunk, tracer)
            latencies.append(time.perf_counter() - t0)
            if not text:
                raise RuntimeError("empty figure text")
            artifacts.append(artifact)
            chunk += 1
    return latencies, artifacts, time.perf_counter() - start


# ----------------------------------------------------------------------
# Correctness, outside the timed region
# ----------------------------------------------------------------------
def check(seed: int, artifacts) -> list[str]:
    """Problems found in the chunks' outputs (empty when all is well)."""
    from repro.engine.core import generate_taskset
    from repro.partition.probe import use_probe_implementation

    problems: list[str] = []
    rng = np.random.default_rng(seed)
    n = len(artifacts)
    replay = rng.choice(n, size=min(REPLAY_CHUNKS, n), replace=False).tolist()
    for c in replay:
        again, _ = run_chunk(seed, c)
        if again.to_json() != artifacts[c].to_json():
            problems.append(f"chunk {c}: rows differ between two runs of one seed")
    scalar = rng.choice(n, size=min(SCALAR_CHUNKS, n), replace=False).tolist()
    for c in scalar:
        artifact = artifacts[c]
        for row in artifact.rows:
            # The engine's stream for set 0 of a point with this root seed.
            stream = np.random.SeedSequence(artifact.seed, spawn_key=(0,))
            taskset = generate_taskset(row.config, np.random.default_rng(stream))
            for spec, stats in zip(row.schemes, row.stats):
                partitioner = spec.build()
                batch = partitioner.partition(taskset, row.config.cores)
                with use_probe_implementation("scalar"):
                    ref = partitioner.partition(taskset, row.config.cores)
                where = f"chunk {c} NSU {row.value} {spec.label}"
                if not np.array_equal(batch.assignment, ref.assignment):
                    problems.append(f"{where}: assignment differs from scalar")
                if batch.failed_task != ref.failed_task:
                    problems.append(f"{where}: failed_task differs from scalar")
                if stats.schedulable_sets != int(ref.schedulable):
                    problems.append(f"{where}: figure row disagrees with scalar")
    return problems


def run(seed: int, seconds: float, trace: bool, root) -> dict:
    """Chunks for ``seconds``; with ``trace``, half untraced then the same traced."""
    setup = [] if trace else measure_setup(root)
    plain = seconds / 2 if trace else seconds
    latencies, artifacts, elapsed = timed_chunks(seed, plain)
    rss = peak_rss_mb()
    raw = {
        "attempted": len(artifacts) * SETS_PER_CHUNK,
        "busy_s": elapsed,
        "latencies": latencies,
        "setup": setup,
        "rss": [rss],
    }
    if trace:
        tracer = Tracer()
        patches = install_sweep_layers(tracer)
        try:
            _, traced, traced_s = timed_chunks(
                seed, 0, count=len(artifacts), tracer=tracer
            )
        finally:
            patches.restore()
        raw["tracer"] = tracer
        raw["traced_s"] = traced_s
    problems = check(seed, artifacts)
    if trace:
        problems += [
            f"chunk {c}: traced rows differ from untraced rows"
            for c, (a, b) in enumerate(zip(artifacts, traced))
            if a.to_json() != b.to_json()
        ]
    raw["problems"] = problems
    raw["failed"] = min(len(problems), raw["attempted"])
    return raw

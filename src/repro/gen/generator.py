"""Synthetic MC task-set generation (Section IV-A of the paper).

The procedure, for a :class:`~repro.gen.params.WorkloadConfig`:

1. draw the task count ``N`` uniformly from ``task_count_range``;
2. set the base level-1 utilization ``u_base(1) = NSU * M / N``;
3. per task: pick one of the period ranges uniformly, then an integer
   period ``p_i`` uniformly within it;
4. draw ``c_i(1)`` uniformly from
   ``[0.2 * p_i * u_base(1), 1.8 * p_i * u_base(1)]``;
5. draw the criticality ``l_i`` uniformly from ``{1..K}`` and set
   ``c_i(k) = c_i(k-1) * (1 + IFC)`` for ``k = 2..l_i``.

Everything is vectorized with NumPy (hot loop of the experiment
harness), and the set is built straight from the arrays with
:meth:`~repro.model.MCTaskSet.from_arrays`: no per-task Python object
is created unless a caller later iterates the set.  Row ``i`` of the
WCET matrix is ``c_i(1) * (1 + IFC) ** arange(K)``, the same float
operations per element as building each task's ``l_i`` WCETs one at a
time, so the sets are bit-identical to a per-task build.
"""

from __future__ import annotations

import numpy as np

from repro.gen.params import WorkloadConfig
from repro.model.taskset import MCTaskSet
from repro.types import GenerationError

__all__ = ["generate_taskset", "generate_batch"]


def generate_taskset(
    config: WorkloadConfig,
    rng: np.random.Generator,
    n_tasks: int | None = None,
) -> MCTaskSet:
    """One random MC task set per the paper's recipe.

    Parameters
    ----------
    config:
        The data-point parameters.
    rng:
        NumPy random generator (callers own seeding; the experiment
        harness derives per-set generators from a root seed so runs are
        reproducible and parallelizable).
    n_tasks:
        Optional fixed task count, overriding the random draw (used by
        tests and by sweeps over N).
    """
    lo, hi = config.task_count_range
    if n_tasks is None:
        n = int(rng.integers(lo, hi + 1))
    else:
        if n_tasks < 1:
            raise GenerationError(f"n_tasks must be >= 1, got {n_tasks}")
        n = int(n_tasks)

    u_base = config.nsu * config.cores / n

    ranges = np.asarray(config.period_ranges, dtype=np.int64)
    which = rng.integers(0, len(ranges), size=n)
    periods = rng.integers(
        ranges[which, 0], ranges[which, 1] + 1
    ).astype(np.float64)

    c1 = rng.uniform(0.2 * periods * u_base, 1.8 * periods * u_base)
    if config.exact_nsu:
        target = config.nsu * config.cores
        raw = float((c1 / periods).sum())
        c1 *= target / raw

    if config.crit_weights is None:
        crits = rng.integers(1, config.levels + 1, size=n)
    else:
        weights = np.asarray(config.crit_weights, dtype=np.float64)
        crits = rng.choice(
            np.arange(1, config.levels + 1), size=n, p=weights / weights.sum()
        )
    growth = 1.0 + config.ifc
    wcets = c1[:, None] * growth ** np.arange(config.levels)
    return MCTaskSet.from_arrays(wcets, periods, crits, config.levels)


def generate_batch(
    config: WorkloadConfig,
    count: int,
    seed: int | np.random.SeedSequence,
) -> list[MCTaskSet]:
    """``count`` independent task sets from a root seed.

    Each set gets its own child :class:`numpy.random.SeedSequence`, so
    the batch is reproducible regardless of how callers shard it across
    workers.
    """
    if count < 0:
        raise GenerationError(f"count must be >= 0, got {count}")
    root = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    return [
        generate_taskset(config, np.random.default_rng(child))
        for child in root.spawn(count)
    ]

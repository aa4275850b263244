"""Cross-layer invariant oracles for differential validation.

Each oracle is a named *differential* check over one generated task set
(a :class:`ValidationCase`): two independently-coded paths through the
stack — analysis vs. simulation, scalar vs. vectorized, report fields
vs. obs counters — must agree.  An oracle returns a list of
human-readable failure messages; an empty list means the invariant
held.  The seeded fuzz driver (:mod:`repro.validate.fuzz`) sweeps
generated workloads through every registered oracle, and the shrinker
(:mod:`repro.validate.shrink`) reduces any failure to a minimal repro.

The registry is deliberately open: downstream experiments can
``@register_oracle`` additional invariants and they are picked up by
``repro-mc validate`` automatically.

Built-in oracles
----------------
``probe-scalar-batch``
    The scalar, batch, and incremental probe backends make bit-identical
    placement decisions for every scheme.
``lockstep-equals-sequential``
    The case's schemes run as lockstep lanes
    (:func:`repro.partition.partition_lockstep`) reproduce every
    per-set result bit for bit: order, assignment, failed task, core
    utilizations, level matrices, core counts and core versions.
``theorem1-eq7-k2``
    At ``K = 2``, Ineq. (5) (Theorem 1) agrees with the classical
    dual-criticality test Eq. (7) on every core's level matrix.
``admission-monotonicity``
    Uniformly scaling a feasible core's demand *down* never makes it
    infeasible, and a ``schedulable`` partition result implies every
    core passes the Theorem-1 analysis.
``schedulable-no-miss``
    A Theorem-1-schedulable partition misses no deadlines in runtime
    simulation under honest, worst-case, and random overrun scenarios.
``trace-busy-time``
    Execution-slice accounting (``Trace.busy_time``) and event tallies
    reconcile exactly with the :class:`~repro.sched.CoreReport`.
``job-conservation``
    Every released job is accounted for:
    ``released == completed + dropped + pending``, per core and
    system-wide.
``telemetry-counters``
    Running instrumented changes nothing, and the report's
    ``telemetry()`` reconciles key-for-key with the ``sim.*`` obs
    counters.
``serve-offline``
    The admission daemon's ``/admit`` answers (coordinator + micro-
    batcher, all schemes submitted concurrently) are bit-identical to
    the offline partitioner's results.
``explain-decision``
    The structured explanation layer reproduces every backend's
    admission decision: ``ProbeExplanation.admitted`` matches the
    partitioner's verdict under scalar/batch/incremental, all decision
    margins are nonnegative iff the set is admitted, and the
    explanation document itself is backend-invariant.
``events-job-conservation``
    Under a deterministic injection script covering all four event
    families (WCET burst + recovery window, arrival + departure, core
    failure + hotplug), job conservation still holds per core and
    system-wide, and the event tallies themselves balance (arrivals
    admitted + rejected, displaced = replaced + lost, recovery windows
    applied + no-op + missed).
``events-telemetry``
    The same evented run executed plain and instrumented is identical,
    and both ``telemetry()`` and ``event_telemetry()`` reconcile
    key-for-key with the ``sim.*`` / ``sim.event.*`` obs counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.analysis import (
    DualUtilizations,
    assign_virtual_deadlines,
    is_feasible_core,
    is_feasible_dual,
    is_feasible_theorem1,
)
from repro.engine.spec import SchemeSpec, default_schemes
from repro.gen.params import WorkloadConfig
from repro.model import MCTaskSet
from repro.obs import runtime as obs
from repro.partition.base import PartitionResult
from repro.partition.lockstep import lockstep_supported, partition_lockstep
from repro.partition.probe import use_probe_implementation
from repro.sched import (
    CoreSimulator,
    HonestScenario,
    LevelScenario,
    RandomScenario,
    SystemSimulator,
    default_horizon,
)
from repro.types import ReproError

__all__ = [
    "SIM_CYCLES",
    "Oracle",
    "ValidationCase",
    "all_oracles",
    "get_oracle",
    "register_oracle",
]

#: Default simulation span in multiples of the longest period.  Five
#: cycles keep a fuzz case in the low milliseconds while still crossing
#: enough release-phase relations to exercise the AMC protocol.
SIM_CYCLES = 5.0


@dataclass(eq=False)
class ValidationCase:
    """One fuzz case: a task set plus everything the oracles need.

    Partition outcomes are computed lazily and cached — several oracles
    look at the same schedulable partition, and partitioning (not
    checking) dominates the cost of a case.  The case therefore must be
    treated as immutable: the shrinker builds a *fresh* case per
    candidate task set instead of mutating one.
    """

    taskset: MCTaskSet
    config: WorkloadConfig
    schemes: tuple[SchemeSpec, ...] = ()
    seed: int = 0
    set_index: int = 0
    sim_cycles: float = SIM_CYCLES
    _results: dict[str, PartitionResult] | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.schemes:
            self.schemes = tuple(default_schemes())

    def scheme_results(self) -> dict[str, PartitionResult]:
        """Partition outcome per scheme label (batch probe engine), cached."""
        if self._results is None:
            with use_probe_implementation("batch"):
                self._results = {
                    spec.label: spec.build().partition(
                        self.taskset, self.config.cores
                    )
                    for spec in self.schemes
                }
        return self._results

    def first_schedulable(self) -> tuple[str, PartitionResult] | tuple[None, None]:
        """The first scheme (in spec order) that produced a feasible partition."""
        for label, result in self.scheme_results().items():
            if result.schedulable:
                return label, result
        return None, None

    def sim_seed(self, salt: int) -> np.random.SeedSequence:
        """Deterministic per-case simulation seed stream.

        The spawn key folds in the set index and a per-use salt, so
        different oracles (and different scenarios within one oracle)
        draw independent — but reproducible — streams.
        """
        return np.random.SeedSequence(
            self.seed, spawn_key=(self.set_index, 0xCA5E, salt)
        )


@dataclass(frozen=True)
class Oracle:
    """A named cross-layer invariant over one :class:`ValidationCase`.

    ``check(case)`` returns failure messages; empty means the invariant
    held for this case.
    """

    name: str
    description: str
    check: Callable[[ValidationCase], list[str]]


_ORACLES: dict[str, Oracle] = {}


def register_oracle(name: str, description: str):
    """Decorator: register ``fn(case) -> list[str]`` under ``name``."""

    def decorate(fn: Callable[[ValidationCase], list[str]]):
        _ORACLES[name] = Oracle(name=name, description=description, check=fn)
        return fn

    return decorate


def all_oracles() -> tuple[Oracle, ...]:
    """Every registered oracle, in deterministic (sorted-name) order."""
    return tuple(_ORACLES[name] for name in sorted(_ORACLES))


def get_oracle(name: str) -> Oracle:
    try:
        return _ORACLES[name]
    except KeyError:
        raise ReproError(
            f"unknown oracle {name!r}; registered: {sorted(_ORACLES)}"
        ) from None


# ----------------------------------------------------------------------
# Built-in oracles
# ----------------------------------------------------------------------


@register_oracle(
    "probe-scalar-batch",
    "scalar, batch, and incremental probe backends make identical decisions",
)
def _check_probe_equivalence(case: ValidationCase) -> list[str]:
    failures = []
    batch = case.scheme_results()
    for impl in ("scalar", "incremental"):
        with use_probe_implementation(impl):
            for spec in case.schemes:
                b = batch[spec.label]
                s = spec.build().partition(case.taskset, case.config.cores)
                if (
                    s.schedulable != b.schedulable
                    or s.failed_task != b.failed_task
                    or not np.array_equal(s.assignment, b.assignment)
                ):
                    failures.append(
                        f"{spec.label}: {impl}/batch probes disagree "
                        f"(schedulable {s.schedulable}/{b.schedulable}, "
                        f"failed_task {s.failed_task}/{b.failed_task}, "
                        f"assignment {s.assignment.tolist()} "
                        f"vs {b.assignment.tolist()})"
                    )
    return failures


@register_oracle(
    "lockstep-equals-sequential",
    "lockstep lanes reproduce every per-set partition result bit for bit",
)
def _check_lockstep_equivalence(case: ValidationCase) -> list[str]:
    sequential = case.scheme_results()
    specs = [
        (spec, partitioner)
        for spec in case.schemes
        if lockstep_supported(partitioner := spec.build())
    ]
    lanes = partition_lockstep(
        [(case.taskset, partitioner) for _, partitioner in specs],
        case.config.cores,
    )
    failures = []
    for (spec, _), got in zip(specs, lanes):
        ref = sequential[spec.label]
        part, ref_part = got.partition, ref.partition
        observables = {
            "schedulable": got.schedulable == ref.schedulable,
            "failed_task": got.failed_task == ref.failed_task,
            "order": got.order == ref.order,
            "assignment": np.array_equal(got.assignment, ref.assignment),
            "core_utilizations": got.core_utilizations().tobytes()
            == ref.core_utilizations().tobytes(),
            "level_matrices": part.level_matrices().tobytes()
            == ref_part.level_matrices().tobytes(),
            "core_counts": np.array_equal(part.core_counts, ref_part.core_counts),
            "core_versions": np.array_equal(
                part.core_versions(), ref_part.core_versions()
            ),
        }
        differ = [name for name, same in observables.items() if not same]
        if differ:
            failures.append(
                f"{spec.label}: lockstep differs from sequential in "
                f"{', '.join(differ)} (assignment {got.assignment.tolist()} "
                f"vs {ref.assignment.tolist()})"
            )
    return failures


@register_oracle(
    "theorem1-eq7-k2",
    "Ineq. (5) at K=2 agrees with the dual-criticality Eq. (7)",
)
def _check_dual_equivalence(case: ValidationCase) -> list[str]:
    if case.taskset.levels != 2:
        return []
    matrices = [("whole set", case.taskset.level_matrix())]
    label, result = case.first_schedulable()
    if result is not None:
        part = result.partition
        matrices += [
            (f"{label} core {m}", part.level_matrix(m))
            for m in range(part.cores)
            if part.core_size(m)
        ]
    failures = []
    for what, mat in matrices:
        theorem1 = is_feasible_theorem1(mat)
        eq7 = is_feasible_dual(DualUtilizations.from_level_matrix(mat))
        if theorem1 != eq7:
            failures.append(
                f"{what}: Theorem 1 says {theorem1} but Eq. (7) says {eq7} "
                f"for level matrix {mat.tolist()}"
            )
    return failures


@register_oracle(
    "admission-monotonicity",
    "scaling a feasible core's demand down never breaks feasibility",
)
def _check_admission_monotonicity(case: ValidationCase) -> list[str]:
    failures = []
    for label, result in case.scheme_results().items():
        if not result.schedulable:
            continue
        part = result.partition
        for m in range(part.cores):
            if not part.core_size(m):
                continue
            mat = part.level_matrix(m)
            if not is_feasible_core(mat):
                failures.append(
                    f"{label}: result claims schedulable but core {m} "
                    f"fails the admission test (matrix {mat.tolist()})"
                )
                continue
            for scale in (0.9, 0.75, 0.5):
                if not is_feasible_core(mat * scale):
                    failures.append(
                        f"{label}: core {m} is feasible at full demand but "
                        f"infeasible at x{scale} (matrix {mat.tolist()})"
                    )
    return failures


@register_oracle(
    "schedulable-no-miss",
    "a Theorem-1-schedulable partition never misses a deadline in simulation",
)
def _check_schedulable_no_miss(case: ValidationCase) -> list[str]:
    label, result = case.first_schedulable()
    if result is None:
        return []
    horizon = default_horizon(result.partition, cycles=case.sim_cycles)
    scenarios = [
        ("honest", HonestScenario()),
        (f"level-{case.taskset.levels}", LevelScenario(target=case.taskset.levels)),
        ("random", RandomScenario(overrun_prob=0.3)),
    ]
    failures = []
    for salt, (name, scenario) in enumerate(scenarios):
        report = SystemSimulator(
            result.partition, scenario, horizon=horizon
        ).run(seed=case.sim_seed(salt))
        if report.miss_count:
            failures.append(
                f"{label}: {report.miss_count} deadline miss(es) under the "
                f"{name} scenario over horizon {horizon:g}"
            )
    return failures


@register_oracle(
    "trace-busy-time",
    "trace slices and event tallies reconcile with the core report",
)
def _check_trace_busy_time(case: ValidationCase) -> list[str]:
    label, result = case.first_schedulable()
    if result is None:
        return []
    part = result.partition
    core = next((m for m in range(part.cores) if part.core_size(m)), None)
    if core is None:
        return []
    subset = part.taskset.subset(part.tasks_on(core))
    plan = assign_virtual_deadlines(subset)
    if plan is None:
        return [
            f"{label}: partition is schedulable but assign_virtual_deadlines "
            f"refuses core {core}"
        ]
    horizon = case.sim_cycles * max(t.period for t in subset)
    report = CoreSimulator(
        subset=subset,
        plan=plan,
        scenario=LevelScenario(target=subset.levels),
        rng=np.random.default_rng(case.sim_seed(101)),
        horizon=horizon,
        record_trace=True,
    ).run()
    failures = []
    busy = report.trace.busy_time()
    if abs(busy - report.busy_time) > 1e-6 * max(1.0, report.busy_time):
        failures.append(
            f"core {core}: Trace.busy_time() {busy!r} != "
            f"CoreReport.busy_time {report.busy_time!r}"
        )
    counts = report.trace.counts()
    tallies = (
        ("release", report.released),
        ("complete", report.completed),
        ("drop", report.dropped),
        ("mode_up", report.mode_switches),
        ("idle_reset", report.idle_resets),
    )
    for kind, reported in tallies:
        if counts[kind] != reported:
            failures.append(
                f"core {core}: trace counts {counts[kind]} {kind} events "
                f"but the report says {reported}"
            )
    return failures


@register_oracle(
    "job-conservation",
    "released == completed + dropped + pending, per core and system-wide",
)
def _check_job_conservation(case: ValidationCase) -> list[str]:
    label, result = case.first_schedulable()
    if result is None:
        return []
    horizon = default_horizon(result.partition, cycles=case.sim_cycles)
    report = SystemSimulator(
        result.partition, LevelScenario(target=case.taskset.levels), horizon=horizon
    ).run(seed=case.sim_seed(202))
    failures = []
    for m, core in enumerate(report.core_reports):
        if core is None:
            continue
        if core.released != core.completed + core.dropped + core.pending:
            failures.append(
                f"core {m}: {core.released} released != {core.completed} "
                f"completed + {core.dropped} dropped + {core.pending} pending"
            )
    if report.released != report.completed + report.dropped + report.pending:
        failures.append(
            f"system: {report.released} released != {report.completed} "
            f"completed + {report.dropped} dropped + {report.pending} pending"
        )
    return failures


@register_oracle(
    "telemetry-counters",
    "instrumented runs change nothing and reconcile with sim.* counters",
)
def _check_telemetry_counters(case: ValidationCase) -> list[str]:
    label, result = case.first_schedulable()
    if result is None:
        return []
    horizon = default_horizon(result.partition, cycles=case.sim_cycles)
    sim = SystemSimulator(
        result.partition, RandomScenario(overrun_prob=0.3), horizon=horizon
    )
    plain = sim.run(seed=case.sim_seed(303))
    with obs.collect() as registry:
        instrumented = sim.run(seed=case.sim_seed(303))
        counters = registry.snapshot()["counters"]
    failures = []
    if plain.telemetry() != instrumented.telemetry():
        failures.append(
            f"{label}: enabling instrumentation changed the simulation "
            f"({plain.telemetry()} vs {instrumented.telemetry()})"
        )
    for key, value in instrumented.telemetry().items():
        recorded = counters.get(key, 0)
        if recorded != value:
            failures.append(
                f"{key}: report says {value} but the obs counter says {recorded}"
            )
    return failures


@register_oracle(
    "serve-offline",
    "the admission daemon's /admit answers match the offline partitioner",
)
def _check_serve_offline(case: ValidationCase) -> list[str]:
    """Differential: online service vs. offline batch, same question.

    Spins up an in-process coordinator (no sockets), submits one
    ``/admit`` per paper scheme *concurrently* — so the answers come out
    of real coalesced flushes — and requires byte-identical agreement
    with a direct offline run of each partitioner.
    """
    import asyncio

    # Deferred: repro.serve must stay an optional layer of validate.
    from repro.partition.registry import PAPER_SCHEMES, get_partitioner
    from repro.serve import AdmitRequest, Coordinator, MicroBatcher, ServeState

    cores = case.config.cores

    async def query() -> list[dict]:
        state = ServeState(cores=cores, levels=case.taskset.levels)
        batcher = MicroBatcher(window=0.001)
        worker = asyncio.create_task(Coordinator(state, batcher).run())
        futures = [
            batcher.submit(
                "admit", AdmitRequest(case.taskset, cores, scheme)
            )
            for scheme in PAPER_SCHEMES
        ]
        bodies = await asyncio.gather(*futures)
        batcher.close()
        await worker
        return bodies

    failures = []
    for scheme, body in zip(PAPER_SCHEMES, asyncio.run(query())):
        offline = get_partitioner(scheme).partition(case.taskset, cores)
        expected = {
            "schedulable": bool(offline.schedulable),
            "assignment": offline.partition.assignment.tolist(),
            "order": list(offline.order),
            "failed_task": offline.failed_task,
            "utilizations": offline.partition.core_utilizations().tolist(),
        }
        got = {key: body[key] for key in expected}
        if got != expected:
            diff = {k: (got[k], expected[k]) for k in expected if got[k] != expected[k]}
            failures.append(
                f"{scheme}: serve /admit diverges from the offline "
                f"partitioner on (serve, offline) = {diff}"
            )
    return failures


@register_oracle(
    "explain-decision",
    "explanation margins reproduce every backend's admission decision",
)
def _check_explain_decision(case: ValidationCase) -> list[str]:
    """Differential: the introspection layer vs. the decision layer.

    For every scheme, build a :class:`ProbeExplanation` from the cached
    batch result (scalar kernel, no re-partitioning) and require

    * ``admitted`` == the partitioner's ``schedulable`` verdict;
    * every decision margin ``>= -EPS``  <=>  admitted — the sign of
      the margins *is* the decision;
    * the same document (modulo the recorded ``probe_impl``) from the
      scalar and incremental backends' partition results — explanations
      are backend-invariant because the backends are bit-identical.

    Headroom/sensitivity are skipped: they are derived views (their own
    bisection invariant is property-tested in ``tests/analysis``), and
    the campaign runs this oracle over hundreds of cases.
    """
    from repro.analysis.explain import explain_result
    from repro.types import EPS

    failures = []
    batch = case.scheme_results()
    reference = {}
    for spec in case.schemes:
        b = batch[spec.label]
        exp = explain_result(
            case.taskset,
            case.config.cores,
            b,
            probe_impl="batch",
            include_headroom=False,
            include_sensitivity=False,
        )
        reference[spec.label] = exp
        if exp.admitted != b.schedulable:
            failures.append(
                f"{spec.label}: explanation says admitted={exp.admitted} "
                f"but the partitioner says schedulable={b.schedulable}"
            )
        margins = exp.decision_margins()
        margins_admit = all(m >= -EPS for m in margins)
        if (b.schedulable or b.failed_task is not None) and (
            margins_admit != exp.admitted
        ):
            failures.append(
                f"{spec.label}: decision margins {margins} imply "
                f"admitted={margins_admit} but the decision was "
                f"admitted={exp.admitted}"
            )
    for impl in ("scalar", "incremental"):
        with use_probe_implementation(impl):
            for spec in case.schemes:
                r = spec.build().partition(case.taskset, case.config.cores)
                exp = explain_result(
                    case.taskset,
                    case.config.cores,
                    r,
                    probe_impl=impl,
                    include_headroom=False,
                    include_sensitivity=False,
                )
                got = exp.to_dict()
                want = reference[spec.label].to_dict()
                got.pop("probe_impl")
                want.pop("probe_impl")
                if got != want:
                    diff = sorted(
                        k for k in want if got.get(k) != want.get(k)
                    )
                    failures.append(
                        f"{spec.label}: {impl}/batch explanations diverge "
                        f"on {diff}"
                    )
    return failures


def _case_event_script(case: ValidationCase, partition, horizon: float) -> list:
    """A deterministic injection script touching all four event families.

    Parameters derive from ``case.sim_seed(404)`` only, so every oracle
    that attaches events to this case sees the *same* script — the
    differential question is always "same dynamic world, two code
    paths".
    """
    from repro.model import MCTask
    from repro.sched import (
        core_failure,
        core_hotplug,
        mode_recovery,
        task_arrival,
        task_departure,
        wcet_burst,
    )

    rng = np.random.default_rng(case.sim_seed(404))
    taskset = case.taskset
    n = len(taskset)
    src = taskset[int(rng.integers(n))]
    arriving = MCTask(
        wcets=tuple(0.5 * w for w in src.wcets),
        period=src.period,
        name="fuzz-arrival",
    )
    events = [
        wcet_burst(0.25 * horizon, 0.6 * horizon, 1.0 + 2.0 * rng.random()),
        mode_recovery(0.3 * horizon, 0.7 * horizon),
        task_arrival(0.2 * horizon, arriving),
        task_departure(0.5 * horizon, int(rng.integers(n))),
    ]
    if partition.cores > 1:
        core = int(rng.integers(partition.cores))
        events.append(core_failure(0.4 * horizon, core))
        events.append(core_hotplug(0.8 * horizon, core))
    return events


@register_oracle(
    "events-job-conservation",
    "job conservation holds across injected arrival/departure/failure events",
)
def _check_events_job_conservation(case: ValidationCase) -> list[str]:
    from repro.sched.events import EventInjectionRuntime

    label, result = case.first_schedulable()
    if result is None:
        return []
    horizon = default_horizon(result.partition, cycles=case.sim_cycles)
    runtime = EventInjectionRuntime(
        _case_event_script(case, result.partition, horizon), horizon=horizon
    )
    report = SystemSimulator(
        result.partition,
        LevelScenario(target=case.taskset.levels),
        horizon=horizon,
        allow_infeasible=True,  # failure re-partitioning may overload cores
        events=runtime,
    ).run(seed=case.sim_seed(505))
    failures = []
    for m, core in enumerate(report.core_reports):
        if core is None:
            continue
        if core.released != core.completed + core.dropped + core.pending:
            failures.append(
                f"core {m}: {core.released} released != {core.completed} "
                f"completed + {core.dropped} dropped + {core.pending} pending"
            )
    if report.released != report.completed + report.dropped + report.pending:
        failures.append(
            f"system: {report.released} released != {report.completed} "
            f"completed + {report.dropped} dropped + {report.pending} pending"
        )
    ev = report.events.counters
    n_arrivals = sum(
        1 for e in runtime.events if e.kind == "task_arrival"
    )
    if ev["arrival_admitted"] + ev["arrival_rejected"] != n_arrivals:
        failures.append(
            f"arrivals leak: {ev['arrival_admitted']} admitted + "
            f"{ev['arrival_rejected']} rejected != {n_arrivals} injected"
        )
    if ev["displaced"] != ev["replaced"] + ev["repartition_lost"]:
        failures.append(
            f"re-partition leak: {ev['displaced']} displaced != "
            f"{ev['replaced']} replaced + {ev['repartition_lost']} lost"
        )
    n_windows = sum(1 for e in runtime.events if e.kind == "mode_recovery")
    resolved = (
        ev["mode_recovery_applied"]
        + ev["mode_recovery_noop"]
        + ev["mode_recovery_missed"]
    )
    expected = n_windows * report.telemetry()["sim.cores_simulated"]
    if resolved != expected:
        failures.append(
            f"recovery-window leak: applied {ev['mode_recovery_applied']} + "
            f"noop {ev['mode_recovery_noop']} + missed "
            f"{ev['mode_recovery_missed']} != {expected} "
            f"(windows x simulated cores)"
        )
    return failures


@register_oracle(
    "events-telemetry",
    "telemetry reconciliation holds under every injected event kind",
)
def _check_events_telemetry(case: ValidationCase) -> list[str]:
    from repro.sched.events import EventInjectionRuntime

    label, result = case.first_schedulable()
    if result is None:
        return []
    horizon = default_horizon(result.partition, cycles=case.sim_cycles)
    script = _case_event_script(case, result.partition, horizon)

    def simulate():
        # A fresh simulator per run: compilation is deterministic, so
        # recompiling under instrumentation must change nothing except
        # the spans it emits.
        return SystemSimulator(
            result.partition,
            RandomScenario(overrun_prob=0.3),
            horizon=horizon,
            allow_infeasible=True,
            events=EventInjectionRuntime(script, horizon=horizon),
        ).run(seed=case.sim_seed(606))

    plain = simulate()
    with obs.collect() as registry:
        instrumented = simulate()
        counters = registry.snapshot()["counters"]
    failures = []
    if plain.telemetry() != instrumented.telemetry():
        failures.append(
            f"{label}: enabling instrumentation changed the evented run "
            f"({plain.telemetry()} vs {instrumented.telemetry()})"
        )
    if plain.event_telemetry() != instrumented.event_telemetry():
        failures.append(
            f"{label}: enabling instrumentation changed the event outcome "
            f"({plain.event_telemetry()} vs "
            f"{instrumented.event_telemetry()})"
        )
    expected = dict(instrumented.telemetry())
    expected.update(instrumented.event_telemetry())
    for key, value in expected.items():
        recorded = counters.get(key, 0)
        if recorded != value:
            failures.append(
                f"{key}: report says {value} but the obs counter says {recorded}"
            )
    return failures

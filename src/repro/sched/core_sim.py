"""Event-driven simulation of EDF-VD + AMC on one core.

The simulator implements the run-time rules of Sections II-III:

* preemptive EDF on *virtual* absolute deadlines
  ``release + scale(l_i, mode) * p_i``, where the scale comes from the
  core's :class:`~repro.analysis.VirtualDeadlineAssignment`;
* AMC mode switches: while the core is at mode ``m``, a job of a task
  with ``l_i > m`` that executes for its level-``m`` budget ``c_i(m)``
  without completing raises the mode to ``m + 1`` at that instant;
  jobs (and future releases) of tasks with ``l_i < mode`` are dropped;
* idle reset: the moment the core has no pending workload it returns to
  mode 1 and all tasks release normally again (from their next period
  boundary — releases are periodic and never shifted);
* miss accounting is against *original* deadlines and only for jobs the
  protocol did not drop.

The loop advances from event to event (release / completion / budget
boundary), so simulated time is exact up to float rounding; no quantum
is involved.

Time comparison convention
--------------------------
Every float comparison goes through :func:`time_after` /
:func:`time_reached` with the single tolerance ``TIME_EPS``: two
instants (or durations) closer than ``TIME_EPS`` are the *same*
instant.  Two consequences worth spelling out:

* a demand within ``TIME_EPS`` of the level-``m`` budget counts as
  completing *at* the budget, never as an overrun — the budget trigger
  only arms for ``exec_time`` strictly beyond the budget;
* when a budget overrun coincides with a release (same instant up to
  ``TIME_EPS``), the mode is raised *first*, so the coinciding release
  is admitted or dropped under the raised mode, as AMC requires.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.virtual_deadlines import VirtualDeadlineAssignment
from repro.model.taskset import MCTaskSet
from repro.obs.runtime import OBS
from repro.sched.job import Job
from repro.sched.scenario import ExecutionScenario
from repro.sched.trace import EventKind, ExecutionSlice, Trace, TraceEvent
from repro.types import SimulationError

__all__ = [
    "CoreSimulator",
    "CoreReport",
    "DeadlineMiss",
    "time_after",
    "time_reached",
]

#: Simulation time comparison tolerance.
TIME_EPS: float = 1e-9


def time_after(a: float, b: float) -> bool:
    """True when ``a`` lies strictly after ``b`` (beyond ``TIME_EPS``)."""
    return a > b + TIME_EPS


def time_reached(a: float, b: float) -> bool:
    """True when ``a`` has reached ``b`` (equal within ``TIME_EPS`` or past)."""
    return a >= b - TIME_EPS


@dataclass(frozen=True)
class DeadlineMiss:
    """A non-dropped job that completed (or was still pending) past its
    original deadline."""

    task_index: int
    level: int
    release: float
    deadline: float
    lateness: float  #: > 0; inf for jobs still pending at the horizon


@dataclass
class CoreReport:
    """Statistics of one core's simulation run."""

    horizon: float
    released: int = 0
    completed: int = 0
    dropped: int = 0  #: jobs cancelled by mode switches or dropped at release
    censored: int = 0  #: jobs whose deadline lies beyond the horizon
    pending: int = 0  #: jobs still in the ready queue at the horizon
    mode_switches: int = 0
    idle_resets: int = 0
    max_mode: int = 1
    busy_time: float = 0.0
    misses: list[DeadlineMiss] = field(default_factory=list)
    trace: Trace | None = None  #: populated when tracing is enabled

    @property
    def miss_count(self) -> int:
        return len(self.misses)

    @property
    def utilization_observed(self) -> float:
        return self.busy_time / self.horizon if self.horizon > 0 else 0.0


class CoreSimulator:
    """Simulates one core's task subset under EDF-VD + AMC."""

    def __init__(
        self,
        subset: MCTaskSet,
        plan: VirtualDeadlineAssignment,
        scenario: ExecutionScenario,
        rng: np.random.Generator,
        horizon: float,
        record_trace: bool = False,
        priority_fn=None,
        releases=None,
        events=None,
    ):
        if horizon <= 0:
            raise SimulationError(f"horizon must be positive, got {horizon}")
        if plan.levels != subset.levels:
            raise SimulationError(
                f"plan has {plan.levels} levels but subset has {subset.levels}"
            )
        self.subset = subset
        self.plan = plan
        self.scenario = scenario
        self.rng = rng
        self.horizon = float(horizon)
        self.record_trace = record_trace
        #: optional scheduling-key override ``(job, mode) -> float``
        #: (lower runs first).  Default: EDF-VD virtual deadlines.  The
        #: fixed-priority simulator passes static priorities here; the
        #: AMC machinery (budgets, drops, idle reset) is unchanged.
        self.priority_fn = priority_fn
        #: arrival model; ``None`` means strictly periodic releases.
        #: See :mod:`repro.sched.releases`.
        self.releases = releases
        #: compiled per-core event adapter
        #: (:class:`repro.sched.events.CoreEventView`) or ``None``.  With
        #: ``None`` every event hook below short-circuits and the loop is
        #: the original static simulation, bit for bit.
        self.events = events
        if events is not None and len(events.joins) != len(subset):
            raise SimulationError(
                f"event view describes {len(events.joins)} membership "
                f"entries but the subset has {len(subset)} tasks"
            )

    # ------------------------------------------------------------------
    def run(self) -> CoreReport:
        subset, plan, horizon = self.subset, self.plan, self.horizon
        report = CoreReport(horizon=horizon)
        n = len(subset)
        periods = np.array([t.period for t in subset], dtype=np.float64)
        levels = subset.criticalities

        # Injected-event state (all inert when no view is attached: the
        # extra comparisons below are against +inf / None and change no
        # float nor any RNG draw of the static path).
        view = self.events
        if view is None:
            next_release = np.zeros(n, dtype=np.float64)
            leaves = None
            burst = None
            recovery = None
            fail_times: tuple[float, ...] = ()
            plan_changes = ()
            tallies: dict[str, int] | None = None
        else:
            next_release = view.joins.astype(np.float64, copy=True)
            leaves = view.leaves
            # Entries whose residency is empty never release.
            next_release[leaves <= next_release + TIME_EPS] = np.inf
            burst = view.burst
            recovery = view.recovery
            fail_times = view.failures
            plan_changes = view.plan_changes
            tallies = view.tallies
        fail_idx = 0
        next_fail = fail_times[0] if fail_times else np.inf
        plan_idx = 0

        mode = 1
        time = 0.0
        seq = 0
        # heap entries: (virtual_deadline, seq, job)
        ready: list[tuple[float, int, Job]] = []
        trace = Trace(events=[], slices=[]) if self.record_trace else None

        def record(kind: EventKind, now: float, task_index: int | None = None):
            if trace is not None:
                trace.events.append(
                    TraceEvent(time=now, kind=kind, task_index=task_index, mode=mode)
                )

        def virtual_deadline(job: Job) -> float:
            scale = plan.task_scale(job.task_index, int(job.level), mode)
            return job.release + scale * (job.deadline - job.release)

        priority_fn = self.priority_fn

        def push(job: Job) -> None:
            key = (
                virtual_deadline(job)
                if priority_fn is None
                else float(priority_fn(job, mode))
            )
            heapq.heappush(ready, (key, job.seq, job))

        def rebuild() -> None:
            jobs = [entry[2] for entry in ready]
            ready.clear()
            for job in jobs:
                push(job)

        def release_due(now: float) -> None:
            nonlocal seq
            due = np.flatnonzero(next_release <= now + TIME_EPS)
            for i in due:
                task = subset[int(i)]
                r = float(next_release[i])
                exec_time = float(self.scenario.draw(task, self.rng))
                if burst is not None:
                    factor = burst.factor(int(i), r)
                    if factor != 1.0:
                        exec_time *= factor
                        tallies["burst_jobs"] += 1
                if exec_time <= 0:
                    raise SimulationError(
                        f"scenario produced non-positive execution time {exec_time}"
                    )
                job = Job(
                    task_index=int(i),
                    level=int(levels[i]),
                    release=r,
                    deadline=r + float(periods[i]),
                    exec_time=exec_time,
                    seq=seq,
                )
                seq += 1
                report.released += 1
                if time_after(job.deadline, horizon):
                    report.censored += 1
                record(EventKind.RELEASE, now, int(i))
                if job.level < mode:
                    job.dropped_at = now
                    report.dropped += 1
                    record(EventKind.DROP, now, int(i))
                else:
                    push(job)
                if self.releases is None:
                    gap = float(periods[i])
                else:
                    gap = float(self.releases.interarrival(task, self.rng))
                    if gap < float(periods[i]) - TIME_EPS:
                        raise SimulationError(
                            "release model produced an interarrival below"
                            f" the period ({gap} < {periods[i]})"
                        )
                upcoming_release = r + gap
                if leaves is not None and time_reached(
                    upcoming_release, float(leaves[i])
                ):
                    # The residency ends first: no release at/after it.
                    upcoming_release = np.inf
                next_release[i] = upcoming_release

        def raise_mode(now: float) -> None:
            nonlocal mode
            mode += 1
            report.mode_switches += 1
            report.max_mode = max(report.max_mode, mode)
            record(EventKind.MODE_UP, now)
            # Cancel jobs of tasks below the new mode.
            survivors = []
            for _, _, job in ready:
                if job.level < mode:
                    job.dropped_at = now
                    report.dropped += 1
                    record(EventKind.DROP, now, job.task_index)
                else:
                    survivors.append(job)
            ready.clear()
            for job in survivors:
                push(job)

        def finish(job: Job, now: float) -> None:
            job.completion = now
            report.completed += 1
            record(EventKind.COMPLETE, now, job.task_index)
            if not time_after(job.deadline, horizon) and time_after(now, job.deadline):
                record(EventKind.MISS, now, job.task_index)
                report.misses.append(
                    DeadlineMiss(
                        task_index=job.task_index,
                        level=job.level,
                        release=job.release,
                        deadline=job.deadline,
                        lateness=now - job.deadline,
                    )
                )

        def apply_failure(now: float) -> None:
            """Core goes offline: drop everything in flight, silence the
            residents that left, restart (a later hotplug) at mode 1."""
            nonlocal mode
            for _, _, job in ready:
                job.dropped_at = now
                report.dropped += 1
                tallies["failure_drops"] += 1
                record(EventKind.DROP, now, job.task_index)
            ready.clear()
            next_release[leaves <= now + TIME_EPS] = np.inf
            mode = 1  # not an idle reset: the core restarts empty

        while not time_reached(time, horizon):
            if time_reached(time, next_fail):
                apply_failure(next_fail)
                fail_idx += 1
                next_fail = (
                    fail_times[fail_idx]
                    if fail_idx < len(fail_times)
                    else np.inf
                )
                continue
            # Membership changed: rebind the deadline-scaling plan at the
            # next scheduling point at/after the epoch boundary (jobs
            # already keyed keep the plan they were released under).
            while plan_idx < len(plan_changes) and time_reached(
                time, plan_changes[plan_idx][0]
            ):
                plan = plan_changes[plan_idx][1]
                plan_idx += 1
                rebuild()
            release_due(time)
            if not ready:
                upcoming = float(next_release.min())
                idle_until = min(upcoming, horizon, next_fail)
                if recovery is None:
                    if mode != 1:
                        # Idle instant: AMC resets to the lowest mode.
                        mode = 1
                        report.idle_resets += 1
                        record(EventKind.IDLE_RESET, time)
                else:
                    # Explicit-recovery protocol: the reset needs an idle
                    # instant *inside a sanctioned window* (consumed
                    # while already at mode 1 -> no-op).
                    applied, consumed = recovery.claim(time, idle_until)
                    if consumed:
                        if mode != 1:
                            mode = 1
                            report.idle_resets += 1
                            record(EventKind.IDLE_RESET, applied)
                            tallies["mode_recovery_applied"] += consumed
                        else:
                            tallies["mode_recovery_noop"] += consumed
                time = idle_until
                continue

            vd, _, job = ready[0]
            task = subset[job.task_index]
            next_event = min(float(next_release.min()), horizon)

            # Budget boundary that would trigger a mode switch: only for
            # tasks above the current mode (Section II-A).
            budget_trigger = np.inf
            if job.level > mode:
                budget = task.wcet(mode)
                if time_after(job.exec_time, budget):
                    if time_reached(job.executed, budget):
                        # Already at the boundary (e.g. a release landed
                        # exactly there): the overrun happens the instant
                        # the job resumes.
                        budget_trigger = time
                    else:
                        budget_trigger = time + (budget - job.executed)

            completion_at = time + job.remaining
            run_until = min(completion_at, next_event, budget_trigger, next_fail)
            delta = run_until - time
            if delta < -TIME_EPS:
                raise SimulationError("simulation time went backwards")
            delta = max(delta, 0.0)
            job.executed += delta
            report.busy_time += delta
            if trace is not None and delta > 0.0:
                last = trace.slices[-1] if trace.slices else None
                if (
                    last is not None
                    and last.task_index == job.task_index
                    and abs(last.end - time) <= TIME_EPS
                ):
                    last.end = run_until  # merge contiguous slices
                else:
                    trace.slices.append(
                        ExecutionSlice(
                            start=time, end=run_until, task_index=job.task_index
                        )
                    )
            time = run_until

            # Zero remaining demand means the job ran to (within
            # TIME_EPS of) completion before any release or budget
            # boundary.  When the trigger is armed the demand left at
            # the boundary is exec_time - budget > TIME_EPS, so the two
            # branches are mutually exclusive.  The trigger branch
            # deliberately ignores next_event: a release coinciding
            # with the budget instant must be processed under the
            # raised mode (see module docstring).
            if not time_after(job.remaining, 0.0):
                heapq.heappop(ready)
                finish(job, time)
            elif time_reached(time, budget_trigger):
                raise_mode(time)
                rebuild()
            # else: a release preempts; loop handles it.

        # Horizon reached: pending jobs whose deadline passed are misses.
        if recovery is not None:
            # Recovery windows no idle instant ever covered.
            tallies["mode_recovery_missed"] += recovery.unconsumed()
        report.pending = len(ready)
        for _, _, job in ready:
            if not time_after(job.deadline, horizon) and time_after(job.remaining, 0.0):
                report.misses.append(
                    DeadlineMiss(
                        task_index=job.task_index,
                        level=job.level,
                        release=job.release,
                        deadline=job.deadline,
                        lateness=float("inf"),
                    )
                )
        report.trace = trace
        if OBS.enabled:
            _record_core_report(report)
        return report


def _record_core_report(report: CoreReport) -> None:
    """Mirror one core run's protocol tallies into the obs registry.

    Called once per :meth:`CoreSimulator.run`, so the instrumentation
    cost is independent of the number of simulated events.  The counter
    totals reconcile exactly with the report fields (and, when tracing
    is on, with ``Trace.counts()`` — except ``sim.deadline_miss``, which
    also includes jobs still pending at the horizon, for which no MISS
    trace event exists).
    """
    reg = OBS.registry
    reg.counter("sim.cores_simulated").inc()
    reg.counter("sim.released").inc(report.released)
    reg.counter("sim.completed").inc(report.completed)
    reg.counter("sim.dropped").inc(report.dropped)
    reg.counter("sim.pending").inc(report.pending)
    reg.counter("sim.censored").inc(report.censored)
    reg.counter("sim.mode_up").inc(report.mode_switches)
    reg.counter("sim.idle_reset").inc(report.idle_resets)
    reg.counter("sim.deadline_miss").inc(report.miss_count)
    reg.histogram("sim.core_utilization_observed").observe(
        report.utilization_observed
    )

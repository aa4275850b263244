"""JSON (de)serialization for task sets and partitions.

A stable on-disk format so workload corpora and partitioning decisions
can be shared between runs, tools and languages:

.. code-block:: json

    {
      "format": "repro-mc-taskset",
      "version": 1,
      "levels": 2,
      "tasks": [
        {"name": "flight_control", "period": 20.0, "wcets": [2.0, 5.0]},
        {"name": "telemetry", "period": 25.0, "wcets": [4.0]}
      ]
    }

Partitions serialize as the task set plus the core count and the
task->core assignment vector.

Injection-event files (``repro-mc-events``, schema v1) hold a list of
:class:`repro.sched.events.SimEvent` records for ``repro-mc simulate
--events``:

.. code-block:: json

    {
      "format": "repro-mc-events",
      "version": 1,
      "events": [
        {"kind": "wcet_burst", "start": 20.0, "end": 60.0, "factor": 2.5},
        {"kind": "task_arrival", "time": 30.0,
         "task": {"name": "new", "period": 15.0, "wcets": [1.0, 1.5]}},
        {"kind": "task_departure", "time": 100.0, "task_index": 3},
        {"kind": "core_failure", "time": 120.0, "core": 1},
        {"kind": "core_hotplug", "time": 200.0, "core": 1},
        {"kind": "mode_recovery", "start": 10.0, "end": 80.0}
      ]
    }

Instantaneous kinds may write ``"time"`` instead of the equal
``"start"``/``"end"`` pair.  Structural validation (kinds, durations,
payload types) happens in the :class:`~repro.sched.events.SimEvent`
constructor, so a malformed file fails at load, not mid-simulation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.model.partition import Partition
from repro.model.task import MCTask
from repro.model.taskset import MCTaskSet
from repro.types import ModelError

__all__ = [
    "MAX_LEVELS",
    "taskset_to_dict",
    "taskset_from_dict",
    "save_taskset",
    "load_taskset",
    "partition_to_dict",
    "partition_from_dict",
    "save_partition",
    "load_partition",
    "events_to_dict",
    "events_from_dict",
    "save_events",
    "load_events",
]

_TASKSET_FORMAT = "repro-mc-taskset"
_PARTITION_FORMAT = "repro-mc-partition"
_EVENTS_FORMAT = "repro-mc-events"
_VERSION = 1

#: Largest criticality count ``K`` a task-set document may declare.  The
#: paper uses ``K <= 6``; every partition of the set allocates ``(M, K,
#: K)`` level matrices, so an unchecked ``K`` from a request body or file
#: costs memory quadratic in a single number.
MAX_LEVELS = 64


def taskset_to_dict(taskset: MCTaskSet) -> dict[str, Any]:
    """A JSON-ready dict describing ``taskset``."""
    return {
        "format": _TASKSET_FORMAT,
        "version": _VERSION,
        "levels": taskset.levels,
        "tasks": [
            {"name": t.name, "period": t.period, "wcets": list(t.wcets)}
            for t in taskset
        ],
    }


def taskset_from_dict(data: dict[str, Any]) -> MCTaskSet:
    """Inverse of :func:`taskset_to_dict` (validates format/version)."""
    if data.get("format") != _TASKSET_FORMAT:
        raise ModelError(
            f"not a {_TASKSET_FORMAT} document: format={data.get('format')!r}"
        )
    if data.get("version") != _VERSION:
        raise ModelError(f"unsupported version {data.get('version')!r}")
    try:
        tasks = [
            MCTask(
                wcets=tuple(entry["wcets"]),
                period=entry["period"],
                name=entry.get("name", ""),
            )
            for entry in data["tasks"]
        ]
        levels = data["levels"]
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed task set document: {exc}") from exc
    if (
        isinstance(levels, bool)
        or not isinstance(levels, int)
        or not 1 <= levels <= MAX_LEVELS
    ):
        raise ModelError(
            f"levels must be an integer in [1, {MAX_LEVELS}], got {levels!r:.40}"
        )
    return MCTaskSet(tasks, levels=levels)


def save_taskset(taskset: MCTaskSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(taskset_to_dict(taskset), indent=2) + "\n")


def load_taskset(path: str | Path) -> MCTaskSet:
    return taskset_from_dict(json.loads(Path(path).read_text()))


def partition_to_dict(partition: Partition) -> dict[str, Any]:
    """A JSON-ready dict describing ``partition`` (with its task set)."""
    return {
        "format": _PARTITION_FORMAT,
        "version": _VERSION,
        "cores": partition.cores,
        "assignment": partition.assignment.tolist(),
        "taskset": taskset_to_dict(partition.taskset),
    }


def partition_from_dict(data: dict[str, Any]) -> Partition:
    """Inverse of :func:`partition_to_dict`."""
    if data.get("format") != _PARTITION_FORMAT:
        raise ModelError(
            f"not a {_PARTITION_FORMAT} document: format={data.get('format')!r}"
        )
    if data.get("version") != _VERSION:
        raise ModelError(f"unsupported version {data.get('version')!r}")
    taskset = taskset_from_dict(data["taskset"])
    try:
        return Partition.from_assignment(
            taskset, int(data["cores"]), data["assignment"]
        )
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed partition document: {exc}") from exc


def save_partition(partition: Partition, path: str | Path) -> None:
    Path(path).write_text(json.dumps(partition_to_dict(partition), indent=2) + "\n")


def load_partition(path: str | Path) -> Partition:
    return partition_from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Injection events (repro.sched.events is imported lazily: the model
# layer must stay importable without pulling in the whole analysis /
# partitioning stack the event runtime builds on)
# ----------------------------------------------------------------------
def _event_to_entry(event) -> dict[str, Any]:
    entry: dict[str, Any] = {"kind": event.kind}
    if event.end == event.start:
        entry["time"] = event.start
    else:
        entry["start"] = event.start
        entry["end"] = event.end
    if event.factor is not None:
        entry["factor"] = event.factor
    if event.tasks is not None:
        entry["tasks"] = list(event.tasks)
    if event.task is not None:
        entry["task"] = {
            "name": event.task.name,
            "period": event.task.period,
            "wcets": list(event.task.wcets),
        }
    if event.task_index is not None:
        entry["task_index"] = event.task_index
    if event.core is not None:
        entry["core"] = event.core
    return entry


def events_to_dict(events) -> dict[str, Any]:
    """A JSON-ready dict describing a sequence of ``SimEvent`` records."""
    return {
        "format": _EVENTS_FORMAT,
        "version": _VERSION,
        "events": [_event_to_entry(e) for e in events],
    }


def events_from_dict(data: dict[str, Any]):
    """Inverse of :func:`events_to_dict` (validates format/version).

    Document-shape problems raise :class:`ModelError`; structurally
    invalid events raise the event constructor's
    :class:`~repro.types.SimulationError` with the offending field named.
    """
    from repro.sched.events import SimEvent

    if data.get("format") != _EVENTS_FORMAT:
        raise ModelError(
            f"not a {_EVENTS_FORMAT} document: format={data.get('format')!r}"
        )
    if data.get("version") != _VERSION:
        raise ModelError(f"unsupported version {data.get('version')!r}")
    entries = data.get("events")
    if not isinstance(entries, list):
        raise ModelError("malformed events document: 'events' must be a list")
    events = []
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ModelError(f"malformed event #{pos}: not an object")
        try:
            kind = entry["kind"]
            if "time" in entry:
                start = end = float(entry["time"])
            else:
                start = float(entry["start"])
                end = float(entry.get("end", entry["start"]))
            task = entry.get("task")
            if task is not None:
                task = MCTask(
                    wcets=tuple(task["wcets"]),
                    period=task["period"],
                    name=task.get("name", ""),
                )
            events.append(
                SimEvent(
                    kind=kind,
                    start=start,
                    end=end,
                    factor=entry.get("factor"),
                    tasks=(
                        tuple(entry["tasks"])
                        if entry.get("tasks") is not None
                        else None
                    ),
                    task=task,
                    task_index=entry.get("task_index"),
                    core=entry.get("core"),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed event #{pos}: {exc}") from exc
    return tuple(events)


def save_events(events, path: str | Path) -> None:
    Path(path).write_text(json.dumps(events_to_dict(events), indent=2) + "\n")


def load_events(path: str | Path):
    return events_from_dict(json.loads(Path(path).read_text()))

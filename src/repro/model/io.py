"""JSON (de)serialization for task sets, partitions and event scripts.

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
task->core assignment vector (one entry per task, ``-1`` = unassigned).

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
``"start"``/``"end"`` pair.

This module is the one decode boundary: the CLI loaders, the serve
daemon's request parsers and the event loader all read through it.
Numbers must be finite JSON numbers (not ``bool``, not strings, not
integers beyond float range); counts and indices must be JSON integers,
names and kinds strings.  A wrong type or shape, or a file that is not
UTF-8 JSON, raises :class:`~repro.types.ModelError` naming the field.
Values are checked by the constructors (``MCTask``, ``MCTaskSet``,
``Partition``, ``SimEvent``), so a bad file fails at load.
"""

from __future__ import annotations

import json
import math
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


_MISSING = object()


def _read_json(path: str | Path) -> object:
    """The JSON value in ``path``: ``OSError`` if unreadable, else ModelError."""
    raw = Path(path).read_bytes()
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:  # syntax, encoding, nesting
        raise ModelError(f"not a JSON document: {exc}") from exc


def _open(data: object, fmt: str) -> dict[str, Any]:
    """The header check of every document: an object of ``fmt``, version 1."""
    doc = _object(data, "", f"a {fmt} document")
    if doc.get("format") != fmt:
        raise ModelError(f"not a {fmt} document: format={doc.get('format')!r:.40}")
    version = doc.get("version")
    if isinstance(version, bool) or version != _VERSION:
        raise ModelError(f"unsupported version {version!r:.40}")
    return doc


def _malformed(where: str, problem: str) -> ModelError:
    """``problem`` in the entry ``where`` ("" = the document itself)."""
    return ModelError(f"malformed {where}: {problem}" if where else problem)


def _reader(accept, expected: str):
    """A typed field reader: ``read(value, where, key)`` returns ``value``."""

    def read(value: object, where: str, key: str):
        if accept(value):
            return value
        raise _malformed(where, f"{key} must be {expected}, got {value!r:.40}")

    return read


def _list_of(read):
    def read_list(value: object, where: str, key: str) -> tuple:
        return tuple(read(v, where, f"{key} entry") for v in _list(value, where, key))

    return read_list


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value: object) -> bool:
    try:
        return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


_number = _reader(_is_finite_number, "a finite number")
_integer = _reader(_is_int, "an integer")
_string = _reader(lambda v: isinstance(v, str), "a string")
_list = _reader(lambda v: isinstance(v, list), "a list")
_object = _reader(lambda v: isinstance(v, dict), "an object")
_numbers = _list_of(_number)
_integers = _list_of(_integer)
_levels = _reader(
    lambda v: _is_int(v) and 1 <= v <= MAX_LEVELS, f"an integer in [1, {MAX_LEVELS}]"
)


def _field(obj: dict, key: str, where: str, read, default: Any = _MISSING):
    """``obj[key]`` through the typed reader ``read``; ``default`` if absent."""
    if key in obj:
        return read(obj[key], where, key)
    if default is _MISSING:
        raise _malformed(where, f"missing field {key!r}")
    return default


def _task_from_entry(entry: object, where: str = "task") -> MCTask:
    """Decode one ``{period, wcets, name?}`` task entry."""
    entry = _object(entry, where, "entry")
    return MCTask(
        wcets=_field(entry, "wcets", where, _numbers),
        period=_field(entry, "period", where, _number),
        name=_field(entry, "name", where, _string, ""),
    )


def _task_to_entry(task: MCTask) -> dict[str, Any]:
    return {"name": task.name, "period": task.period, "wcets": list(task.wcets)}


def taskset_to_dict(taskset: MCTaskSet) -> dict[str, Any]:
    """A JSON-ready dict describing ``taskset``."""
    return {
        "format": _TASKSET_FORMAT,
        "version": _VERSION,
        "levels": taskset.levels,
        "tasks": [_task_to_entry(t) for t in taskset],
    }


def taskset_from_dict(data: object) -> MCTaskSet:
    """Inverse of :func:`taskset_to_dict`; raises :class:`ModelError`."""
    doc = _open(data, _TASKSET_FORMAT)
    levels = _field(doc, "levels", "", _levels)
    tasks = _field(doc, "tasks", "", _list)
    return MCTaskSet(
        [_task_from_entry(entry, f"task #{i}") for i, entry in enumerate(tasks)],
        levels=levels,
    )


def save_taskset(taskset: MCTaskSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(taskset_to_dict(taskset), indent=2) + "\n")


def load_taskset(path: str | Path) -> MCTaskSet:
    return taskset_from_dict(_read_json(path))


def partition_to_dict(partition: Partition) -> dict[str, Any]:
    """A JSON-ready dict describing ``partition`` (with its task set)."""
    return {
        "format": _PARTITION_FORMAT,
        "version": _VERSION,
        "cores": partition.cores,
        "assignment": partition.assignment.tolist(),
        "taskset": taskset_to_dict(partition.taskset),
    }


def partition_from_dict(data: object) -> Partition:
    """Inverse of :func:`partition_to_dict` (core ranges: ``PartitionError``)."""
    doc = _open(data, _PARTITION_FORMAT)
    taskset = taskset_from_dict(doc.get("taskset"))
    cores = _field(doc, "cores", "", _integer)
    assignment = _field(doc, "assignment", "", _integers)
    if len(assignment) != len(taskset):
        raise ModelError(f"assignment needs one entry per task, got {len(assignment)}")
    return Partition.from_assignment(taskset, cores, assignment)


def save_partition(partition: Partition, path: str | Path) -> None:
    Path(path).write_text(json.dumps(partition_to_dict(partition), indent=2) + "\n")


def load_partition(path: str | Path) -> Partition:
    return partition_from_dict(_read_json(path))


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
        entry["task"] = _task_to_entry(event.task)
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


def events_from_dict(data: object):
    """Inverse of :func:`events_to_dict`.

    Invalid values (unknown kind, negative duration, ...) raise the event
    constructor's :class:`~repro.types.SimulationError`.
    """
    from repro.sched.events import SimEvent

    doc = _open(data, _EVENTS_FORMAT)
    events = []
    for pos, entry in enumerate(_field(doc, "events", "", _list)):
        where = f"event #{pos}"
        entry = _object(entry, where, "entry")
        if "time" in entry:
            start = end = _field(entry, "time", where, _number)
        else:
            start = _field(entry, "start", where, _number)
            end = _field(entry, "end", where, _number, start)
        events.append(
            SimEvent(
                kind=_field(entry, "kind", where, _string),
                start=start,
                end=end,
                factor=_field(entry, "factor", where, _number, None),
                tasks=_field(entry, "tasks", where, _integers, None),
                task=(
                    _task_from_entry(entry["task"], f"{where} task")
                    if "task" in entry
                    else None
                ),
                task_index=_field(entry, "task_index", where, _integer, None),
                core=_field(entry, "core", where, _integer, None),
            )
        )
    return tuple(events)


def save_events(events, path: str | Path) -> None:
    Path(path).write_text(json.dumps(events_to_dict(events), indent=2) + "\n")


def load_events(path: str | Path):
    return events_from_dict(_read_json(path))

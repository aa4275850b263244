"""One table of malformed documents, shared by every decode boundary.

Each row is rejected by :mod:`repro.model.io` with a ``ModelError``, by
the serve daemon with a ``400`` and by the CLI loaders with exit 2 and
one stderr line.  A row's ``kind`` says where its ``doc`` goes:

* ``task`` — one task entry: a ``/place`` body's ``task``, a task-set
  document's only task, and an arrival event's payload;
* ``taskset`` — a ``repro-mc-taskset`` document (``/admit`` or
  ``/explain`` body, ``explain --taskset`` file);
* ``events`` — a ``repro-mc-events`` document (``simulate --events``);
* ``partition`` — a ``repro-mc-partition`` document;
* ``bytes`` — file (or request body) bytes that are not one UTF-8 JSON
  document; they go through every file loader.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

TASKSET = "repro-mc-taskset"
EVENTS = "repro-mc-events"
PARTITION = "repro-mc-partition"


@dataclass(frozen=True)
class Malformed:
    id: str
    kind: str
    doc: object
    #: The serve endpoint that takes a ``taskset`` row.
    endpoint: str = "/admit"


def taskset_doc(tasks=None, levels=2, **fields) -> dict:
    if tasks is None:
        tasks = [{"period": 10, "wcets": [1, 2]}]
    return {"format": TASKSET, "version": 1, "levels": levels, "tasks": tasks, **fields}


def events_doc(*events) -> dict:
    return {"format": EVENTS, "version": 1, "events": list(events)}


def arrival(task) -> dict:
    return {"kind": "task_arrival", "time": 1.0, "task": task}


def partition_doc(**fields) -> dict:
    return {
        "format": PARTITION,
        "version": 1,
        "cores": 2,
        "assignment": [0],
        "taskset": taskset_doc(),
        **fields,
    }


ROWS = [
    # one task entry
    Malformed("wcet-string", "task", {"period": 10, "wcets": ["a"]}),
    Malformed("period-string", "task", {"period": "10", "wcets": [1, 2]}),
    Malformed("period-bool", "task", {"period": True, "wcets": [1]}),
    Malformed("wcet-bool", "task", {"period": 10, "wcets": [1, False]}),
    Malformed("wcets-not-a-list", "task", {"period": 10, "wcets": "12"}),
    Malformed("period-infinite", "task", {"period": float("inf"), "wcets": [1]}),
    Malformed("period-nan", "task", {"period": float("nan"), "wcets": [1]}),
    Malformed("period-beyond-float", "task", {"period": 10**400, "wcets": [1]}),
    Malformed("period-null", "task", {"period": None, "wcets": [1]}),
    Malformed("period-missing", "task", {"wcets": [1]}),
    Malformed("name-not-a-string", "task", {"period": 10, "wcets": [1], "name": {}}),
    # task-set documents
    Malformed("taskset-not-an-object", "taskset", 5),
    Malformed("taskset-is-an-array", "taskset", [taskset_doc()]),
    Malformed(
        "admit-wcet-string", "taskset", taskset_doc([{"period": 10, "wcets": ["a"]}])
    ),
    Malformed(
        "explain-levels-float",
        "taskset",
        taskset_doc([{"period": 10, "wcets": [1]}], levels=2.0),
        endpoint="/explain",
    ),
    Malformed(
        "admit-levels-huge",
        "taskset",
        taskset_doc([{"period": 10, "wcets": [1, 2]}] * 2, levels=2000),
    ),
    Malformed(
        "explain-levels-above-cap",
        "taskset",
        taskset_doc([{"period": 10, "wcets": [1]}], levels=65),
        endpoint="/explain",
    ),
    Malformed("levels-string", "taskset", taskset_doc(levels="2")),
    Malformed("tasks-not-a-list", "taskset", taskset_doc(tasks={"0": {}})),
    Malformed("task-not-an-object", "taskset", taskset_doc(tasks=[[10, [1]]])),
    Malformed("format-missing", "taskset", {"version": 1, "levels": 1, "tasks": []}),
    Malformed("version-bool", "taskset", taskset_doc(version=True)),
    # event scripts
    Malformed("events-is-an-array", "events", [arrival({"period": 10, "wcets": [1]})]),
    Malformed("events-not-a-list", "events", {"format": EVENTS, "version": 1}),
    Malformed("event-not-an-object", "events", events_doc("core_failure")),
    Malformed("event-kind-missing", "events", events_doc({"time": 1.0, "core": 0})),
    Malformed(
        "event-core-float",
        "events",
        events_doc({"kind": "core_failure", "time": 1.0, "core": 1.9}),
    ),
    Malformed(
        "event-time-string",
        "events",
        events_doc({"kind": "core_failure", "time": "1", "core": 0}),
    ),
    Malformed(
        "event-factor-bool",
        "events",
        events_doc({"kind": "wcet_burst", "start": 0, "end": 1, "factor": True}),
    ),
    Malformed(
        "event-tasks-float",
        "events",
        events_doc(
            {"kind": "wcet_burst", "start": 0, "end": 1, "factor": 2, "tasks": [0.5]}
        ),
    ),
    Malformed(
        "event-task-index-string",
        "events",
        events_doc({"kind": "task_departure", "time": 1.0, "task_index": "0"}),
    ),
    Malformed(
        "event-task-index-float",
        "events",
        events_doc({"kind": "task_departure", "time": 1.0, "task_index": 1.0}),
    ),
    # partitions
    Malformed("partition-cores-string", "partition", partition_doc(cores="2")),
    Malformed(
        "partition-assignment-float", "partition", partition_doc(assignment=[1.5])
    ),
    Malformed("partition-assignment-short", "partition", partition_doc(assignment=[])),
    Malformed("partition-taskset-missing", "partition", partition_doc(taskset=None)),
    # bytes that are not one UTF-8 JSON document
    Malformed("truncated-json", "bytes", b'{"format": "repro-mc-'),
    Malformed("not-utf8", "bytes", b'{"format": "\xff"}'),
    Malformed("nested-too-deep", "bytes", b"[" * 100_000),
    Malformed("empty-file", "bytes", b""),
]


def rows(*kinds: str) -> list:
    """The rows of the given kinds as ``pytest.param`` values."""
    return [pytest.param(r, id=r.id) for r in ROWS if r.kind in kinds]


def file_bytes(row: Malformed) -> bytes:
    """The row as the contents of a document file."""
    if row.kind == "bytes":
        return row.doc
    doc = taskset_doc([row.doc]) if row.kind == "task" else row.doc
    return json.dumps(doc).encode()

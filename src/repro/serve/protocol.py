"""Wire protocol of the admission daemon: JSON in, JSON out.

Requests reuse the on-disk document formats of :mod:`repro.model.io`
(``repro-mc-taskset`` for ``/admit``, a single task entry for
``/place``), so a task set saved by any other layer of the repro can be
POSTed verbatim.  Parsing failures raise :class:`ProtocolError`, which
carries the HTTP status the transport should answer with.

Numeric fields must be finite JSON numbers: the model layer coerces
with ``float()``, which would quietly admit ``"10"`` or ``true`` and
raise a bare ``ValueError`` on ``"a"``, so the parsers type-check every
task entry before the model sees it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.model import MCTask, MCTaskSet
from repro.model.io import taskset_from_dict
from repro.partition.registry import available_schemes
from repro.types import ModelError, ReproError

__all__ = [
    "ProtocolError",
    "AdmitRequest",
    "ExplainRequest",
    "PlaceRequest",
    "parse_admit",
    "parse_explain",
    "parse_place",
]

#: Largest request body the transport will read, in bytes.
MAX_BODY_BYTES = 8 * 1024 * 1024


class ProtocolError(ReproError):
    """A malformed request; ``status`` is the HTTP answer (400/404/413)."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class AdmitRequest:
    """``POST /admit``: can ``taskset`` go on ``cores`` under ``scheme``?"""

    taskset: MCTaskSet
    cores: int
    scheme: str


@dataclass(frozen=True)
class ExplainRequest:
    """``POST /explain``: decompose the admission decision for ``taskset``.

    Same body as ``/admit``; the answer is the full
    :class:`repro.analysis.explain.ProbeExplanation` document instead of
    the bare verdict.
    """

    taskset: MCTaskSet
    cores: int
    scheme: str


@dataclass(frozen=True)
class PlaceRequest:
    """``POST /place``: which live core should this new task go to?"""

    task: MCTask


def _require_dict(payload: object) -> dict:
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    return payload


def _finite(value: object) -> bool:
    """A finite JSON number; ``bool`` and numeric strings are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


def _check_task_entry(entry: object) -> None:
    """Type-check one task entry; ``TypeError`` names the bad field."""
    if not isinstance(entry, dict):
        raise TypeError(f"a task entry must be an object, got {entry!r:.40}")
    if "period" in entry and not _finite(entry["period"]):
        raise TypeError(
            f"period must be a finite number, got {entry['period']!r:.40}"
        )
    wcets = entry.get("wcets", [])
    if not isinstance(wcets, list) or not all(_finite(c) for c in wcets):
        raise TypeError(f"wcets must be a list of finite numbers, got {wcets!r:.60}")
    if not isinstance(entry.get("name", ""), str):
        raise TypeError(f"name must be a string, got {entry['name']!r:.40}")


def _check_taskset_doc(doc: object) -> None:
    """Type-check a ``repro-mc-taskset`` document's numeric fields."""
    if not isinstance(doc, dict):
        raise TypeError(f"the taskset must be an object, got {doc!r:.40}")
    levels = doc.get("levels")
    if isinstance(levels, bool) or not isinstance(levels, int):
        raise TypeError(f"levels must be an integer, got {levels!r:.40}")
    tasks = doc.get("tasks")
    if not isinstance(tasks, list):
        raise TypeError(f"tasks must be a list, got {tasks!r:.40}")
    for entry in tasks:
        _check_task_entry(entry)


def parse_admit(payload: object) -> AdmitRequest:
    """Validate an ``/admit`` body: ``{taskset, cores, scheme?}``."""
    body = _require_dict(payload)
    if "taskset" not in body:
        raise ProtocolError("admit request needs a 'taskset' document")
    try:
        _check_taskset_doc(body["taskset"])
        taskset = taskset_from_dict(body["taskset"])
    except (ModelError, TypeError) as exc:
        raise ProtocolError(f"bad taskset: {exc}") from exc
    cores = body.get("cores")
    if not isinstance(cores, int) or isinstance(cores, bool) or cores < 1:
        raise ProtocolError(f"'cores' must be a positive integer, got {cores!r}")
    scheme = body.get("scheme", "ca-tpa")
    if scheme not in available_schemes():
        raise ProtocolError(
            f"unknown scheme {scheme!r}; available: {available_schemes()}"
        )
    return AdmitRequest(taskset=taskset, cores=cores, scheme=scheme)


def parse_explain(payload: object) -> ExplainRequest:
    """Validate an ``/explain`` body — identical shape to ``/admit``."""
    req = parse_admit(payload)
    return ExplainRequest(taskset=req.taskset, cores=req.cores, scheme=req.scheme)


def parse_place(payload: object) -> PlaceRequest:
    """Validate a ``/place`` body: ``{task: {period, wcets, name?}}``."""
    body = _require_dict(payload)
    entry = body.get("task")
    if not isinstance(entry, dict):
        raise ProtocolError("place request needs a 'task' object")
    try:
        _check_task_entry(entry)
        task = MCTask(
            wcets=tuple(entry["wcets"]),
            period=entry["period"],
            name=entry.get("name", ""),
        )
    except (KeyError, TypeError, ModelError) as exc:
        raise ProtocolError(f"bad task: {exc}") from exc
    return PlaceRequest(task=task)

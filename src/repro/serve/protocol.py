"""Wire protocol of the admission daemon: JSON in, JSON out.

Requests reuse the on-disk document formats of :mod:`repro.model.io`
(``repro-mc-taskset`` for ``/admit``, a single task entry for
``/place``) and decode them with its strict decoder, so a task set
saved by any other layer of the repro can be POSTed verbatim and is
held to the same type rules as ``repro-mc explain --taskset``.  Parsing
failures raise :class:`ProtocolError`, which carries the HTTP status
the transport should answer with; every decoder
:class:`~repro.types.ModelError` becomes a ``400``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model import MCTask, MCTaskSet
from repro.model.io import _task_from_entry, taskset_from_dict
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


def parse_admit(payload: object) -> AdmitRequest:
    """Validate an ``/admit`` body: ``{taskset, cores, scheme?}``."""
    body = _require_dict(payload)
    try:
        taskset = taskset_from_dict(body.get("taskset"))
    except ModelError as exc:
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
        task = _task_from_entry(entry)
    except ModelError as exc:
        raise ProtocolError(f"bad task: {exc}") from exc
    return PlaceRequest(task=task)

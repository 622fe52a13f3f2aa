"""Telemetry event schema, sinks, and the tolerant JSONL reader.

Every telemetry record is one JSON object on one line with a three-field
envelope — ``v`` (schema version), ``kind``, ``ts`` (unix wall time) —
plus the kind-specific payload described by :data:`EVENT_SCHEMA`
(DESIGN.md §14).  The schema is closed: unknown kinds and unknown fields
are validation errors, so a reader that validates today keeps working on
every file this version wrote.

Two sinks share the ``emit(dict)`` and ``emit_many(events)`` interface:

* :class:`TelemetryWriter` — appends to a JSONL file with one ``O_APPEND``
  write of whole lines per call (the quarantine-log idiom), so the sweep
  runner and any number of forked workers can interleave events into one
  file without locks; a crash can at worst tear the final line.
* :class:`MemorySink` — an in-process list, for tests.

:func:`read_events` mirrors the result store's tolerance: torn or
non-JSON lines are counted, not fatal.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Iterable
from pathlib import Path

TELEMETRY_VERSION = 1

# Event kinds ---------------------------------------------------------------

CAMPAIGN_START = "campaign-start"
CAMPAIGN_END = "campaign-end"
SPEC_END = "spec-end"
HEARTBEAT_EVENT = "heartbeat"
SPAN = "span"
COUNTER = "counter"
GAUGE = "gauge"
RUN_END = "run-end"

_NUMBER = (int, float)
_OPT_INT = (int, type(None))
_OPT_STR = (str, type(None))

#: kind -> (required fields, optional fields); each maps name -> accepted
#: types.  ``bool`` is excluded from numeric fields explicitly in
#: :func:`validate_event` (it is an ``int`` subclass in Python).
EVENT_SCHEMA: dict[str, tuple[dict, dict]] = {
    CAMPAIGN_START: (
        {"campaign": str, "total_specs": int, "jobs": int},
        {"worker": _OPT_STR},
    ),
    CAMPAIGN_END: (
        {
            "campaign": str,
            "executed": int,
            "cached": int,
            "failed": int,
            "retried": int,
            "quarantined": int,
            "elapsed_s": _NUMBER,
        },
        {"worker": _OPT_STR},
    ),
    SPEC_END: (
        {
            "spec": str,
            "label": str,
            "status": str,
            "attempts": int,
            "elapsed_s": _NUMBER,
            "cached": bool,
        },
        {},
    ),
    HEARTBEAT_EVENT: (
        {"spec": str, "attempt": int, "wall_s": _NUMBER},
        {
            "sim_ns": _OPT_INT,
            "epochs": _OPT_INT,
            "flows_completed": _OPT_INT,
            "rss_bytes": _OPT_INT,
            "worker": _OPT_STR,
        },
    ),
    SPAN: (
        {"engine": str, "phase": str, "wall_s": _NUMBER, "sim_ns": int},
        {"spec": _OPT_STR},
    ),
    COUNTER: (
        {"engine": str, "name": str, "delta": int, "sim_ns": int},
        {"spec": _OPT_STR},
    ),
    GAUGE: (
        {"engine": str, "name": str, "value": _NUMBER, "sim_ns": int},
        {"spec": _OPT_STR},
    ),
    RUN_END: (
        {
            "engine": str,
            "sim_ns": int,
            "wall_s": _NUMBER,
            "spans": dict,
            "counters": dict,
            "gauges": dict,
        },
        {"spec": _OPT_STR},
    ),
}

_ENVELOPE = ("v", "kind", "ts")


def make_event(kind: str, **fields) -> dict:
    """A schema-complete event: envelope plus the kind's payload."""
    return {"v": TELEMETRY_VERSION, "kind": kind, "ts": time.time(), **fields}


def validate_event(event: object) -> list[str]:
    """Problems with ``event`` against the schema; empty list means valid."""
    if not isinstance(event, dict):
        return ["event is not an object"]
    problems = []
    version = event.get("v")
    if version != TELEMETRY_VERSION:
        problems.append(f"v is {version!r}, expected {TELEMETRY_VERSION}")
    ts = event.get("ts")
    if isinstance(ts, bool) or not isinstance(ts, _NUMBER):
        problems.append("ts is not a number")
    kind = event.get("kind")
    if kind not in EVENT_SCHEMA:
        problems.append(f"unknown kind {kind!r}")
        return problems
    required, optional = EVENT_SCHEMA[kind]
    for name, types in required.items():
        if name not in event:
            problems.append(f"{kind}: missing field {name!r}")
        elif not _type_ok(event[name], types):
            problems.append(f"{kind}: field {name!r} has wrong type")
    for name, types in optional.items():
        if name in event and not _type_ok(event[name], types):
            problems.append(f"{kind}: field {name!r} has wrong type")
    known = set(_ENVELOPE) | set(required) | set(optional)
    for name in sorted(set(event) - known):
        problems.append(f"{kind}: unknown field {name!r}")
    return problems


def _type_ok(value: object, types) -> bool:
    if types is bool:
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False  # bool is an int subclass; never a valid number
    return isinstance(value, types)


class TelemetryWriter:
    """Append-only JSONL event sink, safe across forked processes."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def emit(self, event: dict) -> None:
        self.emit_many((event,))

    def emit_many(self, events: Iterable[dict]) -> None:
        """Append ``events``, in order, with one write."""
        data = "".join(
            json.dumps(event, sort_keys=True) + "\n" for event in events
        ).encode()
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)


class MemorySink:
    """List-backed sink for tests and in-process profiling."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def emit_many(self, events: Iterable[dict]) -> None:
        self.events.extend(events)

    def of_kind(self, kind: str) -> list[dict]:
        return [event for event in self.events if event.get("kind") == kind]


def read_events(path: str | Path) -> tuple[list[dict], int]:
    """All parseable events in a JSONL file plus the torn-line count."""
    events: list[dict] = []
    torn = 0
    with Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                torn += 1
                continue
            if isinstance(event, dict):
                events.append(event)
            else:
                torn += 1
    return events, torn

"""JSONL workload traces: record a generated stream, replay it later.

One JSON object per line, schema ``v1``::

    {"v": 1, "time": 12.25, "session": 3, "query": 0, "user": 1881,
     "vp": "vp-007", "service": "google-like",
     "keyword": {"text": "...", "popularity": 0.91, "complexity": 0.4,
                 "granularity": 1, "suggested": true}}

Floats serialize through :func:`repr` (Python's ``json``), which
round-trips every IEEE double exactly — a replayed trace submits at
bit-identical times.  Reading is lazy (line by line), so replaying a
trace preserves the streaming runner's bounded-memory property.

:class:`TraceWorkload` adapts a trace file to the workload interface
the streaming runner consumes (``events()`` / ``events_for()``).
Traces replay serially; sharded runs regenerate from a
:class:`~repro.workload.generator.WorkloadSpec` instead, which is
cheaper than shipping a file to every worker and equally deterministic.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Tuple

from repro.content.keywords import Keyword
from repro.workload.generator import QueryEvent

__all__ = ["TraceFormatError", "TraceWorkload", "read_events",
           "write_events"]

_VERSION = 1


class TraceFormatError(ValueError):
    """A JSONL trace holds a line that cannot be decoded.

    The one error of both trace readers, this module's workload traces
    and :mod:`repro.measure.traceio`'s session archives.  The message
    starts with the number of the offending line.
    """


def parse_line(line: str, line_number: int) -> dict:
    """One JSONL line, which must hold a JSON object."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as error:
        raise TraceFormatError("line %d: invalid JSON (%s)"
                               % (line_number, error)) from error
    if not isinstance(record, dict):
        raise TraceFormatError("line %d: expected a JSON object, found %s"
                               % (line_number, type(record).__name__))
    return record


def malformed(line_number: int, error: Exception) -> TraceFormatError:
    """The error for a record whose fields fail to decode."""
    return TraceFormatError("line %d: malformed trace record (%s: %s)"
                            % (line_number, type(error).__name__, error))


def _event_record(event: QueryEvent) -> dict:
    keyword = event.keyword
    return {"v": _VERSION, "time": event.time,
            "session": event.session_id, "query": event.query_index,
            "user": event.user, "vp": event.vp_name,
            "service": event.service,
            "keyword": {"text": keyword.text,
                        "popularity": keyword.popularity,
                        "complexity": keyword.complexity,
                        "granularity": keyword.granularity,
                        "suggested": keyword.suggested}}


def _event_from_record(record: dict, line_number: int) -> QueryEvent:
    if record.get("v") != _VERSION:
        raise TraceFormatError("line %d: unsupported trace version %r"
                               % (line_number, record.get("v")))
    try:
        keyword = record["keyword"]
        return QueryEvent(
            time=float(record["time"]),
            session_id=int(record["session"]),
            query_index=int(record["query"]),
            user=int(record["user"]),
            vp_name=record["vp"],
            service=record["service"],
            keyword=Keyword(text=keyword["text"],
                            popularity=float(keyword["popularity"]),
                            complexity=float(keyword["complexity"]),
                            granularity=int(keyword["granularity"]),
                            suggested=bool(keyword["suggested"])))
    except (KeyError, TypeError, ValueError) as error:
        raise malformed(line_number, error) from error


def write_events(path: str, events: Iterable[QueryEvent]) -> int:
    """Stream ``events`` to ``path`` as JSONL; returns the line count."""
    count = 0
    with open(path, "w") as handle:
        for event in events:
            handle.write(json.dumps(_event_record(event),
                                    sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def read_events(path: str) -> Iterator[QueryEvent]:
    """Lazily yield the events of a JSONL trace, in file order."""
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if line:
                yield _event_from_record(parse_line(line, line_number),
                                         line_number)


class TraceWorkload:
    """A recorded trace presented through the workload interface."""

    def __init__(self, path: str, services: Tuple[str, ...] = ()):
        self.path = path
        self._services = tuple(services)

    @property
    def services(self) -> Tuple[str, ...]:
        """Service names the trace touches (scanned once if not given)."""
        if not self._services:
            seen = []
            for event in read_events(self.path):
                if event.service not in seen:
                    seen.append(event.service)
            self._services = tuple(seen)
        return self._services

    def events(self) -> Iterator[QueryEvent]:
        return read_events(self.path)

    def events_for(self, vp_names) -> Iterator[QueryEvent]:
        names = frozenset(vp_names)
        for event in self.events():
            if event.vp_name in names:
                yield event

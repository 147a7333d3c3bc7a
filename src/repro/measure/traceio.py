"""Trace serialization: persist and reload captured query sessions.

A measurement study's raw artifact is its trace archive.  This module
writes :class:`~repro.measure.session.QuerySession` objects (metadata +
packet events, optionally payloads) to a JSON-lines file and reads them
back, so analysis can run long after — and far away from — the capture,
exactly as the paper's tcpdump archives allowed.

Format: one JSON object per line.  ``{"kind": "session", ...}`` carries
session metadata; each following ``{"kind": "pkt", ...}`` line carries
one packet event of that session.  Payload bytes are base64-encoded and
omitted when absent.
"""

from __future__ import annotations

import base64
import json
from typing import IO, Iterable, Iterator, List, Optional

from repro.content.keywords import Keyword
from repro.measure.capture import PacketEvent
from repro.measure.session import QuerySession
from repro.workload.trace import TraceFormatError, malformed, parse_line

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------
def _session_header(session: QuerySession) -> dict:
    keyword = session.keyword
    return {
        "kind": "session",
        "version": FORMAT_VERSION,
        "query_id": session.query_id,
        "service": session.service,
        "vp_name": session.vp_name,
        "fe_name": session.fe_name,
        "keyword": {
            "text": keyword.text,
            "popularity": keyword.popularity,
            "complexity": keyword.complexity,
            "granularity": keyword.granularity,
            "suggested": keyword.suggested,
        },
        "local_port": session.local_port,
        "started_at": session.started_at,
        "completed_at": session.completed_at,
        "failed": session.failed,
        "response_size": session.response_size,
        "path_rtt": session.path_rtt,
        "n_events": len(session.events),
    }


def _event_record(event: PacketEvent) -> dict:
    record = {
        "kind": "pkt",
        "t": event.time,
        "dir": event.direction,
        "src": event.src, "dst": event.dst,
        "sp": event.sport, "dp": event.dport,
        "wire": event.wire_size,
        "len": event.payload_len,
        "seq": event.seq, "ack": event.ack,
        "fl": ("S" if event.syn else "") + ("F" if event.fin else "")
              + ("A" if event.ack_flag else "")
              + ("R" if event.retransmit else ""),
    }
    if event.payload is not None:
        record["data"] = base64.b64encode(event.payload).decode("ascii")
    return record


def write_sessions(sessions: Iterable[QuerySession],
                   fileobj: IO[str]) -> int:
    """Write sessions as JSON lines; returns the number written."""
    count = 0
    for session in sessions:
        fileobj.write(json.dumps(_session_header(session)) + "\n")
        for event in session.events:
            fileobj.write(json.dumps(_event_record(event)) + "\n")
        count += 1
    return count


def save_sessions(sessions: Iterable[QuerySession], path: str) -> int:
    """Write sessions to ``path``; returns the number written."""
    with open(path, "w", encoding="utf-8") as fileobj:
        return write_sessions(sessions, fileobj)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------
def _decode_event(record: dict, line_number: int) -> PacketEvent:
    try:
        flags = record.get("fl", "")
        payload = record.get("data")
        return PacketEvent(
            time=record["t"],
            direction=record["dir"],
            src=record["src"], dst=record["dst"],
            sport=record["sp"], dport=record["dp"],
            wire_size=record["wire"],
            payload_len=record["len"],
            seq=record["seq"], ack=record["ack"],
            syn="S" in flags, fin="F" in flags,
            ack_flag="A" in flags, retransmit="R" in flags,
            payload=base64.b64decode(payload) if payload is not None
            else None)
    except (KeyError, TypeError, ValueError) as error:
        raise malformed(line_number, error) from error


def _decode_session(header: dict, line_number: int) -> QuerySession:
    if header.get("version") != FORMAT_VERSION:
        raise TraceFormatError("line %d: unsupported trace version %r"
                               % (line_number, header.get("version")))
    try:
        keyword_data = header["keyword"]
        return QuerySession(
            query_id=header["query_id"],
            service=header["service"],
            vp_name=header["vp_name"],
            fe_name=header["fe_name"],
            keyword=Keyword(text=keyword_data["text"],
                            popularity=keyword_data["popularity"],
                            complexity=keyword_data["complexity"],
                            granularity=keyword_data["granularity"],
                            suggested=keyword_data["suggested"]),
            local_port=header["local_port"],
            started_at=header["started_at"],
            completed_at=header["completed_at"],
            failed=header["failed"],
            response_size=header["response_size"],
            path_rtt=header["path_rtt"])
    except (KeyError, TypeError, ValueError) as error:
        raise malformed(line_number, error) from error


def read_sessions(fileobj: IO[str]) -> Iterator[QuerySession]:
    """Stream sessions back from a JSON-lines trace file.

    Raises :class:`TraceFormatError`, naming the line, for a record it
    cannot decode and for a session header whose packet count the
    records that follow it do not match.
    """
    current: Optional[QuerySession] = None
    expected_events = header_line = 0
    for line_number, line in enumerate(fileobj, start=1):
        line = line.strip()
        if not line:
            continue
        record = parse_line(line, line_number)
        kind = record.get("kind")
        if kind == "session":
            if current is not None:
                _check_complete(current, expected_events, header_line)
                yield current
            current = _decode_session(record, line_number)
            expected_events = record.get("n_events", 0)
            header_line = line_number
        elif kind == "pkt":
            if current is None:
                raise TraceFormatError(
                    "line %d: packet before any session header"
                    % line_number)
            current.events.append(_decode_event(record, line_number))
        else:
            raise TraceFormatError("line %d: unknown record kind %r"
                                   % (line_number, kind))
    if current is not None:
        _check_complete(current, expected_events, header_line)
        yield current


def _check_complete(session: QuerySession, expected: int,
                    header_line: int) -> None:
    if len(session.events) != expected:
        raise TraceFormatError(
            "line %d: session %s: expected %d events, found %d "
            "(truncated file?)" % (header_line, session.query_id,
                                   expected, len(session.events)))


def load_sessions(path: str) -> List[QuerySession]:
    """Read all sessions from ``path``."""
    with open(path, "r", encoding="utf-8") as fileobj:
        return list(read_sessions(fileobj))


# ---------------------------------------------------------------------------
# human-readable rendering
# ---------------------------------------------------------------------------
def render_tcpdump(session: QuerySession,
                   max_events: Optional[int] = None) -> str:
    """Render a session's trace in a tcpdump-like text form.

    Times are shown relative to the session start; ``max_events`` caps
    output (an ellipsis line notes elision).
    """
    lines = ["# session %s  service=%s  vp=%s  fe=%s  keyword=%r"
             % (session.query_id, session.service, session.vp_name,
                session.fe_name, session.keyword.text)]
    events = session.events
    shown = events if max_events is None else events[:max_events]
    for event in shown:
        arrow = "->" if event.direction == "out" else "<-"
        flags = "".join(code for flag, code in
                        ((event.syn, "S"), (event.fin, "F"),
                         (event.ack_flag, "."),
                         (event.retransmit, "R")) if flag) or "-"
        lines.append("%10.6f %s %s:%d %s %s:%d [%s] seq=%d ack=%d "
                     "len=%d"
                     % (event.time - session.started_at,
                        arrow, event.src, event.sport, arrow,
                        event.dst, event.dport, flags,
                        event.seq, event.ack, event.payload_len))
    if max_events is not None and len(events) > max_events:
        lines.append("... (%d more packets)"
                     % (len(events) - max_events))
    return "\n".join(lines)

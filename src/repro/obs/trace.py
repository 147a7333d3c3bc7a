"""Tracing core: sim-time spans with deterministic serialization.

A :class:`Span` is a named ``[start, end]`` interval in *simulated*
seconds, with string-keyed attributes, point ``(time, name)`` events
(the paper's packet landmarks t1..te live here), and child spans (the
connect/request/response and static/dynamic phases).

Determinism contract: spans carry no wall-clock stamps, no process
ids, and no allocation-order identifiers.  Serialization canonicalises
everything — events sorted by ``(time, name)``, children and top-level
spans sorted by ``(start, end, name, query_id)`` — so a serial
campaign and any sharded run of it produce byte-identical snapshots.
Span ids exist only in the exporters, assigned by DFS preorder over the
canonical order (:mod:`repro.obs.export`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple


class Span:
    """One named interval of simulated time."""

    __slots__ = ("name", "start", "end", "attrs", "events", "children")

    def __init__(self, name: str, start: float,
                 end: Optional[float] = None,
                 attrs: Optional[Dict[str, object]] = None):
        self.name = name
        self.start = start
        self.end = end
        self.attrs: Dict[str, object] = dict(attrs or {})
        self.events: List[Tuple[float, str]] = []
        self.children: List["Span"] = []

    def event(self, time: float, name: str) -> None:
        """Record a point event (e.g. a packet landmark) on this span."""
        self.events.append((time, name))

    def child(self, name: str, start: float, end: float,
              attrs: Optional[Dict[str, object]] = None) -> "Span":
        span = Span(name, start, end, attrs)
        self.children.append(span)
        return span

    def finish(self, end: float) -> None:
        self.end = end

    # -- canonical serialization ---------------------------------------
    def sort_key(self) -> tuple:
        return (self.start,
                self.end if self.end is not None else self.start,
                self.name, str(self.attrs.get("query_id", "")))

    def as_dict(self) -> dict:
        """Canonical dict form (sorted events/children, JSON-ready)."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end if self.end is not None else self.start,
            "attrs": self.attrs,
            "events": [[time, name]
                       for time, name in sorted(self.events)],
            "children": [child.as_dict() for child in
                         sorted(self.children,
                                key=lambda s: s.sort_key())],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(data["name"], data["start"], data["end"],
                   data.get("attrs"))
        span.events = [(time, name)
                       for time, name in data.get("events", [])]
        span.children = [cls.from_dict(child)
                         for child in data.get("children", [])]
        return span


def span_dict_key(data: dict) -> tuple:
    """Canonical ordering key for serialized spans (dict form)."""
    return (data["start"], data["end"], data["name"],
            str(data.get("attrs", {}).get("query_id", "")))


def merge_span_dicts(snapshots: List[List[dict]]) -> List[dict]:
    """Combine per-shard span snapshots into one canonical list."""
    merged: List[dict] = []
    for snapshot in snapshots:
        merged.extend(snapshot)
    merged.sort(key=span_dict_key)
    return merged


class Tracer:
    """An append-only buffer of top-level spans.

    A campaign records into the tracer of its own
    :func:`~repro.obs.runtime.capture`, so :meth:`snapshot` is exactly
    that campaign's spans; :meth:`absorb` then moves them outward.
    """

    def __init__(self):
        self.spans: List[Span] = []

    def add(self, span: Span) -> Span:
        self.spans.append(span)
        return span

    def span(self, name: str, start: float,
             end: Optional[float] = None,
             attrs: Optional[Dict[str, object]] = None) -> Span:
        return self.add(Span(name, start, end, attrs))

    def snapshot(self) -> List[dict]:
        """Canonical serialized copies of every recorded span."""
        return [span.as_dict() for span in
                sorted(self.spans, key=lambda s: s.sort_key())]

    def absorb(self, spans: Iterable[Span]) -> None:
        self.spans.extend(spans)

    def session_spans(self) -> Dict[str, Span]:
        """query_id -> session span, over the whole buffer."""
        return {str(span.attrs.get("query_id", "")): span
                for span in self.spans if span.name == "session"}

    def clear(self) -> None:
        del self.spans[:]

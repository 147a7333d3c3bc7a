"""The replay cache proper: bounded LRU storage.

The cache maps session fingerprints (see
:mod:`repro.sim.replay.fingerprint`) to recorded timelines.  It is
strictly per-campaign — fingerprints stand in for path and config
parameters that are only functions of identity *within* one scenario —
so each campaign's replay source owns a fresh one.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.sim.replay.timeline import RecordedTimeline


class ReplayCache:
    """Bounded LRU store of recorded session timelines.

    Capacity is counted in entries; a Dataset-A campaign produces at
    most one entry per distinct (service, FE, VP, keyword, binade,
    draws) tuple, so the default comfortably covers the paper-scale
    campaigns while bounding memory on pathological keyword sets.
    """

    DEFAULT_CAPACITY = 4096

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got %r" % (capacity,))
        self.capacity = capacity
        self.evictions = 0
        self._entries: "OrderedDict[tuple, RecordedTimeline]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Optional[RecordedTimeline]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: tuple, timeline: RecordedTimeline) -> None:
        self._entries[key] = timeline
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def pop(self, key: tuple) -> None:
        """Drop an entry (validation failure on a failed session)."""
        self._entries.pop(key, None)

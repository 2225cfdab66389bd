"""Adversary-visible access traces.

The threat model (Section 2.2) lets the attacker observe every address on
the memory and I/O buses.  :class:`TraceRecorder` captures exactly that
view: one :class:`TraceEvent` per physical slot access, tagged with tier,
operation, slot, size and simulated timestamp, plus *markers* the protocols
emit at period boundaries (markers model public knowledge -- e.g. "a
shuffle is happening now" is observable from the bus anyway).

The :mod:`repro.security` analyzers consume these traces to test the
paper's security claims empirically (read-once per period, uniform leaf
access, fixed cycle shape...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator


@dataclass(frozen=True)
class TraceEvent:
    """One bus-visible access (or a period marker when ``op`` is 'mark')."""

    op: str  # "read" | "write" | "mark"
    tier: str  # "memory" | "storage" | "-" for marks
    slot: int  # physical slot index (or 0 for marks)
    size: int  # bytes moved
    time_us: float  # simulated timestamp at issue
    label: str = ""  # marker text / optional annotation

    @property
    def is_marker(self) -> bool:
        return self.op == "mark"


class TraceRecorder:
    """Append-only event log with the filters the analyzers need."""

    def __init__(self, capacity: int | None = None):
        self.events: list[TraceEvent] = []
        self.capacity = capacity
        self.dropped = 0

    @property
    def accepting(self) -> bool:
        """Whether the next event would be kept (lets emitters skip building it)."""
        return self.capacity is None or len(self.events) < self.capacity

    def record(self, event: TraceEvent) -> None:
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(event)

    def mark(self, label: str, time_us: float) -> None:
        """Emit a period marker (e.g. 'period-start', 'shuffle-start')."""
        self.record(TraceEvent(op="mark", tier="-", slot=0, size=0, time_us=time_us, label=label))

    # ------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def filter(self, predicate: Callable[[TraceEvent], bool]) -> list[TraceEvent]:
        return [e for e in self.events if predicate(e)]

    def storage_reads(self) -> list[TraceEvent]:
        return self.filter(lambda e: e.tier == "storage" and e.op == "read")

    def storage_writes(self) -> list[TraceEvent]:
        return self.filter(lambda e: e.tier == "storage" and e.op == "write")

    def memory_accesses(self) -> list[TraceEvent]:
        return self.filter(lambda e: e.tier == "memory" and not e.is_marker)

    def split_by_marker(self, label: str) -> list[list[TraceEvent]]:
        """Split the event list at every marker with the given label.

        Returns the segments *between* markers (the stretch before the
        first marker is segment 0).  Markers themselves are not included
        in the segments.
        """
        segments: list[list[TraceEvent]] = [[]]
        for event in self.events:
            if event.is_marker and event.label == label:
                segments.append([])
            elif not event.is_marker:
                segments[-1].append(event)
        return segments

    def markers(self, label: str | None = None) -> list[TraceEvent]:
        return self.filter(
            lambda e: e.is_marker and (label is None or e.label == label)
        )

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    @staticmethod
    def slots(events: Iterable[TraceEvent]) -> list[int]:
        """Just the slot sequence -- what a pattern attacker fundamentally has."""
        return [e.slot for e in events if not e.is_marker]

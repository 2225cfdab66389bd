"""The ROB (reorder buffer) table of the control layer (Figure 4-1).

Requests enter the ROB in program order and *retire* in program order, but
the scheduler may service them out of order inside its lookahead window --
exactly the role of a CPU reorder buffer, which is where the paper takes
the name from.

Entry life cycle::

    PENDING --(scheduled as the cycle's miss)--> MISS_INFLIGHT
    MISS_INFLIGHT --(I/O completes, block cached)--> READY
    PENDING/READY --(serviced by an in-memory access)--> SERVED

``READY`` entries are hits-in-waiting: their block reached the cache tree
but the request itself has not yet been given its in-memory access (Figure
4-2 services M1's request one cycle after its load).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from repro.oram.base import Request, release


class EntryState(Enum):
    PENDING = "pending"
    MISS_INFLIGHT = "miss-inflight"
    READY = "ready"
    SERVED = "served"


@dataclass
class RobEntry:
    """One request tracked through the scheduler."""

    request: Request
    state: EntryState = EntryState.PENDING
    result: bytes | None = None
    submit_cycle: int = -1
    served_cycle: int = -1
    #: set instead of ``result`` when the entry's shard was fenced: the
    #: request failed fast and will never be served.
    error: Exception | None = None

    @property
    def addr(self) -> int:
        return self.request.addr

    @property
    def latency_cycles(self) -> int:
        """Cycles between submission and service (-1 until served)."""
        if self.served_cycle < 0 or self.submit_cycle < 0:
            return -1
        return self.served_cycle - self.submit_cycle


class RobTable:
    """FIFO of request entries with windowed scanning and in-order retire."""

    def __init__(self) -> None:
        self._entries: deque[RobEntry] = deque()
        self.total_submitted = 0
        self.total_retired = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def unserved(self) -> int:
        return sum(1 for entry in self._entries if entry.state is not EntryState.SERVED)

    def push(self, request: Request, cycle: int) -> RobEntry:
        entry = RobEntry(request=request, submit_cycle=cycle)
        self._entries.append(entry)
        self.total_submitted += 1
        return entry

    def window(self, size: int) -> list[RobEntry]:
        """The first ``size`` unserved entries, in program order.

        This is the scheduler's lookahead: "scan the next d requests to
        find a proper match for the current schedule group" (Section 4.2).
        """
        if size <= 0:
            return []
        selected: list[RobEntry] = []
        for entry in self._entries:
            if entry.state is EntryState.SERVED:
                continue
            selected.append(entry)
            if len(selected) == size:
                break
        return selected

    def retire(self) -> list[RobEntry]:
        """Pop and return entries that are SERVED, from the front, in order."""
        retired: list[RobEntry] = []
        while self._entries and self._entries[0].state is EntryState.SERVED:
            retired.append(self._entries.popleft())
        self.total_retired += len(retired)
        return retired

    def has_work(self) -> bool:
        # Retire keeps the front of the deque unserved, so this short-circuit
        # is O(1) in the steady state -- unlike counting all unserved
        # entries, which made every drain cycle scan the whole backlog.
        served = EntryState.SERVED
        return any(entry.state is not served for entry in self._entries)

    def occupancy(self) -> int:
        return len(self._entries)

    def close(self) -> None:
        """Drop the entries (the owning stack is closing)."""
        release(self, "_entries")

    # ---------------------------------------------------------- checkpoint
    def state_dict(self) -> dict:
        """JSON-able entry list (request ids are regenerated on restore)."""
        from base64 import b64encode

        def encode(blob: bytes | None) -> str | None:
            return b64encode(blob).decode("ascii") if blob is not None else None

        return {
            "entries": [
                {
                    "op": entry.request.op.value,
                    "addr": entry.request.addr,
                    "data": encode(entry.request.data),
                    "user": entry.request.user,
                    "state": entry.state.value,
                    "result": encode(entry.result),
                    "submit_cycle": entry.submit_cycle,
                    "served_cycle": entry.served_cycle,
                }
                for entry in self._entries
            ],
            "total_submitted": self.total_submitted,
            "total_retired": self.total_retired,
        }

    def load_state(self, state: dict) -> None:
        from base64 import b64decode

        from repro.oram.base import OpKind

        def decode(blob: str | None) -> bytes | None:
            return b64decode(blob) if blob is not None else None

        self._entries.clear()
        for item in state["entries"]:
            entry = RobEntry(
                request=Request(
                    op=OpKind(item["op"]),
                    addr=item["addr"],
                    data=decode(item["data"]),
                    user=item["user"],
                ),
                state=EntryState(item["state"]),
                result=decode(item["result"]),
                submit_cycle=item["submit_cycle"],
                served_cycle=item["served_cycle"],
            )
            self._entries.append(entry)
        self.total_submitted = state["total_submitted"]
        self.total_retired = state["total_retired"]

    def demote_ready(self) -> int:
        """Send READY entries back to PENDING (their blocks left the cache).

        Called at shuffle time: the eviction empties the cache tree, so a
        request whose load completed but which was not yet serviced must
        fetch again in the new period (the re-permutation makes the second
        fetch touch a fresh slot, preserving read-once).
        """
        demoted = 0
        for entry in self._entries:
            if entry.state is EntryState.READY:
                entry.state = EntryState.PENDING
                demoted += 1
        return demoted

"""Direct-submit twin: the correctness oracle for the serving layer.

The server journals every request its backend accepts, in backend
program order (``seq``).  Served payloads are a pure function of that
order -- the scheduler's cycle batching, the round-robin feed and the
asyncio interleaving all collapse away once the order requests reached
``stack.submit`` is fixed.  So a *twin* -- a second stack built from the
same spec, fed the journal one request per drain by
:func:`~repro.sim.engine.drive` -- must serve bit-identical bytes for
every seq the server served.  The twin reproduces bytes, not cycles: the
server pumps 32-cycle quanta the journal does not record.

Rejected requests (overload, quota, rate, ACL, fenced stripe) never
enter the journal, so they are excluded from the comparison by design;
the conformance harness counts them separately and asserts they
happened when a scenario provoked them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.oram.base import Request
from repro.serve.server import JournalRecord
from repro.sim.engine import drive


def journal_requests(journal: "list[JournalRecord]") -> "list[Request]":
    """The journal's records as the requests the backend accepted."""
    return [
        Request.read(record.addr, user=record.tenant)
        if record.op == "read"
        else Request.write(record.addr, record.data, user=record.tenant)
        for record in journal
    ]


def replay_direct(journal: "list[JournalRecord]", stack) -> "dict[int, bytes | None]":
    """Drive ``stack`` straight from the journal; payload by seq.

    One request per drain: the strictest in-order interpretation of the
    journal, with no batching the server might have benefited from.  A
    record the twin could not serve maps to ``None``.
    """
    results = drive(stack, journal_requests(journal))
    return {record.seq: result for record, result in zip(journal, results)}


@dataclass
class TwinDiff:
    """Outcome of one served-stream-vs-twin comparison."""

    compared: int = 0
    #: seqs the server accepted but never served (fenced mid-flight,
    #: shutdown) -- excluded from the byte comparison, reported here.
    unserved: list[int] = field(default_factory=list)
    #: seqs whose served bytes differ from the twin's (first few).
    mismatched: list[dict] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return not self.mismatched

    def to_dict(self) -> dict:
        return {
            "compared": self.compared,
            "identical": self.identical,
            "unserved": list(self.unserved),
            "mismatched": list(self.mismatched),
        }


_MAX_REPORTED = 5


def diff_served(
    journal: "list[JournalRecord]",
    served_by_seq: "dict[int, bytes | None]",
    twin_by_seq: "dict[int, bytes | None]",
) -> TwinDiff:
    """Compare the server's served payloads against the twin's, seq by seq."""
    diff = TwinDiff()
    for record in journal:
        if record.seq not in served_by_seq:
            diff.unserved.append(record.seq)
            continue
        diff.compared += 1
        got = served_by_seq[record.seq]
        want = twin_by_seq.get(record.seq)
        if got != want and len(diff.mismatched) < _MAX_REPORTED:
            diff.mismatched.append(
                {
                    "seq": record.seq,
                    "op": record.op,
                    "addr": record.addr,
                    "served": got.hex() if got is not None else None,
                    "twin": want.hex() if want is not None else None,
                }
            )
    return diff

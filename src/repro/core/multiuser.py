"""Multi-user front end (Section 5.3.2).

Several users share one oblivious back end.  The front end:

* keeps one FIFO per user and interleaves them round-robin into the
  shared ROB, so the bus-visible request mix is independent of any single
  user's activity burst;
* enforces a per-user access-control list ("some access control
  protection is required and can be added to our scheduler");
* tracks per-user service statistics so fairness is measurable.

The underlying scheduler already groups arbitrary requests into
fixed-shape cycles, so nothing changes at the protocol layer -- which is
the paper's point: the group strategy extends to multiple users for free.

The front end is back-end agnostic: anything implementing the batched
``submit``/``drain`` protocol works, including
:class:`~repro.core.horam.HybridORAM` and the sharded
:class:`~repro.core.sharding.ShardedHORAM`.  When the back end also
exposes ``step``/``has_work``/``retire`` (both of the above do), the
front end interleaves feeding with execution one ``step`` at a time;
otherwise each round ends in a ``drain``.  How much to feed per round is
the back end's statement (``feed_quantum()``): a kernel its lookahead
window, a serially stepped fleet one window per shard, and a back end
whose quantum is a whole drain (workers behind IPC, anything supervised)
``None`` -- everything queued, which the caller's admission bound caps.
A back end that states nothing is fed everything queued as well.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

from repro.core.rob import RobEntry
from repro.oram.base import ORAMError, Request


class AccessDenied(ORAMError):
    """The user's ACL does not cover the requested address."""


class UnknownUserError(ORAMError):
    """A request or stats lookup named a user that was never registered.

    Typed (rather than a bare ``KeyError``/``ValueError``) so serving
    layers can map it to a clean client-error rejection; carries the
    offending user id and the registered set for the error payload.
    """

    def __init__(self, user: int, registered: "list[int]"):
        super().__init__(
            f"user {user} is not registered "
            f"(registered users: {sorted(registered)})"
        )
        self.user = user
        self.registered = sorted(registered)


@dataclass
class UserStats:
    """Per-user service accounting.

    ``served`` counts every retired request attributed to the user;
    ``latency_samples`` counts the subset that carried a valid latency
    measurement, so :attr:`mean_latency_cycles` is never skewed by
    entries retired without a served-cycle stamp.
    """

    submitted: int = 0
    served: int = 0
    #: requests withdrawn from the FIFO before reaching the back end
    #: (deadline cancellation); submitted still counts them.
    cancelled: int = 0
    latency_samples: int = 0
    total_latency_cycles: int = 0

    @property
    def mean_latency_cycles(self) -> float:
        return self.total_latency_cycles / self.latency_samples if self.latency_samples else 0.0


@dataclass
class _UserQueue:
    queue: deque = field(default_factory=deque)
    stats: UserStats = field(default_factory=UserStats)
    allowed: range | None = None  # None = whole address space


class MultiUserFrontEnd:
    """Round-robin, ACL-checked multiplexer over one oblivious back end."""

    def __init__(self, oram):
        if not (hasattr(oram, "submit") and hasattr(oram, "drain")):
            raise TypeError(
                "MultiUserFrontEnd needs a batched back end with submit()/drain()"
            )
        self.oram = oram
        self._users: dict[int, _UserQueue] = {}
        self._round_robin: list[int] = []
        self._cursor = 0
        #: retired entries whose user tag was missing or never registered
        #: (e.g. requests submitted directly to the back end before the
        #: front end attached); they are counted here instead of crashing
        #: stats accounting.
        self.unattributed_retired = 0

    # -------------------------------------------------------------- set-up
    def register_user(self, user: int, allowed: range | None = None) -> None:
        """Add a user, optionally restricted to an address range."""
        if user in self._users:
            raise ValueError(f"user {user} already registered")
        self._users[user] = _UserQueue(allowed=allowed)
        self._round_robin.append(user)

    def users(self) -> list[int]:
        return list(self._round_robin)

    def stats(self, user: int) -> UserStats:
        return self._user(user).stats

    def total_stats(self) -> UserStats:
        """Aggregate accounting across every registered user.

        The conformance harness asserts ``total_stats().served`` equals the
        stream length -- no request is lost or double-attributed by the
        round-robin feed, whatever back end is underneath.
        """
        total = UserStats()
        for entry in self._users.values():
            total.submitted += entry.stats.submitted
            total.served += entry.stats.served
            total.cancelled += entry.stats.cancelled
            total.latency_samples += entry.stats.latency_samples
            total.total_latency_cycles += entry.stats.total_latency_cycles
        return total

    # ------------------------------------------------------------- traffic
    def submit(self, user: int, request: Request) -> None:
        """Queue a request on the user's FIFO (ACL-checked here).

        The caller's ``Request`` is never mutated: a request tagged for
        another user (or untagged) is queued as a tagged copy, so one
        request object can safely be templated across users without
        silently re-tagging earlier queued entries.  A request already
        tagged ``user`` is queued as it is.
        """
        entry = self._user(user)
        if entry.allowed is not None and request.addr not in entry.allowed:
            raise AccessDenied(
                f"user {user} may not touch address {request.addr} "
                f"(allowed {entry.allowed})"
            )
        if request.user != user:
            request = replace(request, user=user)
        entry.queue.append(request)
        entry.stats.submitted += 1

    def cancel(self, user: int, request_id: int) -> bool:
        """Withdraw a request still sitting in the user's FIFO.

        Only queued-not-yet-fed requests can be withdrawn: once a request
        has moved into the shared ROB the oblivious schedule owns it.
        Returns True when the request was found and removed -- the caller
        (the serving layer's deadline enforcement) then knows the back
        end will never see it.
        """
        entry = self._user(user)
        for index, queued in enumerate(entry.queue):
            if queued.request_id == request_id:
                del entry.queue[index]
                entry.stats.cancelled += 1
                return True
        return False

    def pump(self, max_cycles: int | None = None) -> list[RobEntry]:
        """Feed queued requests round-robin and run the back end.

        Each round moves one ``feed_quantum()`` of requests into the back
        end -- the whole backlog when the back end drains per call -- and
        runs one ``step`` (``drain`` where the back end hides ``step``).
        Returns all entries retired.  Stops when every user queue and the
        back end have drained (or after ``max_cycles`` rounds).
        """
        retired: list[RobEntry] = []
        cycles = 0
        step = getattr(self.oram, "step", None)
        while self._has_queued() or self._backend_has_work():
            self._feed_round_robin()
            if step is not None:
                retired.extend(step())
            else:
                retired.extend(self.oram.drain())
            cycles += 1
            if max_cycles is not None and cycles >= max_cycles:
                break
        retired.extend(self._backend_retire())
        self._account(retired)
        return retired

    # ------------------------------------------------------------ internals
    def _account(self, retired: list[RobEntry]) -> None:
        for entry in retired:
            user = entry.request.user
            bucket = self._users.get(user) if user is not None else None
            if bucket is None:
                self.unattributed_retired += 1
                continue
            bucket.stats.served += 1
            latency = entry.latency_cycles
            if latency >= 0:
                bucket.stats.latency_samples += 1
                bucket.stats.total_latency_cycles += latency

    def _backend_has_work(self) -> bool:
        has_work = getattr(self.oram, "has_work", None)
        return bool(has_work()) if has_work is not None else False

    def _backend_retire(self) -> list[RobEntry]:
        retire = getattr(self.oram, "retire", None)
        return retire() if retire is not None else []

    def _user(self, user: int) -> _UserQueue:
        try:
            return self._users[user]
        except KeyError:
            raise UnknownUserError(user, list(self._users)) from None

    def _has_queued(self) -> bool:
        return any(entry.queue for entry in self._users.values())

    def _feed_round_robin(self) -> None:
        """Move one back-end feed quantum of requests into the shared ROB."""
        if not self._round_robin:
            return
        quantum = getattr(self.oram, "feed_quantum", None)
        batch = quantum() if quantum is not None else None
        moved = 0
        idle_passes = 0
        while (batch is None or moved < batch) and idle_passes < len(self._round_robin):
            user = self._round_robin[self._cursor]
            self._cursor = (self._cursor + 1) % len(self._round_robin)
            queue = self._users[user].queue
            if queue:
                self.oram.submit(queue.popleft())
                moved += 1
                idle_passes = 0
            else:
                idle_passes += 1

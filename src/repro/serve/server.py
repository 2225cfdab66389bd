"""The asyncio serving front door.

:class:`ORAMServer` puts a socket in front of any stack the testing
harness can build -- :class:`~repro.core.horam.HybridORAM`, a
:class:`~repro.core.sharding.ShardedHORAM` under either executor, or a
:class:`~repro.core.supervisor.FleetSupervisor` -- so concurrent clients
reach the oblivious engine through the same cacheable interface the
paper measures.  A request waits for the steps the pump runs before it
is served, and the step that ends an access period runs that period's
shuffle *plan* -- the cache-tree eviction and the permutation draws --
so a request arriving meanwhile waits for it.  It does not wait for the
period's write-back (opening, gathering and sealing the new partition
images): the pump runs it one partition per turn while nothing is
pending, and a request that needs a partition first writes back that
one alone.

Layers, outermost first:

* **transport** -- length-prefixed JSON frames (:mod:`repro.serve.
  protocol`), any number of concurrent connections, full pipelining.
  Each connection is an :class:`asyncio.Protocol`: every wake-up decodes
  all the complete frames received, and answers go into the
  connection's *outbox*, which leaves in one ``transport.write`` after
  each batch of decoded frames and at the end of each pump quantum.
  While a peer does not read its answers and the transport's buffer is
  above its high-water mark, the connection stops reading requests.
* **admission control** -- one bounded budget over everything admitted
  but not yet answered, i.e. the per-tenant front-end FIFOs plus the
  backend ROB/scheduler occupancy.  At the bound new work is rejected
  with a typed :class:`Overloaded` (never queued blindly), which is the
  backpressure signal open-loop clients see.
* **tenancy** -- per-tenant ACLs ride :class:`~repro.core.multiuser.
  MultiUserFrontEnd` unchanged; the server layers lifetime *quotas* and
  token-bucket *rate limits* on top, each with its own typed rejection.
* **the pump** -- a single task that feeds admitted requests through the
  front end's round-robin scheduler and steps the engine, answering each
  retired request's waiting connections; with nothing pending it writes
  back the stack's pending partition rewrites, one per turn.  The stack
  never runs concurrently with itself; asyncio interleaves I/O with the
  pump, not inside it.

Every request the backend accepts is journaled in backend program order
(``seq``).  Served values are a pure function of that order, so a
*direct-submit twin* -- a fresh identical stack driven ``submit``/
``drain`` straight from the journal -- must serve bit-identical bytes
(:mod:`repro.serve.twin`).  The conformance harness and
``horam-bench serving`` both gate on that diff; rejections never enter the
journal and are excluded from the comparison by design (but counted).
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass

from repro.core.multiuser import AccessDenied, MultiUserFrontEnd, UnknownUserError
from repro.core.sharding import ShardUnavailableError
from repro.oram.base import ORAMError, Request
from repro.serve.protocol import (
    FrameDecoder,
    ProtocolError,
    encode_frame,
    from_hex,
    to_hex,
)
from repro.sim.metrics import Histogram


class ServeRejection(ORAMError):
    """Base of the typed admission rejections; ``code`` is the wire code."""

    code = "rejected"


class Overloaded(ServeRejection):
    """Admission control: queue depth + ROB occupancy hit the bound."""

    code = "overloaded"

    def __init__(self, inflight: int, bound: int):
        super().__init__(
            f"server overloaded: {inflight} requests in flight (bound {bound})"
        )
        self.inflight = inflight
        self.bound = bound


class QuotaExhausted(ServeRejection):
    """The tenant has spent its lifetime operations budget."""

    code = "quota_exhausted"

    def __init__(self, tenant: int, quota: int):
        super().__init__(f"tenant {tenant} exhausted its quota of {quota} ops")
        self.tenant = tenant
        self.quota = quota


class RateLimited(ServeRejection):
    """The tenant's token bucket is empty right now (retry later)."""

    code = "rate_limited"

    def __init__(self, tenant: int, rate_per_s: float):
        super().__init__(
            f"tenant {tenant} exceeded its rate limit of {rate_per_s:g} ops/s"
        )
        self.tenant = tenant
        self.rate_per_s = rate_per_s


class ServeUnavailable(ServeRejection):
    """The address' shard is fenced; the stripe fails fast."""

    code = "unavailable"

    def __init__(self, shard_index: int, addr: int):
        super().__init__(f"shard {shard_index} is fenced (addr {addr})")
        self.shard_index = shard_index
        self.addr = addr


class DeadlineExceeded(ServeRejection):
    """The request's deadline passed before the server could serve it."""

    code = "deadline_exceeded"

    def __init__(self, addr: int, late_by_ms: float, executed: bool):
        stage = "after execution" if executed else "before execution"
        super().__init__(
            f"deadline passed {late_by_ms:.1f} ms ago {stage} (addr {addr})"
        )
        self.addr = addr
        self.late_by_ms = late_by_ms
        #: True when the backend executed the request anyway (the result
        #: is journaled and, via the idempotency cache, visible to a
        #: retry); False when it was cancelled before ever reaching the
        #: oblivious stack.
        self.executed = executed


class Draining(ServeRejection):
    """The server is draining: in-flight work finishes, nothing new enters."""

    code = "draining"

    def __init__(self):
        super().__init__("server is draining; no new work is admitted")


#: scheduler cycles per pump quantum before yielding to the loop, so
#: admission and response writes interleave with long drains.
PUMP_MAX_CYCLES = 32
#: default hard deadline for :meth:`ORAMServer.drain` (seconds); past it,
#: still-pending work is failed with ``shutting_down``.
DRAIN_TIMEOUT_S = 30.0


@dataclass
class ServeConfig:
    """Operator knobs for one server instance."""

    #: admission bound: admitted-but-unanswered requests (front-end FIFOs
    #: plus backend ROB occupancy).  At the bound, ``Overloaded``.
    max_inflight: int = 64
    #: deadline applied to requests that carry none (ms; None = no
    #: deadline -- requests wait as long as the backend takes).
    default_deadline_ms: float | None = None
    #: bounded retention of the idempotency dedupe cache (completed
    #: responses by ``(tenant, idem)``, FIFO eviction).  A retry arriving
    #: after its key was evicted re-executes; size this above the
    #: client-side retry horizon.
    idem_cache_size: int = 1024

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be positive")
        if self.idem_cache_size < 1:
            raise ValueError("idem_cache_size must be >= 1")


@dataclass
class TenantPolicy:
    """Per-tenant admission policy (ACL + quota + rate)."""

    #: address range the tenant may touch (None = whole space); enforced
    #: by the MultiUserFrontEnd ACL machinery, not re-implemented here.
    allowed: range | None = None
    #: lifetime operations budget (None = unmetered).
    quota: int | None = None
    #: sustained ops/second token-bucket rate (None = unlimited).
    rate_per_s: float | None = None
    #: bucket depth (burst tolerance); default one second of rate.
    burst: int | None = None

    def __post_init__(self) -> None:
        if self.quota is not None and self.quota < 0:
            raise ValueError("quota must be >= 0")
        if self.rate_per_s is not None and self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if self.burst is not None and self.burst < 1:
            raise ValueError("burst must be >= 1")


class _TenantState:
    """Live policy state: remaining quota and the token bucket."""

    def __init__(self, tenant: int, policy: TenantPolicy, now: float):
        self.tenant = tenant
        self.policy = policy
        self.quota_remaining = policy.quota
        self.bucket_cap = (
            float(policy.burst)
            if policy.burst is not None
            else max(1.0, policy.rate_per_s or 1.0)
        )
        self.tokens = self.bucket_cap
        self.refilled_at = now
        self.admitted = 0
        self.rejections: Counter = Counter()

    def check_rate(self, now: float) -> bool:
        """Refill by elapsed time, then try to spend one token."""
        rate = self.policy.rate_per_s
        if rate is None:
            return True
        self.tokens = min(
            self.bucket_cap, self.tokens + (now - self.refilled_at) * rate
        )
        self.refilled_at = now
        if self.tokens < 1.0:
            return False
        self.tokens -= 1.0
        return True


@dataclass
class JournalRecord:
    """One backend-accepted request, in backend program order."""

    seq: int
    request_id: int
    tenant: int
    op: str
    addr: int
    data: bytes | None = None
    #: the request's idempotency key, if it carried one; two journal
    #: records sharing a ``(tenant, idem)`` pair means a retried request
    #: executed twice -- the invariant the chaos gate counts violations
    #: of.  Replay/twin machinery ignores this field.
    idem: str | None = None


class _JournalingBackend:
    """The front end's view of the stack: journals backend program order.

    The :class:`~repro.core.multiuser.MultiUserFrontEnd` feeds its user
    FIFOs into ``submit`` in round-robin order -- *that* order, not
    admission order, is the program order served values depend on, so
    the journal records exactly the submits the stack accepts (a fenced
    stripe's refusal is captured on :attr:`failed` instead of journaled,
    and never raises into the middle of a pump, which would lose the
    quantum's already-retired entries).

    ``step`` is exposed only for stacks that step safely; a
    :class:`~repro.core.supervisor.FleetSupervisor` recovers crashes
    inside ``drain``, so hiding ``step`` makes the front end fall back
    to the supervised drain path.  How much the front end feeds per
    round is the stack's own ``feed_quantum()``, forwarded untouched: a
    kernel's window, or -- for a stack that drains per call -- the whole
    admitted backlog, which ``max_inflight`` already bounds.
    """

    def __init__(self, stack, journal: list[JournalRecord], idem_of: dict):
        self._stack = stack
        self._journal = journal
        #: request_id -> idempotency key, maintained by the server's
        #: admission path; consulted here so journal records carry the
        #: key of the logical request they execute.
        self._idem_of = idem_of
        #: requests a fenced stripe refused at feed time; the server
        #: answers them after the pump quantum returns.
        self.failed: list[Request] = []
        # Supervisors recover ShardCrashed inside drain(); their fleet's
        # raw step() must never be driven directly.
        if hasattr(stack, "step") and not hasattr(stack, "recovery_report"):
            self.step = stack.step

    def submit(self, request: Request):
        try:
            result = self._stack.submit(request)
        except ShardUnavailableError:
            self.failed.append(request)
            return None
        self._journal.append(
            JournalRecord(
                seq=len(self._journal),
                request_id=request.request_id,
                tenant=request.user,
                op=request.op.value,
                addr=request.addr,
                data=request.data,
                idem=self._idem_of.get(request.request_id),
            )
        )
        return result

    def drain(self):
        return self._stack.drain()

    def has_work(self) -> bool:
        return self._stack.has_work()

    def retire(self):
        return self._stack.retire()

    def feed_quantum(self):
        return self._stack.feed_quantum()


@dataclass
class _Pending:
    """One admitted request awaiting retirement.

    ``waiters`` starts with the admitting ``(connection, msg_id)``;
    retried duplicates of the same idempotency key that arrive while the
    original is still in flight *join* it -- their waiters are appended
    here and every one is answered with the single execution's response.
    """

    tenant: int
    waiters: list
    admitted_at: float
    addr: int
    #: absolute clock time the request's deadline lapses (None = none).
    deadline_at: float | None = None
    #: the request's ``(tenant, idem)`` dedupe key, if any.
    idem: tuple | None = None


class ORAMServer:
    """Concurrent network front door over one oblivious stack."""

    def __init__(self, stack, config: ServeConfig | None = None, clock=time.monotonic):
        self.stack = stack
        self.config = config or ServeConfig()
        self.clock = clock
        #: backend program order of every accepted request.
        self.journal: list[JournalRecord] = []
        #: served payload by journal seq (None for writes) -- what the
        #: direct-submit twin must reproduce byte-for-byte.
        self.served_by_seq: dict[int, bytes | None] = {}
        #: request_id -> idempotency key string (set at admission,
        #: cleared at response); the journaling backend stamps records
        #: from it.
        self._idem_of_request: dict[int, str] = {}
        self._backend = _JournalingBackend(stack, self.journal, self._idem_of_request)
        #: a striped stack's address -> shard map (None: nothing to fence).
        self._shard_of = getattr(stack, "shard_of", None)
        self.front = MultiUserFrontEnd(self._backend)
        self._tenants: dict[int, _TenantState] = {}
        self._pending: dict[int, _Pending] = {}  # request_id -> pending
        #: request_id -> journal seq, for journaled requests still pending
        #: (entries leave when their request is answered); ``_indexed``
        #: is how far into the journal the map has been brought.
        self._seq_of_request: dict[int, int] = {}
        self._indexed = 0
        #: (tenant, idem) -> request_id of the in-flight execution.
        self._idem_inflight: dict[tuple, int] = {}
        #: (tenant, idem) -> completed ok-response, bounded FIFO.
        self._idem_cache: OrderedDict = OrderedDict()
        self.rejections: Counter = Counter()
        self.served = 0
        self.connections = 0
        #: duplicate requests answered straight from the dedupe cache.
        self.idem_replays = 0
        #: duplicate requests that joined an in-flight execution.
        self.idem_joins = 0
        #: requests cancelled before execution when their deadline passed.
        self.deadline_cancelled = 0
        #: requests that executed but retired past their deadline.
        self.deadline_late = 0
        #: retired entries matching no pending waiter (direct backend
        #: traffic or already-answered requests); counted, not dropped
        #: invisibly.
        self.unmatched_retired = 0
        #: wall-clock admission->response latencies of served requests,
        #: in integer microseconds (1 us resolution below 4.096 ms, then
        #: 0.05 % -- see :class:`~repro.sim.metrics.Histogram`).
        self.wall_latency_us = Histogram()
        self._work = asyncio.Event()
        self._pump_task: asyncio.Task | None = None
        #: open connections, and the ones whose outbox holds answers.
        self._connections: set[_Connection] = set()
        self._unflushed: dict[_Connection, None] = {}
        self._tcp_server: asyncio.AbstractServer | None = None
        self._closing = False
        self._draining = False
        self._drain_report: dict | None = None

    # ------------------------------------------------------------- tenancy
    def add_tenant(self, tenant: int, policy: TenantPolicy | None = None) -> None:
        """Register a tenant with the front end and attach its policy."""
        policy = policy or TenantPolicy()
        self.front.register_user(tenant, allowed=policy.allowed)
        self._tenants[tenant] = _TenantState(tenant, policy, self.clock())

    def tenants(self) -> list[int]:
        return list(self._tenants)

    # ------------------------------------------------------------ lifecycle
    async def __aenter__(self) -> "ORAMServer":
        self.ensure_pump()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def ensure_pump(self) -> None:
        if self._pump_task is None or self._pump_task.done():
            self._pump_task = asyncio.get_running_loop().create_task(self._pump_loop())

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Listen on TCP; returns the bound (host, port)."""
        self.ensure_pump()
        loop = asyncio.get_running_loop()
        self._tcp_server = await loop.create_server(
            lambda: _Connection(self), host, port
        )
        bound = self._tcp_server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def attach(self, sock) -> "_Connection":
        """Serve one already-connected socket (socketpair tests)."""
        self.ensure_pump()
        loop = asyncio.get_running_loop()
        _, connection = await loop.create_connection(
            lambda: _Connection(self), sock=sock
        )
        return connection

    async def drain(self, timeout_s: float = DRAIN_TIMEOUT_S) -> dict:
        """Graceful drain: admit nothing new, finish everything admitted.

        From the first await onward every new read/write is rejected with
        a typed ``draining`` error while the pump keeps running until all
        admitted work has retired and responded.  Past the hard deadline
        (``timeout_s``, default :data:`DRAIN_TIMEOUT_S`) the remainder
        is failed with ``shutting_down`` instead of waiting forever on a
        wedged backend.  The TCP listener (if any) stops accepting, and a
        supervised backend exposing ``checkpoint_now`` is checkpointed at
        the drain boundary so a restart resumes bit-identically from
        here.  Returns a report; connections stay open for final
        responses until :meth:`close`.
        """
        deadline = self.clock() + timeout_s
        self._draining = True
        self.ensure_pump()
        self._work.set()
        escalated = 0
        while self._pending:
            if self.clock() >= deadline:
                for request_id, pending in list(self._pending.items()):
                    self._pending.pop(request_id, None)
                    self._forget(pending, request_id)
                    self.rejections["shutting_down"] += 1
                    self._respond(
                        pending,
                        _error_response(
                            None, "shutting_down", "drain deadline escalation"
                        ),
                    )
                    escalated += 1
                self._flush()
                break
            # The pump task makes the progress (and writes each quantum's
            # answers); yielding here hands it the loop between checks.
            await asyncio.sleep(0)
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        checkpoint_now = getattr(self.stack, "checkpoint_now", None)
        checkpointed = checkpoint_now() if checkpoint_now is not None else 0
        self._drain_report = {
            "escalated": escalated,
            "checkpointed_shards": checkpointed,
            "accepted": len(self.journal),
            "served": self.served,
        }
        return dict(self._drain_report)

    async def close(self) -> None:
        """Stop accepting, fail whatever is still pending, stop the pump."""
        self._closing = True
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
        for pending in list(self._pending.values()):
            self._respond(
                pending, _error_response(None, "shutting_down", "server closing")
            )
        self._pending.clear()
        self._seq_of_request.clear()
        self._idem_inflight.clear()
        self._idem_of_request.clear()
        self._flush()
        self._work.set()
        if self._pump_task is not None:
            try:
                await self._pump_task
            except asyncio.CancelledError:  # pragma: no cover - teardown race
                pass
        connections = list(self._connections)
        for connection in connections:
            connection.transport.close()
        await asyncio.gather(*(connection.lost for connection in connections))

    # ----------------------------------------------------------- accounting
    def inflight(self) -> int:
        """Admitted-but-unanswered requests: FIFO depth + ROB occupancy."""
        return len(self._pending)

    def health(self) -> dict:
        """The live health/metrics report the ``health`` op serves.

        Wall-clock percentiles come from :attr:`wall_latency_us`: exact to
        the microsecond below 4.096 ms and within 0.05 % above, and their
        cost follows the number of distinct latencies, not of requests.
        """
        wall_us = self.wall_latency_us.percentiles((50, 99, 99.9))
        wall = {
            "p50": wall_us[50] / 1000.0,
            "p99": wall_us[99] / 1000.0,
            "p999": wall_us[99.9] / 1000.0,
        }
        backend_pct = getattr(self.stack, "latency_percentiles", None)
        load_balance = getattr(self.stack, "load_balance", None)
        report = getattr(self.stack, "recovery_report", None)
        tenants = {}
        for tenant, state in self._tenants.items():
            stats = self.front.stats(tenant)
            tenants[str(tenant)] = {
                "submitted": stats.submitted,
                "served": stats.served,
                "mean_latency_cycles": stats.mean_latency_cycles,
                "quota_remaining": state.quota_remaining,
                "rejections": dict(state.rejections),
            }
        return {
            "requests": {
                "accepted": len(self.journal),
                "served": self.served,
                "inflight": self.inflight(),
                "rejections": dict(self.rejections),
                "idem_replays": self.idem_replays,
                "idem_joins": self.idem_joins,
                "deadline_cancelled": self.deadline_cancelled,
                "deadline_late": self.deadline_late,
                "unmatched_retired": self.unmatched_retired,
            },
            "draining": self._draining,
            "latency_percentiles": {
                "wall_ms": wall,
                "simulated_cycles": (
                    {str(q): v for q, v in backend_pct().items()}
                    if backend_pct is not None
                    else None
                ),
            },
            "load_balance": load_balance() if load_balance is not None else None,
            "fenced_shards": sorted(getattr(self.stack, "fenced", ())),
            "supervisor": report() if report is not None else None,
            "tenants": tenants,
        }

    # ------------------------------------------------------------ admission
    def _admit(self, message: dict, connection) -> dict | None:
        """Admission-control one request frame from ``connection``.

        Returns the response to send at once (a rejection, or a replay
        from the dedupe cache), or None when admitted: the pump then
        answers through ``connection.send`` once the request retires.
        No awaits, so admission is atomic under asyncio's cooperative
        scheduling.
        """
        msg_id = message.get("id")
        try:
            request, tenant = self._parse(message)
            deadline_ms = self._parse_deadline(message)
            idem_key = self._parse_idem(message, tenant)
        except (ProtocolError, ValueError) as error:
            self.rejections["bad_request"] += 1
            return _error_response(msg_id, "bad_request", str(error))
        state = self._tenants.get(tenant)
        if state is None:
            self.rejections["unknown_tenant"] += 1
            error = UnknownUserError(tenant, list(self._tenants))
            return _error_response(msg_id, "unknown_tenant", str(error))
        if idem_key is not None:
            cached = self._idem_cache.get(idem_key)
            if cached is not None:
                # Exactly-once: the logical request already executed;
                # replay its response without touching policy state.
                self.idem_replays += 1
                return {**cached, "id": msg_id, "replayed": True}
            inflight_id = self._idem_inflight.get(idem_key)
            if inflight_id is not None and inflight_id in self._pending:
                self.idem_joins += 1
                self._pending[inflight_id].waiters.append((connection, msg_id))
                return None
        # After the dedupe checks: a retry of already-executing (or
        # already-executed) work is still answered mid-drain; only *new*
        # work is refused.
        if self._draining or self._closing:
            rejection = Draining()
            self.rejections[rejection.code] += 1
            state.rejections[rejection.code] += 1
            return _error_response(msg_id, rejection.code, str(rejection))
        try:
            self._check_policies(state, request)
            # The ACL check lives in front.submit and enqueues on
            # success; the policy checks above either consume nothing or
            # ran after every non-consuming deny, so a denial here leaks
            # no token or quota.
            self.front.submit(tenant, request)
        except ServeRejection as rejection:
            self.rejections[rejection.code] += 1
            state.rejections[rejection.code] += 1
            return _error_response(msg_id, rejection.code, str(rejection))
        except AccessDenied as denial:
            self.rejections["access_denied"] += 1
            state.rejections["access_denied"] += 1
            return _error_response(msg_id, "access_denied", str(denial))
        if state.quota_remaining is not None:
            state.quota_remaining -= 1
        state.admitted += 1
        now = self.clock()
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        self._pending[request.request_id] = _Pending(
            tenant=tenant,
            waiters=[(connection, msg_id)],
            admitted_at=now,
            addr=request.addr,
            deadline_at=(now + deadline_ms / 1000.0) if deadline_ms else None,
            idem=idem_key,
        )
        if idem_key is not None:
            self._idem_inflight[idem_key] = request.request_id
            self._idem_of_request[request.request_id] = idem_key[1]
        self._work.set()
        return None

    def _check_policies(self, state: _TenantState, request: Request) -> None:
        if self.inflight() >= self.config.max_inflight:
            raise Overloaded(self.inflight(), self.config.max_inflight)
        shard_of = self._shard_of
        if shard_of is not None and shard_of(request.addr) in self.stack.fenced:
            raise ServeUnavailable(shard_of(request.addr), request.addr)
        # ACL peek (the front's submit re-checks authoritatively): deny
        # before the rate check so a denied request costs no token.
        policy_range = state.policy.allowed
        if policy_range is not None and request.addr not in policy_range:
            raise AccessDenied(
                f"tenant {state.tenant} may not touch address {request.addr} "
                f"(allowed {policy_range})"
            )
        if state.quota_remaining is not None and state.quota_remaining <= 0:
            raise QuotaExhausted(state.tenant, state.policy.quota)
        if not state.check_rate(self.clock()):
            raise RateLimited(state.tenant, state.policy.rate_per_s)

    def _parse(self, message: dict) -> tuple[Request, int]:
        op = message.get("op")
        addr = message.get("addr")
        tenant = message.get("tenant")
        if not isinstance(addr, int) or isinstance(addr, bool):
            raise ValueError(f"addr must be an integer, got {addr!r}")
        if not isinstance(tenant, int) or isinstance(tenant, bool):
            raise ValueError(f"tenant must be an integer, got {tenant!r}")
        if op == "read":
            return Request.read(addr, user=tenant), tenant
        if op == "write":
            data = from_hex(message.get("data"))
            if data is None:
                raise ValueError("write requests need a hex data field")
            return Request.write(addr, data, user=tenant), tenant
        raise ValueError(f"unknown op {op!r}")

    @staticmethod
    def _parse_deadline(message: dict) -> float | None:
        deadline_ms = message.get("deadline_ms")
        if deadline_ms is None:
            return None
        if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, (int, float)):
            raise ValueError(f"deadline_ms must be a number, got {deadline_ms!r}")
        if deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, got {deadline_ms!r}")
        return float(deadline_ms)

    @staticmethod
    def _parse_idem(message: dict, tenant: int) -> tuple | None:
        idem = message.get("idem")
        if idem is None:
            return None
        if not isinstance(idem, str) or not idem:
            raise ValueError(f"idem must be a non-empty string, got {idem!r}")
        return (tenant, idem)

    # ----------------------------------------------------------------- pump
    async def _pump_loop(self) -> None:
        """The one task that runs the oblivious engine.

        Feeds admitted requests through the front end's round-robin
        scheduler a bounded quantum at a time.  Each quantum's answers
        leave in one write per connection; then the pump yields, so
        connections can admit (or reject) concurrently arriving frames
        before the next quantum.  With nothing to serve it writes back the
        stack's pending partition rewrites, one per turn, and stops as
        soon as new work arrives, which then waits for one at most.
        """
        while not self._closing:
            if not self._work.is_set() and self.stack.write_back(1):
                await asyncio.sleep(0)
                continue
            await self._work.wait()
            self._work.clear()
            while self._pending and not self._closing:
                self._cancel_expired()
                retired = self.front.pump(max_cycles=PUMP_MAX_CYCLES)
                self._resolve(retired)
                self._fail_unsubmittable()
                if not retired and not self._work_left():
                    self._fail_orphans()
                    self._flush()
                    break
                self._flush()
                await asyncio.sleep(0)

    def _cancel_expired(self) -> int:
        """Server-side deadline cancellation of not-yet-executed requests.

        A request still sitting in its tenant FIFO when its deadline
        lapses is withdrawn before the backend ever sees it: never
        journaled, never executed, answered with a typed
        ``deadline_exceeded``.  Once journaled, the oblivious schedule
        owns the request -- it executes (keeping the twin gate exact) and
        lateness is judged at retirement in :meth:`_resolve`.
        """
        if not any(p.deadline_at is not None for p in self._pending.values()):
            return 0
        now = self.clock()
        expired = [
            (request_id, pending)
            for request_id, pending in self._pending.items()
            if pending.deadline_at is not None and now >= pending.deadline_at
        ]
        if not expired:
            return 0
        self._index_journal()
        cancelled = 0
        for request_id, pending in expired:
            if request_id in self._seq_of_request:
                continue  # already journaled: it executes; judged late at retire
            if not self.front.cancel(pending.tenant, request_id):
                continue  # mid-feed: the backend owns it now
            del self._pending[request_id]
            self._forget(pending, request_id)
            self.deadline_cancelled += 1
            self.rejections["deadline_exceeded"] += 1
            late_ms = (now - pending.deadline_at) * 1000.0
            self._respond(
                pending,
                _error_response(
                    None,
                    "deadline_exceeded",
                    str(DeadlineExceeded(pending.addr, late_ms, executed=False)),
                ),
            )
            cancelled += 1
        return cancelled

    def _work_left(self) -> bool:
        """Can another pump quantum still make progress?"""
        return self.front._has_queued() or bool(self._backend.has_work())

    def _resolve(self, retired) -> None:
        now = self.clock()
        # Before any pop below: indexing skips requests no longer pending.
        self._index_journal()
        for entry in retired:
            request_id = entry.request.request_id
            pending = self._pending.pop(request_id, None)
            if pending is None:
                # Direct backend traffic or an already-answered request
                # (drain escalation, deadline cancellation racing the
                # feed): counted so retry/dedupe debugging can see it.
                self.unmatched_retired += 1
                continue
            seq = self._seq_of_request.get(request_id, -1)
            self._forget(pending, request_id)
            if entry.error is not None:
                self.rejections["unavailable"] += 1
                response = _error_response(None, "unavailable", str(entry.error))
            else:
                self.served_by_seq[seq] = entry.result
                ok_response = {
                    "ok": True,
                    "seq": seq,
                    "data": to_hex(entry.result),
                    "latency_cycles": max(entry.latency_cycles, 0),
                }
                # The execution is committed either way: cache it under
                # the idempotency key so a retry -- even of a response
                # that came back late -- replays instead of re-executing.
                if pending.idem is not None:
                    self._cache_idem(pending.idem, ok_response)
                late = (
                    pending.deadline_at is not None and now > pending.deadline_at
                )
                if late:
                    self.deadline_late += 1
                    self.rejections["deadline_exceeded"] += 1
                    late_ms = (now - pending.deadline_at) * 1000.0
                    response = _error_response(
                        None,
                        "deadline_exceeded",
                        str(DeadlineExceeded(pending.addr, late_ms, executed=True)),
                    )
                else:
                    self.served += 1
                    self.wall_latency_us.add(round((now - pending.admitted_at) * 1e6))
                    response = ok_response
            self._respond(pending, response)

    def _index_journal(self) -> None:
        """Map the journal records added since the last call (the ones
        whose request is still pending; an answered request never needs
        its seq again)."""
        pending = self._pending
        for record in self.journal[self._indexed :]:
            if record.request_id in pending:
                self._seq_of_request[record.request_id] = record.seq
        self._indexed = len(self.journal)

    def _fail_unsubmittable(self) -> None:
        """Answer requests a fenced stripe refused at backend-feed time."""
        while self._backend.failed:
            request = self._backend.failed.pop()
            pending = self._pending.pop(request.request_id, None)
            if pending is None:
                continue
            self._forget(pending, request.request_id)
            self.rejections["unavailable"] += 1
            self._respond(
                pending,
                _error_response(
                    None,
                    "unavailable",
                    f"shard serving address {request.addr} is fenced",
                ),
            )

    def _fail_orphans(self) -> None:
        """Pending entries nothing can ever retire (lost to the backend)."""
        for request_id, pending in list(self._pending.items()):
            del self._pending[request_id]
            self._forget(pending, request_id)
            self.rejections["internal"] += 1
            self._respond(
                pending,
                _error_response(None, "internal", "request lost by the backend"),
            )

    # ------------------------------------------------------------ responders
    @staticmethod
    def _respond(pending: _Pending, response: dict) -> None:
        """Answer every waiter joined to this execution."""
        for connection, msg_id in pending.waiters:
            connection.send({**response, "id": msg_id})

    def _owes(self, connection) -> bool:
        """Does an admitted request still wait to answer ``connection``?"""
        return any(
            waiter is connection
            for pending in self._pending.values()
            for waiter, _ in pending.waiters
        )

    def _flush(self) -> None:
        """Write each connection's queued answers, one write apiece."""
        connections = list(self._unflushed)
        self._unflushed.clear()
        for connection in connections:
            connection.flush()

    def _forget(self, pending: _Pending, request_id: int) -> None:
        """Drop the in-flight bookkeeping (journal seq, dedupe keys) of a
        request that has been answered, cancelled or failed."""
        self._seq_of_request.pop(request_id, None)
        self._idem_of_request.pop(request_id, None)
        if pending.idem is not None:
            inflight = self._idem_inflight.get(pending.idem)
            if inflight == request_id:
                del self._idem_inflight[pending.idem]

    def _cache_idem(self, idem_key: tuple, response: dict) -> None:
        """Retain one completed response for replay, FIFO-bounded."""
        self._idem_cache[idem_key] = response
        while len(self._idem_cache) > self.config.idem_cache_size:
            self._idem_cache.popitem(last=False)

    # ---------------------------------------------------------- connections
    def _dispatch(self, connection: "_Connection", message: dict) -> None:
        """Handle one decoded frame; answers not owed to the pump go out
        with the connection's next flush."""
        op = message.get("op")
        if op == "health":
            connection.send(
                {"id": message.get("id"), "ok": True, "health": self.health()}
            )
        elif op == "metrics":
            metrics = getattr(self.stack, "metrics", None)
            connection.send(
                {
                    "id": message.get("id"),
                    "ok": True,
                    "metrics": metrics.to_dict() if metrics is not None else None,
                }
            )
        elif self._closing:
            connection.send(
                _error_response(message.get("id"), "shutting_down", "server closing")
            )
        else:
            response = self._admit(message, connection)
            if response is not None:
                connection.send(response)


class _Connection(asyncio.Protocol):
    """One client connection: frames in, a batched outbox out.

    A response is encoded into :attr:`outbox` when it is ready and the
    outbox leaves in one ``transport.write`` when the server flushes it.
    A peer that half-closes still gets every answer it is owed before
    the connection closes.  A connection that is gone swallows what it
    is sent; its requests still execute (they are journaled), only their
    answers have nowhere to go.
    """

    def __init__(self, server: ORAMServer):
        self._server = server
        self._decoder = FrameDecoder()
        self.transport: asyncio.Transport | None = None
        self.outbox: list[bytes] = []
        self._eof = False
        #: resolves when the transport is gone (``close`` awaits it).
        self.lost = asyncio.get_running_loop().create_future()

    # ------------------------------------------------------------- traffic
    def send(self, message: dict) -> None:
        if self.transport.is_closing():
            return
        if not self.outbox:
            self._server._unflushed[self] = None
        self.outbox.append(encode_frame(message))

    def flush(self) -> None:
        if self.outbox and not self.transport.is_closing():
            self.transport.write(b"".join(self.outbox))
            if self._eof and not self._server._owes(self):
                self.transport.close()
        self.outbox.clear()

    # ---------------------------------------------------- asyncio.Protocol
    def connection_made(self, transport) -> None:
        self.transport = transport
        self._server.connections += 1
        self._server._connections.add(self)

    def data_received(self, data: bytes) -> None:
        try:
            messages = self._decoder.feed(data)
        except ProtocolError:
            self.transport.abort()  # misbehaving peer: drop the connection
            return
        server = self._server
        for message in messages:
            server._dispatch(self, message)
        server._flush()

    def eof_received(self) -> bool:
        self._eof = True
        try:
            self._decoder.eof()
        except ProtocolError:
            self.transport.abort()
            return False
        # Stay open for writing while answers are owed; flush closes.
        return self._server._owes(self)

    def pause_writing(self) -> None:
        # The peer is not reading its answers: stop reading its requests
        # until the transport's buffer drains below the low-water mark.
        if not self._eof:
            self.transport.pause_reading()

    def resume_writing(self) -> None:
        if not self._eof:
            self.transport.resume_reading()

    def connection_lost(self, exc) -> None:
        self.outbox.clear()
        self._server._unflushed.pop(self, None)
        self._server._connections.discard(self)
        if not self.lost.done():
            self.lost.set_result(None)


def _error_response(msg_id, code: str, message: str) -> dict:
    return {"id": msg_id, "ok": False, "error": code, "message": message}

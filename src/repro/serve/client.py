"""Asyncio client for the serving front door.

:class:`ServeClient` speaks the length-prefixed JSON protocol with full
pipelining: response frames are dispatched back to their callers by
``id`` as they arrive (every complete frame of a wake-up at once), so
any number of requests can be in flight on one connection.  Frames sent
in one event-loop iteration leave in one write.  Two call styles:

* awaitable -- :meth:`read` / :meth:`write` / :meth:`health` /
  :meth:`metrics` send one frame and await its response; convenient for
  tests and examples.
* open-loop -- :meth:`send` returns the response future without
  awaiting it, which is what the load generator needs: arrivals must
  not be gated on completions.

Server-side rejections come back as ``ok: false`` response dicts, not
exceptions: an open-loop client measuring SLOs treats a rejection as an
outcome, not an error.

:class:`RetryingClient` layers the failure story on top: a
:class:`RetryPolicy` (bounded attempts, exponential backoff with
deterministic jitter, a global retry budget) retries retriable
rejections and transport deaths through a reconnect factory, stamping
every read/write with an idempotency key so the server executes each
logical request at most once however many times the wire delivered it.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field

from repro.crypto.random import DeterministicRandom
from repro.serve.protocol import (
    RETRIABLE_CODES,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    to_hex,
)


class ClientClosed(ConnectionError):
    """The connection died with requests still awaiting responses."""


class DuplicateRequestId(ValueError):
    """A caller-supplied ``id`` collides with one still awaiting its response.

    Silently replacing the waiting future would leak the first caller
    forever (its response frame would resolve the usurper), so the
    collision is refused before anything hits the wire.
    """

    def __init__(self, msg_id):
        super().__init__(
            f"request id {msg_id!r} is already awaiting a response on this "
            f"connection"
        )
        self.msg_id = msg_id


class ServeClient(asyncio.Protocol):
    """One pipelined connection to an :class:`~repro.serve.server.ORAMServer`.

    Build it with :meth:`connect` or :meth:`from_socket`.  :meth:`send`
    queues a frame and schedules one flush for the loop iteration, so
    the frames of many callers that wake together share a write;
    :meth:`drain` flushes at once and waits while the transport's buffer
    is above its high-water mark.
    """

    def __init__(self):
        self._loop = asyncio.get_running_loop()
        self._transport: asyncio.Transport | None = None
        self._ids = itertools.count()
        self._waiting: dict[int, asyncio.Future] = {}
        self._decoder = FrameDecoder()
        self._outbox: list[bytes] = []
        self._write_paused = False
        self._drain_waiters: list[asyncio.Future] = []
        self._error: Exception | None = None
        self._lost = self._loop.create_future()
        #: response frames whose ``id`` matched no waiter (debugging aid
        #: for retry/dedupe interactions; surfaced through health()).
        self.unmatched_responses = 0
        self._closed = False

    # ---------------------------------------------------------- constructors
    @classmethod
    async def connect(cls, host: str, port: int) -> "ServeClient":
        _, client = await asyncio.get_running_loop().create_connection(
            cls, host, port
        )
        return client

    @classmethod
    async def from_socket(cls, sock) -> "ServeClient":
        """Wrap one end of a connected socket pair (in-process tests)."""
        _, client = await asyncio.get_running_loop().create_connection(
            cls, sock=sock
        )
        return client

    @property
    def closed(self) -> bool:
        """True once the connection is unusable (closed or transport died)."""
        return self._closed

    # --------------------------------------------------------------- sending
    def send(self, message: dict) -> asyncio.Future:
        """Queue one request frame; returns the future of its response.

        Assigns the ``id`` if the caller did not.  The future resolves
        with the response dict (``ok`` true or false) or raises
        :class:`ClientClosed` if the connection dies first.  Raises
        :class:`ClientClosed` immediately when the connection is already
        dead and :class:`DuplicateRequestId` when a caller-supplied
        ``id`` is still in flight.
        """
        if self._closed:
            raise ClientClosed("client is closed")
        msg_id = message.setdefault("id", next(self._ids))
        if msg_id in self._waiting:
            raise DuplicateRequestId(msg_id)
        frame = encode_frame(message)
        future = self._loop.create_future()
        self._waiting[msg_id] = future
        if not self._outbox:
            self._loop.call_soon(self._flush)
        self._outbox.append(frame)
        return future

    async def request(self, message: dict) -> dict:
        future = self.send(message)
        if self._write_paused:
            await self.drain()
        return await future

    async def read(self, addr: int, tenant: int) -> dict:
        return await self.request({"op": "read", "addr": addr, "tenant": tenant})

    async def write(self, addr: int, data: bytes, tenant: int) -> dict:
        return await self.request(
            {"op": "write", "addr": addr, "data": to_hex(data), "tenant": tenant}
        )

    async def health(self) -> dict:
        response = await self.request({"op": "health"})
        health = response["health"]
        health["client"] = {"unmatched_responses": self.unmatched_responses}
        return health

    async def metrics(self) -> dict | None:
        response = await self.request({"op": "metrics"})
        return response["metrics"]

    async def drain(self) -> None:
        """Write the queued frames now; wait while the peer is behind."""
        self._flush()
        if self._write_paused and not self._closed:
            waiter = self._loop.create_future()
            self._drain_waiters.append(waiter)
            await waiter

    # ------------------------------------------------------------- lifecycle
    async def close(self) -> None:
        self._flush()
        self._closed = True
        self._transport.close()
        await self._lost

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------- internals
    def _flush(self) -> None:
        if self._outbox and not self._transport.is_closing():
            self._transport.write(b"".join(self._outbox))
        self._outbox.clear()

    # ---------------------------------------------------- asyncio.Protocol
    def connection_made(self, transport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        try:
            messages = self._decoder.feed(data)
        except ProtocolError as error:
            self._error = error
            self._transport.abort()
            return
        waiting = self._waiting
        for message in messages:
            future = waiting.pop(message.get("id"), None)
            if future is None:
                self.unmatched_responses += 1
            elif not future.done():
                future.set_result(message)

    def eof_received(self) -> bool:
        try:
            self._decoder.eof()
        except ProtocolError as error:
            self._error = error
        return False  # nothing more can be answered: close

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        self._wake_drainers()

    def connection_lost(self, exc) -> None:
        # The connection is unusable from here on: mark the client closed
        # *before* failing the waiters, so a send() racing the loss gets
        # a clean ClientClosed instead of writing into a dead socket.
        self._closed = True
        self._outbox.clear()
        error = self._error or exc
        for future in self._waiting.values():
            if not future.done():
                future.set_exception(
                    ClientClosed(f"connection closed: {error or 'EOF'}")
                )
        self._waiting.clear()
        self._wake_drainers()
        self._lost.set_result(None)

    def _wake_drainers(self) -> None:
        for waiter in self._drain_waiters:
            if not waiter.done():
                waiter.set_result(None)
        self._drain_waiters.clear()


@dataclass
class RetryPolicy:
    """How a :class:`RetryingClient` retries one logical request.

    Backoff is exponential (``base_backoff_s * backoff_factor**(n-1)``,
    capped at ``max_backoff_s``) with deterministic jitter: the sleep is
    scaled by a factor drawn from ``[1 - jitter, 1 + jitter]`` using a
    :class:`~repro.crypto.random.DeterministicRandom` stream, so two
    runs with the same seed retry on the same schedule.
    """

    #: total tries per logical request (first attempt included).
    max_attempts: int = 4
    base_backoff_s: float = 0.002
    backoff_factor: float = 2.0
    max_backoff_s: float = 0.1
    #: +/- fraction of the backoff drawn deterministically per retry.
    jitter: float = 0.5
    #: global cap on retries across *all* requests (None = unbounded);
    #: a storm of failures exhausts the budget instead of amplifying.
    retry_budget: int | None = None
    #: per-attempt response timeout; a blackholed request gives the
    #: connection this long before the attempt counts as failed.
    request_timeout_s: float | None = 5.0
    #: per-request deadline stamped on each attempt's frame (ms).
    deadline_ms: float | None = None
    #: rejection codes worth retrying (transport deaths always are).
    retriable: frozenset = field(default_factory=lambda: RETRIABLE_CODES)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff times must be >= 0")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")
        if self.retry_budget is not None and self.retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")

    def backoff_s(self, attempt: int, rng: DeterministicRandom) -> float:
        """Jittered sleep before retry number ``attempt`` (1-based)."""
        raw = min(
            self.max_backoff_s,
            self.base_backoff_s * self.backoff_factor ** (attempt - 1),
        )
        scale = 1.0 - self.jitter + 2.0 * self.jitter * rng.random()
        return raw * scale


@dataclass
class RetryStats:
    """Amplification accounting for one :class:`RetryingClient`."""

    #: logical requests issued through the client.
    requests: int = 0
    #: attempts that reached the wire (>= requests under retries).
    sends: int = 0
    retries: int = 0
    reconnects: int = 0
    #: logical requests abandoned after the policy was exhausted.
    give_ups: int = 0
    #: responses served from the server's idempotency cache.
    replayed: int = 0

    @property
    def amplification(self) -> float:
        """Wire attempts per logical request (1.0 = no retries)."""
        return self.sends / self.requests if self.requests else 1.0


class RetryingClient:
    """Retries + idempotency over reconnecting :class:`ServeClient` s.

    ``connect`` is an async factory returning a fresh connected
    :class:`ServeClient`; the wrapper reconnects through it whenever the
    current connection dies.  Every read/write is stamped with an
    idempotency key (unless the caller supplied one), so however many
    attempts reach the server, it executes the request exactly once and
    replays the cached response to stragglers.
    """

    def __init__(self, connect, policy: RetryPolicy | None = None, name: str = "rc"):
        self._connect = connect
        self.policy = policy or RetryPolicy()
        self.name = name
        self._rng = DeterministicRandom(f"retry-{name}")
        self._idem_ids = itertools.count()
        self._budget_left = self.policy.retry_budget
        self._client: ServeClient | None = None
        self._ever_connected = False
        self.stats = RetryStats()

    # --------------------------------------------------------------- traffic
    async def read(self, addr: int, tenant: int) -> dict:
        return await self.request({"op": "read", "addr": addr, "tenant": tenant})

    async def write(self, addr: int, data: bytes, tenant: int) -> dict:
        return await self.request(
            {"op": "write", "addr": addr, "data": to_hex(data), "tenant": tenant}
        )

    async def request(self, message: dict) -> dict:
        """One logical request driven to a final response under the policy.

        Returns the server's response dict; when every allowed attempt
        failed in transport (or timed out), returns a synthetic
        ``{"ok": False, "error": "give_up"}`` so open-loop callers can
        treat exhaustion as an outcome rather than an exception.
        """
        policy = self.policy
        template = dict(message)
        template.pop("id", None)  # each attempt gets a fresh wire id
        if template.get("op") in ("read", "write"):
            template.setdefault("idem", f"{self.name}-{next(self._idem_ids)}")
            if policy.deadline_ms is not None:
                template.setdefault("deadline_ms", policy.deadline_ms)
        self.stats.requests += 1
        last_failure = "no attempts made"
        for attempt in range(1, policy.max_attempts + 1):
            response = None
            try:
                client = await self._ensure_client()
                self.stats.sends += 1
                request = client.request(dict(template))
                if policy.request_timeout_s is not None:
                    response = await asyncio.wait_for(
                        request, policy.request_timeout_s
                    )
                else:
                    response = await request
            except (
                ClientClosed,
                ProtocolError,
                ConnectionError,
                asyncio.TimeoutError,
                OSError,
            ) as error:
                last_failure = f"{type(error).__name__}: {error}"
                await self._drop_client()
            if response is not None:
                if response.get("ok"):
                    if response.get("replayed"):
                        self.stats.replayed += 1
                    return response
                if response.get("error") not in policy.retriable:
                    return response
                last_failure = f"{response.get('error')}: {response.get('message')}"
            if attempt == policy.max_attempts or not self._spend_retry():
                break
            self.stats.retries += 1
            await asyncio.sleep(policy.backoff_s(attempt, self._rng))
        self.stats.give_ups += 1
        return {
            "ok": False,
            "error": "give_up",
            "message": f"retries exhausted after {last_failure}",
        }

    # ------------------------------------------------------------- lifecycle
    async def close(self) -> None:
        await self._drop_client()

    async def __aenter__(self) -> "RetryingClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------- internals
    def _spend_retry(self) -> bool:
        if self._budget_left is None:
            return True
        if self._budget_left <= 0:
            return False
        self._budget_left -= 1
        return True

    async def _ensure_client(self) -> ServeClient:
        if self._client is None or self._client.closed:
            await self._drop_client()
            self._client = await self._connect()
            if self._ever_connected:
                self.stats.reconnects += 1
            self._ever_connected = True
        return self._client

    async def _drop_client(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            try:
                await client.close()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass

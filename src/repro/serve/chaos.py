"""Network-layer chaos: a seeded in-process proxy between client and server.

Fault injection below the stack (:mod:`repro.storage.faults`) breaks
devices; this module breaks the *wire*.  A :class:`ChaosEndpoint` sits
between a real :class:`~repro.serve.client.ServeClient` and a real
:class:`~repro.serve.server.ORAMServer` -- two socketpairs bridged by a
frame-aware pump -- and injects, per forwarded frame:

* **connection resets** -- the whole connection is torn down abruptly;
  both sides see an unexpected close.
* **mid-frame cuts** -- a partial frame is delivered, then the
  connection dies; the receiver surfaces ``ProtocolError`` ("closed
  mid-frame"), never a hang.
* **blackholes** -- one frame silently vanishes; the sender waits on a
  response that will never come (this is what client-side timeouts are
  for).
* **stalls** -- one frame is delayed by a fixed wall-time before
  forwarding.  The pipe is strictly FIFO per direction, so stalls delay
  but never reorder -- responses stay matchable by ``id``.

Every decision draws from a :class:`~repro.crypto.random.
DeterministicRandom` stream labeled by ``(seed, endpoint label,
connection index, direction)``: a client that drives its connections
sequentially sees the *same* fault sequence on every run with the same
seed, which is what lets the chaos soak gate demand bit-identical
outcome counts across runs.

:func:`drive_through_chaos` is the canonical soak driver shared by the
conformance harness and ``horam-bench chaos``: N logical clients, each with
its own chaotic endpoint and :class:`~repro.serve.client.RetryingClient`
(idempotency keys on), closed-loop over a message slice, optionally
triggering a mid-stream graceful :meth:`~repro.serve.server.ORAMServer.
drain`.
"""

from __future__ import annotations

import asyncio
import itertools
import socket as socket_mod
import struct
import time
from dataclasses import asdict, dataclass, field

from repro.crypto.random import DeterministicRandom
from repro.serve.client import RetryingClient, RetryPolicy, RetryStats, ServeClient

_LEN = struct.Struct(">I")


@dataclass
class ChaosSpec:
    """One seeded network-fault plan (JSON-able, FaultPlan-style).

    Rates are per-frame probabilities rolled in precedence order
    ``reset > cut > drop > stall``; at most one fault fires per frame.
    Each rate only consumes randomness when it is non-zero, so adding a
    new knob never perturbs existing seeded streams.
    """

    seed: int = 0
    #: probability a frame triggers an abrupt connection teardown.
    reset_rate: float = 0.0
    #: probability a frame is cut mid-body (partial bytes, then death).
    cut_rate: float = 0.0
    #: probability a frame is silently swallowed (blackhole).
    drop_rate: float = 0.0
    #: probability a frame is delayed by ``stall_s`` before forwarding.
    stall_rate: float = 0.0
    stall_s: float = 0.002
    #: which direction misbehaves: "c2s", "s2c" or "both".
    direction: str = "both"
    #: cap on injected faults per connection (None = unbounded).  The
    #: budget is per-connection, not global, so fault placement stays a
    #: pure function of the per-connection stream.
    max_faults_per_conn: int | None = None

    def __post_init__(self) -> None:
        for name in ("reset_rate", "cut_rate", "drop_rate", "stall_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        if self.stall_s < 0:
            raise ValueError("stall_s must be >= 0")
        if self.direction not in ("c2s", "s2c", "both"):
            raise ValueError(
                f"direction must be 'c2s', 's2c' or 'both', got {self.direction!r}"
            )
        if self.max_faults_per_conn is not None and self.max_faults_per_conn < 0:
            raise ValueError("max_faults_per_conn must be >= 0")

    def active(self) -> bool:
        return any(
            (self.reset_rate, self.cut_rate, self.drop_rate, self.stall_rate)
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosSpec":
        return cls(**data)


@dataclass
class ChaosStats:
    """What the proxy actually injected (aggregated per endpoint)."""

    connections: int = 0
    frames: int = 0
    resets: int = 0
    cuts: int = 0
    drops: int = 0
    stalls: int = 0

    def absorb(self, other: "ChaosStats") -> None:
        self.connections += other.connections
        self.frames += other.frames
        self.resets += other.resets
        self.cuts += other.cuts
        self.drops += other.drops
        self.stalls += other.stalls

    def injected(self) -> int:
        return self.resets + self.cuts + self.drops + self.stalls

    def to_dict(self) -> dict:
        return asdict(self)


class ChaosEndpoint:
    """Connection factory whose every connection runs through the proxy.

    Hand :meth:`connect` to a :class:`~repro.serve.client.RetryingClient`
    as its reconnect factory: each (re)connection gets a fresh pair of
    chaos pipes with their own deterministic fault streams.
    """

    def __init__(self, server, spec: ChaosSpec, label: str = "chaos"):
        self._server = server
        self.spec = spec
        self.label = label
        self.stats = ChaosStats()
        self._conns = itertools.count()
        self._tasks: set[asyncio.Task] = set()

    async def connect(self) -> ServeClient:
        conn = next(self._conns)
        self.stats.connections += 1
        client_sock, proxy_client_sock = socket_mod.socketpair()
        server_sock, proxy_server_sock = socket_mod.socketpair()
        await self._server.attach(server_sock)
        to_client = await asyncio.open_connection(sock=proxy_client_sock)
        to_server = await asyncio.open_connection(sock=proxy_server_sock)
        writers = (to_client[1], to_server[1])

        def kill() -> None:
            for writer in writers:
                writer.transport.abort()

        loop = asyncio.get_running_loop()
        budget = [self.spec.max_faults_per_conn]
        for direction, reader, writer in (
            ("c2s", to_client[0], to_server[1]),
            ("s2c", to_server[0], to_client[1]),
        ):
            rng = DeterministicRandom(
                f"chaos-{self.spec.seed}-{self.label}-{conn}-{direction}"
            )
            enabled = self.spec.direction in (direction, "both")
            task = loop.create_task(
                self._pipe(reader, writer, rng, enabled, kill, budget)
            )
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        return await ServeClient.from_socket(client_sock)

    async def close(self) -> None:
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    # ------------------------------------------------------------- internals
    async def _pipe(self, reader, writer, rng, enabled, kill, budget) -> None:
        """Forward frames one at a time, rolling the fault dice per frame."""
        spec = self.spec
        try:
            while True:
                try:
                    header = await reader.readexactly(_LEN.size)
                except asyncio.IncompleteReadError:
                    break  # source closed (cleanly or mid-header): propagate
                (length,) = _LEN.unpack(header)
                body = await reader.readexactly(length)
                self.stats.frames += 1
                if enabled and (budget[0] is None or budget[0] > 0):
                    if _roll(rng, spec.reset_rate):
                        self.stats.resets += 1
                        _spend(budget)
                        kill()
                        return
                    if _roll(rng, spec.cut_rate):
                        self.stats.cuts += 1
                        _spend(budget)
                        writer.write(header + body[: max(0, length // 2)])
                        await writer.drain()
                        kill()
                        return
                    if _roll(rng, spec.drop_rate):
                        self.stats.drops += 1
                        _spend(budget)
                        continue
                    if _roll(rng, spec.stall_rate):
                        self.stats.stalls += 1
                        _spend(budget)
                        await asyncio.sleep(spec.stall_s)
                writer.write(header + body)
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # a killed or vanished peer ends the pipe
        finally:
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover - loop teardown race
                pass


def _roll(rng: DeterministicRandom, rate: float) -> bool:
    """Consume randomness only for armed knobs (stream stability)."""
    return rate > 0 and rng.random() < rate


def _spend(budget: list) -> None:
    if budget[0] is not None:
        budget[0] -= 1


@dataclass
class ChaosDriveReport:
    """Outcome of one :func:`drive_through_chaos` soak."""

    #: final response per message, aligned with the input order.
    responses: list = field(default_factory=list)
    retry: RetryStats = field(default_factory=RetryStats)
    chaos: ChaosStats = field(default_factory=ChaosStats)
    #: the server's drain report when ``drain_after`` fired, else None.
    drain_report: dict | None = None
    #: wall-clock send-to-final-answer latency per message (ms), aligned
    #: with the input order; retries and backoff are *inside* the number.
    latencies_ms: list = field(default_factory=list)
    wall_seconds: float = 0.0

    def outcome_counts(self) -> dict:
        """Deterministic outcome summary: code -> count ('ok' for served)."""
        counts: dict[str, int] = {}
        for response in self.responses:
            key = "ok" if response.get("ok") else response.get("error", "none")
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))


async def drive_through_chaos(
    server,
    messages,
    *,
    clients: int = 2,
    chaos: ChaosSpec | None = None,
    policy: RetryPolicy | None = None,
    label: str = "chaos",
    drain_after: int | None = None,
) -> ChaosDriveReport:
    """Drive ``messages`` through ``server`` with retries under chaos.

    Each of ``clients`` logical clients owns a round-robin slice of the
    messages and drives it *closed-loop* (one request at a time) through
    its own :class:`~repro.serve.client.RetryingClient`; with chaos
    active, every connection runs through a :class:`ChaosEndpoint`.
    Closed-loop driving is what makes the run deterministic: each
    connection's frame order -- and therefore the seeded fault placement
    -- is independent of scheduler interleaving across clients.

    ``drain_after`` triggers a graceful ``server.drain()`` once the
    journal holds that many accepted requests, so the drain contract
    (admitted work all retires; late arrivals get typed ``draining``
    rejections) is exercised under live load.
    """
    policy = policy or RetryPolicy()
    report = ChaosDriveReport(
        responses=[None] * len(messages),
        latencies_ms=[0.0] * len(messages),
    )
    endpoints: list[ChaosEndpoint] = []
    retriers: list[RetryingClient] = []
    for index in range(clients):
        if chaos is not None and chaos.active():
            endpoint = ChaosEndpoint(server, chaos, label=f"{label}-c{index}")
            endpoints.append(endpoint)
            connect = endpoint.connect
        else:
            connect = _direct_connect(server)
        retriers.append(
            RetryingClient(connect, policy=policy, name=f"{label}-c{index}")
        )

    async def drive(slot: int) -> None:
        retrier = retriers[slot]
        for index in range(slot, len(messages), clients):
            sent_at = time.monotonic()
            report.responses[index] = await retrier.request(dict(messages[index]))
            report.latencies_ms[index] = (time.monotonic() - sent_at) * 1000.0

    drain_fired = asyncio.Event()

    async def drain_watcher() -> None:
        while len(server.journal) < drain_after:
            await asyncio.sleep(0)
        report.drain_report = await server.drain()
        drain_fired.set()

    loop = asyncio.get_running_loop()
    started = time.monotonic()
    drivers = [loop.create_task(drive(slot)) for slot in range(len(retriers))]
    watcher = (
        loop.create_task(drain_watcher()) if drain_after is not None else None
    )
    try:
        await asyncio.gather(*drivers)
        if watcher is not None and not drain_fired.is_set():
            # The stream ended below the trigger (heavy chaos); drain
            # anyway so the caller always gets the drain contract.
            watcher.cancel()
            await asyncio.gather(watcher, return_exceptions=True)
            report.drain_report = await server.drain()
        elif watcher is not None:
            await watcher
        report.wall_seconds = time.monotonic() - started
    finally:
        for retrier in retriers:
            await retrier.close()
        for endpoint in endpoints:
            report.chaos.absorb(endpoint.stats)
            await endpoint.close()
        for retrier in retriers:
            stats = retrier.stats
            report.retry.requests += stats.requests
            report.retry.sends += stats.sends
            report.retry.retries += stats.retries
            report.retry.reconnects += stats.reconnects
            report.retry.give_ups += stats.give_ups
            report.retry.replayed += stats.replayed
    return report


def _direct_connect(server):
    """Chaos-free connection factory (baseline cells, drain tests)."""

    async def connect() -> ServeClient:
        server_end, client_end = socket_mod.socketpair()
        await server.attach(server_end)
        return await ServeClient.from_socket(client_end)

    return connect

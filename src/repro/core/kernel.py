"""The protocol-agnostic engine kernel.

H-ORAM's value proposition is a *cacheable interface in front of an
ORAM*; the submit -> schedule -> step -> retire pipeline that provides it
is protocol-agnostic.  :class:`EngineKernel` owns that pipeline -- ROB
in-order retirement, fixed-shape ``(c, 1)`` cycle accounting, the
access/shuffle period cadence, metrics/latency/trace bookkeeping, and
``state_dict``/``load_state`` checkpoint participation -- while a slim
:class:`ProtocolBackend` hook surface supplies the protocol-specific
halves: how a cached block is served, how a miss is loaded, what a
padded load touches, and what a shuffle period rewrites.

A new protocol is one file: subclass :class:`EngineKernel`, set
``protocol_name``, implement the hooks, and the batch/synchronous APIs,
the scenario harness, the sharded fleet, both executors, and the
checkpoint subsystem all work unchanged.  See ``oram/succinct_hier.py``
and ``oram/bios.py`` for worked examples and TESTING.md for the
contract.
"""

from __future__ import annotations

import struct
from abc import abstractmethod
from dataclasses import dataclass, field
from hashlib import blake2b

from repro.core.config import HORAMConfig
from repro.core.rob import EntryState, RobEntry, RobTable
from repro.core.scheduler import SecureScheduler
from repro.crypto.ctr import StreamCipher
from repro.crypto.random import DeterministicRandom
from repro.oram.base import BlockCodec, OpKind, ORAMProtocol, Request
from repro.sim.metrics import Histogram, Metrics, TierTimes
from repro.storage.hierarchy import StorageHierarchy

#: ``protocol_name`` -> EngineKernel subclass; populated by
#: ``__init_subclass__`` so the checkpoint layer can rebuild any
#: registered kernel protocol from its recorded name.
KERNEL_PROTOCOLS: "dict[str, type]" = {}


@dataclass
class DummyLoad:
    """Outcome of one padded (no-miss) storage load."""

    times: TierTimes
    #: an opportunistic real block was admitted to the memory tier
    prefetched: bool = False
    #: the backend's dummy pool ran out on this load (observable event)
    pool_exhausted: bool = False


@dataclass
class ShuffleReport:
    """What one backend shuffle period did (timing + counters).

    The kernel turns this into clock advancement, channel freezes and
    ``Metrics`` deltas; the backend never touches those directly.
    """

    #: serial wall time the whole stack pauses for (eviction + rewrite)
    advance_us: float
    #: the eviction share of ``advance_us``
    evict_us: float
    #: in-memory move/staging time (charged to durations, not stores)
    mem_time_us: float
    #: per-protocol counters, added into ``metrics.extra`` unconditionally
    extra: dict = field(default_factory=dict)


class ProtocolBackend:
    """The hook surface a protocol implements under :class:`EngineKernel`.

    The kernel calls these -- and only these -- protocol-specific
    operations; everything else (ROB, scheduler, clock, metrics, latency
    histogram, served digest, checkpoint manifest layout) is shared.
    Implementations must be deterministic under
    :class:`~repro.crypto.random.DeterministicRandom` and must capture
    every mutable bit in :meth:`backend_state_dict`.
    """

    # ------------------------------------------------------- memory side
    @abstractmethod
    def is_cached(self, addr: int) -> bool:
        """Whether ``addr`` can be served from the memory tier this cycle."""

    @abstractmethod
    def serve_hits(self, items) -> "tuple[list[bytes], TierTimes]":
        """Serve a cycle's hit group: ``[(op, addr, data|None)]`` in order.

        Returns the per-item payloads (pre-write value for writes) and
        the memory-tier time charged.
        """

    @abstractmethod
    def dummy_hit(self) -> TierTimes:
        """One indistinguishable padding access on the memory tier."""

    # ---------------------------------------------------------- I/O side
    @abstractmethod
    def fetch_path(self, addr: int) -> TierTimes:
        """Load ``addr`` from storage into the memory tier (one miss)."""

    @abstractmethod
    def dummy_fetch_path(self) -> DummyLoad:
        """One padded storage load, shaped exactly like a real miss."""

    # ------------------------------------------------------ period hooks
    @abstractmethod
    def run_shuffle_period(self) -> ShuffleReport:
        """Evict the memory tier and reorganize storage for a new period."""

    def end_shuffle_period(self) -> None:
        """Post-shuffle bookkeeping (after ROB demotion); optional."""

    # -------------------------------------------------------- observables
    @abstractmethod
    def stash_size(self) -> int:
        """Current overflow-stash occupancy (0 if the protocol has none)."""

    @abstractmethod
    def cached_real_blocks(self) -> int:
        """Real blocks resident in the memory tier right now."""

    @property
    @abstractmethod
    def period_capacity(self) -> int:
        """I/O loads per access period (the paper's n/2)."""

    # ------------------------------------------------------ snapshot hooks
    @abstractmethod
    def backend_state_dict(self) -> dict:
        """Every mutable backend bit, as JSON-able manifest keys."""

    @abstractmethod
    def load_backend_state(self, state: dict) -> None:
        """Overwrite backend state with a checkpoint's."""

    def backend_params(self) -> dict:
        """Constructor kwargs beyond (config, hierarchy, codec); for the
        checkpoint rebuild recipe of parameterized protocols."""
        return {}


class EngineKernel(ProtocolBackend, ORAMProtocol):
    """The shared engine core: one pipeline, N protocol backends.

    Subclasses implement the :class:`ProtocolBackend` hooks and set
    ``protocol_name``; the kernel provides the batch API (``submit`` /
    ``step`` / ``drain`` / ``retire``), the synchronous
    :class:`~repro.oram.base.ORAMProtocol` API, padded-cycle and
    shuffle-period accounting, and checkpoint ``state_dict`` /
    ``load_state``.
    """

    #: registry key; subclasses must override (and keep stable -- it is
    #: recorded in checkpoint manifests).
    protocol_name: str = ""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        name = cls.__dict__.get("protocol_name")
        if name:
            KERNEL_PROTOCOLS[name] = cls

    def __init__(
        self,
        config: HORAMConfig,
        hierarchy: StorageHierarchy,
        codec: BlockCodec | None = None,
    ):
        self.config = config
        self.hierarchy = hierarchy
        self.rng = DeterministicRandom(config.seed)
        if codec is None:
            cipher = StreamCipher(self.rng.spawn("record-key").token(32))
            codec = BlockCodec(config.payload_bytes, cipher)
        if codec.slot_bytes != hierarchy.slot_bytes:
            raise ValueError(
                f"hierarchy slot size {hierarchy.slot_bytes} does not match the "
                f"codec record size {codec.slot_bytes}"
            )
        self.codec = codec

        self.rob = RobTable()
        self.scheduler = SecureScheduler(window_for=config.window_for)
        self.metrics = Metrics()

        self._cycle_index = 0
        self._loads_this_period = 0
        self._period_index = 0
        #: secret-side digest of the serve order: 16-byte BLAKE2b chained
        #: once per cycle over that cycle's ``(addr, cycle)`` pairs (see
        #: :meth:`_serve_hits`); equal digests mean equal served sequences.
        self.served_digest = bytes(16)
        #: per-request service latency in cycles, for percentile reporting
        self.latency_histogram = Histogram()

    # ----------------------------------------------------------- properties
    @property
    def n_blocks(self) -> int:
        return self.config.n_blocks

    @property
    def period_index(self) -> int:
        return self._period_index

    @property
    def current_c(self) -> int:
        progress = self._loads_this_period / self.period_capacity
        return self.config.stages.c_at(progress)

    # -------------------------------------------------------------- batch API
    def submit(self, request: Request) -> RobEntry:
        """Queue a request into the ROB table."""
        self.check_addr(request.addr)
        self.metrics.requests_submitted += 1
        return self.rob.push(request, self._cycle_index)

    def step(self) -> list[RobEntry]:
        """Run one scheduler cycle; returns requests retired this cycle."""
        # Loads complete within their cycle (the I/O overlaps the c memory
        # reads and both finish by the cycle barrier), so no address is
        # ever in flight across cycles.
        self.hierarchy.mark("cycle-start")
        c = self.current_c
        plan = self.scheduler.plan(self.rob, c, self.is_cached, set())

        mem_times = TierTimes()
        io_times = TierTimes()

        # Memory side: c path accesses (real hits first, then padding).
        if plan.hits:
            self._serve_hits(plan.hits, mem_times)
        for _ in range(plan.dummy_hits):
            mem_times.add(self.dummy_hit())
        self.metrics.dummy_hits += plan.dummy_hits
        self.metrics.scheduled_hits += c

        # I/O side: exactly one storage load.
        if plan.miss is not None:
            io_times.add(self.fetch_path(plan.miss.addr))
            plan.miss.state = EntryState.READY
        else:
            load = self.dummy_fetch_path()
            io_times.add(load.times)
            self.metrics.dummy_misses += 1
            if load.pool_exhausted:
                self.metrics.extra["dummy_pool_exhausted"] = (
                    self.metrics.extra.get("dummy_pool_exhausted", 0) + 1
                )
            if load.prefetched:
                self.metrics.prefetched_hits += 1
        self.metrics.scheduled_misses += 1

        # Advance simulated time: overlapped or serial composition.
        if self.config.overlap_io:
            start = self.hierarchy.clock.now_us
            mem_done = self.hierarchy.memory_channel.submit(start, mem_times.mem_us)
            io_done = self.hierarchy.io_channel.submit(start, io_times.io_us)
            self.hierarchy.clock.advance_to(max(mem_done, io_done))
        else:
            self.hierarchy.clock.advance(mem_times.mem_us + io_times.io_us)

        self.metrics.cycles += 1
        self.metrics.record_stash(self.stash_size())
        self.metrics.tree_real_blocks_peak = max(
            self.metrics.tree_real_blocks_peak, self.cached_real_blocks()
        )
        self._cycle_index += 1
        self.hierarchy.mark("cycle-end")

        # Period bookkeeping: every cycle performs one I/O load.
        self._loads_this_period += 1
        if self._loads_this_period >= self.period_capacity:
            self._run_shuffle_period()

        return self.rob.retire()

    def drain(self) -> list[RobEntry]:
        """Run cycles until every submitted request has retired."""
        retired: list[RobEntry] = []
        while self.rob.has_work():
            retired.extend(self.step())
        retired.extend(self.rob.retire())
        return retired

    def has_work(self) -> bool:
        """Whether any submitted request has not yet been served."""
        return self.rob.has_work()

    def feed_quantum(self) -> int:
        """How many queued requests one ``step`` can look across: the
        scheduler's lookahead window at the current stage."""
        return max(2, self.config.window_for(self.current_c))

    def retire(self) -> list[RobEntry]:
        """Pop served entries waiting at the ROB head (in program order)."""
        return self.rob.retire()

    # -------------------------------------------------------- synchronous API
    def read(self, addr: int) -> bytes:
        entry = self.submit(Request.read(addr))
        self.drain()
        assert entry.result is not None
        return entry.result

    def write(self, addr: int, data: bytes) -> None:
        self.submit(Request.write(addr, data))
        self.drain()

    def force_shuffle(self) -> None:
        """End the current period immediately (maintenance hook)."""
        self._run_shuffle_period()

    def close(self) -> None:
        """Release durable storage backings (flush + unmap); idempotent."""
        self.hierarchy.close()

    # ------------------------------------------------------------ checkpoint
    def snapshot(self):
        """Full-stack checkpoint (see :mod:`repro.core.checkpoint`)."""
        from repro.core.checkpoint import snapshot_stack

        return snapshot_stack(self)

    def state_dict(self) -> "tuple[dict, dict[str, bytes]]":
        """(JSON-able state, binary blobs) capturing every mutable bit.

        Restoring this state into a freshly built instance with the same
        config and hierarchy geometry makes it bit-identical -- results,
        digest, metrics, timing, randomness -- to the snapshotted one, from
        this point forward.
        """
        from repro.core.checkpoint import _hierarchy_state

        state, blobs = _hierarchy_state(self.hierarchy)
        state.update(
            codec_nonce=self.codec._nonce_counter,
            rng=self.rng.state_dict(),
        )
        state.update(self.backend_state_dict())
        state.update(
            rob=self.rob.state_dict(),
            scheduler_cycles_planned=self.scheduler.cycles_planned,
            metrics=self.metrics.to_dict(),
            cycle_index=self._cycle_index,
            loads_this_period=self._loads_this_period,
            period_index=self._period_index,
            served_digest=self.served_digest.hex(),
            latency_histogram=self.latency_histogram.to_list(),
        )
        return state, blobs

    def load_state(self, state: dict, blobs: "dict[str, bytes]") -> None:
        """Overwrite this instance's mutable state with a checkpoint's."""
        from repro.core.checkpoint import _load_hierarchy_state

        _load_hierarchy_state(self.hierarchy, state, blobs)
        self.codec._nonce_counter = state["codec_nonce"]
        self.rng.load_state(state["rng"])
        self.load_backend_state(state)
        self.rob.load_state(state["rob"])
        self.scheduler.cycles_planned = state["scheduler_cycles_planned"]
        self.metrics = Metrics.from_dict(state["metrics"])
        self._cycle_index = state["cycle_index"]
        self._loads_this_period = state["loads_this_period"]
        self._period_index = state["period_index"]
        self.served_digest = bytes.fromhex(state["served_digest"])
        self.latency_histogram = Histogram.from_list(state["latency_histogram"])

    def latency_percentiles(self, quantiles=(50, 90, 99)) -> dict[int, float]:
        """Service-latency percentiles in scheduler cycles.

        Queueing latency shows where the fixed-shape pipeline makes
        requests wait: misses take at least one extra cycle (load, then
        serve), and ROB backlog adds more under bursts.
        """
        return {int(q): v for q, v in self.latency_histogram.percentiles(quantiles).items()}

    # ------------------------------------------------------------- internals
    def _serve_hits(self, entries: list[RobEntry], times: TierTimes) -> None:
        """Serve a cycle's hit group with batched bookkeeping.

        The memory-tier accesses themselves belong to the backend (one
        per entry, same order); the per-entry metric increments, latency
        samples and the served digest are folded into one pass over the
        group, and the digest is chained once for the whole cycle:
        ``BLAKE2b-128(previous digest || addr, cycle, addr, cycle, ...)``
        with each number a little-endian int64, in service order.
        """
        write = OpKind.WRITE
        served = EntryState.SERVED
        cycle = self._cycle_index
        items = []
        writes = 0
        for entry in entries:
            request = entry.request
            if request.op is write:
                items.append((request.op, entry.addr, request.data))
                writes += 1
            else:
                items.append((request.op, entry.addr, None))
        payloads, batch_times = self.serve_hits(items)
        times.add(batch_times)
        latencies = []
        pairs = []
        for entry, payload in zip(entries, payloads):
            entry.result = payload
            entry.state = served
            entry.served_cycle = cycle
            latencies.append(cycle - entry.submit_cycle)
            pairs.append(entry.addr)
            pairs.append(cycle)
        self.latency_histogram.add_many(latencies)
        self.served_digest = blake2b(
            self.served_digest + struct.pack(f"<{len(pairs)}q", *pairs), digest_size=16
        ).digest()
        self.metrics.requests_served += len(entries)
        self.metrics.read_requests += len(entries) - writes
        self.metrics.write_requests += writes

    def _run_shuffle_period(self) -> None:
        """Evict + backend reorganization + fresh period (Section 4.3)."""
        self.hierarchy.mark("shuffle-start")
        start_us = self.hierarchy.clock.now_us
        io_before = self.hierarchy.storage.snapshot()

        report = self.run_shuffle_period()

        # The shuffle period is serial: the storage waits for it.
        self.hierarchy.clock.advance(report.advance_us)
        # Keep the overlap channels from "catching up" during the pause.
        self.hierarchy.memory_channel.busy_until_us = self.hierarchy.clock.now_us
        self.hierarchy.io_channel.busy_until_us = self.hierarchy.clock.now_us

        io_delta = self.hierarchy.storage.snapshot().delta(io_before)
        self.metrics.shuffle_count += 1
        self.metrics.shuffle_time_us += self.hierarchy.clock.now_us - start_us
        self.metrics.evict_time_us += report.evict_us
        self.metrics.shuffle_bytes_read += io_delta.bytes_read
        self.metrics.shuffle_bytes_written += io_delta.bytes_written
        self.metrics.shuffle_io_reads += io_delta.reads
        self.metrics.shuffle_io_writes += io_delta.writes
        self.metrics.shuffle_io_time_us += io_delta.busy_us
        # The in-memory shuffle moves are charged to durations, not to the
        # memory store's counters; account the store part plus move time.
        self.metrics.shuffle_mem_time_us += report.mem_time_us
        for key, value in report.extra.items():
            self.metrics.extra[key] = self.metrics.extra.get(key, 0) + value

        # Requests whose block was loaded but not yet serviced lost their
        # cached copy to the eviction; they re-enter as pending misses.
        demoted = self.rob.demote_ready()
        if demoted:
            self.metrics.extra["ready_demotions"] = (
                self.metrics.extra.get("ready_demotions", 0) + demoted
            )

        self.end_shuffle_period()
        self._loads_this_period = 0
        self._period_index += 1
        self.hierarchy.mark("shuffle-end")

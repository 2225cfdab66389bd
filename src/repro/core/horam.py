"""The H-ORAM protocol (Section 4.1's data flow, Figure 4-1).

:class:`HybridORAM` owns the whole submit -> schedule -> step -> retire
pipeline -- ROB in-order retirement, fixed-shape ``(c, 1)`` cycle
accounting, the access/shuffle period cadence, metrics/latency/trace
bookkeeping and ``state_dict``/``load_state`` checkpoint participation --
and conducts the three layers through the two alternating periods:

* **access period** -- each cycle plans ``c`` in-memory hits plus one
  storage load from the ROB window; the hits are served from the cache
  tree, the miss is fetched from the permuted storage layer (and admitted
  to the cache), and a cycle without a miss pads with a dummy load that
  prefetches a random stored block.  Every cycle issues exactly one
  storage load; after ``n/2`` of them the period ends.
* **shuffle period** -- obliviously evict the cache tree, fold the evicted
  hot data into the storage layer's group/partition shuffle, and start a
  fresh period.

The per-cycle layer calls (:meth:`~HybridORAM.serve_hits`,
:meth:`~HybridORAM.dummy_hit`, :meth:`~HybridORAM.fetch_path`,
:meth:`~HybridORAM.dummy_fetch_path`) and
:meth:`~HybridORAM.run_shuffle_period` are methods called through
``self``, so a profiler can wrap them per instance.

The class offers two API styles:

* batch: ``submit(request)`` + ``drain()`` -- what the engine and the
  benchmarks use; keeps the scheduler's window full so padding is rare;
* synchronous: ``read(addr)`` / ``write(addr, data)`` -- the plain
  :class:`~repro.oram.base.ORAMProtocol` interface; each call drains the
  pipeline, so sparse traffic pays the full fixed-shape cost, exactly as
  the real interface would.
"""

from __future__ import annotations

import struct
from hashlib import blake2b

from repro.core.cache_tree import CacheTree, cache_period_capacity
from repro.core.config import HORAMConfig
from repro.core.recipe import build, recipe_from_kwargs
from repro.core.rob import EntryState, RobEntry, RobTable
from repro.core.scheduler import SecureScheduler
from repro.core.storage_layer import PermutedStorage, storage_layout
from repro.crypto.random import DeterministicRandom
from repro.oram.base import BlockCodec, OpKind, ORAMProtocol, Request
from repro.shuffle import get_shuffle
from repro.sim.metrics import Histogram, Metrics, TierTimes
from repro.storage.hierarchy import StorageHierarchy


class HybridORAM(ORAMProtocol):
    """The cacheable ORAM interface of the paper."""

    def __init__(
        self,
        config: HORAMConfig,
        hierarchy: StorageHierarchy,
        codec: BlockCodec,
        stripe: "tuple[int, int]" = (1, 0),
        image: "tuple[dict, dict[str, bytes]] | None" = None,
    ):
        """Build the stack; ``image`` is a :meth:`state_dict` payload.

        Exactly one step writes the stack's image: a fresh build writes
        the initial one (sealed cache tree, initial permutation, sealed
        slab), a restore loads ``image`` in its place, so restoring seals
        nothing and draws no initial permutation.  On a sharded fleet,
        ``stripe = (n_shards, index)`` says local block ``i`` holds the
        initial content of global block ``i * n_shards + index``.
        :func:`repro.core.recipe.build` makes the codec and the hierarchy.
        """
        self.config = config
        self._address_limit = config.n_blocks
        self.hierarchy = hierarchy
        self.rng = DeterministicRandom(config.seed)
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

        self.cache = CacheTree(
            mem_blocks_budget=config.mem_tree_blocks,
            bucket_size=config.bucket_size,
            codec=codec,
            memory_store=hierarchy.memory,
            rng=self.rng.spawn("cache-tree"),
            shuffle=get_shuffle(config.shuffle_algorithm),
            stash_limit=config.stash_limit,
        )
        self.storage = PermutedStorage(
            n_blocks=config.n_blocks,
            codec=codec,
            storage_store=hierarchy.storage,
            memory_store=hierarchy.memory,
            rng=self.rng.spawn("storage-layer"),
            shuffle=get_shuffle(config.shuffle_algorithm),
            shuffle_period_ratio=config.shuffle_period_ratio,
            period_capacity=self.cache.period_capacity,
        )
        if image is None:
            self.cache.tree.fill_empty()
            self.storage._initialize(stripe)
        else:
            self.load_state(*image)

    @classmethod
    def required_storage_slots(cls, config: HORAMConfig) -> int:
        """Storage-tier slots the partition layout needs under ``config``
        (:func:`repro.core.recipe.build` sizes the hierarchy with it)."""
        partitions, size, overflow = storage_layout(
            config.n_blocks,
            config.shuffle_period_ratio,
            cache_period_capacity(config.mem_tree_blocks, config.bucket_size),
        )
        return partitions * (size + overflow)

    # ----------------------------------------------------------- properties
    @property
    def n_blocks(self) -> int:
        return self.config.n_blocks

    @property
    def period_capacity(self) -> int:
        """I/O loads per access period (the paper's n/2)."""
        return self.cache.period_capacity

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
        """Run one scheduler cycle; returns requests retired this cycle.

        The cycle that makes a period's last load also runs the shuffle
        period's plan (:meth:`run_shuffle_period`) before it returns, so
        its caller waits for the eviction and the permutation draws, but
        not for sealing the new partition images: those are written back
        later (:meth:`~repro.oram.base.ORAMProtocol.write_back`).
        """
        # Loads complete within their cycle (the I/O overlaps the c memory
        # reads and both finish by the cycle barrier), so no address is
        # ever in flight across cycles.
        self.hierarchy.mark("cycle-start")
        c = self.current_c
        plan = self.scheduler.plan(self.rob, c, self.cache.contains, set())

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
            io_times.add(self.dummy_fetch_path())
            self.metrics.dummy_misses += 1
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
        self.metrics.record_stash(len(self.cache.stash))
        self.metrics.tree_real_blocks_peak = max(
            self.metrics.tree_real_blocks_peak, self.cache.real_blocks
        )
        self._cycle_index += 1
        self.hierarchy.mark("cycle-end")

        # Period bookkeeping: every cycle performs one I/O load.
        self._loads_this_period += 1
        if self._loads_this_period >= self.period_capacity:
            self.run_shuffle_period()

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
        self.run_shuffle_period()

    def _release_memory(self) -> None:
        """Drop the ROB's entries, the cache tree's and the storage layer's
        tables, and close both tiers (see :meth:`ORAMProtocol.close`)."""
        self.rob.close()
        self.cache.close()
        self.storage.close()
        super()._release_memory()

    # ------------------------------------------------------------ layer calls
    def serve_hits(self, items) -> "tuple[list[bytes], TierTimes]":
        """Serve a cycle's hit group, ``[(op, addr, data|None)]`` in order,
        from the cache tree: the per-item payloads (pre-write value for
        writes) and the memory-tier time charged."""
        return self.cache.access_many(items)

    def dummy_hit(self) -> TierTimes:
        """One indistinguishable padding access on the cache tree."""
        return self.cache.dummy_access()

    def fetch_path(self, addr: int) -> TierTimes:
        """Load ``addr`` from storage into the cache tree (one miss)."""
        payload, times = self.storage.fetch(addr)
        self.cache.insert(addr, payload)
        return times

    def dummy_fetch_path(self) -> TierTimes:
        """One padded storage load, shaped exactly like a miss: it fetches
        a uniformly random stored block and admits it to the cache tree,
        so every dummy load is a prefetch."""
        addr, payload, times = self.storage.dummy_fetch()
        self.cache.insert(addr, payload)
        return times

    def run_shuffle_period(self) -> None:
        """Evict + group/partition shuffle + fresh period (Section 4.3).

        Runs the period's plan: the cache tree's oblivious eviction, each
        partition's read, survivor scan and permutation draws, the new
        permutation list, the nonces and every I/O charge, in the
        paper's order, so the simulated clock and every counter move
        here.  Each rewritten partition's records are sealed later, when
        the storage tier writes the region back (idle time, or the first
        access that needs it); that is wall-clock work only, and leaves
        the same bytes.
        """
        hierarchy, metrics = self.hierarchy, self.metrics
        hierarchy.mark("shuffle-start")
        start_us = hierarchy.clock.now_us
        io_before = hierarchy.storage.snapshot()

        evicted, evict_times, _moves = self.cache.evict_all()
        stats = self.storage.shuffle_into(evicted, self._period_index)

        # The shuffle period is serial: the storage waits for it.
        hierarchy.clock.advance(evict_times.serial_us + stats.times.serial_us)
        # Keep the overlap channels from "catching up" during the pause.
        hierarchy.memory_channel.busy_until_us = hierarchy.clock.now_us
        hierarchy.io_channel.busy_until_us = hierarchy.clock.now_us

        io_delta = hierarchy.storage.snapshot().delta(io_before)
        metrics.shuffle_count += 1
        metrics.shuffle_time_us += hierarchy.clock.now_us - start_us
        metrics.evict_time_us += evict_times.serial_us
        metrics.shuffle_bytes_read += io_delta.bytes_read
        metrics.shuffle_bytes_written += io_delta.bytes_written
        metrics.shuffle_io_reads += io_delta.reads
        metrics.shuffle_io_writes += io_delta.writes
        metrics.shuffle_io_time_us += io_delta.busy_us
        # The in-memory shuffle moves are charged to durations, not to the
        # memory store's counters; account the store part plus move time.
        metrics.shuffle_mem_time_us += evict_times.mem_us + stats.times.mem_us
        extra = metrics.extra
        extra["partitions_shuffled"] = (
            extra.get("partitions_shuffled", 0) + stats.partitions_shuffled
        )
        extra["blocks_appended"] = extra.get("blocks_appended", 0) + stats.blocks_appended

        # Requests whose block was loaded but not yet serviced lost their
        # cached copy to the eviction; they re-enter as pending misses.
        demoted = self.rob.demote_ready()
        if demoted:
            extra["ready_demotions"] = extra.get("ready_demotions", 0) + demoted

        self.storage.end_period()
        self._loads_this_period = 0
        self._period_index += 1
        hierarchy.mark("shuffle-end")

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
        this point forward.  The storage layer's control tables ship as
        blobs beside the store blobs.
        """
        from repro.core.checkpoint import _hierarchy_state

        state, blobs = _hierarchy_state(self.hierarchy)
        storage_state, tables = self.storage.state_dict()
        state.update(
            codec_nonce=self.codec._nonce_counter,
            rng=self.rng.state_dict(),
            cache=self.cache.state_dict(),
            storage=storage_state,
        )
        blobs.update(tables)
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
        self.cache.load_state(state["cache"])
        self.storage.load_state(state["storage"], blobs)
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

        The cache-tree accesses themselves go through :meth:`serve_hits`
        (one per entry, same order); the per-entry metric increments,
        latency samples and the served digest are folded into one pass
        over the group, and the digest is chained once for the whole
        cycle: ``BLAKE2b-128(previous digest || addr, cycle, addr, cycle,
        ...)`` with each number a little-endian int64, in service order.
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


def build_horam(
    n_blocks: int,
    mem_tree_blocks: int,
    payload_bytes: int = 16,
    modeled_block_bytes: int = 1024,
    seed: int = 0,
    trace: bool = False,
    storage_device=None,
    memory_device=None,
    integrity: bool = False,
    storage_backend: str = "memory",
    storage_path=None,
    **config_kwargs,
) -> HybridORAM:
    """Convenience factory: one :class:`~repro.core.recipe.StackRecipe`,
    built.

    This is the two-line entry point the README quickstart uses::

        oram = build_horam(n_blocks=4096, mem_tree_blocks=512)
        oram.write(7, b"secret")
    """
    return build(
        recipe_from_kwargs(
            "horam",
            n_blocks,
            mem_tree_blocks,
            payload_bytes=payload_bytes,
            modeled_block_bytes=modeled_block_bytes,
            seed=seed,
            trace=trace,
            storage_device=storage_device,
            memory_device=memory_device,
            integrity=integrity,
            storage_backend=storage_backend,
            storage_path=storage_path,
            **config_kwargs,
        )
    )

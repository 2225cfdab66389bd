"""H-ORAM's storage layer (Sections 4.1.3 and 4.3.2).

N encrypted blocks sit at permuted slots across ``P = ceil(sqrt(N))``
partitions of ``S = ceil(N/P)`` base slots each (slots beyond N hold
dummies).  The control layer's *permutation list* records, per logical
address, either the physical slot or the fact that the block is currently
cached in memory.

Invariants the security analysis relies on:

* **read-once**: a slot is fetched at most once between re-permutations of
  its partition (tracked by a per-slot ``consumed`` flag);
* **unbiased dummies**: a dummy load reads a uniformly random unconsumed
  slot -- if it happens to hold a live block, that block is handed back as
  an opportunistic prefetch (it joins the cache like any missed block);
* **public shuffle order**: partitions are re-permuted left-to-right, a
  data-independent order proven equivalent to partition ORAM's random
  choice in Section 4.3.3.

The *group and partition shuffle* (Figure 4-4) streams one partition in,
concatenates the next chunk of (already obliviously shuffled) evicted hot
data, permutes in memory, and streams the partition back -- all sequential
I/O, which is what makes H-ORAM's maintenance 10-20x cheaper per byte than
the baseline's scattered bucket writes.

With ``shuffle_period_ratio = r > 1`` the Section 5.3.1 *partial shuffle*
is enabled: only partitions ``i`` with ``i % r == period % r`` are
re-permuted each period; the remaining evicted blocks are appended
sequentially to per-partition overflow regions that get folded in whenever
their partition's turn comes.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import compress
from typing import Callable

from repro import accel as _accel
from repro.crypto.random import DeterministicRandom
from repro.oram.base import DUMMY_ADDR, BlockCodec, CapacityError
from repro.oram.base import initial_payload
from repro.shuffle.base import ShuffleAlgorithm
from repro.sim.metrics import TierTimes
from repro.storage.backend import BlockStore

#: permutation-list value meaning "block is cached in the memory layer".
IN_MEMORY = -1


@dataclass
class ShuffleStats:
    """Accounting for one shuffle period of the storage layer."""

    times: TierTimes
    partitions_shuffled: int = 0
    blocks_replaced: int = 0
    blocks_appended: int = 0
    moves: int = 0


class _Partition:
    """Slot spans of one partition: [base, base+size) + overflow region."""

    def __init__(self, base: int, size: int, overflow_base: int, overflow_cap: int):
        self.base = base
        self.size = size
        self.overflow_base = overflow_base
        self.overflow_cap = overflow_cap
        self.overflow_used = 0

    @property
    def overflow_free(self) -> int:
        return self.overflow_cap - self.overflow_used


class PermutedStorage:
    """The flat permuted storage layer plus its control-layer bookkeeping."""

    def __init__(
        self,
        n_blocks: int,
        codec: BlockCodec,
        storage_store: BlockStore,
        memory_store: BlockStore,
        rng: DeterministicRandom,
        shuffle: ShuffleAlgorithm,
        shuffle_period_ratio: int = 1,
        period_capacity: int | None = None,
        initial_addr_map: Callable[[int], int] | None = None,
    ):
        if n_blocks <= 0:
            raise ValueError("n_blocks must be positive")
        self.n_blocks = n_blocks
        self.codec = codec
        self.storage = storage_store
        self.memory = memory_store
        self.rng = rng
        self.shuffle_algorithm = shuffle
        self.ratio = shuffle_period_ratio
        # Sharded deployments stripe a global address space across
        # instances; the map renames local block i to its global identity
        # so the *initial content* of block i is initial_payload(global i).
        # Everything else (permutation list, sealed headers, shuffles)
        # stays in local coordinates.
        self._initial_addr_map = initial_addr_map

        self.partition_count = max(1, math.isqrt(n_blocks))
        self.partition_size = math.ceil(n_blocks / self.partition_count)
        if self.ratio > 1:
            if period_capacity is None:
                raise ValueError("partial shuffle needs the period capacity for sizing")
            per_period = math.ceil(period_capacity / self.partition_count)
            self.overflow_cap = 2 * self.ratio * per_period + 4
        else:
            self.overflow_cap = 0

        span = self.partition_size + self.overflow_cap
        self.total_slots = self.partition_count * span
        if storage_store.slots < self.total_slots:
            raise CapacityError(
                f"storage store has {storage_store.slots} slots, layout needs "
                f"{self.total_slots}"
            )
        # Memoized slot resolution: the layout is fixed for the life of the
        # instance, so the slot -> partition map is a flat table instead of
        # a division on every consume/append.
        self._slot_partition = array("I")
        for index in range(self.partition_count):
            self._slot_partition.extend(array("I", [index]) * span)
        self._partitions = [
            _Partition(
                base=i * span,
                size=self.partition_size,
                overflow_base=i * span + self.partition_size,
                overflow_cap=self.overflow_cap,
            )
            for i in range(self.partition_count)
        ]

        # Control-layer state (the paper's permutation list), as flat
        # machine-word tables: ``location`` (int64, addr -> slot, or
        # IN_MEMORY) and ``slot_addr`` (uint64, slot -> addr, or
        # DUMMY_ADDR).  They index like lists, serialize to the same JSON
        # lists, and expose their buffers so the partition shuffle can scan
        # and relocate a whole partition with zero-copy numpy views.
        self.location = array("q", [0]) * n_blocks
        self.slot_addr = array("Q", [DUMMY_ADDR]) * self.total_slots
        self.consumed = bytearray(self.total_slots)  # read since partition's last shuffle
        self._occupied = bytearray(self.total_slots)  # holds a record (base always, overflow when used)

        self._unread: list[int] = []
        #: slot -> its index in ``_unread``, -1 when it is not there
        self._unread_pos = array("q", [-1]) * self.total_slots
        # Per-partition epoch bookkeeping: each partition's unconsumed
        # occupied slots as an insertion-ordered dict (ascending inserts,
        # O(1) delete on consume), so end_period concatenates live pools
        # instead of re-filtering slot lists.
        self._partition_unread: list[dict[int, None]] = [{} for _ in self._partitions]

        #: dummy loads that found no unconsumed slot (tiny configurations);
        #: surfaced as ``metrics.extra["dummy_pool_exhausted"]`` by H-ORAM.
        self.dummy_pool_exhausted = 0

        self._initialize()

    # ----------------------------------------------------------- plumbing
    def _initialize(self) -> None:
        """Permute all N blocks over the base regions (setup, no charge)."""
        base_slots: list[int] = []
        for partition in self._partitions:
            base_slots.extend(range(partition.base, partition.base + partition.size))
        order = list(base_slots)
        self.rng.shuffle(order)
        codec = self.codec
        pad = codec.pad
        rename = self._initial_addr_map or (lambda addr: addr)
        slot_addr = self.slot_addr
        self.location[:] = array("q", order[: self.n_blocks])
        for addr, slot in enumerate(order[: self.n_blocks]):
            slot_addr[slot] = addr
        # Seal in ascending slot order, dummies included, so the clear
        # nonces rise with the slot and say nothing about which block (or
        # whether any block) sits where.
        dummy = (DUMMY_ADDR, bytes(codec.payload_bytes))
        records = codec.seal_many(
            [
                dummy if addr == DUMMY_ADDR else (addr, pad(initial_payload(rename(addr))))
                for addr in (slot_addr[slot] for slot in base_slots)
            ]
        )
        if self.overflow_cap:
            # The base regions sit between (empty) overflow regions.
            slot_bytes = codec.slot_bytes
            run = self.partition_size * slot_bytes
            buffer = bytearray(self.total_slots * slot_bytes)
            for index, partition in enumerate(self._partitions):
                start = partition.base * slot_bytes
                buffer[start : start + run] = records[index * run : (index + 1) * run]
            records = buffer
        self.storage.poke_run(0, records)
        for index, partition in enumerate(self._partitions):
            self._occupied[partition.base : partition.base + partition.size] = (
                b"\x01" * partition.size
            )
            self._partition_unread[index] = dict.fromkeys(
                range(partition.base, partition.base + partition.size)
            )
        self._rebuild_unread()

    def _rebuild_unread(self) -> None:
        """Refresh the dummy-load candidate pool: unconsumed occupied slots.

        The per-partition pools are maintained incrementally (consumes
        delete, appends insert, shuffles replace), so opening a period is
        one concatenation of live pools -- no re-filtering pass over
        partition slot lists, and the cost follows the live pool size,
        not the total slot count.
        """
        unread: list[int] = []
        for slots in self._partition_unread:
            unread.extend(slots)
        self._set_unread(unread)

    def _set_unread(self, unread: list[int]) -> None:
        """Install ``unread`` as the dummy-load pool and index its slots."""
        self._unread = unread
        positions = self._unread_pos
        np = _accel.np
        if np is not None:
            view = np.frombuffer(positions, dtype=np.int64)
            view.fill(-1)
            view[np.frombuffer(array("q", unread), dtype=np.int64)] = np.arange(len(unread))
        else:
            positions[:] = array("q", [-1]) * len(positions)
            for index, slot in enumerate(unread):
                positions[slot] = index

    def _consume(self, slot: int) -> None:
        if self.consumed[slot]:
            raise CapacityError(f"slot {slot} fetched twice before a shuffle")
        self.consumed[slot] = 1
        self._partition_unread[self._partition_of(slot)].pop(slot, None)
        positions = self._unread_pos
        index = positions[slot]
        if index >= 0:
            # Swap-remove: the pool's last slot takes the consumed one's place.
            unread = self._unread
            last = unread.pop()
            if last != slot:
                unread[index] = last
                positions[last] = index
            positions[slot] = -1

    def _partition_of(self, slot: int) -> int:
        return self._slot_partition[slot]

    # -------------------------------------------------------------- access
    def is_in_memory(self, addr: int) -> bool:
        return self.location[addr] == IN_MEMORY

    def fetch(self, addr: int) -> tuple[bytes, TierTimes]:
        """Load a missed block from its permuted slot (one random read)."""
        slot = self.location[addr]
        if slot == IN_MEMORY:
            raise CapacityError(f"fetch for block {addr} which is already in memory")
        times = TierTimes()
        # Zero-copy: open the record straight off the store's backing
        # buffer (same charging and trace event as read_slot).
        record, duration = self.storage.read_slot_view(slot)
        times.io_us += duration
        stored_addr, payload = self.codec.open(record)
        if stored_addr != addr:
            raise CapacityError(f"slot {slot} held block {stored_addr}, expected {addr}")
        self._consume(slot)
        self.location[addr] = IN_MEMORY
        return payload, times

    def dummy_fetch(self) -> tuple[int | None, bytes | None, TierTimes]:
        """Load a uniformly random unconsumed slot (padding I/O).

        Returns ``(addr, payload, times)`` when the slot held a live block
        (an opportunistic prefetch the caller should admit to the cache),
        or ``(None, None, times)`` for a dummy record.
        """
        times = TierTimes()
        if not self._unread:
            # Every occupied slot was consumed this epoch -- only possible
            # in tiny configurations.  Fall back to a harmless re-read of
            # slot 0 so the cycle shape stays fixed, and count the event so
            # the protocol can surface it instead of hiding it.
            self.dummy_pool_exhausted += 1
            _, duration = self.storage.read_slot_view(0)
            times.io_us += duration
            return None, None, times
        slot = self._unread[self.rng.randrange(len(self._unread))]
        record, duration = self.storage.read_slot_view(slot)
        times.io_us += duration
        self._consume(slot)
        stored_addr, payload = self.codec.open(record)
        if stored_addr == DUMMY_ADDR:
            return None, None, times
        if self.location[stored_addr] != slot:
            # Stale copy of a block that has moved; treat as dummy.  (Can
            # only happen for never-reclaimed overflow copies.)
            return None, None, times
        self.location[stored_addr] = IN_MEMORY
        return stored_addr, payload, times

    # ------------------------------------------------------------- shuffle
    def shuffle_into(self, evicted: list[tuple[int, bytes]], period_index: int) -> ShuffleStats:
        """Fold evicted hot data back and re-permute (Figure 4-4).

        ``evicted`` must already be in oblivious order (the cache tree's
        eviction guarantees it); sequential chunking onto partitions is
        then equivalent to a random assignment.
        """
        stats = ShuffleStats(times=TierTimes())
        shuffled_this_period = [
            i for i in range(self.partition_count) if i % self.ratio == period_index % self.ratio
        ]
        pending = list(evicted)

        for index in shuffled_this_period:
            pending = self._shuffle_partition(index, pending, stats)

        if pending:
            pending = self._append_overflow(pending, stats)
        if pending:
            # Overflow exhausted everywhere: forced full pass over the
            # remaining partitions (correctness over optimization; counted
            # so the ablation can see it).
            for index in range(self.partition_count):
                if index in shuffled_this_period:
                    continue
                pending = self._shuffle_partition(index, pending, stats)
                if not pending:
                    break
        if pending:
            raise CapacityError(
                f"{len(pending)} evicted blocks found no storage slot; "
                "layout sizing bug"
            )
        return stats

    def _shuffle_partition(
        self,
        index: int,
        pending: list[tuple[int, bytes]],
        stats: ShuffleStats,
    ) -> list[tuple[int, bytes]]:
        """Stream partition ``index`` (+overflow) in, merge, permute, write."""
        partition = self._partitions[index]
        base = partition.base
        size = partition.size
        span = size + partition.overflow_used

        view, read_us = self.storage.read_run_view(base, span)
        stats.times.io_us += read_us

        # Survivors: blocks whose permutation-list entry still points here.
        offsets, addrs = self._survivors(base, span)
        codec = self.codec
        if codec.mac_key is None:
            # One open over the whole run; records that are not survivors
            # decrypt to values nobody reads.
            opened = codec.open_run(view)
            survivors = [(addr, opened[offset][1]) for offset, addr in zip(offsets, addrs)]
        else:
            # MACed records are verified one by one, survivors only, so a
            # corrupt record nobody needs never raises.
            slot_bytes = codec.slot_bytes
            opened = codec.open_many(
                [view[offset * slot_bytes : (offset + 1) * slot_bytes] for offset in offsets]
            )
            survivors = [(addr, payload) for addr, (_, payload) in zip(addrs, opened)]

        # Take the next chunk of evicted data that fits the base region.
        # (With partial shuffle, survivors from the overflow region can
        # exceed the base size; the excess is re-queued for placement in a
        # later partition or overflow group.)
        room = max(0, size - len(survivors))
        chunk, pending = pending[:room], pending[room:]
        stats.blocks_replaced += len(chunk)

        content = survivors + chunk
        result = self.shuffle_algorithm.shuffle(content, self.rng)
        stats.moves += result.moves
        stats.times.mem_us += result.moves * self.memory.device.transfer_us(
            self.memory.modeled_slot_bytes, write=False
        )
        base_items = result.items[:size]
        requeued = result.items[size:]

        buffer = codec.seal_many(base_items, dummy_tail=size - len(base_items))
        self._place(base, [addr for addr, _ in base_items], dummies=size - len(base_items))

        stats.times.io_us += self.storage.write_run(base, buffer)

        # Fresh epoch for the whole span: base rewritten, overflow released.
        self.consumed[base : base + size] = bytes(size)
        self._occupied[base : base + size] = b"\x01" * size
        overflow_base = partition.overflow_base
        overflow_cap = partition.overflow_cap
        self.consumed[overflow_base : overflow_base + overflow_cap] = bytes(overflow_cap)
        self._occupied[overflow_base : overflow_base + overflow_cap] = bytes(overflow_cap)
        partition.overflow_used = 0
        self._partition_unread[index] = dict.fromkeys(range(base, base + size))
        stats.partitions_shuffled += 1
        return requeued + pending

    def _survivors(self, base: int, span: int) -> tuple[list[int], list[int]]:
        """``(offsets, addrs)`` of the live records in slots ``[base, base+span)``.

        A record is live when its permutation-list entry still points at
        its slot; stale overflow copies and dummies are not.
        """
        np = _accel.np
        if np is not None:
            held = np.frombuffer(self.slot_addr, dtype=np.uint64)[base : base + span]
            offsets = np.flatnonzero(held != DUMMY_ADDR)
            addrs = held[offsets].astype(np.intp)
            live = np.frombuffer(self.location, dtype=np.int64)[addrs] == offsets + base
            return offsets[live].tolist(), addrs[live].tolist()
        slot_addr = self.slot_addr
        location = self.location
        offsets, addrs = [], []
        for offset in range(span):
            addr = slot_addr[base + offset]
            if addr != DUMMY_ADDR and location[addr] == base + offset:
                offsets.append(offset)
                addrs.append(addr)
        return offsets, addrs

    def _place(self, start: int, addrs: list[int], dummies: int = 0) -> None:
        """Record ``addrs`` at slots ``start, start+1, ...``, then ``dummies`` dummies."""
        placed = array("Q", addrs)
        end = start + len(placed)
        self.slot_addr[start : end + dummies] = placed + array("Q", [DUMMY_ADDR]) * dummies
        np = _accel.np
        if np is not None:
            np.frombuffer(self.location, dtype=np.int64)[
                np.frombuffer(placed, dtype=np.uint64).astype(np.intp)
            ] = np.arange(start, end)
        else:
            location = self.location
            for slot, addr in enumerate(placed, start):
                location[addr] = slot

    def _append_overflow(
        self, pending: list[tuple[int, bytes]], stats: ShuffleStats
    ) -> list[tuple[int, bytes]]:
        """Partial shuffle: append leftover evicted blocks to overflow regions.

        The evicted buffer is already obliviously ordered, so splitting it
        sequentially across partitions leaks nothing; each group costs one
        sequential write run.
        """
        remaining = pending
        for index, partition in enumerate(self._partitions):
            if not remaining:
                break
            take = min(len(remaining), partition.overflow_free)
            if take == 0:
                continue
            group, remaining = remaining[:take], remaining[take:]
            start = partition.overflow_base + partition.overflow_used
            buffer = self.codec.seal_many(group)
            self._place(start, [addr for addr, _ in group])
            count = len(group)
            self._occupied[start : start + count] = b"\x01" * count
            self.consumed[start : start + count] = bytes(count)
            # Appended slots are fresh unconsumed candidates; they extend
            # the partition's pool in ascending order.
            self._partition_unread[index].update(dict.fromkeys(range(start, start + count)))
            stats.times.io_us += self.storage.write_run(start, buffer)
            partition.overflow_used += count
            stats.blocks_appended += count
        return remaining

    def end_period(self) -> None:
        """Open the next access period's dummy-load pool."""
        self._rebuild_unread()

    # ---------------------------------------------------------- checkpoint
    def state_dict(self) -> dict:
        """JSON-able control-layer state (slot *bytes* live in the store blob)."""
        from base64 import b64encode

        return {
            "location": list(self.location),
            "slot_addr": list(self.slot_addr),
            "consumed": b64encode(self.consumed).decode("ascii"),
            "occupied": b64encode(self._occupied).decode("ascii"),
            "overflow_used": [p.overflow_used for p in self._partitions],
            "unread": list(self._unread),
            "dummy_pool_exhausted": self.dummy_pool_exhausted,
            "rng": self.rng.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        from base64 import b64decode

        self.location[:] = array("q", state["location"])
        self.slot_addr[:] = array("Q", state["slot_addr"])
        self.consumed[:] = b64decode(state["consumed"])
        self._occupied[:] = b64decode(state["occupied"])
        for partition, used in zip(self._partitions, state["overflow_used"]):
            partition.overflow_used = used
        self._partition_unread = self._derive_partition_pools()
        self._set_unread(list(state["unread"]))
        self.dummy_pool_exhausted = state["dummy_pool_exhausted"]
        self.rng.load_state(state["rng"])

    def _derive_partition_pools(self) -> "list[dict[int, None]]":
        """Each partition's pool from the slot bitmaps alone.

        A pool holds the partition's occupied, unconsumed slots in
        ascending order: the base region first, then the overflow region
        (which sits above it).  That is the order the incremental
        maintenance keeps -- a shuffle inserts the base region in order,
        overflow appends extend it in order, and consumes only delete --
        so the pools need not be checkpointed.
        """
        width = len(self._occupied)
        live = (
            int.from_bytes(self._occupied, "little") & ~int.from_bytes(self.consumed, "little")
        ).to_bytes(width, "little")
        span = self.partition_size + self.overflow_cap
        return [
            dict.fromkeys(compress(range(base, base + span), live[base : base + span]))
            for base in (partition.base for partition in self._partitions)
        ]

    # ------------------------------------------------------------- queries
    def resident_blocks(self) -> int:
        return len(self.location) - self.location.count(IN_MEMORY)

    def describe(self) -> dict:
        return {
            "partitions": self.partition_count,
            "partition_size": self.partition_size,
            "overflow_capacity": self.overflow_cap,
            "total_slots": self.total_slots,
        }

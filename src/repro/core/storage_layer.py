"""H-ORAM's storage layer (Sections 4.1.3 and 4.3.2).

N encrypted blocks sit at permuted slots across ``P = isqrt(N)``
partitions of ``S = ceil(N/P)`` base slots each; the first ``P*S - N``
partitions hold ``S - 1`` blocks and one dummy, the rest ``S`` blocks.
The control layer's *permutation list* records, per logical address,
either the physical slot or the fact that the block is currently cached
in memory.

Invariants the security analysis relies on:

* **read-once**: a slot is fetched at most once between re-permutations of
  its partition (tracked by a per-slot ``consumed`` flag);
* **unbiased dummies**: a dummy load fetches a uniformly random block
  still in storage, handed back as an opportunistic prefetch (it joins the
  cache like any missed block); dummy slots are never read, and partition
  ``p`` holds a public ``fill`` blocks (a partial shuffle may leave it
  fewer, with the rest in overflow regions).  The pool a dummy load draws
  from is derived from ``location`` whenever a period opens;
* **public shuffle order**: partitions are re-permuted left-to-right, a
  data-independent order proven equivalent to partition ORAM's random
  choice in Section 4.3.3.

The *group and partition shuffle* (Figure 4-4) streams one partition in,
concatenates the next chunk of (already obliviously shuffled) evicted hot
data, permutes in memory, and streams the partition back -- all sequential
I/O, which is what makes H-ORAM's maintenance 10-20x cheaper per byte than
the baseline's scattered bucket writes.  Each rewrite is planned (draws,
placement, nonces, charges) inside the shuffle period and sealed when the
storage store writes it back, in idle time or before anything reads those
slots (:meth:`PermutedStorage._shuffle_partition`).

With ``shuffle_period_ratio = r > 1`` the Section 5.3.1 *partial shuffle*
is enabled: only partitions ``i`` with ``i % r == period % r`` are
re-permuted each period; the remaining evicted blocks are appended
sequentially to per-partition overflow regions that get folded in whenever
their partition's turn comes.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import zip_longest

import numpy as np

from repro.crypto.random import DeterministicRandom
from repro.oram.base import (
    DUMMY_ADDR,
    BlockCodec,
    CapacityError,
    initial_payloads,
    payload_matrix,
    release,
)
from repro.shuffle.base import ShuffleAlgorithm
from repro.sim.metrics import TierTimes
from repro.storage.backend import BlockStore, DeferredRun

#: permutation-list value meaning "block is cached in the memory layer".
IN_MEMORY = -1

#: Bytes of sealed records the initial image seals per kernel call at
#: most (a single base region may exceed it): few calls, and no
#: slab-sized payload matrix or sealed buffer in the peak resident set.
_IMAGE_RUN_BYTES = 1 << 18

#: flag bytes to and from ASCII binary digits (for bit packing)
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _narrowest(typecodes: str, low: int, high: int) -> str:
    """The first array typecode in ``typecodes`` that holds ``[low, high]``."""
    for code in typecodes:
        bits = 8 * array(code).itemsize
        if code.islower():
            fits = -(1 << (bits - 1)) <= low and high < 1 << (bits - 1)
        else:
            fits = 0 <= low and high < 1 << bits
        if fits:
            return code
    raise ValueError(f"no array type holds [{low}, {high}]")


def _pack_table(typecode: str, values) -> bytes:
    """``values`` as a little-endian fixed-width table."""
    table = array(typecode, values)
    if sys.byteorder == "big":
        table.byteswap()
    return table.tobytes()


def _unpack_table(typecode: str, blob: bytes) -> array:
    table = array(typecode)
    table.frombytes(blob)
    if sys.byteorder == "big":
        table.byteswap()
    return table


def _pack_bits(flags: bytearray) -> bytes:
    """0/1 flag bytes packed one bit each, flag ``i`` at bit ``i % 8`` of
    byte ``i // 8``."""
    digits = flags.translate(_TO_DIGITS)[::-1]
    return int(digits or b"0", 2).to_bytes((len(flags) + 7) // 8, "little")


def _unpack_bits(blob: bytes, count: int) -> bytearray:
    """Inverse of :func:`_pack_bits` for ``count`` flags."""
    value = int.from_bytes(blob, "little")
    if len(blob) != (count + 7) // 8 or value >> count:
        raise ValueError(f"bit table of {len(blob)} bytes does not hold {count} flags")
    digits = format(value, "b").zfill(count)[::-1]
    return bytearray(digits.encode("ascii").translate(_FROM_DIGITS))


def storage_layout(
    n_blocks: int, shuffle_period_ratio: int = 1, period_capacity: int | None = None
) -> "tuple[int, int, int]":
    """``(partitions, base slots per partition, overflow slots per
    partition)``: ``P = max(1, isqrt(N))`` partitions of ``ceil(N/P)``
    base slots, plus, under a partial shuffle (``r > 1``), room for ``2r``
    periods' share of the evicted blocks and a slack of 4."""
    partitions = max(1, math.isqrt(n_blocks))
    size = math.ceil(n_blocks / partitions)
    if shuffle_period_ratio <= 1:
        return partitions, size, 0
    if period_capacity is None:
        raise ValueError("partial shuffle needs the period capacity for sizing")
    per_period = math.ceil(period_capacity / partitions)
    return partitions, size, 2 * shuffle_period_ratio * per_period + 4


@dataclass
class ShuffleStats:
    """Accounting for one shuffle period of the storage layer."""

    times: TierTimes
    partitions_shuffled: int = 0
    blocks_replaced: int = 0
    blocks_appended: int = 0
    moves: int = 0


class _Partition:
    """Slot spans of one partition: [base, base+size) + overflow region.

    ``fill``, derived from N alone, is the number of blocks a full
    shuffle leaves in its base region; the rest of the region holds
    dummies.
    """

    def __init__(self, base: int, size: int, fill: int, overflow_base: int, overflow_cap: int):
        self.base = base
        self.size = size
        self.fill = fill
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

        self.partition_count, self.partition_size, self.overflow_cap = storage_layout(
            n_blocks, shuffle_period_ratio, period_capacity
        )
        span = self.partition_size + self.overflow_cap
        self.total_slots = self.partition_count * span
        holes = self.partition_count * self.partition_size - n_blocks
        if storage_store.slots < self.total_slots:
            raise CapacityError(
                f"storage store has {storage_store.slots} slots, layout needs "
                f"{self.total_slots}"
            )
        self._partitions = [
            _Partition(
                base=i * span,
                size=self.partition_size,
                fill=self.partition_size - (i < holes),
                overflow_base=i * span + self.partition_size,
                overflow_cap=self.overflow_cap,
            )
            for i in range(self.partition_count)
        ]

        # Control-layer state (the paper's permutation list), as flat
        # machine-word tables: ``location`` (int64, addr -> slot, or
        # IN_MEMORY) and ``slot_addr`` (uint64, slot -> addr, or
        # DUMMY_ADDR).  They index like lists and expose their buffers so
        # the partition shuffle can scan and relocate a whole partition
        # with zero-copy numpy views.  A slot holds a record when it is in
        # a base region or in the used prefix of an overflow region, so
        # occupancy is never stored.
        self.location = array("q", [0]) * n_blocks
        self.slot_addr = array("Q", [DUMMY_ADDR]) * self.total_slots
        self.consumed = bytearray(self.total_slots)  # read since partition's last shuffle

        # The dummy-load pool (derived when a period opens, then shrunk by
        # swap-remove) and its slot -> index map (-1: not in the pool), in
        # the checkpoint's narrowest table types.
        position_type, pool_type = self._table_types()
        self._unread = array(pool_type)
        self._unread_pos = array(position_type, [-1]) * self.total_slots

    # ----------------------------------------------------------- plumbing
    def _initialize(self, stripe: "tuple[int, int]" = (1, 0)) -> None:
        """Write the initial image: permute the N blocks over the first
        ``fill`` slots of every base region, then seal the base regions
        straight from ``slot_addr`` (setup, no charge).

        A new layer is blank until either this or :meth:`load_state` runs;
        the owning kernel calls exactly one of them.  Sharded deployments
        stripe a global address space across instances: with ``stripe =
        (n_shards, index)`` local block i holds the initial content of
        global block ``i * n_shards + index``, ``initial_payload`` of that
        id.  Everything else (permutation list, sealed headers, shuffles)
        stays in local coordinates.  The rows go to
        :meth:`~repro.oram.base.BlockCodec.seal_columns` as an address
        column and a payload matrix, a run of base regions at a time, in
        slot order (so the clear nonces rise with the slot).
        """
        # A list shuffles faster than an array (no boxing per swap); drop it before sealing.
        slots = [
            slot
            for partition in self._partitions
            for slot in range(partition.base, partition.base + partition.fill)
        ]
        self.rng.shuffle(slots)
        self.location[:] = array("q", slots)
        del slots
        self._derive_slot_addr()
        n_shards, index = stripe
        payload_bytes = self.codec.payload_bytes
        for start, count in self._image_runs():
            column = self.slot_addr[start : start + count]
            # A dummy row's payload is all zero: initial_payload(0).
            ids = np.frombuffer(column, dtype=np.uint64)
            ids = np.where(ids != DUMMY_ADDR, ids * n_shards + index, 0)
            payloads = initial_payloads(ids, payload_bytes)
            self.storage.poke_run(start, self.codec.seal_columns(column, payloads))
        self._rebuild_unread()

    def _image_runs(self) -> "list[tuple[int, int]]":
        """``(start, count)`` slot runs covering every base region once, in
        slot order: adjacent regions (no overflow between them) merge up to
        :data:`_IMAGE_RUN_BYTES` of records, so the initial image is sealed
        in few kernel calls without a slab-sized temporary."""
        limit = max(1, _IMAGE_RUN_BYTES // self.codec.slot_bytes)
        runs: list[tuple[int, int]] = []
        for partition in self._partitions:
            if runs:
                start, count = runs[-1]
                if start + count == partition.base and count + partition.size <= limit:
                    runs[-1] = (start, count + partition.size)
                    continue
            runs.append((partition.base, partition.size))
        return runs

    def _rebuild_unread(self) -> None:
        """Open a period's dummy-load pool (see :meth:`_derive_unread`)."""
        self._set_unread(self._derive_unread())

    def _derive_unread(self) -> array:
        """The slots of the blocks in storage, in ascending slot order.

        A stored block's slot has not been read since it was written, so
        the pool is a function of ``location`` and is never maintained.
        """
        pool = array(self._unread.typecode)
        location = np.frombuffer(self.location, dtype=np.int64)
        stored = np.zeros(self.total_slots, dtype=bool)
        stored[location[location != IN_MEMORY]] = True
        pool.frombytes(np.flatnonzero(stored).astype(pool.typecode).tobytes())
        return pool

    def _set_unread(self, unread) -> None:
        """Install the slot sequence ``unread`` as the pool; index its slots."""
        self._unread = unread = array(self._unread.typecode, unread)
        positions = self._unread_pos
        view = np.frombuffer(positions, dtype=positions.typecode)
        view.fill(-1)
        view[np.frombuffer(unread, dtype=unread.typecode)] = np.arange(len(unread))

    def _consume(self, slot: int) -> None:
        if self.consumed[slot]:
            raise CapacityError(f"slot {slot} fetched twice before a shuffle")
        self.consumed[slot] = 1
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

    def dummy_fetch(self) -> tuple[int, bytes, TierTimes]:
        """Fetch a uniformly random block still in storage (padding I/O).

        Returns ``(addr, payload, times)``: an opportunistic prefetch the
        caller admits to the cache.  The load is a :meth:`fetch`, so it
        reads a slot a real miss could have read.
        """
        if not self._unread:
            # A period opens with all N blocks stored and takes one out per
            # load; HORAMConfig keeps its loads (at most half the cache
            # tree) below N, so only a hand-built layer gets here.
            raise CapacityError("dummy load found no block left in storage this period")
        addr = self.slot_addr[self._unread[self.rng.randrange(len(self._unread))]]
        payload, times = self.fetch(addr)
        return addr, payload, times

    # ------------------------------------------------------------- shuffle
    def shuffle_into(self, evicted: list[tuple[int, bytes]], period_index: int) -> ShuffleStats:
        """Fold evicted hot data back and re-permute (Figure 4-4).

        ``evicted`` must already be in oblivious order (the cache tree's
        eviction guarantees it); sequential chunking onto partitions is
        then equivalent to a random assignment.  Its payloads are whole
        ``payload_bytes`` rows, as the cache tree opened them.
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
        """Stream partition ``index`` (+overflow) in, merge, permute, write.

        Split into a *plan*, run here, and a *write-back* the store runs
        later.  The plan makes every decision and every charge in order:
        the run read, the survivor scan, the chunk of evicted blocks, the
        shuffle algorithm's draws (it permutes row indices; no algorithm
        inspects its items), the new ``slot_addr``/``location`` entries,
        the nonce range and the run write.  The write-back opens the old
        rows from the held read view (:meth:`_open_survivors`), gathers
        the new image's rows and seals them (see :meth:`_write_image`).
        Rows are opened here instead when they are needed at once: MACed
        records, so a corrupt survivor raises inside the shuffle, and a
        partition whose survivors exceed its fill (partial shuffle), whose
        excess rows go back to ``pending`` as ``(addr, payload)`` pairs.
        """
        partition = self._partitions[index]
        base = partition.base
        size = partition.size
        span = size + partition.overflow_used

        view, read_us = self.storage.read_run_view(base, span)
        stats.times.io_us += read_us

        # Survivors: blocks whose permutation-list entry still points here.
        offsets, addrs = self._survivors(base, span)
        codec = self.codec
        fill = partition.fill
        # Rows needed at once are opened as they are read (see above).
        payloads = None
        if codec.mac_key is not None or len(offsets) > fill:
            payloads = self._open_survivors(view, offsets)

        # Take the next chunk of evicted data that fills the base region.
        # (With partial shuffle, survivors from the overflow region can
        # exceed the fill; the excess is re-queued for placement in a
        # later partition or overflow group.)
        room = max(0, fill - len(offsets))
        chunk, pending = pending[:room], pending[room:]
        stats.blocks_replaced += len(chunk)
        chunk_addrs = [addr for addr, _ in chunk]
        chunk_payloads = [payload for _, payload in chunk]
        if chunk:
            addrs = np.concatenate([addrs, np.array(chunk_addrs, dtype=np.intp)])

        result = self.shuffle_algorithm.shuffle(range(len(addrs)), self.rng)
        stats.moves += result.moves
        stats.times.mem_us += result.moves * self.memory.device.transfer_us(
            self.memory.modeled_slot_bytes, write=False
        )
        order = result.items
        kept = np.array(order[:fill], dtype=np.intp)
        kept_addrs = addrs[kept]

        def kept_rows(payloads):
            """The new image's payload rows: the survivors' ``payloads``,
            then the chunk's, in ``kept`` order."""
            if chunk:
                payloads = np.concatenate(
                    [payloads, payload_matrix(chunk_payloads, codec.payload_bytes)]
                )
            return payloads[kept]

        if payloads is None:
            requeued = []
            reads = (base, base + span)

            def rows():
                return kept_rows(self._open_survivors(view, offsets))

        else:
            # Rows past the fill can only be survivors (no chunk joined
            # them); they go back to ``pending``.
            requeued = [(int(addrs[row]), payloads[row].tobytes()) for row in order[fill:]]
            reads = None
            rows = partial(kept_rows, payloads)

        written = self._write_image(partition, kept_addrs, rows, reads)
        stats.times.io_us += written

        # Fresh epoch for the whole span: base rewritten, overflow released.
        self.consumed[base : base + size] = bytes(size)
        overflow_base = partition.overflow_base
        overflow_cap = partition.overflow_cap
        self.consumed[overflow_base : overflow_base + overflow_cap] = bytes(overflow_cap)
        partition.overflow_used = 0
        stats.partitions_shuffled += 1
        return requeued + pending

    def _survivors(self, base: int, span: int):
        """``(offsets, addrs)`` of the live records in slots ``[base, base+span)``,
        as two intp arrays.

        A record is live when its permutation-list entry still points at
        its slot; stale overflow copies and dummies are not.
        """
        held = np.frombuffer(self.slot_addr, dtype=np.uint64)[base : base + span]
        offsets = np.flatnonzero(held != DUMMY_ADDR)
        addrs = held[offsets].astype(np.intp)
        live = np.frombuffer(self.location, dtype=np.int64)[addrs] == offsets + base
        return offsets[live], addrs[live]

    def _open_survivors(self, view, offsets):
        """The payload matrix of the records at ``offsets`` in the slot-run
        ``view``.

        Unauthenticated records are opened with one call over the whole
        run (rows that are not survivors decrypt to values nobody reads);
        MACed ones are verified one by one, survivors only, so a corrupt
        record nobody needs never raises.
        """
        codec = self.codec
        if codec.mac_key is None:
            _, opened = codec.open_columns(view)
            return payload_matrix(opened, codec.payload_bytes)[offsets]
        survivors = np.frombuffer(view, dtype=np.uint8).reshape(-1, codec.slot_bytes)[offsets]
        _, payloads = codec.open_columns(survivors)
        return payload_matrix(payloads, codec.payload_bytes)

    def _write_image(self, partition: _Partition, addrs, rows, reads=None) -> float:
        """Lay out ``partition``'s base region -- the blocks of the
        ``addrs`` column in its first slots, dummies after them -- and
        write it as one run; returns the write's duration.

        The run is a :class:`~repro.storage.backend.DeferredRun`: the
        region's nonces are reserved here, and the store charges the write
        here, but the region is sealed when the store writes it back.
        Then ``rows()`` makes the payload matrix (one row per block; the
        dummy rows are zero) from the slots ``reads`` if it needs them,
        and the address column is sealed with it in slot order under the
        reserved nonces, so the clear nonces rise with the slot and the
        bytes are those an eager seal here would have written.
        """
        base, size = partition.base, partition.size
        self._place(base, addrs)
        self.slot_addr[base + len(addrs) : base + size] = array("Q", [DUMMY_ADDR]) * (
            size - len(addrs)
        )
        column = self.slot_addr[base : base + size]
        codec = self.codec
        nonce0 = codec.reserve_nonces(size)

        def build() -> bytearray:
            return codec.seal_columns(column, rows(), nonce0)

        return self.storage.write_run(base, DeferredRun(size, build, reads))

    def _place(self, start: int, addrs) -> None:
        """Record the ``addrs`` column at slots ``start, start+1, ...``."""
        end = start + len(addrs)
        placed = np.asarray(addrs, dtype=np.intp)
        np.frombuffer(self.slot_addr, dtype=np.uint64)[start:end] = placed
        np.frombuffer(self.location, dtype=np.int64)[placed] = np.arange(start, end)

    def _append_overflow(
        self, pending: list[tuple[int, bytes]], stats: ShuffleStats
    ) -> list[tuple[int, bytes]]:
        """Partial shuffle: append leftover evicted blocks to overflow regions.

        The evicted buffer is already obliviously ordered, so splitting it
        sequentially across partitions leaks nothing; each group costs one
        sequential write run.
        """
        remaining = pending
        for partition in self._partitions:
            if not remaining:
                break
            take = min(len(remaining), partition.overflow_free)
            if take == 0:
                continue
            group, remaining = remaining[:take], remaining[take:]
            start = partition.overflow_base + partition.overflow_used
            addrs = [addr for addr, _ in group]
            buffer = self.codec.seal_columns(addrs, [payload for _, payload in group])
            self._place(start, addrs)
            count = len(group)
            self.consumed[start : start + count] = bytes(count)
            stats.times.io_us += self.storage.write_run(start, buffer)
            partition.overflow_used += count
            stats.blocks_appended += count
        return remaining

    def end_period(self) -> None:
        """Open the next access period's dummy-load pool."""
        self._rebuild_unread()

    def close(self) -> None:
        """Drop the control tables (the owning stack is closing)."""
        release(
            self, "location", "slot_addr", "consumed", "_unread", "_unread_pos", "_partitions"
        )

    # ---------------------------------------------------------- checkpoint
    def state_dict(self) -> "tuple[dict, dict[str, bytes]]":
        """``(JSON-able state, binary tables)`` of the control layer; the
        tables ship as ``control.*`` checkpoint blobs.

        Only what cannot be derived is kept: ``location`` and the ordered
        dummy-load pool ``unread`` as fixed-width little-endian tables in
        the narrowest type the geometry allows, and ``consumed`` packed one
        bit per slot.  ``slot_addr`` (the inverse of ``location``) and the
        pool's slot index are rebuilt by :meth:`load_state`, which refuses
        a pool that is not exactly the slots of the stored blocks.
        Slot *bytes* live in the store blob.
        """
        location_type, unread_type = self._table_types()
        state = {
            "overflow_used": [p.overflow_used for p in self._partitions],
            "rng": self.rng.state_dict(),
        }
        blobs = {
            "control.location": _pack_table(location_type, self.location),
            "control.unread": _pack_table(unread_type, self._unread),
            "control.consumed": _pack_bits(self.consumed),
        }
        return state, blobs

    def load_state(self, state: dict, blobs: "dict[str, bytes]") -> None:
        location_type, unread_type = self._table_types()
        location = _unpack_table(location_type, blobs["control.location"])
        if len(location) != self.n_blocks:
            raise ValueError(
                f"location table holds {len(location)} entries, layout has "
                f"{self.n_blocks} blocks"
            )
        self.location[:] = array("q", location)
        self.consumed[:] = _unpack_bits(blobs["control.consumed"], self.total_slots)
        for partition, used in zip(self._partitions, state["overflow_used"]):
            partition.overflow_used = used
        self._derive_slot_addr()
        unread = _unpack_table(unread_type, blobs["control.unread"])
        self._check_unread(unread)
        self._set_unread(unread)
        self.rng.load_state(state["rng"])

    def _check_unread(self, unread: array) -> None:
        """Refuse a restored pool unless it holds exactly the slots of the
        stored blocks, each once (compared sorted: it is in pool order)."""
        expected = self._derive_unread()
        ranked = array(expected.typecode, sorted(unread))
        if ranked != expected:
            # At the first difference the smaller slot is the bad one:
            # listed twice or holding no stored block, or else left out.
            pairs = zip_longest(ranked, expected, fillvalue=math.inf)
            slot = min(next(pair for pair in pairs if pair[0] != pair[1]))
            raise ValueError(
                f"unread table is not the slots of the stored blocks once each "
                f"(first bad slot {slot})"
            )

    def _table_types(self) -> "tuple[str, str]":
        """Array typecodes of the ``location`` and ``unread`` tables."""
        top = self.total_slots - 1
        return _narrowest("bhiq", IN_MEMORY, top), _narrowest("BHIQ", 0, top)

    def _derive_slot_addr(self) -> None:
        """``slot_addr`` as the inverse of ``location``, dummies elsewhere.

        Slots whose record is a stale copy read as dummies; every reader
        ignores an entry unless ``location`` points back at its slot, so
        the two are interchangeable.
        """
        slot_addr = self.slot_addr
        slot_addr[:] = array("Q", [DUMMY_ADDR]) * self.total_slots
        location = np.frombuffer(self.location, dtype=np.int64)
        stored = np.flatnonzero(location != IN_MEMORY)
        np.frombuffer(slot_addr, dtype=np.uint64)[location[stored]] = stored

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

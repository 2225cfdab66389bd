"""Path ORAM: the paper's baseline (Section 2.1.2, Figure 3-1a).

Two classes:

* :class:`PathOramTree` -- the tree machinery (bucket I/O, path read,
  greedy path write-back) over a memory store and an optional storage
  store.  The top ``mem_levels`` levels live in memory, the rest on
  storage -- the "tree-top cache" layout of ZeroTrace-style designs.
  H-ORAM reuses this class with *all* levels in memory as its cache tree.
* :class:`PathORAM` -- the complete baseline protocol: dense position map,
  stash, init-time bulk load of all N blocks, and the canonical
  read-path / remap / write-path access.

Timing: every bucket is moved with one ``read_run``/``write_run`` (one
positioning + ``Z * block`` transfer), so a baseline access to a tree with
``s`` storage levels costs ``s`` scattered bucket reads plus ``s``
scattered bucket writes on the slow device -- exactly the
``Z log2(2N/n)`` reads + writes of the paper's equation (5-3).
"""

from __future__ import annotations

from repro.crypto.random import DeterministicRandom
from repro.oram.base import (
    DUMMY_ADDR,
    BlockCodec,
    CapacityError,
    OpKind,
    ORAMProtocol,
    initial_payload,
)
from repro.oram.position_map import ArrayPositionMap
from repro.oram.stash import Stash
from repro.oram.tree import TreeGeometry
from repro.sim.metrics import Metrics, TierTimes
from repro.storage.backend import BlockStore


class PathOramTree:
    """Bucket and path machinery for a (possibly tier-split) ORAM tree."""

    def __init__(
        self,
        geometry: TreeGeometry,
        codec: BlockCodec,
        memory_store: BlockStore,
        storage_store: BlockStore | None = None,
        mem_levels: int | None = None,
        memory_slot_base: int = 0,
        storage_slot_base: int = 0,
    ):
        self.geometry = geometry
        self.codec = codec
        self.memory_store = memory_store
        self.storage_store = storage_store
        self.mem_levels = geometry.levels if mem_levels is None else mem_levels
        if not 1 <= self.mem_levels <= geometry.levels:
            raise ValueError(
                f"mem_levels {self.mem_levels} must be within [1, {geometry.levels}]"
            )
        if self.mem_levels < geometry.levels and storage_store is None:
            raise ValueError("a tier-split tree needs a storage store")
        self.memory_slot_base = memory_slot_base
        self.storage_slot_base = storage_slot_base
        self._mem_buckets = (1 << self.mem_levels) - 1
        # Controller-side map of which tree slots hold real records.  The
        # controller writes every record itself, so this is knowledge it
        # legitimately has (the tree tiers are private to it; obliviousness
        # concerns the bus trace, which still touches every slot).  It lets
        # the hot read path decrypt only real records instead of paying
        # full crypto for every dummy.
        self._real = bytearray(geometry.buckets * geometry.bucket_size)
        # Root-to-leaf bucket lists are pure functions of the static
        # geometry; every access walks one twice (read + write-back), so
        # they are memoized per leaf.
        self._path_cache: dict[int, list[int]] = {}
        #: path accesses per leaf, for the security analyzers
        self.leaf_counts: list[int] = [0] * geometry.leaves

    def _path(self, leaf: int) -> list[int]:
        path = self._path_cache.get(leaf)
        if path is None:
            path = self.geometry.path_buckets(leaf)
            self._path_cache[leaf] = path
        return path

    # ----------------------------------------------------------- geometry
    @property
    def memory_slots_needed(self) -> int:
        return self._mem_buckets * self.geometry.bucket_size

    @property
    def storage_slots_needed(self) -> int:
        return (self.geometry.buckets - self._mem_buckets) * self.geometry.bucket_size

    @property
    def storage_levels(self) -> int:
        """Tree levels that live on the slow device (the I/O cost driver)."""
        return self.geometry.levels - self.mem_levels

    def bucket_location(self, bucket: int) -> tuple[BlockStore, int]:
        """(store, first slot) for a bucket index."""
        z = self.geometry.bucket_size
        if bucket < self._mem_buckets:
            return self.memory_store, self.memory_slot_base + bucket * z
        assert self.storage_store is not None
        return (
            self.storage_store,
            self.storage_slot_base + (bucket - self._mem_buckets) * z,
        )

    # ----------------------------------------------------------- bucket I/O
    def read_bucket(self, bucket: int, times: TierTimes) -> list[bytes]:
        store, base = self.bucket_location(bucket)
        records, duration = store.read_run(base, self.geometry.bucket_size)
        if store.tier == "memory":
            times.mem_us += duration
        else:
            times.io_us += duration
        return records

    def write_bucket(
        self,
        bucket: int,
        records: "list[bytes] | bytes | bytearray | memoryview",
        times: TierTimes,
    ) -> None:
        store, base = self.bucket_location(bucket)
        duration = store.write_run(base, records)
        if store.tier == "memory":
            times.mem_us += duration
        else:
            times.io_us += duration

    # ------------------------------------------------------------ path ops
    def read_path(self, leaf: int, times: TierTimes) -> list[tuple[int, bytes]]:
        """Read every bucket on the path; return the real (addr, payload)s.

        Every slot on the path is transferred (and charged, and traced);
        only records the controller's real-slot map flags are decrypted --
        opening a dummy would just confirm what the controller already
        knows.
        """
        self.leaf_counts[leaf] += 1
        z = self.geometry.bucket_size
        slot_bytes = self.codec.slot_bytes
        real = self._real
        find = real.find
        mem_buckets = self._mem_buckets
        memory_store = self.memory_store
        memory_base = self.memory_slot_base
        storage_base = self.storage_slot_base
        # MACed codecs verify every record on the path -- dummies included --
        # so tampering anywhere is still detected; the dummy-skip fast path
        # applies only when there is no integrity tag to check.
        verify_all = self.codec.mac_key is not None
        found: list[tuple[int, bytes]] = []
        pending: list[memoryview] = []
        append_pending = pending.append
        for bucket in self._path(leaf):
            # Inlined bucket_location: this loop runs once per level per
            # access on both the read and write paths.
            if bucket < mem_buckets:
                view, duration = memory_store.read_run_view(memory_base + bucket * z, z)
                times.mem_us += duration
            else:
                view, duration = self.storage_store.read_run_view(
                    storage_base + (bucket - mem_buckets) * z, z
                )
                times.io_us += duration
            if verify_all:
                for addr, payload in self.codec.open_run(view):
                    if addr != DUMMY_ADDR:
                        found.append((addr, payload))
                continue
            bucket_slot = bucket * z
            bucket_end = bucket_slot + z
            index = find(1, bucket_slot, bucket_end)
            while index >= 0:
                offset = (index - bucket_slot) * slot_bytes
                append_pending(view[offset : offset + slot_bytes])
                index = find(1, index + 1, bucket_end)
        if pending:
            # One batch open for the whole path's real records (the views
            # stay zero-copy; open_many vectorizes past its threshold).
            found.extend(self.codec.open_many(pending))
        return found

    def write_path(self, leaf: int, stash: Stash, times: TierTimes) -> None:
        """Greedy write-back: deepest buckets first, fill from the stash.

        The whole path is sealed with one :meth:`BlockCodec.seal_many`
        call (bucket dummies as explicit entries -- ``seal(DUMMY_ADDR,
        zeros)`` is byte-identical to ``seal_dummy()``), then sliced back
        into per-bucket writes, so each bucket still costs exactly one
        ``write_run`` while the crypto amortizes over the full path.
        """
        z = self.geometry.bucket_size
        real = self._real
        path = self._path(leaf)
        dummy_entry = (DUMMY_ADDR, b"\x00" * self.codec.payload_bytes)
        entries: list[tuple[int, bytes]] = []
        buckets: list[tuple[int, int]] = []  # (bucket, real count), deepest first
        per_level = stash.select_for_path(self.geometry, leaf, z)
        for level, selected in zip(range(self.geometry.levels - 1, -1, -1), per_level):
            if selected:
                entries.extend([(entry.addr, entry.payload) for entry in selected])
            entries.extend([dummy_entry] * (z - len(selected)))
            buckets.append((path[level], len(selected)))
        sealed = memoryview(self.codec.seal_many(entries))
        bucket_bytes = z * self.codec.slot_bytes
        mem_buckets = self._mem_buckets
        memory_store = self.memory_store
        memory_base = self.memory_slot_base
        storage_base = self.storage_slot_base
        offset = 0
        for bucket, filled in buckets:
            bucket_slot = bucket * z
            real[bucket_slot : bucket_slot + filled] = b"\x01" * filled
            real[bucket_slot + filled : bucket_slot + z] = bytes(z - filled)
            # Inlined write_bucket/bucket_location (hot loop, see read_path).
            if bucket < mem_buckets:
                times.mem_us += memory_store.write_run(
                    memory_base + bucket * z, sealed[offset : offset + bucket_bytes]
                )
            else:
                times.io_us += self.storage_store.write_run(
                    storage_base + (bucket - mem_buckets) * z,
                    sealed[offset : offset + bucket_bytes],
                )
            offset += bucket_bytes

    # ------------------------------------------------------------- bulk ops
    def poke_bucket(self, bucket: int, entries: list[tuple[int, bytes]]) -> None:
        """Seal real (addr, payload) entries into a bucket's first slots.

        Initialization only (no timing or trace); keeps the real-slot map
        in sync, which direct ``poke_slot`` calls would not.
        """
        z = self.geometry.bucket_size
        if len(entries) > z:
            raise ValueError(f"bucket holds {z} records, got {len(entries)}")
        store, base = self.bucket_location(bucket)
        bucket_slot = bucket * z
        for index, (addr, payload) in enumerate(entries):
            store.poke_slot(base + index, self.codec.seal(addr, payload))
            self._real[bucket_slot + index] = 1

    def fill_empty(self) -> None:
        """Initialize every slot with a dummy record (no simulated time)."""
        store_slots = [
            (self.memory_store, self.memory_slot_base, self.memory_slots_needed),
        ]
        if self.storage_slots_needed:
            store_slots.append(
                (self.storage_store, self.storage_slot_base, self.storage_slots_needed)
            )
        for store, base, count in store_slots:
            store.poke_run(base, self.codec.seal_many([], dummy_tail=count))
        self._real[:] = bytes(len(self._real))

    def read_all(self, times: TierTimes) -> list[tuple[int, bytes]]:
        """Stream the whole tree in; return real blocks (eviction step 1)."""
        blocks: list[tuple[int, bytes]] = []
        pending: list[memoryview] = []
        slot_bytes = self.codec.slot_bytes
        real = self._real
        runs = [(self.memory_store, self.memory_slot_base, self.memory_slots_needed, "memory", 0)]
        if self.storage_slots_needed:
            runs.append(
                (
                    self.storage_store,
                    self.storage_slot_base,
                    self.storage_slots_needed,
                    "storage",
                    self.memory_slots_needed,
                )
            )
        verify_all = self.codec.mac_key is not None
        for store, base, count, tier, slot_offset in runs:
            view, duration = store.read_run_view(base, count)
            if tier == "memory":
                times.mem_us += duration
            else:
                times.io_us += duration
            if verify_all:
                # Integrity configs check every record's tag (see read_path).
                for addr, payload in self.codec.open_run(view):
                    if addr != DUMMY_ADDR:
                        blocks.append((addr, payload))
                continue
            end = slot_offset + count
            index = real.find(1, slot_offset, end)
            while index >= 0:
                offset = (index - slot_offset) * slot_bytes
                pending.append(view[offset : offset + slot_bytes])
                index = real.find(1, index + 1, end)
        if pending:
            # Batch-open the eviction scan's real records in one pass.
            blocks.extend(self.codec.open_many(pending))
        return blocks

    def clear(self, times: TierTimes) -> None:
        """Stream dummies over the whole tree (eviction step 3: fresh tree)."""
        runs = [(self.memory_store, self.memory_slot_base, self.memory_slots_needed, "memory")]
        if self.storage_slots_needed:
            runs.append(
                (self.storage_store, self.storage_slot_base, self.storage_slots_needed, "storage")
            )
        for store, base, count, tier in runs:
            duration = store.write_run(base, self.codec.seal_many([], dummy_tail=count))
            if tier == "memory":
                times.mem_us += duration
            else:
                times.io_us += duration
        self._real[:] = bytes(len(self._real))


class PathORAM(ORAMProtocol):
    """The tree-top-cached Path ORAM baseline of the paper's evaluation.

    Stores ``n_blocks`` real blocks in a tree of ~``2 * n_blocks`` slots;
    the top levels that fit in ``memory_blocks`` live on the memory tier,
    the remaining levels on the storage tier.
    """

    def __init__(
        self,
        n_blocks: int,
        memory_blocks: int,
        codec: BlockCodec,
        memory_store: BlockStore,
        storage_store: BlockStore,
        clock,
        bucket_size: int = 4,
        rng: DeterministicRandom | None = None,
        stash_limit: int | None = None,
    ):
        if n_blocks <= 0:
            raise ValueError("n_blocks must be positive")
        self._n_blocks = n_blocks
        self.rng = rng or DeterministicRandom(0)
        self.clock = clock
        geometry = TreeGeometry.for_real_blocks(n_blocks, bucket_size)
        mem_levels = self._mem_levels_for_budget(geometry, memory_blocks)
        self.tree = PathOramTree(
            geometry=geometry,
            codec=codec,
            memory_store=memory_store,
            storage_store=storage_store,
            mem_levels=mem_levels,
        )
        if memory_store.slots < self.tree.memory_slots_needed:
            raise CapacityError(
                f"memory store has {memory_store.slots} slots, tree top needs "
                f"{self.tree.memory_slots_needed}"
            )
        if storage_store.slots < self.tree.storage_slots_needed:
            raise CapacityError(
                f"storage store has {storage_store.slots} slots, tree bottom needs "
                f"{self.tree.storage_slots_needed}"
            )
        self.codec = codec
        self.position_map = ArrayPositionMap(n_blocks, geometry.leaves, self.rng)
        self.stash = Stash(limit=stash_limit)
        self.metrics = Metrics()
        self._bulk_load()

    # ----------------------------------------------------------- properties
    @property
    def n_blocks(self) -> int:
        return self._n_blocks

    @property
    def geometry(self) -> TreeGeometry:
        return self.tree.geometry

    @property
    def storage_levels(self) -> int:
        return self.tree.storage_levels

    # ------------------------------------------------------------- plumbing
    @staticmethod
    def _mem_levels_for_budget(geometry: TreeGeometry, memory_blocks: int) -> int:
        """Deepest level count whose cumulative slots fit the memory budget."""
        z = geometry.bucket_size
        levels = 1
        while (
            levels < geometry.levels
            and ((1 << (levels + 1)) - 1) * z <= memory_blocks
        ):
            levels += 1
        if ((1 << levels) - 1) * z > memory_blocks:
            raise CapacityError(
                f"memory budget of {memory_blocks} blocks cannot hold even the "
                f"root level of a Z={z} tree"
            )
        return levels

    def _bulk_load(self) -> None:
        """Place all N blocks into the tree at init (no simulated time).

        Blocks are pushed from their leaf bucket upward; anything that
        finds no space lands in the stash (rare at 50% utilization).
        Initial payloads encode the address so tests can verify reads
        before any write.
        """
        z = self.geometry.bucket_size
        occupancy: dict[int, list[tuple[int, bytes]]] = {}
        for addr in range(self._n_blocks):
            leaf = self.position_map.get(addr)
            payload = self.codec.pad(initial_payload(addr))
            placed = False
            for bucket in reversed(self.geometry.path_buckets(leaf)):
                content = occupancy.setdefault(bucket, [])
                if len(content) < z:
                    content.append((addr, payload))
                    placed = True
                    break
            if not placed:
                self.stash.put(addr, leaf, payload)
        self.tree.fill_empty()
        for bucket, content in occupancy.items():
            self.tree.poke_bucket(bucket, content)

    # --------------------------------------------------------------- access
    def _access(self, op: OpKind, addr: int, data: bytes | None) -> bytes:
        self.check_addr(addr)
        times = TierTimes()
        leaf = self.position_map.get(addr)

        for found_addr, payload in self.tree.read_path(leaf, times):
            if found_addr not in self.stash:
                self.stash.put(found_addr, self.position_map.get(found_addr), payload)

        entry = self.stash.get(addr)
        if entry is None:
            # Every address is resident after bulk load; a miss here means
            # state corruption, which we surface loudly.
            raise CapacityError(f"block {addr} not found on its path or in the stash")
        result = entry.payload
        if op is OpKind.WRITE:
            assert data is not None
            entry.payload = self.codec.pad(data)
            result = entry.payload

        # Remap to a fresh uniform leaf, then write the old path back.
        new_leaf = self.position_map.remap(addr, self.rng)
        entry.leaf = new_leaf
        self.tree.write_path(leaf, self.stash, times)

        self.clock.advance(times.serial_us)  # the baseline does not overlap
        self.metrics.requests_served += 1
        if op is OpKind.READ:
            self.metrics.read_requests += 1
        else:
            self.metrics.write_requests += 1
        self.metrics.record_stash(len(self.stash))
        self.metrics.stash_peak = max(self.metrics.stash_peak, self.stash.peak)
        return result

    def read(self, addr: int) -> bytes:
        return self._access(OpKind.READ, addr, None)

    def write(self, addr: int, data: bytes) -> None:
        self._access(OpKind.WRITE, addr, data)

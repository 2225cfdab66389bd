"""Recursive position map (the Section 5.3 position-map optimization).

The paper evaluates "the naive setting (no recursive)": the whole
position map sits in the trusted control layer (4 MB in Figure 4-1).
Classic Path ORAM removes that cost by *recursing*: pack the map into
blocks, store those blocks in a smaller ORAM tree, store that tree's map
in an even smaller one, and keep only the tiny top level in the
controller.  Each lookup then walks the levels top-down, paying one path
access per level, and every touched map block is remapped on the way --
the same obliviousness argument as for data accesses.

:class:`RecursivePositionMap` implements that construction over memory-
tier block stores, charging simulated time for every path it touches.  It
exposes the cost trade-off the paper alludes to: controller state drops
from O(N) to O(threshold) at the price of ``levels`` extra in-memory tree
accesses per lookup.  ``horam-bench recursive_posmap`` quantifies both
sides.
"""

from __future__ import annotations

import struct

from repro.crypto.ctr import StreamCipher
from repro.crypto.random import DeterministicRandom
from repro.oram.base import BlockCodec, CapacityError
from repro.oram.path_oram import PathOramTree
from repro.oram.stash import Stash
from repro.oram.tree import TreeGeometry
from repro.sim.metrics import TierTimes
from repro.storage.backend import BlockStore
from repro.storage.device import ddr4_2133

_ENTRY_BYTES = 4
_ENTRY_FMT = "<I"


class _MapLevel:
    """One recursion level: packed map blocks inside a Path ORAM tree."""

    def __init__(
        self,
        block_count: int,
        entries_per_block: int,
        codec: BlockCodec,
        rng: DeterministicRandom,
        modeled_slot_bytes: int,
    ):
        self.block_count = block_count
        self.entries_per_block = entries_per_block
        self.codec = codec
        self.rng = rng
        geometry = TreeGeometry.for_real_blocks(block_count, 4)
        self.store = BlockStore(
            name=f"posmap-L{block_count}",
            tier="memory",
            slots=geometry.slots,
            slot_bytes=codec.slot_bytes,
            device=ddr4_2133(),
            modeled_slot_bytes=modeled_slot_bytes,
        )
        self.tree = PathOramTree(geometry=geometry, codec=codec, memory_store=self.store)
        self.stash = Stash()
        self.tree.fill_empty()

    @property
    def leaves(self) -> int:
        return self.tree.geometry.leaves

    def bulk_load(self, blocks: dict[int, bytes], leaf_of: list[int]) -> None:
        """Place initial map blocks at their assigned leaves (setup)."""
        z = self.tree.geometry.bucket_size
        occupancy: dict[int, list[tuple[int, bytes]]] = {}
        for block_id, payload in blocks.items():
            placed = False
            for bucket in reversed(self.tree.geometry.path_buckets(leaf_of[block_id])):
                content = occupancy.setdefault(bucket, [])
                if len(content) < z:
                    content.append((block_id, payload))
                    placed = True
                    break
            if not placed:
                self.stash.put(block_id, leaf_of[block_id], payload)
        for bucket, content in occupancy.items():
            self.tree.poke_bucket(bucket, content)

    def access(
        self, block_id: int, leaf: int, new_leaf: int, times: TierTimes
    ) -> bytearray:
        """Fetch a map block along its path; it stays in the stash, remapped.

        Returns the block's payload as a mutable buffer -- the caller
        edits entries in place and the next write-back seals the result.
        """
        for found_id, payload in self.tree.read_path(leaf, times):
            if found_id not in self.stash:
                # Leaf unknown here: the parent level tracks it.  Blocks
                # other than the target keep their (externally recorded)
                # leaf, so the stash entry must carry it -- the caller
                # maintains the source of truth and re-syncs below.
                self.stash.put(found_id, leaf, payload)
        entry = self.stash.get(block_id)
        if entry is None:
            raise CapacityError(f"posmap block {block_id} missing from level")
        entry.leaf = new_leaf
        buffer = bytearray(entry.payload)
        entry.payload = buffer  # callers mutate in place before write-back
        return buffer

    def write_back(self, leaf: int, times: TierTimes) -> None:
        self.tree.write_path(leaf, self.stash, times)

    def sync_leaves(self, leaf_of) -> None:
        """Refresh stash entries' leaves from the parent-level records."""
        for entry in self.stash:
            entry.leaf = leaf_of(entry.addr)


class RecursivePositionMap:
    """addr -> leaf map held in recursive in-memory ORAM trees."""

    def __init__(
        self,
        n_entries: int,
        leaves: int,
        rng: DeterministicRandom,
        entries_per_block: int = 64,
        threshold: int = 256,
        modeled_entry_bytes: int = 4,
        seed_payloads: list[int] | None = None,
    ):
        if n_entries <= 0:
            raise ValueError("n_entries must be positive")
        if leaves <= 0:
            raise ValueError("leaves must be positive")
        if entries_per_block < 2:
            raise ValueError("entries_per_block must be at least 2")
        self.n_entries = n_entries
        self.leaves = leaves
        self.rng = rng
        self.entries_per_block = entries_per_block

        payload_bytes = entries_per_block * _ENTRY_BYTES
        cipher = StreamCipher(rng.spawn("posmap-cipher").token(32))
        self._codec = BlockCodec(payload_bytes, cipher)
        modeled = 16 + entries_per_block * modeled_entry_bytes

        # Build levels bottom-up: level 0 maps data addresses; level i+1
        # maps level i's blocks.  Stop when a level fits the controller.
        self._levels: list[_MapLevel] = []
        self._level_leaves: list[list[int]] = []  # current leaf per block, per level
        values = seed_payloads if seed_payloads is not None else [
            rng.randrange(leaves) for _ in range(n_entries)
        ]
        self._initial_data_leaves = list(values)

        current_values = values
        current_leaf_domain = leaves
        while len(current_values) > threshold:
            block_count = -(-len(current_values) // entries_per_block)
            level = _MapLevel(
                block_count=block_count,
                entries_per_block=entries_per_block,
                codec=self._codec,
                rng=rng.spawn(f"level-{len(self._levels)}"),
                modeled_slot_bytes=modeled,
            )
            leaf_assignment = [level.rng.randrange(level.leaves) for _ in range(block_count)]
            blocks: dict[int, bytes] = {}
            for block_id in range(block_count):
                chunk = current_values[
                    block_id * entries_per_block : (block_id + 1) * entries_per_block
                ]
                chunk = chunk + [0] * (entries_per_block - len(chunk))
                blocks[block_id] = struct.pack(f"<{entries_per_block}I", *chunk)
            level.bulk_load(blocks, leaf_assignment)
            self._levels.append(level)
            self._level_leaves.append(leaf_assignment)
            current_values = leaf_assignment
            current_leaf_domain = level.leaves

        # The top of the recursion: a plain array inside the controller.
        self._top: list[int] = list(current_values)
        del current_leaf_domain

    # ------------------------------------------------------------- queries
    @property
    def levels(self) -> int:
        """Recursion depth (tree levels walked per lookup)."""
        return len(self._levels)

    def secure_bytes(self) -> int:
        """Controller-resident state: just the top array (+stash slack)."""
        return _ENTRY_BYTES * len(self._top)

    def memory_bytes(self) -> int:
        """Memory-tier footprint of all recursion trees."""
        return sum(level.store.capacity_bytes for level in self._levels)

    # -------------------------------------------------------------- access
    def _walk(self, addr: int, new_value: int | None, times: TierTimes) -> int:
        """Top-down walk; returns the (old) data leaf for ``addr``.

        Every touched map block is remapped to a fresh leaf, the parent
        level's record of it is updated in the parent's (still unsealed)
        buffer, and write-backs happen only after the whole descent so no
        buffer is sealed before its child has edited it.
        """
        if not 0 <= addr < self.n_entries:
            raise ValueError(f"address {addr} outside [0, {self.n_entries})")

        # Indices of the blocks this address routes through, per level.
        block_ids = []
        index = addr
        for _ in self._levels:
            block_ids.append(index // self.entries_per_block)
            index //= self.entries_per_block

        # Descend from the top level to level 0, collecting write-backs.
        pending: list[tuple[_MapLevel, int, list[int]]] = []
        parent_buffer: bytearray | None = None
        for depth in range(len(self._levels) - 1, -1, -1):
            level = self._levels[depth]
            leaves_of_level = self._level_leaves[depth]
            block_id = block_ids[depth]
            old_leaf = leaves_of_level[block_id]
            new_leaf = level.rng.randrange(level.leaves)
            buffer = level.access(block_id, old_leaf, new_leaf, times)
            leaves_of_level[block_id] = new_leaf
            # Record the block's new leaf where the level above looks it up.
            if depth == len(self._levels) - 1:
                self._top[block_id] = new_leaf
            else:
                assert parent_buffer is not None
                offset = (block_id % self.entries_per_block) * _ENTRY_BYTES
                struct.pack_into(_ENTRY_FMT, parent_buffer, offset, new_leaf)
            parent_buffer = buffer
            pending.append((level, old_leaf, leaves_of_level))

        # Level 0's buffer holds the data leaf.
        assert parent_buffer is not None
        offset = (addr % self.entries_per_block) * _ENTRY_BYTES
        (old_value,) = struct.unpack_from(_ENTRY_FMT, parent_buffer, offset)
        if new_value is not None:
            struct.pack_into(_ENTRY_FMT, parent_buffer, offset, new_value)

        # Seal everything after all edits landed.
        for level, old_leaf, leaves_of_level in pending:
            level.sync_leaves(lambda b, lvl=leaves_of_level: lvl[b])
            level.write_back(old_leaf, times)
        return old_value

    def get(self, addr: int, times: TierTimes | None = None) -> int:
        """Current leaf of ``addr`` (one full recursive walk)."""
        times = times if times is not None else TierTimes()
        if not self._levels:
            return self._top[addr]
        return self._walk(addr, None, times)

    def set(self, addr: int, leaf: int, times: TierTimes | None = None) -> int:
        """Record a new leaf; returns the previous one."""
        if not 0 <= leaf < self.leaves:
            raise ValueError(f"leaf {leaf} outside [0, {self.leaves})")
        times = times if times is not None else TierTimes()
        if not self._levels:
            old = self._top[addr]
            self._top[addr] = leaf
            return old
        return self._walk(addr, leaf, times)

    def remap(self, addr: int, rng: DeterministicRandom, times: TierTimes | None = None) -> int:
        """Assign a fresh uniform leaf; returns the NEW leaf (map semantics
        match :class:`~repro.oram.position_map.ArrayPositionMap.remap`)."""
        leaf = rng.randrange(self.leaves)
        self.set(addr, leaf, times)
        return leaf

    def initial_leaves(self) -> list[int]:
        """The leaves assigned at construction (for bulk-loading callers)."""
        return list(self._initial_data_leaves)

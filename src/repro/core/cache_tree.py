"""The in-memory Path ORAM cache (Sections 4.1.2 and 4.3.1).

The memory layer organizes its blocks as a Path ORAM tree that *starts
empty* and fills as misses stream blocks in from storage.  Unlike the
baseline Path ORAM, membership is dynamic: the sparse position map's
key set doubles as the "loaded into memory" bit of the permutation list.

Eviction (Figure 4-3) is the oblivious three-step of Section 4.3.1:

1. read every tree slot -- real and dummy -- into a private buffer,
2. obliviously shuffle the whole buffer (dummies included),
3. scan once, dropping dummies.

The result is the evicted "hot data" handed to the storage layer's
group/partition shuffle, in an order that reveals nothing about where
blocks sat in the tree.
"""

from __future__ import annotations

from repro.crypto.random import DeterministicRandom
from repro.oram.base import BlockCodec, CapacityError, OpKind
from repro.oram.path_oram import PathOramTree
from repro.oram.position_map import DictPositionMap
from repro.oram.stash import Stash
from repro.oram.tree import TreeGeometry
from repro.shuffle.base import ShuffleAlgorithm
from repro.sim.metrics import TierTimes
from repro.storage.backend import BlockStore


class CacheTree:
    """Dynamic-membership Path ORAM over the memory tier."""

    def __init__(
        self,
        mem_blocks_budget: int,
        bucket_size: int,
        codec: BlockCodec,
        memory_store: BlockStore,
        rng: DeterministicRandom,
        shuffle: ShuffleAlgorithm,
        stash_limit: int | None = None,
    ):
        self.geometry = TreeGeometry.for_capacity(mem_blocks_budget, bucket_size)
        self.codec = codec
        self.memory = memory_store
        self.rng = rng
        self.shuffle_algorithm = shuffle
        self.tree = PathOramTree(
            geometry=self.geometry,
            codec=codec,
            memory_store=memory_store,
        )
        if memory_store.slots < self.tree.memory_slots_needed:
            raise CapacityError(
                f"memory store has {memory_store.slots} slots, cache tree needs "
                f"{self.tree.memory_slots_needed}"
            )
        self.position_map = DictPositionMap(self.geometry.leaves)
        self.stash = Stash(limit=stash_limit)
        self.tree.fill_empty()

    # ----------------------------------------------------------- capacity
    @property
    def slot_capacity(self) -> int:
        """n -- total tree slots (the paper's memory budget)."""
        return self.geometry.slots

    @property
    def period_capacity(self) -> int:
        """n/2 -- I/O loads one access period may perform (Section 4.1.2)."""
        return self.geometry.slots // 2

    @property
    def real_blocks(self) -> int:
        """Real blocks currently cached (tree + stash)."""
        return len(self.position_map)

    @property
    def leaf_counts(self) -> list[int]:
        """Path accesses per leaf since the tree was built."""
        return self.tree.leaf_counts

    def contains(self, addr: int) -> bool:
        """The permutation list's "loaded into memory" bit."""
        return addr in self.position_map

    # ------------------------------------------------------------- access
    def insert(self, addr: int, payload: bytes) -> None:
        """Admit a block arriving from storage (lands in the stash).

        The block gets a fresh uniform leaf; it physically enters the tree
        on a later path write-back, exactly like Figure 4-2's "load M1 to
        stash".  No simulated time: the I/O transfer was already charged
        by the storage layer, and the stash lives in the control layer.
        """
        if self.contains(addr):
            raise CapacityError(f"block {addr} inserted twice into the cache tree")
        if self.real_blocks >= self.period_capacity:
            raise CapacityError(
                "cache tree is at its real-block capacity; the period should "
                "have ended (protocol bug)"
            )
        leaf = self.position_map.remap(addr, self.rng)
        self.stash.put(addr, leaf, payload)

    def access(self, op: OpKind, addr: int, data: bytes | None) -> tuple[bytes, TierTimes]:
        """One in-memory Path ORAM access (a scheduler "hit")."""
        if not self.contains(addr):
            raise CapacityError(f"cache access to non-resident block {addr}")
        times = TierTimes()
        leaf = self.position_map.get(addr)
        assert leaf is not None

        for found_addr, payload in self.tree.read_path(leaf, times):
            if found_addr not in self.stash:
                found_leaf = self.position_map.get(found_addr)
                if found_leaf is None:
                    raise CapacityError(
                        f"tree holds block {found_addr} missing from the position map"
                    )
                self.stash.put(found_addr, found_leaf, payload)

        entry = self.stash.get(addr)
        if entry is None:
            raise CapacityError(f"cached block {addr} absent from path and stash")
        if op is OpKind.WRITE:
            assert data is not None
            entry.payload = self.codec.pad(data)
        result = entry.payload

        entry.leaf = self.position_map.remap(addr, self.rng)
        self.tree.write_path(leaf, self.stash, times)
        return result, times

    def access_many(
        self, items: "list[tuple[OpKind, int, bytes | None]]"
    ) -> tuple[list[bytes], TierTimes]:
        """Serve a run of hits with one shared time accumulator.

        Each item still performs its own full path access (the bus shape
        is untouched); what the batch saves is the per-entry bookkeeping
        around it.  Per-access times are sub-accumulated before being
        folded into the batch total so the float results match a loop of
        :meth:`access` calls bit-for-bit.
        """
        times = TierTimes()
        access = self.access
        results: list[bytes] = []
        for op, addr, data in items:
            payload, access_times = access(op, addr, data)
            times.add(access_times)
            results.append(payload)
        return results, times

    def dummy_access(self) -> TierTimes:
        """A padding path access: uniform leaf, read + write back."""
        times = TierTimes()
        leaf = self.rng.randrange(self.geometry.leaves)
        for found_addr, payload in self.tree.read_path(leaf, times):
            if found_addr not in self.stash:
                found_leaf = self.position_map.get(found_addr)
                if found_leaf is None:
                    raise CapacityError(
                        f"tree holds block {found_addr} missing from the position map"
                    )
                self.stash.put(found_addr, found_leaf, payload)
        self.tree.write_path(leaf, self.stash, times)
        return times

    # ---------------------------------------------------------- checkpoint
    def state_dict(self) -> dict:
        """JSON-able mutable state (tree slot *bytes* live in the store blob)."""
        from base64 import b64encode

        return {
            "positions": [[addr, leaf] for addr, leaf in self.position_map._positions.items()],
            "stash": [
                [entry.addr, entry.leaf, b64encode(entry.payload).decode("ascii")]
                for entry in self.stash
            ],
            "stash_peak": self.stash.peak,
            "real": b64encode(self.tree._real).decode("ascii"),
            "leaf_counts": list(self.tree.leaf_counts),
            "rng": self.rng.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        from base64 import b64decode

        self.position_map.clear()
        for addr, leaf in state["positions"]:
            self.position_map.set(addr, leaf)
        self.stash.clear()
        for addr, leaf, payload in state["stash"]:
            self.stash.put(addr, leaf, b64decode(payload))
        self.stash.peak = state["stash_peak"]
        self.tree._real[:] = b64decode(state["real"])
        self.tree.leaf_counts[:] = state["leaf_counts"]
        self.rng.load_state(state["rng"])

    # -------------------------------------------------------------- evict
    def evict_all(self) -> tuple[list[tuple[int, bytes]], TierTimes, int]:
        """Oblivious eviction (Section 4.3.1): returns (blocks, times, moves).

        The returned blocks are in oblivious-shuffle order, so the storage
        layer may chunk them sequentially onto partitions without leaking
        anything (Section 4.3.2's "i-th piece of evicted data").
        """
        times = TierTimes()

        # Step 1: read the whole tree (reals and dummies alike).
        blocks = self.tree.read_all(times)
        for entry in self.stash.pop_all():
            blocks.append((entry.addr, entry.payload))

        # Step 2: oblivious shuffle over the FULL buffer size.  We shuffle
        # the real blocks but charge for all n slots, because the paper's
        # step 2 shuffles before dummies are dropped.
        result = self.shuffle_algorithm.shuffle(blocks, self.rng)
        padded_moves = self.shuffle_algorithm.expected_moves(self.slot_capacity)
        moves = max(result.moves, padded_moves)
        times.mem_us += moves * self.memory.device.transfer_us(
            self.memory.modeled_slot_bytes, write=False
        )

        # Step 3 happened implicitly (we never materialized the dummies);
        # reset the tree for the next period.
        self.tree.clear(times)
        self.position_map.clear()
        self.stash.clear()
        return result.items, times, moves

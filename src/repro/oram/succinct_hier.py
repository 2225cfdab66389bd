"""Single-round-trip hierarchical ORAM with succinct client indices.

After Holland & Ohrimenko: a classic hierarchical ORAM answers one query
with one probe *per level*, but because the client keeps a succinct
index -- the exact (level, slot) of every real block plus each level's
unread-dummy pool -- all of those probes are independent and ship as
**one batched round trip** per access, instead of the level-by-level
chain of the original hierarchy.

Layout: level ``i`` is a contiguous storage region holding up to
``base * 2**i`` real blocks plus ``base`` indistinguishable dummies,
where ``base`` is the access-period capacity (the paper's n/2).  All
blocks start in the deepest level.  An access reads exactly one slot
from every non-empty level: the real slot in the owning level (which
becomes a dead hole), a never-before-read dummy everywhere else -- every
probed slot is read at most once per rebuild, so the access pattern is
independent of the addresses served.

On each shuffle period the evicted cache contents cascade-merge with the
shallowest prefix of levels that fits them: the union is re-permuted
into the smallest destination level with enough real capacity, written
with a fresh dummy pool, and shallower levels become empty (emptiness is
public and changes only at period boundaries).  Deeper levels whose
dummy pool ran low are re-permuted in place, so every active level
starts each period with at least ``base`` unread dummies -- one per
possible load -- and the pool can never run dry mid-period.

The whole protocol is the :class:`~repro.core.kernel.ProtocolBackend`
hook surface on :class:`~repro.core.kernel.EngineKernel`; the memory
tier reuses the dynamic-membership :class:`~repro.core.cache_tree.CacheTree`.
"""

from __future__ import annotations

from repro.core.cache_tree import CacheTree, cache_period_capacity
from repro.core.config import HORAMConfig
from repro.core.kernel import DummyLoad, EngineKernel, ShuffleReport
from repro.oram.base import initial_payload
from repro.shuffle import get_shuffle
from repro.sim.metrics import TierTimes


def _level_caps(n_blocks: int, base: int) -> list[int]:
    """Real-block capacities per level: base, 2*base, ... >= n_blocks."""
    caps = [base]
    while caps[-1] < n_blocks:
        caps.append(caps[-1] * 2)
    return caps


class SuccinctHierORAM(EngineKernel):
    """Hierarchical ORAM, one batched round trip per access."""

    protocol_name = "succinct"

    def build_backend(self) -> None:
        config, hierarchy = self.config, self.hierarchy
        self.cache = CacheTree(
            mem_blocks_budget=config.mem_tree_blocks,
            bucket_size=config.bucket_size,
            codec=self.codec,
            memory_store=hierarchy.memory,
            rng=self.rng.spawn("cache-tree"),
            shuffle=get_shuffle(config.shuffle_algorithm),
            stash_limit=config.stash_limit,
        )
        self._base = self.cache.period_capacity
        self._caps = _level_caps(config.n_blocks, self._base)
        self._offsets = []
        offset = 0
        for cap in self._caps:
            self._offsets.append(offset)
            offset += cap + self._base
        if hierarchy.storage.slots < offset:
            raise ValueError(
                f"storage store has {hierarchy.storage.slots} slots, the "
                f"succinct hierarchy needs {offset}"
            )
        #: the succinct index: addr -> (level, slot-within-level)
        self._index: dict[int, tuple[int, int]] = {}
        self._level_real = [0] * len(self._caps)
        #: per-level unread dummy slots, consumed from the tail
        self._dummy_pools: list[list[int]] = [[] for _ in self._caps]
        self._srng = self.rng.spawn("succinct-storage")

    @classmethod
    def required_storage_slots(cls, config: HORAMConfig) -> int:
        base = cache_period_capacity(config.mem_tree_blocks, config.bucket_size)
        return sum(cap + base for cap in _level_caps(config.n_blocks, base))

    def write_initial_image(self, initial_addr_map) -> None:
        self.cache.tree.fill_empty()
        self._initialize(initial_addr_map)

    def _initialize(self, initial_addr_map) -> None:
        rename = initial_addr_map if initial_addr_map is not None else lambda a: a
        blocks = [
            (addr, self.codec.pad(initial_payload(rename(addr))))
            for addr in range(self.config.n_blocks)
        ]
        self._rebuild_level(len(self._caps) - 1, blocks, charge=False)

    # ------------------------------------------------------- level plumbing
    def _rebuild_level(self, level: int, blocks, charge: bool = True) -> float:
        """Re-permute ``blocks`` plus fresh dummies into ``level``."""
        cap = self._caps[level] + self._base
        perm = self._srng.permutation(cap)
        slot_of = {}
        for (addr, _payload), slot in zip(blocks, perm):
            slot_of[slot] = addr
            self._index[addr] = (level, slot)
        payload_of = dict(blocks)
        buf = bytearray()
        for slot in range(cap):
            addr = slot_of.get(slot)
            if addr is None:
                buf += self.codec.seal_dummy()
            else:
                buf += self.codec.seal(addr, payload_of[addr])
        self._level_real[level] = len(blocks)
        self._dummy_pools[level] = perm[len(blocks) :]
        if charge:
            return self.hierarchy.storage.write_run(self._offsets[level], buf)
        self.hierarchy.storage.poke_run(self._offsets[level], buf)
        return 0.0

    def _drain_level(self, level: int, times: TierTimes) -> list[tuple[int, bytes]]:
        """Read a level's surviving real blocks out and mark it empty."""
        if self._level_real[level] == 0:
            self._dummy_pools[level] = []
            return []
        records, duration = self.hierarchy.storage.read_run(
            self._offsets[level], self._caps[level] + self._base
        )
        times.io_us += duration
        members = sorted(
            (slot, addr)
            for addr, (lev, slot) in self._index.items()
            if lev == level
        )
        out = []
        for slot, addr in members:
            _, payload = self.codec.open(records[slot])
            out.append((addr, payload))
            del self._index[addr]
        self._level_real[level] = 0
        self._dummy_pools[level] = []
        return out

    # ---------------------------------------------------- ProtocolBackend
    @property
    def period_capacity(self) -> int:
        return self._base

    def is_cached(self, addr: int) -> bool:
        return self.cache.contains(addr)

    def serve_hits(self, items) -> "tuple[list[bytes], TierTimes]":
        return self.cache.access_many(items)

    def dummy_hit(self) -> TierTimes:
        return self.cache.dummy_access()

    def fetch_path(self, addr: int) -> TierTimes:
        times = TierTimes()
        level, slot = self._index.pop(addr)
        storage = self.hierarchy.storage
        payload = None
        for i in range(len(self._caps)):
            if i == level:
                record, duration = storage.read_slot_view(self._offsets[i] + slot)
                times.io_us += duration
                _, payload = self.codec.open(record)
                self._level_real[i] -= 1
            elif self._level_real[i] > 0:
                dummy_slot = self._dummy_pools[i].pop()
                _, duration = storage.read_slot_view(self._offsets[i] + dummy_slot)
                times.io_us += duration
        self.cache.insert(addr, payload)
        return times

    def dummy_fetch_path(self) -> DummyLoad:
        times = TierTimes()
        storage = self.hierarchy.storage
        for i in range(len(self._caps)):
            if self._level_real[i] > 0:
                dummy_slot = self._dummy_pools[i].pop()
                _, duration = storage.read_slot_view(self._offsets[i] + dummy_slot)
                times.io_us += duration
        return DummyLoad(times=times)

    def run_shuffle_period(self) -> ShuffleReport:
        evicted, evict_times, _moves = self.cache.evict_all()
        times = TierTimes()
        # Destination: the smallest level whose real capacity holds the
        # evicted blocks plus everything in the levels above it.
        dest = len(self._caps) - 1
        running = len(evicted)
        for j, cap in enumerate(self._caps):
            running_j = running + sum(self._level_real[: j + 1])
            if running_j <= cap:
                dest = j
                break
        blocks = list(evicted)
        for i in range(dest + 1):
            blocks.extend(self._drain_level(i, times))
        times.io_us += self._rebuild_level(dest, blocks)
        # Deeper levels whose dummy pool ran low re-permute in place so
        # the next period again has one unread dummy per possible load.
        refreshed = 0
        for i in range(dest + 1, len(self._caps)):
            if self._level_real[i] > 0 and len(self._dummy_pools[i]) < self._base:
                survivors = self._drain_level(i, times)
                times.io_us += self._rebuild_level(i, survivors)
                refreshed += 1
        return ShuffleReport(
            advance_us=evict_times.serial_us + times.serial_us,
            evict_us=evict_times.serial_us,
            mem_time_us=evict_times.mem_us + times.mem_us,
            extra={
                "levels_merged": dest + 1,
                "levels_refreshed": refreshed,
            },
        )

    def stash_size(self) -> int:
        return len(self.cache.stash)

    def cached_real_blocks(self) -> int:
        return self.cache.real_blocks

    def backend_state_dict(self) -> "tuple[dict, dict[str, bytes]]":
        state = {
            "cache": self.cache.state_dict(),
            "succinct": {
                "srng": self._srng.state_dict(),
                "index": [
                    [addr, level, slot]
                    for addr, (level, slot) in self._index.items()
                ],
                "level_real": list(self._level_real),
                "dummy_pools": [list(pool) for pool in self._dummy_pools],
            },
        }
        return state, {}

    def load_backend_state(self, state: dict, blobs: "dict[str, bytes]") -> None:
        self.cache.load_state(state["cache"])
        data = state["succinct"]
        self._srng.load_state(data["srng"])
        self._index = {addr: (level, slot) for addr, level, slot in data["index"]}
        self._level_real = list(data["level_real"])
        self._dummy_pools = [list(pool) for pool in data["dummy_pools"]]

"""The H-ORAM protocol (Section 4.1's data flow, Figure 4-1).

:class:`HybridORAM` implements the :class:`~repro.core.kernel.ProtocolBackend`
hooks on top of the shared :class:`~repro.core.kernel.EngineKernel`
pipeline, conducting the three layers through the two alternating
periods:

* **access period** -- each kernel cycle plans ``c`` in-memory hits plus
  one storage load from the ROB window; the hooks here serve the hits
  from the cache tree, fetch the miss from the permuted storage layer
  (admitting it to the cache), and pad with dummy loads that prefetch a
  random stored block.  Every cycle issues exactly one storage load;
  after ``n/2`` of them the period ends.
* **shuffle period** -- obliviously evict the cache tree, fold the evicted
  hot data into the storage layer's group/partition shuffle, and start a
  fresh period.

The class offers two API styles (both kernel-provided):

* batch: ``submit(request)`` + ``drain()`` -- what the engine and the
  benchmarks use; keeps the scheduler's window full so padding is rare;
* synchronous: ``read(addr)`` / ``write(addr, data)`` -- the plain
  :class:`~repro.oram.base.ORAMProtocol` interface; each call drains the
  pipeline, so sparse traffic pays the full fixed-shape cost, exactly as
  the real interface would.
"""

from __future__ import annotations

from repro.core.cache_tree import CacheTree, cache_period_capacity
from repro.core.config import HORAMConfig
from repro.core.kernel import DummyLoad, EngineKernel, ShuffleReport
from repro.core.recipe import build, recipe_from_kwargs
from repro.core.storage_layer import PermutedStorage, storage_layout
from repro.shuffle import get_shuffle
from repro.sim.metrics import TierTimes


class HybridORAM(EngineKernel):
    """The cacheable ORAM interface of the paper."""

    protocol_name = "horam"

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
        self.storage = PermutedStorage(
            n_blocks=config.n_blocks,
            codec=self.codec,
            storage_store=hierarchy.storage,
            memory_store=hierarchy.memory,
            rng=self.rng.spawn("storage-layer"),
            shuffle=get_shuffle(config.shuffle_algorithm),
            shuffle_period_ratio=config.shuffle_period_ratio,
            period_capacity=self.cache.period_capacity,
        )

    @classmethod
    def required_storage_slots(cls, config: HORAMConfig) -> int:
        partitions, size, overflow = storage_layout(
            config.n_blocks,
            config.shuffle_period_ratio,
            cache_period_capacity(config.mem_tree_blocks, config.bucket_size),
        )
        return partitions * (size + overflow)

    def write_initial_image(self, initial_addr_map) -> None:
        self.cache.tree.fill_empty()
        self.storage._initialize(initial_addr_map)

    # ---------------------------------------------------- ProtocolBackend
    @property
    def period_capacity(self) -> int:
        """I/O loads per access period (the paper's n/2)."""
        return self.cache.period_capacity

    def is_cached(self, addr: int) -> bool:
        return self.cache.contains(addr)

    def serve_hits(self, items) -> "tuple[list[bytes], TierTimes]":
        return self.cache.access_many(items)

    def dummy_hit(self) -> TierTimes:
        return self.cache.dummy_access()

    def fetch_path(self, addr: int) -> TierTimes:
        payload, times = self.storage.fetch(addr)
        self.cache.insert(addr, payload)
        return times

    def dummy_fetch_path(self) -> DummyLoad:
        addr, payload, times = self.storage.dummy_fetch()
        self.cache.insert(addr, payload)
        return DummyLoad(times=times, prefetched=True)

    def run_shuffle_period(self) -> ShuffleReport:
        """Evict + group/partition shuffle (Section 4.3)."""
        evicted, evict_times, _moves = self.cache.evict_all()
        stats = self.storage.shuffle_into(evicted, self._period_index)
        return ShuffleReport(
            advance_us=evict_times.serial_us + stats.times.serial_us,
            evict_us=evict_times.serial_us,
            mem_time_us=evict_times.mem_us + stats.times.mem_us,
            extra={
                "partitions_shuffled": stats.partitions_shuffled,
                "blocks_appended": stats.blocks_appended,
            },
        )

    def end_shuffle_period(self) -> None:
        self.storage.end_period()

    def stash_size(self) -> int:
        return len(self.cache.stash)

    def cached_real_blocks(self) -> int:
        return self.cache.real_blocks

    def backend_state_dict(self) -> "tuple[dict, dict[str, bytes]]":
        storage_state, tables = self.storage.state_dict()
        return {"cache": self.cache.state_dict(), "storage": storage_state}, tables

    def load_backend_state(self, state: dict, blobs: "dict[str, bytes]") -> None:
        self.cache.load_state(state["cache"])
        self.storage.load_state(state["storage"], blobs)


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

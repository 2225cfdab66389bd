"""BIOS-style parameterized outsourced storage behind the engine kernel.

Storage is ``m`` buckets of ``bucket_slots`` records each, sized to keep
load under one half (``m * bucket_slots >= 2n``).  Every block has
``ways`` deterministic candidate buckets derived from a per-address PRF
(an order-independent :meth:`~repro.crypto.random.DeterministicRandom.spawn`
of the instance key), and the client keeps an authoritative position map
``addr -> (bucket, slot)``.

The two knobs -- ``bucket_slots`` (how much each touched bucket moves)
and ``ways`` (how many buckets an access touches) -- parameterize the
bandwidth/latency trade the BIOS design exposes: every access reads and
re-encrypts exactly ``ways`` whole buckets (the owner plus cover
buckets from the candidate set; padded loads touch ``ways`` random
buckets), so each access moves ``2 * ways * bucket_slots`` records
regardless of what it serves.

Shuffle periods drain the memory tier and place each evicted block into
the first candidate bucket with a free slot, falling back to a
deterministic sweep when all candidates are full (counted in
``metrics.extra["bios_fallback_placements"]``); placement can never fail
because occupancy stays at or below half.

The protocol is one :class:`~repro.core.kernel.ProtocolBackend` on
:class:`~repro.core.kernel.EngineKernel`; the memory tier reuses the
dynamic-membership :class:`~repro.core.cache_tree.CacheTree`.
"""

from __future__ import annotations

import math

from repro.core.cache_tree import CacheTree
from repro.core.config import HORAMConfig
from repro.core.kernel import DummyLoad, EngineKernel, ShuffleReport
from repro.oram.base import BlockCodec, initial_payload
from repro.shuffle import get_shuffle
from repro.sim.metrics import TierTimes
from repro.storage.hierarchy import StorageHierarchy


class BiosORAM(EngineKernel):
    """Parameterized bucketed outsourced storage (BIOS-style)."""

    protocol_name = "bios"

    def __init__(
        self,
        config: HORAMConfig,
        hierarchy: StorageHierarchy,
        codec: BlockCodec | None = None,
        initial_addr_map=None,
        image=None,
        bucket_slots: int = 4,
        ways: int = 2,
    ):
        if bucket_slots < 1:
            raise ValueError("bucket_slots must be >= 1")
        if ways < 1:
            raise ValueError("ways must be >= 1")
        self.bucket_slots = bucket_slots
        self.ways = ways
        self.n_buckets = self.required_buckets(config.n_blocks, bucket_slots, ways)
        if hierarchy.storage.slots < self.n_buckets * bucket_slots:
            raise ValueError(
                f"storage store has {hierarchy.storage.slots} slots, BIOS "
                f"needs {self.n_buckets * bucket_slots}"
            )
        super().__init__(
            config, hierarchy, codec=codec, initial_addr_map=initial_addr_map, image=image
        )

    def build_backend(self) -> None:
        config = self.config
        self.cache = CacheTree(
            mem_blocks_budget=config.mem_tree_blocks,
            bucket_size=config.bucket_size,
            codec=self.codec,
            memory_store=self.hierarchy.memory,
            rng=self.rng.spawn("cache-tree"),
            shuffle=get_shuffle(config.shuffle_algorithm),
            stash_limit=config.stash_limit,
        )
        #: authoritative position map for storage-resident blocks
        self._position: dict[int, tuple[int, int]] = {}
        #: inverse occupancy, rebuilt on restore: bucket -> {slot: addr}
        self._members: list[dict[int, int]] = [{} for _ in range(self.n_buckets)]
        #: per-address candidate PRF root (spawn is parent-state-free)
        self._prf = self.rng.spawn("bios-candidates")
        #: draws for padded loads (stateful, checkpointed)
        self._arng = self.rng.spawn("bios-access")
        self._sweep = 0

    @staticmethod
    def required_buckets(n_blocks: int, bucket_slots: int, ways: int) -> int:
        return max(ways, math.ceil(2 * n_blocks / bucket_slots))

    @classmethod
    def required_storage_slots(
        cls, config: HORAMConfig, bucket_slots: int = 4, ways: int = 2
    ) -> int:
        return cls.required_buckets(config.n_blocks, bucket_slots, ways) * bucket_slots

    def _candidates(self, addr: int) -> list[int]:
        prf = self._prf.spawn(f"addr-{addr}")
        picks: list[int] = []
        while len(picks) < self.ways:
            bucket = prf.randrange(self.n_buckets)
            if bucket not in picks:
                picks.append(bucket)
        return picks

    def _place(self, addr: int) -> tuple[int, int]:
        """First candidate bucket with room, else deterministic sweep."""
        for bucket in self._candidates(addr):
            if len(self._members[bucket]) < self.bucket_slots:
                return bucket, -1
        fallback = 0
        while len(self._members[self._sweep % self.n_buckets]) >= self.bucket_slots:
            self._sweep += 1
        return self._sweep % self.n_buckets, fallback + 1

    def _free_slot(self, bucket: int) -> int:
        members = self._members[bucket]
        for slot in range(self.bucket_slots):
            if slot not in members:
                return slot
        raise RuntimeError(f"bucket {bucket} has no free slot")

    def _admit(self, bucket: int, addr: int) -> int:
        slot = self._free_slot(bucket)
        self._members[bucket][slot] = addr
        self._position[addr] = (bucket, slot)
        return slot

    def write_initial_image(self, initial_addr_map) -> None:
        self.cache.tree.fill_empty()
        self._initialize(initial_addr_map)

    def _initialize(self, initial_addr_map) -> None:
        rename = initial_addr_map if initial_addr_map is not None else lambda a: a
        payloads = {}
        for addr in range(self.config.n_blocks):
            self._admit(self._place(addr)[0], addr)
            payloads[addr] = self.codec.pad(initial_payload(rename(addr)))
        buf = bytearray()
        for bucket in range(self.n_buckets):
            members = self._members[bucket]
            for slot in range(self.bucket_slots):
                addr = members.get(slot)
                if addr is None:
                    buf += self.codec.seal_dummy()
                else:
                    buf += self.codec.seal(addr, payloads[addr])
        self.hierarchy.storage.poke_run(0, buf)

    # ------------------------------------------------------ bucket plumbing
    def _rewrite_bucket(
        self, bucket: int, times: TierTimes, extract: int | None = None
    ) -> bytes | None:
        """Read, re-encrypt and rewrite one whole bucket.

        When ``extract`` names a resident address, its payload is pulled
        out (returned) and its slot becomes a dummy.
        """
        storage = self.hierarchy.storage
        start = bucket * self.bucket_slots
        records, duration = storage.read_run(start, self.bucket_slots)
        times.io_us += duration
        members = self._members[bucket]
        extracted = None
        buf = bytearray()
        for slot in range(self.bucket_slots):
            addr = members.get(slot)
            if addr is None:
                buf += self.codec.seal_dummy()
                continue
            record_addr, payload = self.codec.open(records[slot])
            if addr == extract:
                extracted = payload
                del members[slot]
                del self._position[addr]
                buf += self.codec.seal_dummy()
            else:
                buf += self.codec.seal(addr, payload)
        times.io_us += storage.write_run(start, buf)
        return extracted

    def _rewrite_bucket_with(
        self, bucket: int, additions: "list[tuple[int, int, bytes]]", times: TierTimes
    ) -> None:
        """Rewrite one bucket folding in newly placed (slot, addr, payload)."""
        storage = self.hierarchy.storage
        start = bucket * self.bucket_slots
        records, duration = storage.read_run(start, self.bucket_slots)
        times.io_us += duration
        added = {slot: (addr, payload) for slot, addr, payload in additions}
        members = self._members[bucket]
        buf = bytearray()
        for slot in range(self.bucket_slots):
            if slot in added:
                addr, payload = added[slot]
                buf += self.codec.seal(addr, payload)
            elif slot in members:
                _, payload = self.codec.open(records[slot])
                buf += self.codec.seal(members[slot], payload)
            else:
                buf += self.codec.seal_dummy()
        times.io_us += storage.write_run(start, buf)

    # ---------------------------------------------------- ProtocolBackend
    @property
    def period_capacity(self) -> int:
        return self.cache.period_capacity

    def is_cached(self, addr: int) -> bool:
        return self.cache.contains(addr)

    def serve_hits(self, items) -> "tuple[list[bytes], TierTimes]":
        return self.cache.access_many(items)

    def dummy_hit(self) -> TierTimes:
        return self.cache.dummy_access()

    def fetch_path(self, addr: int) -> TierTimes:
        times = TierTimes()
        home, _slot = self._position[addr]
        covers = [b for b in self._candidates(addr) if b != home][: self.ways - 1]
        payload = self._rewrite_bucket(home, times, extract=addr)
        for bucket in covers:
            self._rewrite_bucket(bucket, times)
        self.cache.insert(addr, payload)
        return times

    def dummy_fetch_path(self) -> DummyLoad:
        times = TierTimes()
        picks: list[int] = []
        while len(picks) < min(self.ways, self.n_buckets):
            bucket = self._arng.randrange(self.n_buckets)
            if bucket not in picks:
                picks.append(bucket)
        for bucket in picks:
            self._rewrite_bucket(bucket, times)
        return DummyLoad(times=times)

    def run_shuffle_period(self) -> ShuffleReport:
        evicted, evict_times, _moves = self.cache.evict_all()
        times = TierTimes()
        fallbacks = 0
        additions: dict[int, list[tuple[int, int, bytes]]] = {}
        for addr, payload in evicted:
            bucket, fell_back = self._place(addr)
            fallbacks += max(0, fell_back)
            slot = self._admit(bucket, addr)
            additions.setdefault(bucket, []).append((slot, addr, payload))
        for bucket in sorted(additions):
            self._rewrite_bucket_with(bucket, additions[bucket], times)
        return ShuffleReport(
            advance_us=evict_times.serial_us + times.serial_us,
            evict_us=evict_times.serial_us,
            mem_time_us=evict_times.mem_us + times.mem_us,
            extra={
                "bios_placements": len(evicted),
                "bios_fallback_placements": fallbacks,
            },
        )

    def stash_size(self) -> int:
        return len(self.cache.stash)

    def cached_real_blocks(self) -> int:
        return self.cache.real_blocks

    def backend_params(self) -> dict:
        return {"bucket_slots": self.bucket_slots, "ways": self.ways}

    def backend_state_dict(self) -> "tuple[dict, dict[str, bytes]]":
        state = {
            "cache": self.cache.state_dict(),
            "bios": {
                "arng": self._arng.state_dict(),
                "position": [
                    [addr, bucket, slot]
                    for addr, (bucket, slot) in self._position.items()
                ],
                "sweep": self._sweep,
            },
        }
        return state, {}

    def load_backend_state(self, state: dict, blobs: "dict[str, bytes]") -> None:
        self.cache.load_state(state["cache"])
        data = state["bios"]
        self._arng.load_state(data["arng"])
        self._position = {
            addr: (bucket, slot) for addr, bucket, slot in data["position"]
        }
        self._members = [{} for _ in range(self.n_buckets)]
        for addr, (bucket, slot) in self._position.items():
            self._members[bucket][slot] = addr
        self._sweep = data["sweep"]

"""Cache tree tests: dynamic membership, access, oblivious evict."""

import pytest

from repro.core.cache_tree import CacheTree
from repro.crypto.ctr import StreamCipher
from repro.crypto.random import DeterministicRandom
from repro.oram.base import BlockCodec, CapacityError, OpKind
from repro.shuffle import get_shuffle
from repro.storage.backend import BlockStore
from repro.storage.device import ddr4_2133


def make_cache(budget=128, stash_limit=None):
    codec = BlockCodec(16, StreamCipher(b"cache-key"))
    store = BlockStore(
        name="mem",
        tier="memory",
        slots=budget,
        slot_bytes=codec.slot_bytes,
        device=ddr4_2133(),
        modeled_slot_bytes=1024,
    )
    cache = CacheTree(
        mem_blocks_budget=budget,
        bucket_size=4,
        codec=codec,
        memory_store=store,
        rng=DeterministicRandom(77),
        shuffle=get_shuffle("cache"),
        stash_limit=stash_limit,
    )
    cache.tree.fill_empty()
    return cache


class TestMembership:
    def test_starts_empty(self):
        cache = make_cache()
        assert cache.real_blocks == 0
        assert not cache.contains(0)

    def test_insert_makes_resident(self):
        cache = make_cache()
        cache.insert(5, b"\x00" * 16)
        assert cache.contains(5)
        assert cache.real_blocks == 1

    def test_double_insert_rejected(self):
        cache = make_cache()
        cache.insert(5, b"\x00" * 16)
        with pytest.raises(CapacityError):
            cache.insert(5, b"\x00" * 16)

    def test_capacity_enforced(self):
        cache = make_cache(budget=32)  # tree slots 28 -> capacity 14
        for addr in range(cache.period_capacity):
            cache.insert(addr, b"\x00" * 16)
        with pytest.raises(CapacityError):
            cache.insert(999, b"\x00" * 16)

    def test_period_capacity_is_half_slots(self):
        cache = make_cache(budget=128)
        assert cache.period_capacity == cache.slot_capacity // 2


class TestAccess:
    def test_read_after_insert(self):
        cache = make_cache()
        cache.insert(9, b"payload-nine!!!!")
        payload, times = cache.access(OpKind.READ, 9, None)
        assert payload == b"payload-nine!!!!"
        assert times.mem_us > 0
        assert times.io_us == 0

    def test_write_updates(self):
        cache = make_cache()
        cache.insert(9, b"\x00" * 16)
        cache.access(OpKind.WRITE, 9, b"updated")
        payload, _ = cache.access(OpKind.READ, 9, None)
        assert payload.rstrip(b"\x00") == b"updated"

    def test_access_nonresident_rejected(self):
        cache = make_cache()
        with pytest.raises(CapacityError):
            cache.access(OpKind.READ, 3, None)

    def test_repeated_access_remaps_leaf(self):
        cache = make_cache()
        cache.insert(9, b"\x00" * 16)
        leaves = set()
        for _ in range(20):
            cache.access(OpKind.READ, 9, None)
            leaves.add(cache.position_map.get(9))
        assert len(leaves) > 3  # fresh uniform leaf per access

    def test_dummy_access_touches_tree_only(self):
        cache = make_cache()
        times = cache.dummy_access()
        assert times.mem_us > 0
        assert times.io_us == 0

    def test_many_blocks_round_trip(self):
        cache = make_cache(budget=512)
        payloads = {addr: bytes([addr % 256]) * 16 for addr in range(100)}
        for addr, payload in payloads.items():
            cache.insert(addr, payload)
        for addr, payload in payloads.items():
            got, _ = cache.access(OpKind.READ, addr, None)
            assert got == payload


class TestEvictAll:
    def test_returns_every_real_block(self):
        cache = make_cache(budget=512)
        inserted = {}
        for addr in range(80):
            payload = bytes([addr % 256]) * 16
            cache.insert(addr, payload)
            inserted[addr] = payload
        # Touch some so part of the set sits in the tree, part in stash.
        for addr in range(0, 80, 7):
            cache.access(OpKind.READ, addr, None)
        blocks, times, moves = cache.evict_all()
        assert dict(blocks) == inserted
        assert times.mem_us > 0
        assert moves >= cache.slot_capacity  # charged for the full buffer

    def test_tree_empty_afterwards(self):
        cache = make_cache()
        cache.insert(1, b"\x00" * 16)
        cache.evict_all()
        assert cache.real_blocks == 0
        assert not cache.contains(1)
        assert len(cache.stash) == 0

    def test_eviction_order_not_insertion_order(self):
        cache = make_cache(budget=512)
        for addr in range(60):
            cache.insert(addr, b"\x00" * 16)
        blocks, _, _ = cache.evict_all()
        assert [addr for addr, _ in blocks] != list(range(60))

    def test_reusable_after_eviction(self):
        cache = make_cache()
        cache.insert(1, b"first" + b"\x00" * 11)
        cache.evict_all()
        cache.insert(1, b"second" + b"\x00" * 10)
        payload, _ = cache.access(OpKind.READ, 1, None)
        assert payload.rstrip(b"\x00") == b"second"

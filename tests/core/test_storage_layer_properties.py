"""Property-based invariants of the storage layer and cache tree.

These are the conservation laws the protocol's correctness rests on:
no block is ever lost or duplicated by any interleaving of fetches,
dummy loads, evictions and (full or partial) shuffles.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.cache_tree import CacheTree
from repro.core.storage_layer import PermutedStorage
from repro.crypto.ctr import StreamCipher
from repro.crypto.random import DeterministicRandom
from repro.oram.base import BlockCodec, OpKind, initial_payload
from repro.shuffle import get_shuffle
from repro.storage.backend import BlockStore
from repro.storage.device import ddr4_2133, hdd_paper

N = 49  # 7 partitions of 7


def build_layer(ratio: int):
    codec = BlockCodec(16, StreamCipher(b"prop-key"))
    storage = BlockStore(
        name="st", tier="storage", slots=4 * N + 64, slot_bytes=codec.slot_bytes,
        device=hdd_paper(), modeled_slot_bytes=1024,
    )
    memory = BlockStore(
        name="mem", tier="memory", slots=8, slot_bytes=codec.slot_bytes,
        device=ddr4_2133(), modeled_slot_bytes=1024,
    )
    layer = PermutedStorage(
        n_blocks=N, codec=codec, storage_store=storage, memory_store=memory,
        rng=DeterministicRandom(5), shuffle=get_shuffle("cache"),
        shuffle_period_ratio=ratio, period_capacity=16,
    )
    layer._initialize()
    return layer, codec


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    fetches=st.lists(st.integers(min_value=0, max_value=N - 1), max_size=12, unique=True),
    dummies=st.integers(min_value=0, max_value=8),
    ratio=st.sampled_from([1, 2, 4]),
    periods=st.integers(min_value=1, max_value=3),
)
def test_blocks_conserved_through_shuffles(fetches, dummies, ratio, periods):
    """fetch* + dummy* + shuffle, repeated: every block survives, once."""
    layer, codec = build_layer(ratio)
    for period in range(periods):
        in_memory: dict[int, bytes] = {}
        for addr in fetches:
            if not layer.is_in_memory(addr):
                payload, _ = layer.fetch(addr)
                in_memory[addr] = payload
        for _ in range(dummies):
            addr, payload, _ = layer.dummy_fetch()
            if addr is not None:
                in_memory[addr] = payload
        layer.shuffle_into(list(in_memory.items()), period_index=period)
        layer.end_period()
        # Conservation: all N blocks resident again, at distinct slots.
        assert layer.resident_blocks() == N
        slots = [layer.location[a] for a in range(N)]
        assert len(set(slots)) == N
    # Payload integrity after all the churn.
    probe = fetches[0] if fetches else 0
    payload, _ = layer.fetch(probe)
    assert payload == codec.pad(initial_payload(probe))


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),
            st.sampled_from(["insert", "read", "write", "dummy"]),
        ),
        max_size=25,
    )
)
def test_cache_tree_is_a_consistent_map(ops):
    """Arbitrary insert/access/dummy interleavings behave like a dict."""
    codec = BlockCodec(16, StreamCipher(b"tree-key"))
    store = BlockStore(
        name="mem", tier="memory", slots=256, slot_bytes=codec.slot_bytes,
        device=ddr4_2133(), modeled_slot_bytes=1024,
    )
    cache = CacheTree(
        mem_blocks_budget=256, bucket_size=4, codec=codec, memory_store=store,
        rng=DeterministicRandom(7), shuffle=get_shuffle("cache"),
    )
    cache.tree.fill_empty()
    oracle: dict[int, bytes] = {}
    for addr, kind in ops:
        if kind == "insert" and addr not in oracle:
            if cache.real_blocks < cache.period_capacity:
                payload = codec.pad(b"v%d" % addr)
                cache.insert(addr, payload)
                oracle[addr] = payload
        elif kind == "read" and addr in oracle:
            payload, _ = cache.access(OpKind.READ, addr, None)
            assert payload == oracle[addr]
        elif kind == "write" and addr in oracle:
            payload = codec.pad(b"w%d" % addr)
            cache.access(OpKind.WRITE, addr, payload)
            oracle[addr] = payload
        elif kind == "dummy":
            cache.dummy_access()
    # Eviction returns exactly the oracle's content.
    blocks, _, _ = cache.evict_all()
    assert dict(blocks) == oracle


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_full_shuffle_produces_fresh_uniformish_layout(seed):
    """After a shuffle, slot assignments change for most blocks."""
    layer, _ = build_layer(ratio=1)
    before = list(layer.location)
    layer.shuffle_into([], period_index=0)
    layer.end_period()
    after = list(layer.location)
    moved = sum(1 for a, b in zip(before, after) if a != b)
    # A uniform re-permutation within partitions fixes a block with
    # probability ~1/partition_size; most blocks must move.
    assert moved > N // 2

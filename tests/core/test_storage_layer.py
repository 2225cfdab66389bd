"""Permuted storage layer tests: fetch, dummies, shuffles, read-once."""

import base64
import hashlib
import json

import pytest

from repro import accel
from repro.core.horam import build_horam
from repro.core.storage_layer import IN_MEMORY, PermutedStorage
from repro.crypto.ctr import StreamCipher
from repro.crypto.random import DeterministicRandom
from repro.oram.base import DUMMY_ADDR, BlockCodec, CapacityError, IntegrityError, initial_payload
from repro.shuffle import get_shuffle
from repro.sim.engine import SimulationEngine
from repro.storage.backend import BlockStore
from repro.storage.device import ddr4_2133, hdd_paper
from repro.workload.generators import uniform

#: sha256 of ``PermutedStorage.state_dict()`` -- the JSON state plus each
#: binary table's sha256 -- after :func:`control_state_digest`'s seeded run,
#: per shuffle-period ratio.  Taken when checkpoint format 5 moved the
#: tables to binary and stopped storing the derived ones; the earlier pins
#: (flat tables, format 4) hashed the JSON lists of the same run.
CONTROL_STATE = {
    1: "5de19abb742b75889736713ec8e202e791a83181f3fdaa37c2715cb112b25f65",
    4: "b56d090389e69bfd668f52b02fdac834b40f16b58290de407aaf73aabcd35175",
}

#: sha256 of the format-4 ``state_dict()`` JSON of the same run with the
#: two tables format 5 derives (``slot_addr``, ``occupied``) removed,
#: captured on the format-4 code.  :class:`TestLosslessReencoding` renders
#: that layout from a layer restored out of the format-5 state.
FORMAT4_STATE_MINUS_DERIVED = {
    1: "cd5d9dde86b134936d7ab9b936fb1daa05f69872ccb02b63a425f7d999d00133",
    4: "ce195fed40e905941b4b78b648c52c2152f51747c2347a2d5b0bd09ef01205d7",
}


@pytest.fixture(params=["numpy", "loop"])
def backend(request, monkeypatch):
    """Run the test once per kernel: vectorized, then the pure-Python loop."""
    if request.param == "numpy":
        if accel.np is None:
            pytest.skip("numpy unavailable; the loop is the only kernel")
    else:
        monkeypatch.setattr(accel, "np", None)
    return request.param


def make_layer(n_blocks=100, ratio=1, period_capacity=32):
    codec = BlockCodec(16, StreamCipher(b"layer-key"))
    # Generous store so any layout fits.
    storage = BlockStore(
        name="st",
        tier="storage",
        slots=4 * n_blocks + 64,
        slot_bytes=codec.slot_bytes,
        device=hdd_paper(),
        modeled_slot_bytes=1024,
    )
    memory = BlockStore(
        name="mem",
        tier="memory",
        slots=8,
        slot_bytes=codec.slot_bytes,
        device=ddr4_2133(),
        modeled_slot_bytes=1024,
    )
    layer = PermutedStorage(
        n_blocks=n_blocks,
        codec=codec,
        storage_store=storage,
        memory_store=memory,
        rng=DeterministicRandom(31),
        shuffle=get_shuffle("cache"),
        shuffle_period_ratio=ratio,
        period_capacity=period_capacity,
    )
    layer._initialize()
    return layer, codec


class TestLayout:
    def test_partition_geometry(self):
        layer, _ = make_layer(n_blocks=100)
        assert layer.partition_count == 10
        assert layer.partition_size == 10
        assert layer.total_slots == 100

    def test_non_square_n(self):
        layer, _ = make_layer(n_blocks=90)
        # isqrt(90)=9 partitions of ceil(90/9)=10 slots.
        assert layer.partition_count == 9
        assert layer.partition_size == 10
        assert layer.total_slots == 90

    def test_every_block_located(self):
        layer, _ = make_layer()
        assert layer.resident_blocks() == 100
        slots = {layer.location[addr] for addr in range(100)}
        assert len(slots) == 100


class TestFetch:
    def test_fetch_returns_payload(self):
        layer, codec = make_layer()
        payload, times = layer.fetch(17)
        assert payload == codec.pad(initial_payload(17))
        assert times.io_us > 0

    def test_fetch_moves_to_memory(self):
        layer, _ = make_layer()
        layer.fetch(17)
        assert layer.is_in_memory(17)
        with pytest.raises(CapacityError):
            layer.fetch(17)

    def test_fetch_is_one_random_read(self):
        layer, _ = make_layer()
        before = layer.storage.snapshot()
        layer.fetch(3)
        delta = layer.storage.snapshot().delta(before)
        assert delta.reads == 1
        assert delta.busy_us == pytest.approx(
            layer.storage.device.access_us(1024), rel=0.01
        )


class TestDummyFetch:
    def test_dummy_fetch_prefetches_live_blocks(self):
        layer, _ = make_layer(n_blocks=16)
        found = set()
        for _ in range(16):
            addr, payload, _ = layer.dummy_fetch()
            if addr is not None:
                assert payload is not None
                assert layer.is_in_memory(addr)
                found.add(addr)
        # All slots are live initially, so every dummy fetch prefetches.
        assert len(found) == 16

    def test_read_once_within_period(self):
        layer, _ = make_layer(n_blocks=25)
        seen = set()
        for _ in range(25):
            before = layer.storage.snapshot()
            layer.dummy_fetch()
            # One single-slot read per dummy fetch...
            assert layer.storage.snapshot().delta(before).reads == 1
        # ...and the trace-free invariant: internal consumed flags say all
        # 25 slots were touched exactly once.
        assert sum(layer.consumed) == 25

    def test_exhausted_pool_falls_back_safely(self):
        layer, _ = make_layer(n_blocks=4)
        for _ in range(4):
            layer.dummy_fetch()
        assert layer.dummy_pool_exhausted == 0
        addr, payload, times = layer.dummy_fetch()
        assert addr is None and payload is None
        assert times.io_us > 0  # the cycle shape still sees one load
        assert layer.dummy_pool_exhausted == 1
        layer.dummy_fetch()
        assert layer.dummy_pool_exhausted == 2

    def test_exhausted_pool_surfaces_in_horam_metrics(self):
        # Idle cycles with an empty dummy pool (possible under partial
        # shuffle in tiny configurations) must be counted in the metrics,
        # not silently re-read slot 0.
        from repro.core.horam import build_horam

        oram = build_horam(n_blocks=256, mem_tree_blocks=64, seed=3)
        oram.storage._set_unread([])
        oram.step()  # no queued work: the cycle's load is a dummy fetch
        oram.step()
        assert oram.storage.dummy_pool_exhausted == 2
        assert oram.metrics.extra["dummy_pool_exhausted"] == 2


class TestFullShuffle:
    def test_shuffle_restores_evicted_blocks(self):
        layer, codec = make_layer(n_blocks=64)
        evicted = []
        for addr in (1, 5, 9):
            payload, _ = layer.fetch(addr)
            evicted.append((addr, payload))
        stats = layer.shuffle_into(evicted, period_index=0)
        layer.end_period()
        assert stats.partitions_shuffled == layer.partition_count
        assert layer.resident_blocks() == 64
        # Blocks are fetchable again and carry their payloads.
        payload, _ = layer.fetch(5)
        assert payload == codec.pad(initial_payload(5))

    def test_shuffle_changes_slots(self):
        layer, _ = make_layer(n_blocks=64)
        before = list(layer.location)
        payload, _ = layer.fetch(0)
        layer.shuffle_into([(0, payload)], period_index=0)
        layer.end_period()
        after = list(layer.location)
        changed = sum(1 for a, b in zip(before, after) if a != b)
        assert changed > 32  # a re-permutation, not a patch

    def test_shuffle_resets_consumed(self):
        layer, _ = make_layer(n_blocks=36)
        for _ in range(10):
            layer.dummy_fetch()
        evicted = [
            (addr, layer.codec.pad(initial_payload(addr)))
            for addr in range(36)
            if layer.is_in_memory(addr)
        ]
        layer.shuffle_into(evicted, period_index=0)
        layer.end_period()
        assert sum(layer.consumed) == 0

    def test_shuffle_io_is_sequential_runs(self):
        layer, _ = make_layer(n_blocks=100)
        before = layer.storage.snapshot()
        layer.shuffle_into([], period_index=0)
        delta = layer.storage.snapshot().delta(before)
        # 10 partitions, each one read run + one write run of 10 slots.
        expected = 10 * (
            layer.storage.device.run_us(10 * 1024, write=False)
            + layer.storage.device.run_us(10 * 1024, write=True)
        )
        assert delta.busy_us == pytest.approx(expected, rel=0.01)


class TestIncrementalUnreadPool:
    """The cached per-partition pool must always equal a full slot scan."""

    @staticmethod
    def brute_force_unread(layer):
        occupied = set()
        for partition in layer._partitions:
            occupied.update(range(partition.base, partition.base + partition.size))
            start = partition.overflow_base
            occupied.update(range(start, start + partition.overflow_used))
        return [
            slot
            for slot in range(layer.total_slots)
            if slot in occupied and not layer.consumed[slot]
        ]

    def test_pool_matches_full_scan_across_periods(self):
        layer, _ = make_layer(n_blocks=64)
        assert layer._unread == self.brute_force_unread(layer)
        evicted = []
        for addr in (2, 11, 40):
            payload, _ = layer.fetch(addr)
            evicted.append((addr, payload))
        for _ in range(5):
            layer.dummy_fetch()
        layer.shuffle_into(evicted, period_index=0)
        layer.end_period()
        assert layer._unread == self.brute_force_unread(layer)

    def test_pool_matches_full_scan_with_overflow_appends(self):
        layer, _ = make_layer(n_blocks=100, ratio=4, period_capacity=16)
        for period in range(4):
            evicted = []
            for addr in range(period * 10, period * 10 + 6):
                if layer.is_in_memory(addr):
                    continue
                payload, _ = layer.fetch(addr)
                evicted.append((addr, payload))
            layer.dummy_fetch()
            layer.shuffle_into(evicted, period_index=period)
            layer.end_period()
            assert layer._unread == self.brute_force_unread(layer)


class TestPartialShuffle:
    def test_only_subset_shuffled(self):
        layer, _ = make_layer(n_blocks=100, ratio=4)
        stats = layer.shuffle_into([], period_index=0)
        assert stats.partitions_shuffled == pytest.approx(
            layer.partition_count / 4, abs=1
        )

    def test_leftover_evicted_appended(self):
        layer, _ = make_layer(n_blocks=100, ratio=4, period_capacity=16)
        evicted = []
        for addr in range(12):
            payload, _ = layer.fetch(addr)
            evicted.append((addr, payload))
        stats = layer.shuffle_into(evicted, period_index=0)
        layer.end_period()
        assert stats.blocks_appended > 0
        assert layer.resident_blocks() == 100

    def test_appended_blocks_fetchable(self):
        layer, codec = make_layer(n_blocks=100, ratio=4, period_capacity=16)
        payload, _ = layer.fetch(50)
        layer.shuffle_into([(50, payload)], period_index=0)
        layer.end_period()
        got, _ = layer.fetch(50)
        assert got == codec.pad(initial_payload(50))

    def test_rotation_covers_all_partitions(self):
        layer, _ = make_layer(n_blocks=100, ratio=4)
        shuffled = 0
        for period in range(4):
            stats = layer.shuffle_into([], period_index=period)
            layer.end_period()
            shuffled += stats.partitions_shuffled
        assert shuffled == layer.partition_count


def clear_nonces(oram):
    """The clear nonce of every slot of the storage slab, in slot order."""
    size = oram.codec.slot_bytes
    data = oram.hierarchy.storage.peek_run(0, oram.storage.total_slots)
    return [
        int.from_bytes(data[offset : offset + 8], "little")
        for offset in range(0, len(data), size)
    ]


class TestSlotOrderSeal:
    """The initial image must not give away the permutation or the dummies."""

    @pytest.mark.parametrize("n_blocks,dummies", [(512, 16), (8192, 88)])
    def test_clear_nonces_rise_with_the_slot(self, backend, n_blocks, dummies):
        oram = build_horam(n_blocks=n_blocks, mem_tree_blocks=64, seed=3)
        assert oram.storage.slot_addr.count(DUMMY_ADDR) == dummies
        nonces = clear_nonces(oram)
        assert all(a < b for a, b in zip(nonces, nonces[1:]))

    def test_overflow_regions_stay_empty(self, backend):
        oram = build_horam(n_blocks=512, mem_tree_blocks=64, seed=3, shuffle_period_ratio=4)
        layer = oram.storage
        nonces = clear_nonces(oram)
        base = [
            nonces[slot]
            for partition in layer._partitions
            for slot in range(partition.base, partition.base + partition.size)
        ]
        assert all(a < b for a, b in zip(base, base[1:]))
        assert sum(nonces) == sum(base)  # every overflow slot is still zero


def control_state_run(ratio):
    """Seeded run over a 90 x 92-slot layout (88 dummies) with 5 shuffles."""
    oram = build_horam(n_blocks=8192, mem_tree_blocks=256, seed=42, shuffle_period_ratio=ratio)
    stream = list(uniform(8192, 700, DeterministicRandom(7), write_ratio=0.25))
    metrics = SimulationEngine(oram, verify=True).run(stream)
    assert metrics.shuffle_count == 5
    return oram


def control_state_digest(ratio):
    state, tables = control_state_run(ratio).storage.state_dict()
    pinned = {
        "state": state,
        "tables": {name: hashlib.sha256(blob).hexdigest() for name, blob in tables.items()},
    }
    return hashlib.sha256(json.dumps(pinned, sort_keys=True).encode()).hexdigest()


def blank_twin(layer, period_capacity, rng):
    """A layer of ``layer``'s geometry over the same stores, nothing
    written; ``rng`` must share ``layer.rng``'s key (checkpoints carry
    stream positions, never keys)."""
    return PermutedStorage(
        n_blocks=layer.n_blocks,
        codec=layer.codec,
        storage_store=layer.storage,
        memory_store=layer.memory,
        rng=rng,
        shuffle=layer.shuffle_algorithm,
        shuffle_period_ratio=layer.ratio,
        period_capacity=period_capacity,
    )


class TestControlStatePin:
    @pytest.mark.parametrize("ratio", [1, 4])
    def test_state_dict_bytes_are_pinned(self, backend, ratio):
        assert control_state_digest(ratio) == CONTROL_STATE[ratio]

    def test_state_round_trip_keeps_the_tables(self, backend):
        layer, _ = make_layer(n_blocks=100, ratio=4, period_capacity=16)
        evicted = []
        for addr in range(12):
            payload, _ = layer.fetch(addr)
            evicted.append((addr, payload))
        layer.shuffle_into(evicted, period_index=0)
        layer.end_period()
        layer.dummy_fetch()
        state, tables = layer.state_dict()
        twin = blank_twin(layer, period_capacity=16, rng=DeterministicRandom(31))
        twin.load_state(json.loads(json.dumps(state)), tables)
        assert twin.state_dict() == layer.state_dict()
        assert [twin.dummy_fetch()[0] for _ in range(5)] == [layer.dummy_fetch()[0] for _ in range(5)]

    def test_tables_take_the_narrowest_type(self):
        layer, _ = make_layer(n_blocks=100)
        _, tables = layer.state_dict()
        # 100 slots: int8 locations (with IN_MEMORY = -1), uint8 pool
        # entries, and 100 consumed flags in 13 bytes.
        assert len(tables["control.location"]) == 100
        assert len(tables["control.unread"]) == 100
        assert len(tables["control.consumed"]) == 13


class TestLosslessReencoding:
    """Format 5 is format 4's control state re-encoded, minus derived tables."""

    @pytest.mark.parametrize("ratio", [1, 4])
    def test_restored_layer_renders_the_format4_state(self, backend, ratio):
        oram = control_state_run(ratio)
        layer = oram.storage
        state, tables = layer.state_dict()
        twin = blank_twin(
            layer, period_capacity=oram.period_capacity, rng=oram.rng.spawn("storage-layer")
        )
        twin.load_state(json.loads(json.dumps(state)), tables)
        rendered = {
            "location": list(twin.location),
            "consumed": base64.b64encode(twin.consumed).decode("ascii"),
            "overflow_used": [p.overflow_used for p in twin._partitions],
            "unread": list(twin._unread),
            "dummy_pool_exhausted": twin.dummy_pool_exhausted,
            "rng": twin.rng.state_dict(),
        }
        digest = hashlib.sha256(json.dumps(rendered, sort_keys=True).encode()).hexdigest()
        assert digest == FORMAT4_STATE_MINUS_DERIVED[ratio]
        # The derived tables: every live slot_addr entry (its block's
        # location points back) survives, every other slot is a dummy ...
        for slot in range(layer.total_slots):
            addr = layer.slot_addr[slot]
            live = addr != DUMMY_ADDR and layer.location[addr] == slot
            assert twin.slot_addr[slot] == (addr if live else DUMMY_ADDR)
        # ... and the pools come back exactly.
        assert twin._partition_unread == layer._partition_unread


def corrupt_slot(oram, slot):
    store = oram.hierarchy.storage
    record = bytearray(store.peek_slot(slot))
    record[10] ^= 0xFF
    store.poke_slot(slot, bytes(record))


class TestIntegrityThroughShuffle:
    """MACed records are verified one by one: survivors only."""

    def build(self):
        oram = build_horam(n_blocks=1024, mem_tree_blocks=64, seed=4, integrity=True)
        count = 2 * oram.period_capacity + 5
        stream = list(uniform(1024, count, DeterministicRandom(3), write_ratio=0.3))
        metrics = SimulationEngine(oram, verify=True).run(stream)
        assert metrics.shuffle_count == 2
        return oram

    def test_corrupt_survivor_raises_inside_the_shuffle(self):
        oram = self.build()
        layer = oram.storage
        addr = next(a for a in range(1024) if layer.location[a] != IN_MEMORY)
        corrupt_slot(oram, layer.location[addr])
        with pytest.raises(IntegrityError) as excinfo:
            oram.force_shuffle()
        assert any(entry.name == "_shuffle_partition" for entry in excinfo.traceback)

    def test_corrupt_record_nobody_needs_is_not_opened(self):
        oram = self.build()
        layer = oram.storage
        addr = next(a for a in range(1024) if layer.location[a] != IN_MEMORY)
        slot = layer.location[addr]
        payload = oram.read(addr)  # the block moves to the cache; its slot is dead
        assert layer.location[addr] == IN_MEMORY
        corrupt_slot(oram, slot)
        oram.force_shuffle()
        assert oram.read(addr) == payload

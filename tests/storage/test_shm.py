"""Unit tests for the shared-memory slab store."""

import os
from pathlib import Path

import pytest

from repro.core.checkpoint import save_checkpoint
from repro.core.sharding import build_sharded_horam
from repro.oram.base import StackClosedError
from repro.storage.backend import BlockStore
from repro.storage.device import hdd_paper
from repro.storage.faults import FaultInjector, FaultPlan
from repro.storage.shm import (
    SegmentError,
    SharedMemoryBlockStore,
    active_segments,
    make_segment_name,
    unlink_segment,
)


def make_shm(segment, slots=16, slot_bytes=8, **kwargs):
    return SharedMemoryBlockStore(
        segment,
        name="storage",
        tier="storage",
        slots=slots,
        slot_bytes=slot_bytes,
        device=hdd_paper(),
        **kwargs,
    )


@pytest.fixture
def segment():
    name = make_segment_name("test")
    yield name
    unlink_segment(name)  # belt and braces: never leak past a failed test


class TestSharedMemoryBlockStore:
    def test_fresh_segment_starts_zeroed(self, segment):
        store = make_shm(segment)
        assert store.peek_slot(0) == b"\x00" * 8
        assert segment in active_segments()
        store.close()

    def test_close_unlinks_segment_and_is_idempotent(self, segment):
        store = make_shm(segment)
        store.close()
        assert segment not in active_segments()
        store.close()
        store.delete()

    def test_use_after_close_fails_loudly(self, segment):
        store = make_shm(segment)
        store.close()
        with pytest.raises(StackClosedError):
            store.peek_slot(0)

    def test_reattach_preserves_contents(self, segment):
        """A respawned worker re-entering its slab sees the same bytes."""
        first = make_shm(segment)
        first.write_slot(3, b"ABCDEFGH")
        second = make_shm(segment)  # same name, same geometry: attach
        assert second.peek_slot(3) == b"ABCDEFGH"
        second.close()
        # first's mapping is stale after the unlink; only release it.
        first.closed = True

    def test_stale_segment_with_wrong_size_is_recreated(self, segment):
        old = make_shm(segment, slots=4)
        old.write_slot(0, b"OLDSLAB!")
        old.closed = True  # simulate a dead creator (no close, no unlink)
        fresh = make_shm(segment, slots=16)
        assert fresh.peek_slot(0) == b"\x00" * 8
        fresh.close()

    def test_segment_name_with_slash_rejected(self):
        with pytest.raises(SegmentError, match="'/'"):
            make_shm("bad/name")

    def test_bit_identical_to_memory_store(self, segment):
        """Same ops on both backings: same durations, counters and bytes."""
        memory = BlockStore(
            name="storage", tier="storage", slots=16, slot_bytes=8, device=hdd_paper()
        )
        shm = make_shm(segment)
        ops = [
            ("write_slot", (2, b"ABCDEFGH")),
            ("read_slot", (2,)),
            ("read_slot", (3,)),  # sequential continuation
            ("write_run", (4, b"y" * 8 * 3)),
            ("read_run", (4, 3)),
        ]
        for op, args in ops:
            got_m = getattr(memory, op)(*args)
            got_s = getattr(shm, op)(*args)
            assert got_m == got_s, op
        assert memory.counters == shm.counters
        assert memory.export_data() == shm.export_data()
        shm.close()

    def test_import_data_rolls_slab_back(self, segment):
        store = make_shm(segment)
        checkpointed = store.export_data()
        store.write_slot(0, b"POSTCKPT")
        store.import_data(checkpointed)
        assert store.peek_slot(0) == b"\x00" * 8
        store.close()

    def test_fault_injector_wraps_shm_store(self, segment):
        """Fault wrapping must compose with the shm backing unchanged."""
        store = make_shm(segment)
        store.write_slot(1, b"GOODDATA")
        FaultInjector(FaultPlan(seed=7, corrupt_read_rate=1.0)).attach(store)
        assert store.read_slot(1) != b"GOODDATA"  # corrupted on the way out
        store.close()
        assert segment not in active_segments()


class TestSegmentHelpers:
    def test_make_segment_name_is_unique_and_prefixed(self):
        names = {make_segment_name("x") for _ in range(32)}
        assert len(names) == 32
        assert all(name.startswith("horam-shm-") for name in names)

    def test_unlink_segment_missing_returns_false(self):
        assert unlink_segment(make_segment_name("ghost")) is False

    def test_unlink_segment_reaps_orphan(self, segment):
        store = make_shm(segment)
        store.closed = True  # orphan the segment (dead-creator simulation)
        assert unlink_segment(segment) is True
        assert segment not in active_segments()

    # A pid one hex digit longer than the last must not lengthen the name.
    PIDS = (0xFFF, 0x1000)

    def test_names_have_one_length_whatever_the_pid(self, monkeypatch):
        lengths = set()
        for pid in self.PIDS:
            monkeypatch.setattr(os, "getpid", lambda pid=pid: pid)
            lengths.add(len(make_segment_name("fleet")))
        assert len(lengths) == 1

    def test_same_seed_fleet_checkpoints_have_one_size_whatever_the_pid(
        self, monkeypatch, tmp_path
    ):
        """The fleet's segment name is in its checkpoint manifest."""
        sizes = []
        for pid in self.PIDS:
            monkeypatch.setattr(os, "getpid", lambda pid=pid: pid)
            fleet = build_sharded_horam(
                n_blocks=256, mem_tree_blocks=64, n_shards=2, seed=5, storage_backend="shm"
            )
            try:
                path = save_checkpoint(fleet, tmp_path / f"pid-{pid:x}")
            finally:
                fleet.close()
            sizes.append(sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file()))
        assert sizes[0] == sizes[1]


class TestHierarchyShmBackend:
    def test_shm_backend_auto_names_segment(self):
        from repro.storage.hierarchy import StorageHierarchy

        hierarchy = StorageHierarchy(
            memory_slots=4, storage_slots=4, slot_bytes=8, storage_backend="shm"
        )
        assert isinstance(hierarchy.storage, SharedMemoryBlockStore)
        assert hierarchy.storage_path.startswith("horam-shm-")
        assert hierarchy.describe()["storage_backend"] == "shm"
        hierarchy.close()
        assert hierarchy.storage.closed
        assert hierarchy.storage_path not in active_segments()

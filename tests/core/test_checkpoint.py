"""Checkpoint/restore across the protocol zoo, including the acceptance
criterion: a 4-shard parallel fleet crashed mid-workload and restored
from its checkpoint is bit-identical to the uninterrupted run."""

import multiprocessing

import pytest

from repro.core.checkpoint import (
    CheckpointError,
    recover,
    restore_stack,
    save_checkpoint,
    snapshot_stack,
)
from repro.core.horam import build_horam
from repro.core.sharding import build_sharded_horam
from repro.crypto.random import DeterministicRandom
from repro.oram.base import OpKind, Request
from repro.oram.factory import build_baseline
from repro.sim.engine import drive
from repro.storage.faults import CrashFault, FaultPlan
from repro.workload.generators import hotspot


def workload(n_blocks=256, count=90, seed="ckpt", write_ratio=0.3):
    rng = DeterministicRandom(seed)
    return list(hotspot(n_blocks, count, rng, hot_blocks=20, write_ratio=write_ratio))


def observables(protocol):
    return (
        getattr(protocol, "served_digest", None),
        protocol.metrics.to_dict(),
        protocol.hierarchy.clock.now_us,
    )


class TestHybridCheckpoint:
    def test_round_trip_is_bit_identical(self, tmp_path):
        requests = workload()
        golden = build_horam(n_blocks=256, mem_tree_blocks=64, seed=3)
        golden_results = drive(golden, requests)

        victim = build_horam(n_blocks=256, mem_tree_blocks=64, seed=3)
        head = drive(victim, requests[:40])
        save_checkpoint(victim, tmp_path / "ckpt")
        drive(victim, requests[40:60])  # post-checkpoint divergence

        restored = recover(tmp_path / "ckpt")
        tail = drive(restored, requests[40:])
        assert head + tail == golden_results
        assert observables(restored) == observables(golden)
        assert (
            restored.hierarchy.storage.export_data()
            == golden.hierarchy.storage.export_data()
        )

    def test_snapshot_keeps_pending_rob_entries(self, tmp_path):
        """A single instance may checkpoint with requests still in flight."""
        oram = build_horam(n_blocks=256, mem_tree_blocks=64, seed=3)
        for request in workload(count=5):
            oram.submit(request)
        oram.step()
        save_checkpoint(oram, tmp_path / "ckpt")
        restored = recover(tmp_path / "ckpt")
        assert restored.has_work()
        original = oram.drain()
        recovered = restored.drain()
        assert [e.result for e in recovered] == [e.result for e in original]

    def test_trace_events_survive_restore(self, tmp_path):
        oram = build_horam(n_blocks=256, mem_tree_blocks=64, seed=3, trace=True)
        drive(oram, workload(count=10))
        save_checkpoint(oram, tmp_path / "ckpt")
        restored = recover(tmp_path / "ckpt")
        assert restored.hierarchy.trace.events == oram.hierarchy.trace.events


class TestShardedCheckpoint:
    def test_serial_fleet_round_trip(self, tmp_path):
        requests = workload(n_blocks=512, count=80)
        golden = build_sharded_horam(n_blocks=512, mem_tree_blocks=128, n_shards=4, seed=5)
        golden_results = drive(golden, requests)

        victim = build_sharded_horam(n_blocks=512, mem_tree_blocks=128, n_shards=4, seed=5)
        head = drive(victim, requests[:30])
        save_checkpoint(victim, tmp_path / "ckpt")
        restored = recover(tmp_path / "ckpt")
        tail = drive(restored, requests[30:])
        assert head + tail == golden_results
        assert observables(restored) == observables(golden)

    def test_snapshot_requires_quiesced_fleet(self):
        fleet = build_sharded_horam(n_blocks=512, mem_tree_blocks=128, n_shards=2, seed=5)
        fleet.submit(Request.read(1))
        with pytest.raises(CheckpointError, match="quiescent"):
            fleet.snapshot()
        fleet.drain()
        fleet.snapshot()  # quiesced again: fine

    def test_parallel_crash_recovery_acceptance(self, tmp_path):
        """ISSUE 5 acceptance: ShardedHORAM(4 shards, parallel executor)
        crashed mid-workload and restored from its checkpoint produces a
        served log, final logical state and metrics bit-identical to the
        uninterrupted run."""
        requests = workload(n_blocks=1024, count=80)

        golden = build_sharded_horam(
            n_blocks=1024, mem_tree_blocks=256, n_shards=4, seed=9
        )
        golden_results = drive(golden, requests)

        with build_sharded_horam(
            n_blocks=1024, mem_tree_blocks=256, n_shards=4, seed=9, executor="parallel"
        ) as victim:
            head = drive(victim, requests[:35])
            save_checkpoint(victim, tmp_path / "ckpt")
            victim.executor.install_fault_plan(FaultPlan(crash_at_op=20))
            with pytest.raises(CrashFault):
                drive(victim, requests[35:])

        restored = recover(tmp_path / "ckpt")
        try:
            tail = drive(restored, requests[35:])
            assert head + tail == golden_results
            # Bit-identical serve order, metrics and fleet clock.
            assert restored.served_digest == golden.served_digest
            assert restored.metrics.to_dict() == golden.metrics.to_dict()
            assert [s.metrics.to_dict() for s in restored.shards] == [
                s.metrics.to_dict() for s in golden.shards
            ]
            assert restored.hierarchy.clock.now_us == golden.hierarchy.clock.now_us
            # Final logical state across every written address.
            written = {
                r.addr: r.data for r in requests if r.op is OpKind.WRITE
            }
            for addr in sorted(written):
                assert restored.read(addr) == golden.read(addr)
        finally:
            restored.close()

    def test_restored_parallel_fleet_is_usable_and_closable(self, tmp_path):
        requests = workload(n_blocks=512, count=30)
        before = set(multiprocessing.active_children())
        with build_sharded_horam(
            n_blocks=512, mem_tree_blocks=128, n_shards=2, seed=5, executor="parallel"
        ) as fleet:
            drive(fleet, requests)
            save_checkpoint(fleet, tmp_path / "ckpt")
        restored = recover(tmp_path / "ckpt")
        restored.close()
        leaked = set(multiprocessing.active_children()) - before
        assert not leaked


class TestBaselineCheckpoint:
    @pytest.mark.parametrize("kind", ["plain", "path"])
    def test_round_trip(self, kind, tmp_path):
        requests = workload(n_blocks=128, count=60)
        kwargs = {"memory_blocks": 32} if kind == "path" else {}
        golden = build_baseline(kind, 128, seed=2, **kwargs)
        golden_results = drive(golden, requests)

        victim = build_baseline(kind, 128, seed=2, **kwargs)
        head = drive(victim, requests[:25])
        save_checkpoint(victim, tmp_path / "ckpt")
        drive(victim, requests[25:40])

        restored = recover(tmp_path / "ckpt")
        tail = drive(restored, requests[25:])
        assert head + tail == golden_results
        assert restored.metrics.to_dict() == golden.metrics.to_dict()
        assert restored.hierarchy.clock.now_us == golden.hierarchy.clock.now_us
        assert (
            restored.hierarchy.storage.export_data()
            == golden.hierarchy.storage.export_data()
        )

    def test_hand_built_protocol_is_rejected(self):
        from repro.oram.insecure import PlainStore
        from repro.crypto.ctr import StreamCipher
        from repro.oram.base import BlockCodec
        from repro.storage.backend import BlockStore
        from repro.storage.device import hdd_paper
        from repro.sim.clock import SimClock

        codec = BlockCodec(16, StreamCipher(b"k"))
        store = BlockStore(
            name="s", tier="storage", slots=8, slot_bytes=codec.slot_bytes,
            device=hdd_paper(),
        )
        plain = PlainStore(n_blocks=8, codec=codec, storage_store=store, clock=SimClock())
        with pytest.raises(CheckpointError, match="factory"):
            snapshot_stack(plain)

    @pytest.mark.parametrize("kind", ["mystery", "sqrt", "partition", "bios", "succinct"])
    def test_unknown_kind_rejected(self, kind):
        from repro.core.checkpoint import Checkpoint

        with pytest.raises(CheckpointError, match="unknown checkpoint kind"):
            restore_stack(Checkpoint(kind=kind, state={}))

    @pytest.mark.parametrize("n_shards", [1, 2], ids=["horam", "sharded"])
    def test_a_recipe_naming_a_shard_protocol_is_refused(self, n_shards):
        """Format 8 recipes have no per-shard protocol field; a manifest
        that still carries one is refused, never silently ignored."""
        if n_shards == 1:
            stack = build_horam(n_blocks=256, mem_tree_blocks=64, seed=2)
        else:
            stack = build_sharded_horam(n_blocks=256, mem_tree_blocks=64, n_shards=2, seed=2)
        try:
            checkpoint = snapshot_stack(stack)
        finally:
            stack.close()
        checkpoint.state["recipe"]["shard_protocol"] = "horam"
        with pytest.raises(CheckpointError, match="no valid stack recipe.*shard_protocol"):
            restore_stack(checkpoint)

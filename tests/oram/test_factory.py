"""Factory builder tests: geometry, devices, integrity plumbing."""

import pytest

from repro.core.checkpoint import snapshot_stack
from repro.core.horam import HybridORAM, build_horam
from repro.core.recipe import StackRecipe, build
from repro.core.sharding import build_sharded_horam
from repro.oram.factory import (
    BASELINES,
    baseline_names,
    build_baseline,
    build_path_oram,
    build_plain,
)
from repro.storage.device import hdd_realistic, ssd_sata


class TestGeometry:
    def test_path_oram_stores_sized_exactly(self):
        oram = build_path_oram(n_blocks=256, memory_blocks=64)
        assert oram.hierarchy.memory.slots == oram.tree.memory_slots_needed
        assert oram.hierarchy.storage.slots == oram.tree.storage_slots_needed

    def test_horam_store_covers_layout(self):
        oram = build_horam(n_blocks=300, mem_tree_blocks=64)  # non-square N
        assert oram.hierarchy.storage.slots >= oram.storage.total_slots

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_fleet_shards_sized_exactly(self, n_shards):
        fleet = build_sharded_horam(n_blocks=1000, mem_tree_blocks=128, n_shards=n_shards)
        try:
            for shard in fleet.shards:
                slots = HybridORAM.required_storage_slots(shard.config)
                assert shard.hierarchy.storage.slots == shard.storage.total_slots == slots
        finally:
            fleet.close()


class TestDevices:
    def test_custom_devices_propagate(self):
        oram = build_path_oram(
            n_blocks=128,
            memory_blocks=32,
            storage_device=ssd_sata(),
        )
        assert oram.hierarchy.storage.device.name == "ssd-sata"

    def test_device_changes_timing(self):
        fast = build_plain(n_blocks=64, storage_device=ssd_sata())
        slow = build_plain(n_blocks=64, storage_device=hdd_realistic())
        fast.read(0)
        slow.read(0)
        assert slow.clock.now_us > fast.clock.now_us


class TestSeeds:
    @staticmethod
    def positions(seed):
        oram = build_path_oram(n_blocks=64, memory_blocks=16, seed=seed)
        return [oram.position_map.get(addr) for addr in range(64)]

    def test_same_seed_reproduces(self):
        assert self.positions(5) == self.positions(5)

    def test_different_seed_differs(self):
        assert self.positions(5) != self.positions(6)


class TestTraceFlag:
    @pytest.mark.parametrize(
        "builder,kwargs",
        [
            (build_path_oram, {"n_blocks": 128, "memory_blocks": 32}),
            (build_plain, {"n_blocks": 128}),
        ],
    )
    def test_trace_off_by_default(self, builder, kwargs):
        oram = builder(**kwargs)
        oram.read(1)
        assert len(oram.hierarchy.trace) == 0  # capacity-0 recorder

    def test_trace_on(self):
        oram = build_plain(n_blocks=64, trace=True)
        oram.read(1)
        assert len(oram.hierarchy.trace) == 1


class TestRegistry:
    def test_baseline_names_sorted_and_complete(self):
        assert baseline_names() == sorted(BASELINES) == ["path", "plain"]

    def test_unknown_baseline_enumerates_valid_names(self):
        with pytest.raises(ValueError) as excinfo:
            build_baseline("nope", 64)
        message = str(excinfo.value)
        assert "unknown baseline 'nope'" in message
        for name in baseline_names():
            assert name in message

    def test_memory_baselines_demand_a_budget(self):
        with pytest.raises(ValueError, match="needs memory_blocks"):
            build_baseline("path", 64)

    def test_baseline_wrapper_matches_recipe_build(self):
        via_factory = build_baseline("path", 128, memory_blocks=32, seed=3)
        direct = build(StackRecipe(protocol="path", n_blocks=128, mem_blocks=32, seed=3))
        assert via_factory.recipe == direct.recipe
        assert via_factory.read(5) == direct.read(5)
        assert snapshot_stack(via_factory).state == snapshot_stack(direct).state

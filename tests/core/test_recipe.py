"""The stack recipe: one description per stack, stored verbatim, built one way.

A :class:`StackRecipe` is what every stack is built from, what its
checkpoint stores and what a parallel worker rebuilds its shard from
(with its index).  These tests pin that the recipe round-trips through
JSON, that a checkpoint holds it unchanged, that the executor is the only
thing telling a serial fleet's checkpoint from a parallel one's, and that
no two recipes describe the same stack through a silently ignored field.
"""

from __future__ import annotations

import json

import pytest

from repro.core.checkpoint import restore_stack, snapshot_stack
from repro.core.horam import HybridORAM, build_horam
from repro.core.recipe import DEVICES, StackRecipe, build, build_kernel, recipe_from_kwargs
from repro.crypto.random import DeterministicRandom
from repro.oram.base import StashOverflowError
from repro.storage.device import DeviceModel, hdd_paper, ssd_sata
from repro.storage.faults import degraded
from repro.testing.conformance import default_matrix
from repro.workload.generators import hotspot


def drive(stack, n_blocks: int, count: int = 200) -> None:
    for request in hotspot(
        n_blocks, count, DeterministicRandom(4), hot_blocks=30, write_ratio=0.3
    ):
        stack.submit(request)
    stack.drain()


def round_trip(recipe: StackRecipe) -> StackRecipe:
    return StackRecipe.from_dict(json.loads(json.dumps(recipe.to_dict())))


class TestOneStackOneRecipe:
    @pytest.mark.parametrize(
        "spec",
        [
            dict(protocol="horam", n_shards=4, lockstep=False),
            dict(protocol="path", n_shards=3),
            dict(protocol="plain", n_shards=2),
        ],
    )
    def test_shards_need_a_sharded_stack(self, spec):
        with pytest.raises(ValueError, match="applies to sharded stacks only"):
            StackRecipe(**spec)

    @pytest.mark.parametrize("protocol", ["bogus", "bios", "succinct"])
    def test_an_unknown_protocol_names_the_four(self, protocol):
        with pytest.raises(
            ValueError,
            match=f"unknown protocol '{protocol}' \\(valid: horam, sharded, path, plain\\)",
        ):
            StackRecipe(protocol=protocol)

    def test_a_sharded_stack_may_have_one_shard(self):
        assert StackRecipe(protocol="sharded", n_shards=1).label() == "shardedx1@hdd-paper"

    def test_integrity_is_horam_only(self):
        with pytest.raises(ValueError, match="integrity"):
            StackRecipe(protocol="sharded", n_shards=2, integrity=True)

    @pytest.mark.parametrize(
        "spec",
        [
            dict(protocol="plain", shuffle_period_ratio=4),
            dict(protocol="plain", bucket_size=2),
            dict(protocol="plain", stash_limit=8),
            dict(protocol="path", stages=((1, 1.0),)),
            dict(protocol="path", prefetch_window=4),
            dict(protocol="path", shuffle_algorithm="melbourne"),
            dict(protocol="path", overlap_io=False),
            dict(protocol="path", shuffle_period_ratio=4),
            dict(protocol="plain", stages=((1, 1.0),)),
            dict(protocol="plain", prefetch_window=4),
            dict(protocol="plain", shuffle_algorithm="melbourne"),
            dict(protocol="plain", overlap_io=False),
        ],
    )
    def test_a_baseline_refuses_a_knob_it_would_drop(self, spec):
        knob = next(name for name in spec if name != "protocol")
        with pytest.raises(ValueError, match=f"{knob} does not apply"):
            StackRecipe(**spec)

    def test_path_oram_keeps_the_stash_limit(self):
        recipe = StackRecipe(protocol="path", n_blocks=256, mem_blocks=16, seed=1, stash_limit=1)
        oram = build(recipe)
        assert oram.stash.limit == 1
        with pytest.raises(StashOverflowError):
            for addr in range(5000):
                oram.write(addr % 256, b"x")

    def test_path_oram_keeps_the_bucket_size(self):
        oram = build(StackRecipe(protocol="path", n_blocks=256, mem_blocks=64, bucket_size=2))
        assert oram.geometry.bucket_size == 2
        oram.write(7, b"z2")
        assert oram.read(7).rstrip(b"\x00") == b"z2"

    def test_devices_are_kept_by_name_when_a_name_builds_them(self):
        assert recipe_from_kwargs("horam", 512, 128, storage_device=hdd_paper()) == StackRecipe()
        named = recipe_from_kwargs("horam", 512, 128, storage_device=ssd_sata())
        assert named.device == "ssd-sata"
        assert StackRecipe(device=degraded(hdd_paper(), 4.0)).device == "hdd-degraded"

    def test_an_unnamed_device_travels_by_value(self):
        custom = DeviceModel("tape", 900.0, 1200.0, 40.0, 20.0)
        recipe = StackRecipe(device=custom)
        assert recipe.device == custom
        assert round_trip(recipe) == recipe
        assert recipe.label() == "horam@tape"
        stack = build(recipe)
        assert stack.hierarchy.storage.device == custom


class TestJson:
    def test_every_matrix_recipe_survives_json(self):
        for scenario in default_matrix():
            assert round_trip(scenario.stack) == scenario.stack, scenario.name

    def test_build_fields_round_trip(self):
        recipe = StackRecipe(
            n_blocks=1024,
            mem_blocks=64,
            payload_bytes=32,
            integrity=True,
            trace=True,
            stages=((2, 0.5), (4, 0.5)),
            shuffle_period_ratio=3,
            prefetch_window=7,
            memory_device="ddr4-2133",
        )
        assert round_trip(recipe) == recipe
        assert set(recipe.to_dict()) >= {"payload_bytes", "integrity", "stages"}

    def test_defaults_stay_out_of_the_json(self):
        """A harness spec's JSON names the harness fields only."""
        assert "payload_bytes" not in StackRecipe().to_dict()
        assert set(StackRecipe().to_dict()) == {
            "protocol", "n_blocks", "mem_blocks", "n_shards", "users", "device",
            "seed", "lockstep", "executor", "storage_backend",
            "supervised", "checkpoint_every_ops", "max_restarts",
            "keep_checkpoints", "heartbeat_timeout_s",
        }

    @pytest.mark.parametrize("field", ["shard_protocol", "bogus"])
    def test_from_dict_refuses_an_unknown_field(self, field):
        data = StackRecipe(protocol="sharded", n_shards=2).to_dict()
        data[field] = "horam"
        with pytest.raises(ValueError, match=f"unknown recipe field\\(s\\): {field}"):
            StackRecipe.from_dict(data)

    def test_every_named_device_is_accepted(self):
        for name in DEVICES:
            assert round_trip(StackRecipe(device=name)).device == name


class TestCheckpointStoresTheRecipe:
    @pytest.mark.parametrize(
        "recipe",
        [
            StackRecipe(n_blocks=512, mem_blocks=64, seed=3, integrity=True),
            StackRecipe(n_blocks=512, mem_blocks=64, shuffle_period_ratio=4),
            StackRecipe(
                n_blocks=256, mem_blocks=64, device="ssd-sata", shuffle_algorithm="melbourne"
            ),
            StackRecipe(protocol="path", n_blocks=256, mem_blocks=64),
            StackRecipe(protocol="plain", n_blocks=256, payload_bytes=32),
            StackRecipe(protocol="sharded", n_blocks=1024, n_shards=2, executor="parallel"),
            StackRecipe(protocol="sharded", n_blocks=1000, n_shards=4, lockstep=False),
            StackRecipe(protocol="sharded", n_blocks=1024, n_shards=2, device="hdd-7200rpm"),
        ],
        ids=lambda recipe: recipe.label(),
    )
    def test_snapshot_stores_the_recipe_verbatim(self, recipe):
        stack = build(recipe)
        restored = None
        try:
            if hasattr(stack, "submit"):
                drive(stack, recipe.n_blocks)
            checkpoint = snapshot_stack(stack)
            assert checkpoint.kind == recipe.protocol
            assert StackRecipe.from_dict(checkpoint.state["recipe"]) == recipe
            restored = restore_stack(checkpoint)
            assert restored.recipe == recipe
        finally:
            for built in (stack, restored):
                close = getattr(built, "close", None)
                if close is not None:
                    close()

    def test_shm_stack_stores_its_segment_name(self):
        stack = build(StackRecipe(n_blocks=256, mem_blocks=64, storage_backend="shm"))
        try:
            assert stack.recipe.storage_path == stack.hierarchy.storage_path
            stored = snapshot_stack(stack).state["recipe"]
            assert stored["storage_path"] == stack.hierarchy.storage_path
        finally:
            stack.close()

    def test_serial_and_parallel_fleets_checkpoint_alike(self, tmp_path):
        """One fleet recipe on both executors: byte-equal blobs, and the
        manifests differ in the recipe's ``executor`` alone."""
        manifests = {}
        blobs = {}
        for executor in ("serial", "parallel"):
            fleet = build(
                StackRecipe(
                    protocol="sharded", n_blocks=1024, mem_blocks=128, n_shards=2,
                    seed=9, executor=executor,
                )
            )
            try:
                drive(fleet, 1024, count=300)
                path = snapshot_stack(fleet).save(tmp_path / executor)
            finally:
                fleet.close()
            manifests[executor] = json.loads((path / "checkpoint.json").read_text())
            blobs[executor] = {
                f.name: f.read_bytes() for f in path.iterdir() if f.suffix == ".bin"
            }
        assert blobs["serial"] == blobs["parallel"]
        assert manifests["serial"]["state"]["recipe"].pop("executor") == "serial"
        assert manifests["parallel"]["state"]["recipe"].pop("executor") == "parallel"
        assert manifests["serial"] == manifests["parallel"]


class TestShardIsRecipeAndIndex:
    def test_serial_shards_are_the_recipe_built_per_index(self):
        recipe = StackRecipe(protocol="sharded", n_blocks=1000, mem_blocks=128, n_shards=3)
        fleet = build(recipe)
        try:
            for index, shard in enumerate(fleet.shards):
                assert build_kernel(recipe, index).state_dict() == shard.state_dict()
        finally:
            fleet.close()


class TestHoramStorageLayout:
    @pytest.mark.parametrize("ratio", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "n_blocks,mem_blocks", [(8192, 512), (300, 32), (1000, 64), (4099, 256)]
    )
    def test_hierarchy_holds_exactly_the_layout(self, n_blocks, mem_blocks, ratio):
        oram = build_horam(
            n_blocks=n_blocks, mem_tree_blocks=mem_blocks, shuffle_period_ratio=ratio
        )
        assert oram.hierarchy.storage.slots == oram.storage.total_slots
        assert HybridORAM.required_storage_slots(oram.config) == oram.storage.total_slots

    @pytest.mark.parametrize(
        "n_blocks,mem_blocks,ratio,slots",
        [(8192, 512, 1, 8280), (8192, 512, 4, 10800), (300, 32, 3, 476)],
    )
    def test_known_layouts(self, n_blocks, mem_blocks, ratio, slots):
        recipe = StackRecipe(
            n_blocks=n_blocks, mem_blocks=mem_blocks, shuffle_period_ratio=ratio
        )
        assert HybridORAM.required_storage_slots(recipe.kernel_config()) == slots

"""Restores build the stack straight from the checkpoint.

A fresh kernel writes its initial image (initial permutation, sealed
slab, sealed cache tree) in one step; every restore route loads the
checkpoint in that step's place.  These tests count the initial-image
work -- ``_initialize``, ``fill_empty``, ``seal_many`` -- on each route,
in this process and in forked shard workers, and require none of it.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.core.checkpoint import recover, save_checkpoint, snapshot_shard, snapshot_stack
from repro.core.executor import _WORKER, ShardCrashed, _worker_init
from repro.core.horam import build_horam
from repro.core.kernel import KERNEL_PROTOCOLS
from repro.core.sharding import build_sharded_horam
from repro.core.storage_layer import PermutedStorage
from repro.crypto.random import DeterministicRandom
from repro.oram.base import BlockCodec
from repro.oram.bios import BiosORAM
from repro.oram.factory import shard_builder
from repro.oram.path_oram import PathOramTree
from repro.oram.succinct_hier import SuccinctHierORAM
from repro.workload.generators import hotspot

PROTOCOLS = ["horam", "succinct", "bios"]

#: every method that writes (part of) an initial image
IMAGE_WORK = [
    (PermutedStorage, "_initialize"),
    (SuccinctHierORAM, "_initialize"),
    (BiosORAM, "_initialize"),
    (PathOramTree, "fill_empty"),
    (BlockCodec, "seal_many"),
]


class ImageWork:
    """Counts initial-image calls here and in workers forked after it."""

    def __init__(self, monkeypatch):
        self._calls = multiprocessing.get_context("fork").Value("i", 0)
        for owner, name in IMAGE_WORK:
            monkeypatch.setattr(owner, name, self._counted(getattr(owner, name)))

    def _counted(self, method):
        calls = self._calls

        def counted(*args, **kwargs):
            with calls.get_lock():
                calls.value += 1
            return method(*args, **kwargs)

        return counted

    @property
    def calls(self) -> int:
        return self._calls.value


def requests(n_blocks: int, count: int, seed: int = 5):
    return list(
        hotspot(n_blocks, count, DeterministicRandom(seed), hot_blocks=40, write_ratio=0.3)
    )


def drive(stack, batch) -> list:
    entries = [stack.submit(request) for request in batch]
    stack.drain()
    return [entry.result for entry in entries]


def build_kernel(protocol: str):
    return shard_builder(protocol)(n_blocks=512, mem_tree_blocks=64, seed=3)


def build_fleet(protocol: str, executor: str):
    return build_sharded_horam(
        n_blocks=1024, mem_tree_blocks=64, n_shards=2, seed=3,
        executor=executor, protocol=protocol,
    )


def test_every_kernel_protocol_is_covered():
    assert sorted(KERNEL_PROTOCOLS) == sorted(PROTOCOLS)


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestNoRestoreRouteBuilds:
    def test_a_fresh_build_writes_the_image(self, protocol, monkeypatch):
        work = ImageWork(monkeypatch)
        build_kernel(protocol).close()
        assert work.calls > 0

    def test_recover(self, protocol, monkeypatch, tmp_path):
        stack = build_kernel(protocol)
        head, tail = requests(512, 300)[:200], requests(512, 300)[200:]
        drive(stack, head)
        path = save_checkpoint(stack, tmp_path / "ckpt")
        work = ImageWork(monkeypatch)
        restored = recover(path)
        assert work.calls == 0
        assert restored.state_dict() == stack.state_dict()
        monkeypatch.undo()
        assert drive(restored, tail) == drive(stack, tail)
        assert restored.served_digest == stack.served_digest
        assert restored.state_dict() == stack.state_dict()

    @pytest.mark.parametrize("executor", ["serial", "parallel"])
    def test_fleet_restore(self, protocol, executor, monkeypatch, tmp_path):
        fleet = build_fleet(protocol, executor)
        restored = None
        try:
            batch = requests(1024, 300)
            drive(fleet, batch[:200])
            path = save_checkpoint(fleet, tmp_path / "ckpt")
            work = ImageWork(monkeypatch)
            restored = recover(path)
            assert restored.served_digest == fleet.served_digest
            assert work.calls == 0
            monkeypatch.undo()
            assert drive(restored, batch[200:]) == drive(fleet, batch[200:])
            assert restored.served_digest == fleet.served_digest
        finally:
            fleet.close()
            if restored is not None:
                restored.close()

    @pytest.mark.parametrize("executor", ["serial", "parallel"])
    def test_recover_shard(self, protocol, executor, monkeypatch):
        fleet = build_fleet(protocol, executor)
        try:
            drive(fleet, requests(1024, 200))
            payload = fleet.executor.shard_state(1)
            work = ImageWork(monkeypatch)
            fleet.executor.recover_shard(1, payload, [], ShardCrashed(1, "hung", None))
            assert fleet.executor.shard_state(1) == payload
            assert work.calls == 0
        finally:
            fleet.close()

    def test_worker_load_in_process(self, protocol, monkeypatch):
        fleet = build_fleet(protocol, "parallel")
        try:
            drive(fleet, requests(1024, 200))
            spec = fleet.executor.specs[0]
            payload = fleet.executor.shard_state(0)
        finally:
            fleet.close()
        work = ImageWork(monkeypatch)
        _worker_init(spec, None, payload)
        try:
            assert work.calls == 0
            assert _WORKER["shard"].state_dict() == payload
        finally:
            _WORKER["shard"].close()
            _WORKER.clear()


# ------------------------------------------------------- manifest contents
def _int_list_sizes(value):
    """Integers held by every JSON list in ``value``, nested lists counted
    into their outermost list."""
    if isinstance(value, dict):
        for item in value.values():
            yield from _int_list_sizes(item)
    elif isinstance(value, list):
        yield sum(1 for _ in _ints(value))


def _ints(value):
    if isinstance(value, list):
        for item in value:
            yield from _ints(item)
    elif isinstance(value, int) and not isinstance(value, bool):
        yield value


def _keys(value):
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _keys(item)
    elif isinstance(value, list):
        for item in value:
            yield from _keys(item)


class TestHoramManifests:
    """H-ORAM's control tables ship as blobs: the manifest holds no per-slot list."""

    N_BLOCKS = 4096

    def _checkpoints(self, tmp_path):
        oram = build_horam(n_blocks=self.N_BLOCKS, mem_tree_blocks=256, seed=1)
        drive(oram, requests(self.N_BLOCKS, 300))
        yield snapshot_stack(oram)
        for executor in ("serial", "parallel"):
            fleet = build_sharded_horam(
                n_blocks=2 * self.N_BLOCKS, mem_tree_blocks=256, n_shards=2, seed=1,
                executor=executor,
            )
            try:
                drive(fleet, requests(2 * self.N_BLOCKS, 300))
                yield snapshot_stack(fleet)
                yield snapshot_shard(fleet, 1)
            finally:
                fleet.close()

    def test_no_slot_table_in_any_manifest(self, tmp_path):
        for checkpoint in self._checkpoints(tmp_path):
            manifest = json.loads(json.dumps(checkpoint.state))
            assert not {"slot_addr", "occupied"} & set(_keys(manifest)), checkpoint.kind
            longest = max(_int_list_sizes(manifest))
            assert longest < self.N_BLOCKS // 4, (checkpoint.kind, longest)
            assert any(name.endswith("control.location") for name in checkpoint.blobs)

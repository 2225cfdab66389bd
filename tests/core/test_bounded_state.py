"""Bounded-state tier: nothing a stack keeps grows with the requests served.

A checkpoint, a parallel worker's per-step snapshot and the kernel's
latency and serve-order state are fixed in size: a stack that has served
4x the traffic writes the same manifest keys at the same sizes.  Tests
that need a served sequence record it from the entries ``submit``
returned (see ``serve_order``), never from the stack.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core.checkpoint import (
    Checkpoint,
    CheckpointError,
    restore_stack,
    snapshot_shard,
    snapshot_stack,
)
from repro.core.executor import (
    _WORKER,
    ShardBuildSpec,
    _worker_finish,
    _worker_init,
    _worker_run,
)
from repro.core.horam import build_horam
from repro.core.sharding import build_sharded_horam
from repro.core.supervisor import FleetSupervisor, SupervisorConfig
from repro.crypto.random import DeterministicRandom
from repro.oram.base import OpKind, Request
from repro.oram.factory import build_baseline
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import Histogram, percentile
from repro.workload.generators import hotspot

#: requests before the first snapshot: more than two 62-load periods.
R = 300
#: structural growth any manifest key may show between R and 4R requests.
SLACK_BYTES = 32
TOTAL_SLACK_BYTES = 256
QUANTILES = (0, 1, 25, 50, 90, 99, 100)


# --------------------------------------------------------------- helpers
class Recorder:
    """Passes a stack through, keeping every entry ``submit`` returned."""

    def __init__(self, stack):
        self.stack = stack
        self.entries = []

    def submit(self, request):
        entry = self.stack.submit(request)
        self.entries.append(entry)
        return entry

    def __getattr__(self, name):
        return getattr(self.stack, name)


def serve_order(entries) -> "list[tuple[int, int]]":
    """``(addr, served cycle)`` in service order: within a cycle the
    scheduler takes hits in ROB (submission) order, so a stable sort by
    cycle rebuilds the kernel's serve sequence."""
    return [(e.addr, e.served_cycle) for e in sorted(entries, key=lambda e: e.served_cycle)]


def stream(count: int, n_blocks: int = 1024, seed: int = 5) -> "list[Request]":
    rng = DeterministicRandom(seed)
    return list(hotspot(n_blocks, count, rng, hot_blocks=24, write_ratio=0.25))


def drive(stack, requests, batch: int = 16) -> list:
    """Serve ``requests`` a bounded batch at a time (a server's queue depth)."""
    results = []
    for start in range(0, len(requests), batch):
        entries = [stack.submit(request) for request in requests[start : start + batch]]
        stack.drain()
        results.extend(entry.result for entry in entries)
    return results


def _flatten(value, prefix: str = "") -> dict:
    """Leaf values by dotted path; a list of dicts (a fleet's shards)
    flattens by index, any other list is one leaf."""
    if isinstance(value, dict) and value:
        items = value.items()
    elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        items = enumerate(value)
    else:
        return {prefix[:-1]: value}
    out = {}
    for key, item in items:
        out.update(_flatten(item, f"{prefix}{key}."))
    return out


def _zero_numbers(value):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return 0
    if isinstance(value, list):
        return [_zero_numbers(item) for item in value]
    return {key: _zero_numbers(item) for key, item in value.items()}


def manifest_shape(checkpoint: Checkpoint) -> "dict[str, int]":
    """JSON bytes per manifest key, every number written as ``0``.

    Counters and RNG words gain and lose digits as a stack runs; what must
    not happen is a key gaining *entries*, which this size sees.
    """
    return {
        key: len(json.dumps(_zero_numbers(value)))
        for key, value in _flatten(checkpoint.state).items()
    }


def assert_flat(small: "dict[str, int]", large: "dict[str, int]") -> None:
    """No key grows by more than SLACK_BYTES, and the keys that appear
    (a counter's first event) add little: the manifest as a whole grows
    by at most TOTAL_SLACK_BYTES."""
    assert not set(small) - set(large), f"keys vanished: {set(small) - set(large)}"
    grown = {
        key: (small.get(key, 0), size)
        for key, size in large.items()
        if size - small.get(key, 0) > SLACK_BYTES
    }
    assert not grown, f"manifest keys grew with traffic: {grown}"
    total = sum(large.values()) + sum(len(key) for key in large)
    total -= sum(small.values()) + sum(len(key) for key in small)
    assert total <= TOTAL_SLACK_BYTES, f"manifest grew by {total} bytes"


# ------------------------------------------------- manifests stay flat
KERNELS = {
    "horam": lambda: build_horam(n_blocks=1024, mem_tree_blocks=128, seed=1),
    "succinct": lambda: build_baseline("succinct", 1024, memory_blocks=128, seed=1),
    "bios": lambda: build_baseline("bios", 1024, memory_blocks=128, seed=1),
}


def _shapes_at_r_and_4r(stack, take) -> "tuple[dict, dict]":
    requests = stream(4 * R)
    drive(stack, requests[:R])
    stack.force_shuffle()
    assert stack.metrics.shuffle_count >= 3, "R must span two periods and more"
    small = manifest_shape(take(stack))
    drive(stack, requests[R:])
    stack.force_shuffle()
    return small, manifest_shape(take(stack))


class TestManifestsStayFlat:
    @pytest.mark.parametrize("protocol", sorted(KERNELS))
    def test_kernel_manifest(self, protocol):
        stack = KERNELS[protocol]()
        try:
            assert_flat(*_shapes_at_r_and_4r(stack, snapshot_stack))
        finally:
            stack.close()

    @pytest.mark.parametrize("executor", ["serial", "parallel"])
    def test_fleet_manifest(self, executor):
        fleet = build_sharded_horam(
            n_blocks=2048, mem_tree_blocks=256, n_shards=2, seed=1, executor=executor
        )
        try:
            assert_flat(*_shapes_at_r_and_4r(fleet, snapshot_stack))
        finally:
            fleet.close()

    def test_supervisor_shard_checkpoint(self, tmp_path):
        fleet = build_sharded_horam(n_blocks=2048, mem_tree_blocks=256, n_shards=2, seed=1)
        supervisor = FleetSupervisor(
            fleet, tmp_path, SupervisorConfig(checkpoint_every_ops=100)
        )
        try:
            small, large = _shapes_at_r_and_4r(
                supervisor, lambda stack: snapshot_shard(stack.fleet, 0)
            )
            assert_flat(small, large)
        finally:
            supervisor.close()

    def test_the_shape_sees_a_growing_key(self):
        """The measure itself: a key that gains entries fails the check."""
        small = manifest_shape(Checkpoint(kind="x", state={"log": [[1, 2]] * 10}))
        large = manifest_shape(Checkpoint(kind="x", state={"log": [[1, 2]] * 40}))
        with pytest.raises(AssertionError):
            assert_flat(small, large)


class TestWorkerSnapshots:
    def test_step_snapshot_does_not_grow(self):
        """One parallel worker step (the functions a worker process runs)
        pickles to the same size at R and at 4R requests, give or take a
        counter whose pickle widens as it grows."""
        spec = ShardBuildSpec(
            index=0, n_shards=2, n_blocks=512, mem_tree_blocks=64, payload_bytes=16,
            modeled_block_bytes=1024, seed=3,
        )
        _worker_init(spec)
        try:
            requests = stream(4 * R, n_blocks=512)
            sizes = []
            done = 0
            for mark in (R, 4 * R):
                while done < mark:
                    batch = requests[done : done + 16]
                    _worker_run([(done + i, r.op, r.addr, r.data) for i, r in enumerate(batch)])
                    _worker_finish(None)
                    done += len(batch)
                _worker_run([(done, OpKind.READ, 0, None)])
                snapshot = _worker_finish(None)
                assert snapshot.latency_delta.total == 1  # the step's own sample
                sizes.append(len(pickle.dumps(snapshot)))
            assert abs(sizes[1] - sizes[0]) <= 16, sizes
        finally:
            _WORKER["shard"].close()
            _WORKER.clear()


# ------------------------------------------------------------ histogram
def _kernel_case(protocol: str):
    if protocol in ("full_shuffle", "partial_shuffle"):
        ratio, n_blocks, count = (1, 512, 600) if protocol == "full_shuffle" else (4, 1024, 900)
        stack = build_horam(
            n_blocks=n_blocks, mem_tree_blocks=128, seed=42, shuffle_period_ratio=ratio
        )
    else:
        n_blocks, count = 512, 500
        stack = build_baseline(protocol, n_blocks, memory_blocks=128, seed=42)
    requests = list(
        hotspot(
            n_blocks, count, DeterministicRandom(7),
            hot_blocks=max(16, stack.period_capacity // 3), write_ratio=0.25,
        )
    )
    return stack, requests


def _sharded_case(n_shards: int):
    fleet = build_sharded_horam(n_blocks=1024, mem_tree_blocks=128, n_shards=n_shards, seed=42)
    requests = list(
        hotspot(1024, 400, DeterministicRandom(7), hot_blocks=48, write_ratio=0.25)
    )
    return fleet, requests


def _served_latencies(stack, requests) -> "list[int]":
    recorder = Recorder(stack)
    SimulationEngine(recorder, verify=True).run(requests)
    return [entry.latency_cycles for entry in recorder.entries]


class TestLatencyHistogram:
    @pytest.mark.parametrize("protocol", ["full_shuffle", "partial_shuffle", "succinct", "bios"])
    def test_kernel_percentiles_equal_the_list_percentiles(self, protocol):
        stack, requests = _kernel_case(protocol)
        latencies = _served_latencies(stack, requests)
        assert stack.latency_histogram.total == len(latencies)
        assert stack.latency_percentiles(QUANTILES) == {
            int(q): percentile(latencies, q) for q in QUANTILES
        }

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_fleet_percentiles_equal_the_list_percentiles(self, n_shards):
        fleet, requests = _sharded_case(n_shards)
        latencies = _served_latencies(fleet, requests)
        assert fleet.latency_percentiles(QUANTILES) == {
            int(q): percentile(latencies, q) for q in QUANTILES
        }

    def test_merged_shards_equal_the_concatenated_samples(self):
        fleet, requests = _sharded_case(4)
        recorder = Recorder(fleet)
        SimulationEngine(recorder).run(requests)
        merged = Histogram()
        for shard in fleet.shards:
            merged.merge(shard.latency_histogram)
        concatenated = Histogram()
        concatenated.add_many(entry.latency_cycles for entry in recorder.entries)
        assert merged == concatenated
        assert merged.total == concatenated.total == len(requests)

    def test_json_round_trip(self):
        histogram = Histogram()
        histogram.add_many([0, 3, 3, 4095, 4096, 4097, 10**6, 10**6 + 3, 2**40])
        back = Histogram.from_list(json.loads(json.dumps(histogram.to_list())))
        assert back == histogram
        assert back.total == histogram.total
        assert back.percentiles(QUANTILES + (99.9,)) == histogram.percentiles(QUANTILES + (99.9,))

    def test_large_values_keep_their_precision(self):
        histogram = Histogram()
        values = [4096 + 37 * i for i in range(2000)] + [10**9 + 12345]
        histogram.add_many(values)
        for q in QUANTILES + (99.9,):
            exact = percentile(values, q)
            measured = histogram.percentiles([q])[q]
            assert measured <= exact
            assert exact - measured <= exact * 2 ** -(Histogram.PRECISION_BITS - 1)
        assert len(histogram.counts) <= len(values)

    def test_bucket_count_is_bounded_by_the_value_range(self):
        histogram = Histogram()
        histogram.add_many(range(0, 1 << 20, 7))
        exact = 1 << Histogram.PRECISION_BITS
        octaves = 20 - Histogram.PRECISION_BITS
        assert len(histogram.counts) <= exact + octaves * (exact // 2)

    def test_negative_samples_are_refused(self):
        with pytest.raises(ValueError):
            Histogram().add(-1)


# ---------------------------------------------------------- served digest
class TestServedDigest:
    def test_digest_folds_each_cycle_over_the_serve_order(self):
        import hashlib
        import struct

        stack, requests = _kernel_case("full_shuffle")
        recorder = Recorder(stack)
        SimulationEngine(recorder).run(requests)
        digest = bytes(16)
        cycles: dict[int, list] = {}
        for addr, cycle in serve_order(recorder.entries):
            cycles.setdefault(cycle, []).extend((addr, cycle))
        for cycle in sorted(cycles):
            pairs = cycles[cycle]
            digest = hashlib.blake2b(
                digest + struct.pack(f"<{len(pairs)}q", *pairs), digest_size=16
            ).digest()
        assert stack.served_digest == digest

    def test_digest_tells_serve_orders_apart(self):
        a, requests = _kernel_case("full_shuffle")
        b, _ = _kernel_case("full_shuffle")
        drive(a, requests)
        drive(b, requests[:-1] + [Request.read((requests[-1].addr + 1) % 512)])
        assert a.served_digest != b.served_digest


# ------------------------------------------------------------ derived pools
def _live_pools(layer) -> "list[list[int]]":
    return [list(pool) for pool in layer._partition_unread]


def _derived_pools(layer) -> "list[list[int]]":
    return [list(pool) for pool in layer._derive_partition_pools()]


class TestDerivedPools:
    @pytest.mark.parametrize("ratio", [1, 4])
    def test_rebuilt_pools_equal_the_live_ones(self, ratio):
        oram = build_horam(
            n_blocks=1024, mem_tree_blocks=128, seed=7, shuffle_period_ratio=ratio
        )
        requests = stream(900, seed=11)
        checked = 0
        for start in range(0, len(requests), 8):
            drive(oram, requests[start : start + 8])
            assert _derived_pools(oram.storage) == _live_pools(oram.storage), start
            checked += 1
        assert oram.metrics.shuffle_count >= 6 and checked > 100
        if ratio > 1:
            assert oram.metrics.extra.get("blocks_appended", 0) > 0, "overflow never used"

    @pytest.mark.parametrize("ratio", [1, 4])
    def test_mid_period_checkpoint_serves_like_its_twin(self, ratio, tmp_path):
        def build():
            return build_horam(
                n_blocks=1024, mem_tree_blocks=128, seed=7, shuffle_period_ratio=ratio
            )

        requests = stream(700, seed=13)
        twin = build()
        expected = drive(twin, requests)

        victim = build()
        cut = 336  # a batch boundary of the twin's drive
        head = drive(victim, requests[:cut])
        assert victim.period_index >= 2 and victim._loads_this_period > 0
        snapshot_stack(victim).save(tmp_path / "ckpt")
        restored = restore_stack(Checkpoint.load(tmp_path / "ckpt"))
        assert _live_pools(restored.storage) == _live_pools(victim.storage)
        tail = drive(restored, requests[cut:])

        assert head + tail == expected
        assert restored.served_digest == twin.served_digest
        assert restored.latency_histogram == twin.latency_histogram
        assert restored.metrics.to_dict() == twin.metrics.to_dict()
        assert restored.storage.state_dict() == twin.storage.state_dict()
        assert restored.hierarchy.storage.export_data() == twin.hierarchy.storage.export_data()

    def test_pools_are_not_in_the_manifest(self):
        oram = build_horam(n_blocks=1024, mem_tree_blocks=128, seed=7)
        state = snapshot_stack(oram).state["stack"]["storage"]
        assert "partition_unread" not in state and "partition_dirty" not in state


# ------------------------------------------------------------ old format
def test_version_3_manifest_is_refused(tmp_path):
    oram = build_horam(n_blocks=256, mem_tree_blocks=64, seed=2)
    drive(oram, stream(40, n_blocks=256))
    path = snapshot_stack(oram).save(tmp_path / "ckpt")
    manifest = path / "checkpoint.json"
    data = json.loads(manifest.read_text())
    data["version"] = 3
    manifest.write_text(json.dumps(data))
    with pytest.raises(CheckpointError, match="version 3"):
        Checkpoint.load(path)

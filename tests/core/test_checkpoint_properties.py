"""Hypothesis properties for the durability subsystem.

Two laws:

* **checkpoint round-trip** -- ``restore(snapshot(s))`` is observationally
  equal to ``s``: driving the same request suffix through the original
  and the restored stack yields identical results, served logs, metrics
  and simulated clocks, across protocol x shard-width x executor;
* **backend bit-identity** -- a disk-backed store is bit-identical to an
  in-memory one under the same seed: same served results, same metrics,
  same final slot bytes.
"""

import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import restore_stack, snapshot_stack
from repro.core.horam import build_horam
from repro.core.sharding import build_sharded_horam
from repro.crypto.random import DeterministicRandom
from repro.oram.factory import build_baseline
from repro.sim.engine import drive
from repro.workload.generators import hotspot

#: protocol x shard-width x executor combinations the round-trip law covers.
STACKS = [
    ("horam", {}),
    ("sharded", {"n_shards": 1, "executor": "serial"}),
    ("sharded", {"n_shards": 2, "executor": "serial"}),
    ("sharded", {"n_shards": 4, "executor": "serial"}),
    ("sharded", {"n_shards": 2, "executor": "parallel"}),
    ("path", {}),
    ("plain", {}),
]

#: baselines that take a memory budget (all but factory._NO_MEMORY).
_MEMORY_BASELINES = ("path",)


def build(kind, options, seed):
    if kind == "horam":
        return build_horam(n_blocks=256, mem_tree_blocks=64, seed=seed)
    if kind == "sharded":
        return build_sharded_horam(
            n_blocks=256, mem_tree_blocks=64, seed=seed, **options
        )
    kwargs = {"memory_blocks": 32} if kind in _MEMORY_BASELINES else {}
    return build_baseline(kind, 128, seed=seed, **kwargs)


def close(protocol):
    closer = getattr(protocol, "close", None)
    if closer is not None:
        closer()


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    stack=st.sampled_from(STACKS),
    seed=st.integers(min_value=0, max_value=2**16),
    prefix=st.integers(min_value=0, max_value=40),
    suffix=st.integers(min_value=1, max_value=40),
    workload_seed=st.integers(min_value=0, max_value=2**16),
    write_ratio=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_checkpoint_round_trip_is_observationally_equal(
    stack, seed, prefix, suffix, workload_seed, write_ratio
):
    kind, options = stack
    n_blocks = 256 if kind in ("horam", "sharded") else 128
    rng = DeterministicRandom(workload_seed)
    requests = list(
        hotspot(n_blocks, prefix + suffix, rng, hot_blocks=16, write_ratio=write_ratio)
    )
    original = build(kind, options, seed)
    try:
        drive(original, requests[:prefix])
        restored = restore_stack(snapshot_stack(original))
        try:
            tail = requests[prefix:]
            got_original = drive(original, tail)
            got_restored = drive(restored, tail)
            assert got_restored == got_original
            assert getattr(restored, "served_digest", None) == getattr(
                original, "served_digest", None
            )
            assert restored.metrics.to_dict() == original.metrics.to_dict()
            assert (
                restored.hierarchy.clock.now_us == original.hierarchy.clock.now_us
            )
        finally:
            close(restored)
    finally:
        close(original)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=1, max_value=80),
    workload_seed=st.integers(min_value=0, max_value=2**16),
    write_ratio=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_disk_backed_store_is_bit_identical_to_memory(
    seed, count, workload_seed, write_ratio
):
    rng = DeterministicRandom(workload_seed)
    requests = list(hotspot(256, count, rng, hot_blocks=16, write_ratio=write_ratio))
    in_memory = build_horam(n_blocks=256, mem_tree_blocks=64, seed=seed)
    with tempfile.TemporaryDirectory(prefix="horam-prop-") as slab_dir:
        durable = build_horam(
            n_blocks=256,
            mem_tree_blocks=64,
            seed=seed,
            storage_backend="file",
            storage_path=f"{slab_dir}/prop.slab",
        )
        try:
            assert drive(in_memory, requests) == drive(durable, requests)
            assert in_memory.metrics.to_dict() == durable.metrics.to_dict()
            assert (
                in_memory.hierarchy.clock.now_us == durable.hierarchy.clock.now_us
            )
            assert (
                in_memory.hierarchy.storage.export_data()
                == durable.hierarchy.storage.export_data()
            )
        finally:
            durable.close()

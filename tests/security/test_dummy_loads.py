"""A dummy load must look like a real load to a bus observer.

H-ORAM's security argument (Sections 4.1.3 and 4.3) rests on a hit
cycle's padding load being indistinguishable from a miss cycle's real
load.  The layout here has dummy slots -- 257 blocks over 16 partitions
of 17 slots, 15 of them dummies -- so a dummy load that reads a dummy
record, or favours the partitions that hold them, gives itself away.

Every request is a synchronous ``read``, which drains the pipeline: a
miss takes a cycle with a real load, and the cycle that serves a cached
block pads with a dummy load, so both kinds are plentiful.
"""

from __future__ import annotations

import pytest

from repro.core.horam import build_horam
from repro.core.sharding import build_sharded_horam
from repro.crypto.random import DeterministicRandom
from repro.security.adversary import PatternAnalyzer
from repro.security.statistics import chi_square_p_value, chi_square_statistic
from repro.workload.generators import hotspot, uniform

N_BLOCKS = 257
MEM_TREE_BLOCKS = 64

STREAMS = {
    "hot": lambda rng: hotspot(N_BLOCKS, 1200, rng, hot_blocks=20, hot_probability=0.9),
    "uniform": lambda rng: uniform(N_BLOCKS, 1500, rng),
}


@pytest.fixture(scope="module", params=sorted(STREAMS))
def labelled_run(request):
    """``(oram, loads)``: each storage load as ``(is_real, slot)``, the
    label taken from the hook that issued it and the slot from the bus
    trace."""
    oram = build_horam(
        n_blocks=N_BLOCKS, mem_tree_blocks=MEM_TREE_BLOCKS, seed=1, trace=True
    )
    labels = []
    fetch_path, dummy_fetch_path = oram.fetch_path, oram.dummy_fetch_path

    def real_load(addr):
        labels.append(True)
        return fetch_path(addr)

    def dummy_load():
        labels.append(False)
        return dummy_fetch_path()

    oram.fetch_path, oram.dummy_fetch_path = real_load, dummy_load
    for item in STREAMS[request.param](DeterministicRandom(101)):
        oram.read(item.addr)
    slots = PatternAnalyzer(oram.hierarchy.trace).storage_load_slots()
    assert len(slots) == len(labels)
    return oram, list(zip(labels, slots))


def real_vs_dummy_chi_square(real: "list[int]", dummy: "list[int]") -> "tuple[float, int]":
    """Pearson's statistic and degrees of freedom of the 2 x k table of
    real and dummy loads per partition (partitions nobody read dropped)."""
    columns = [(r, d) for r, d in zip(real, dummy) if r + d]
    real_total, dummy_total = sum(real), sum(dummy)
    total = real_total + dummy_total
    observed, expected = [], []
    for r, d in columns:
        observed += [r, d]
        expected += [real_total * (r + d) / total, dummy_total * (r + d) / total]
    return chi_square_statistic(observed, expected), len(columns) - 1


def test_layout_has_dummy_slots(labelled_run):
    oram, _ = labelled_run
    layer = oram.storage
    assert layer.partition_count * layer.partition_size - N_BLOCKS == 15


def test_every_dummy_load_prefetches_a_block(labelled_run):
    oram, loads = labelled_run
    dummies = sum(1 for is_real, _ in loads if not is_real)
    assert oram.metrics.dummy_misses == dummies > 500
    assert oram.metrics.prefetched_hits == oram.metrics.dummy_misses


def test_real_and_dummy_loads_spread_alike_over_partitions(labelled_run):
    oram, loads = labelled_run
    layer = oram.storage
    span = layer.partition_size + layer.overflow_cap
    real, dummy = [0] * layer.partition_count, [0] * layer.partition_count
    for is_real, slot in loads:
        (real if is_real else dummy)[slot // span] += 1
    statistic, dof = real_vs_dummy_chi_square(real, dummy)
    assert dof == layer.partition_count - 1
    assert chi_square_p_value(statistic, dof) > 0.001, (statistic, dof)


def test_fleet_dummy_loads_prefetch():
    fleet = build_sharded_horam(
        n_blocks=2 * N_BLOCKS, mem_tree_blocks=2 * MEM_TREE_BLOCKS, n_shards=2, seed=1
    )
    rng = DeterministicRandom(4)
    for item in hotspot(2 * N_BLOCKS, 800, rng, hot_blocks=20, hot_probability=0.9):
        fleet.read(item.addr)
    metrics = fleet.metrics
    assert metrics.dummy_misses > 1000
    assert metrics.prefetched_hits == metrics.dummy_misses

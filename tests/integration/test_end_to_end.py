"""Cross-protocol integration: one workload, two ORAMs and the plain
store, shared oracle."""

import pytest

from repro.core.horam import build_horam
from repro.crypto.random import DeterministicRandom
from repro.oram.factory import build_path_oram, build_plain
from repro.sim.engine import SimulationEngine
from repro.workload.generators import read_write_mix

N_BLOCKS = 256
REQUESTS = 300


def paired_workload(seed=99):
    rng = DeterministicRandom(seed)
    return list(
        read_write_mix(N_BLOCKS, REQUESTS, rng, write_ratio=0.3, hot_blocks=24)
    )


@pytest.fixture(scope="module")
def results():
    workload = paired_workload()
    protocols = {
        "horam": build_horam(n_blocks=N_BLOCKS, mem_tree_blocks=64, seed=5),
        "path": build_path_oram(n_blocks=N_BLOCKS, memory_blocks=64, seed=5),
        "plain": build_plain(n_blocks=N_BLOCKS, seed=5),
    }
    outcome = {}
    for name, protocol in protocols.items():
        metrics = SimulationEngine(protocol, verify=True).run(list(workload))
        outcome[name] = (protocol, metrics)
    return outcome


class TestAllProtocolsCorrect:
    @pytest.mark.parametrize("name", ["horam", "path", "plain"])
    def test_served_everything(self, results, name):
        _, metrics = results[name]
        assert metrics.requests_served == REQUESTS
        # verify=True already enforced read correctness.


class TestPerformanceOrdering:
    def test_horam_beats_tree_top_path_oram(self, results):
        assert (
            results["horam"][1].total_time_us < results["path"][1].total_time_us
        )

    def test_horam_issues_fewest_storage_loads(self, results):
        horam_loads = results["horam"][1].io_reads
        path_loads = results["path"][1].io_reads
        assert horam_loads < path_loads

    def test_flat_schemes_use_single_block_fetches(self, results):
        for name in ("horam", "plain"):
            metrics = results[name][1]
            # Access-period reads of one block each; no multi-bucket paths.
            assert metrics.io_bytes_read / max(1, metrics.io_reads) == pytest.approx(
                1024, rel=0.01
            )


class TestDeterminismAcrossRuns:
    def test_same_seed_same_metrics(self):
        workload = paired_workload(seed=7)
        a = SimulationEngine(
            build_horam(n_blocks=N_BLOCKS, mem_tree_blocks=64, seed=11)
        ).run(list(workload))
        b = SimulationEngine(
            build_horam(n_blocks=N_BLOCKS, mem_tree_blocks=64, seed=11)
        ).run(list(workload))
        assert a.total_time_us == b.total_time_us
        assert a.io_reads == b.io_reads

    def test_different_seed_different_trace(self):
        workload = paired_workload(seed=7)
        a = build_horam(n_blocks=N_BLOCKS, mem_tree_blocks=64, seed=1, trace=True)
        b = build_horam(n_blocks=N_BLOCKS, mem_tree_blocks=64, seed=2, trace=True)
        SimulationEngine(a).run(list(workload))
        SimulationEngine(b).run(list(workload))
        slots_a = [e.slot for e in a.hierarchy.trace.storage_reads()]
        slots_b = [e.slot for e in b.hierarchy.trace.storage_reads()]
        assert slots_a != slots_b

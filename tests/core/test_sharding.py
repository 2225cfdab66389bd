"""Sharded serving-layer tests (ShardedHORAM)."""

import pytest

from repro.core.multiuser import MultiUserFrontEnd
from repro.core.sharding import ShardedHORAM, build_sharded_horam, shard_block_counts
from repro.crypto.random import DeterministicRandom
from repro.oram.base import ORAMError, Request, initial_payload
from repro.sim.engine import SimulationEngine
from repro.workload.generators import hotspot, uniform, zipfian

WORKLOADS = {
    "uniform": lambda n, count, rng: uniform(n, count, rng, write_ratio=0.3),
    "hotspot": lambda n, count, rng: hotspot(
        n, count, rng, hot_blocks=max(8, n // 16), write_ratio=0.3
    ),
    "zipf": lambda n, count, rng: zipfian(n, count, rng, write_ratio=0.3),
}


def build(n_shards: int, n_blocks: int = 1024, mem: int = 128, **kwargs) -> ShardedHORAM:
    return build_sharded_horam(
        n_blocks=n_blocks, mem_tree_blocks=mem, n_shards=n_shards, seed=5, **kwargs
    )


class TestConstruction:
    def test_shard_block_counts_cover_space(self):
        for n_shards in (1, 2, 3, 4, 8):
            counts = shard_block_counts(1000, n_shards)
            assert sum(counts) == 1000
            assert max(counts) - min(counts) <= 1

    def test_shard_seeds_differ(self):
        sharded = build(4)
        keys = {shard.rng._key for shard in sharded.shards}
        assert len(keys) == 4

    def test_too_many_shards_rejected(self):
        with pytest.raises(ValueError):
            build_sharded_horam(n_blocks=256, mem_tree_blocks=128, n_shards=32)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            build_sharded_horam(n_blocks=256, mem_tree_blocks=64, n_shards=0)

    def test_describe_reports_fleet(self):
        sharded = build(2)
        info = sharded.describe()
        assert info["n_shards"] == 2
        assert sum(info["shard_n_blocks"]) == sharded.n_blocks


class TestRouting:
    def test_striping_roundtrip(self):
        sharded = build(4)
        for addr in (0, 1, 5, 1023):
            shard = sharded.shard_of(addr)
            local = sharded.local_addr(addr)
            assert sharded.global_addr(shard, local) == addr

    def test_out_of_range_rejected(self):
        sharded = build(2)
        with pytest.raises(ORAMError):
            sharded.submit(Request.read(sharded.n_blocks))

    def test_retired_entries_carry_global_addresses(self):
        sharded = build(4)
        entries = [sharded.submit(Request.read(addr)) for addr in (3, 513, 1022)]
        sharded.drain()
        assert [entry.addr for entry in entries] == [3, 513, 1022]
        for entry in entries:
            assert entry.result == sharded.codec.pad(initial_payload(entry.addr))

    def test_retirement_stream_in_submit_order(self):
        sharded = build(4)
        addrs = [7, 100, 3, 513, 801, 64]
        for addr in addrs:
            sharded.submit(Request.read(addr))
        retired = sharded.drain()
        assert [entry.addr for entry in retired] == addrs


@pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
class TestVerifiedAcrossRuns:
    def test_two_sequential_runs_verify(self, n_shards, workload):
        """The acceptance gate: verify=True across sequential runs.

        The second run re-reads addresses the first run wrote, which
        exercises the engine's cross-run replay (reads must see the
        earlier run's writes, not the initial payload).
        """
        sharded = build(n_shards, n_blocks=512, mem=64)
        engine = SimulationEngine(sharded, verify=True)
        make = WORKLOADS[workload]
        first = engine.run(make(512, 150, DeterministicRandom(100)))
        second = engine.run(make(512, 150, DeterministicRandom(101)))
        assert first.requests_served == 150
        assert second.requests_served == 150


class TestAggregation:
    def test_metrics_sum_across_shards(self):
        sharded = build(4)
        engine = SimulationEngine(sharded)
        engine.run(uniform(1024, 200, DeterministicRandom(3)))
        merged = sharded.metrics
        per_shard = sharded.shard_metrics()
        assert merged.requests_served == sum(m.requests_served for m in per_shard) == 200
        assert merged.cycles == sum(m.cycles for m in per_shard)
        assert merged.shuffle_count == sum(m.shuffle_count for m in per_shard)

    def test_engine_io_accounting_spans_shards(self):
        sharded = build(2)
        metrics = SimulationEngine(sharded).run(uniform(1024, 120, DeterministicRandom(4)))
        # Access-period loads are one random read per cycle on every
        # stepped shard; shuffle traffic is subtracted out.
        assert metrics.io_reads == metrics.cycles
        assert metrics.io_writes == 0

    def test_load_balance_striping_spreads_hotspot(self):
        sharded = build(4)
        SimulationEngine(sharded).run(
            hotspot(1024, 400, DeterministicRandom(6), hot_blocks=32)
        )
        balance = sharded.load_balance()
        assert sum(balance["per_shard_served"]) == 400
        # Striping interleaves the hot region over all shards.
        assert balance["imbalance"] < 1.5

    def test_latency_percentiles_merge(self):
        sharded = build(2)
        SimulationEngine(sharded).run(uniform(1024, 60, DeterministicRandom(7)))
        pct = sharded.latency_percentiles()
        assert set(pct) == {50, 90, 99}
        assert pct[50] <= pct[99]

    def test_no_fence_reporting_when_all_live(self):
        sharded = build(2)
        SimulationEngine(sharded).run(uniform(1024, 40, DeterministicRandom(8)))
        assert "fenced_shards" not in sharded.metrics.extra
        balance = sharded.load_balance()
        assert balance["fenced_shards"] == []
        assert balance["shards"] == [0, 1]


class TestFencedAggregation:
    """Fleet aggregation must not silently read dead shards' mirrors."""

    def _drain_some(self, sharded, count=60):
        SimulationEngine(sharded).run(uniform(1024, count, DeterministicRandom(9)))

    def test_metrics_skip_fenced_shard(self):
        sharded = build(2)
        self._drain_some(sharded)
        live_before = sharded.shard_metrics()
        sharded.fence_shard(1)
        merged = sharded.metrics
        assert merged.requests_served == live_before[0].requests_served
        assert merged.extra["fenced_shards"] == [1]

    def test_load_balance_skips_fenced_shard(self):
        sharded = build(4)
        self._drain_some(sharded, 120)
        sharded.fence_shard(2)
        balance = sharded.load_balance()
        assert balance["shards"] == [0, 1, 3]
        assert balance["fenced_shards"] == [2]
        assert len(balance["per_shard_served"]) == 3
        assert len(balance["per_shard_cycles"]) == 3
        assert len(balance["per_shard_clock_us"]) == 3

    def test_latency_percentiles_skip_fenced_shard(self):
        sharded = build(2)
        entries = [sharded.submit(r) for r in uniform(1024, 60, DeterministicRandom(9))]
        sharded.drain()
        shard0 = [entry.latency_cycles for entry in entries if entry.addr % 2 == 0]
        sharded.fence_shard(1)
        pct = sharded.latency_percentiles()
        from repro.sim.metrics import percentile

        assert pct == {int(q): percentile(shard0, q) for q in (50, 90, 99)}

    def test_parallel_executor_fenced_mirror_excluded(self):
        from repro.core.sharding import build_sharded_horam

        sharded = build_sharded_horam(
            n_blocks=1024,
            mem_tree_blocks=256,
            n_shards=2,
            seed=31,
            executor="parallel",
        )
        with sharded:
            self._drain_some(sharded, 40)
            mirror_served = sharded.shards[1].metrics.requests_served
            assert mirror_served > 0  # the stale mirror has real counts
            live_served = sharded.shards[0].metrics.requests_served
            sharded.fence_shard(1)
            merged = sharded.metrics
            assert merged.requests_served == live_served
            assert merged.extra["fenced_shards"] == [1]
            balance = sharded.load_balance()
            assert balance["shards"] == [0]
            assert balance["fenced_shards"] == [1]
            assert balance["per_shard_served"] == [live_served]


class TestLockstep:
    def test_lockstep_keeps_cycle_counts_equal(self):
        """In lockstep mode every shard runs the same number of cycles,
        so per-shard traffic reveals nothing about routing."""
        sharded = build(4)
        # All traffic targets shard 0 (addresses = 0 mod 4).
        for i in range(40):
            sharded.submit(Request.read(4 * i))
        sharded.drain()
        cycles = {shard.metrics.cycles for shard in sharded.shards}
        assert len(cycles) == 1

    def test_non_lockstep_steps_only_busy_shards(self):
        sharded = build(4, lockstep=False)
        for i in range(40):
            sharded.submit(Request.read(4 * i))
        sharded.drain()
        cycles = [shard.metrics.cycles for shard in sharded.shards]
        assert cycles[0] > 0
        assert cycles[1] == cycles[2] == cycles[3] == 0

    def test_lockstep_shape_is_c_1_every_cycle_per_shard(self):
        """Cycle shape stays exactly (c, 1) on every shard of a sharded
        run, including fully padded lockstep cycles."""
        sharded = build(2, n_blocks=512, mem=64)
        shapes: list[tuple[int, tuple[int, int]]] = []
        for shard in sharded.shards:
            inner_plan = shard.scheduler.plan

            def spy(rob, c, is_cached, inflight, _inner=inner_plan):
                plan = _inner(rob, c, is_cached, inflight)
                shapes.append((plan.c, plan.shape()))
                return plan

            shard.scheduler.plan = spy
        SimulationEngine(sharded).run(
            hotspot(512, 120, DeterministicRandom(8), hot_blocks=30)
        )
        assert shapes
        for c, shape in shapes:
            assert shape == (c, 1)


class TestDeterminism:
    def test_same_seed_same_results(self):
        def run_once():
            sharded = build(4, n_blocks=512, mem=64)
            stream = list(
                hotspot(512, 120, DeterministicRandom(12), hot_blocks=24, write_ratio=0.4)
            )
            entries = [sharded.submit(r) for r in stream]
            sharded.drain()
            return [e.result for e in entries], sharded.metrics.cycles

        first_results, first_cycles = run_once()
        second_results, second_cycles = run_once()
        assert first_results == second_results
        assert first_cycles == second_cycles


class TestEdgeCases:
    def test_n_blocks_not_divisible_by_shard_count(self):
        """Uneven striping (1000 blocks over 3 shards) serves verified."""
        sharded = build_sharded_horam(
            n_blocks=1000, mem_tree_blocks=96, n_shards=3, seed=5
        )
        counts = [shard.n_blocks for shard in sharded.shards]
        assert sum(counts) == 1000
        assert max(counts) - min(counts) == 1
        engine = SimulationEngine(sharded, verify=True)
        metrics = engine.run(
            uniform(1000, 150, DeterministicRandom(21), write_ratio=0.3)
        )
        assert metrics.requests_served == 150
        # The tail addresses live on the short shards; hit them explicitly.
        for addr in (997, 998, 999):
            assert sharded.read(addr) == sharded.codec.pad(initial_payload(addr))

    def test_single_shard_bit_identical_to_plain_horam(self):
        """ShardedHORAM with one shard is HybridORAM plus pass-through
        routing: same served log, cycles, metrics and results."""
        from repro.core.horam import build_horam

        seed = 9
        derived = DeterministicRandom(seed).spawn("shard-0").next_word()
        sharded = build_sharded_horam(
            n_blocks=512, mem_tree_blocks=128, n_shards=1, seed=seed
        )
        plain = build_horam(n_blocks=512, mem_tree_blocks=128, seed=derived)
        stream = list(
            hotspot(512, 200, DeterministicRandom(31), hot_blocks=24, write_ratio=0.3)
        )
        sharded_entries = [sharded.submit(r) for r in stream]
        sharded.drain()
        plain_entries = [plain.submit(r) for r in stream]
        plain.drain()
        assert [e.result for e in sharded_entries] == [e.result for e in plain_entries]
        assert sharded.shards[0].served_digest == plain.served_digest
        assert sharded.served_digest == (plain.served_digest,)
        assert sharded.metrics.to_dict() == plain.metrics.to_dict()
        assert sharded.hierarchy.clock.now_us == plain.hierarchy.clock.now_us

    def test_zero_request_drain(self):
        """Draining an idle fleet is a no-op: nothing retires, no cycles
        run, the clock stays at zero."""
        sharded = build(4)
        assert not sharded.has_work()
        assert sharded.drain() == []
        assert sharded.retire() == []
        assert sharded.metrics.cycles == 0
        assert sharded.hierarchy.clock.now_us == 0.0

    def test_served_digests_follow_routing(self):
        sharded = build(4)
        addrs = [3, 514, 1021]
        entries = [sharded.submit(Request.read(addr)) for addr in addrs]
        sharded.drain()
        # Callers get their global addresses back; each digest moved only
        # on the shard that served (shard 0 only padded).
        assert [entry.addr for entry in entries] == addrs
        moved = [digest != bytes(16) for digest in sharded.served_digest]
        assert moved == [False, True, True, True]


class TestFrontEndIntegration:
    def test_multiuser_front_end_on_sharded_backend(self):
        sharded = build(4, n_blocks=512, mem=128)
        front = MultiUserFrontEnd(sharded)
        front.register_user(0, allowed=range(0, 256))
        front.register_user(1, allowed=range(256, 512))
        for i in range(25):
            front.submit(0, Request.read(i))
            front.submit(1, Request.read(256 + i))
        retired = front.pump()
        assert len(retired) == 50
        assert front.stats(0).served == 25
        assert front.stats(1).served == 25
        for entry in retired:
            assert entry.result == sharded.codec.pad(initial_payload(entry.addr))

"""HybridORAM end-to-end protocol tests."""

import pytest

from repro.core.horam import build_horam
from repro.core.rob import EntryState
from repro.crypto.random import DeterministicRandom
from repro.oram.base import ORAMError, Request, initial_payload
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import TierTimes
from repro.workload.generators import WorkloadSpec, hotspot, make_workload


class TestSynchronousAPI:
    def test_read_initial(self, small_horam):
        got = small_horam.read(5)
        assert got == small_horam.codec.pad(initial_payload(5))

    def test_write_then_read(self, small_horam):
        small_horam.write(5, b"hello-horam")
        assert small_horam.read(5).rstrip(b"\x00") == b"hello-horam"

    def test_bounds(self, small_horam):
        with pytest.raises(ORAMError):
            small_horam.read(small_horam.n_blocks)


class TestBatchAPI:
    def test_submit_drain_preserves_order(self, small_horam):
        entries = [small_horam.submit(Request.read(a)) for a in (3, 1, 4, 1, 5)]
        retired = small_horam.drain()
        assert [e.addr for e in retired] == [3, 1, 4, 1, 5]
        assert all(e.state is EntryState.SERVED for e in entries)

    def test_read_after_write_same_batch(self, small_horam):
        small_horam.submit(Request.write(9, b"batched"))
        read_entry = small_horam.submit(Request.read(9))
        small_horam.drain()
        assert read_entry.result.rstrip(b"\x00") == b"batched"

    def test_duplicate_reads_served(self, small_horam):
        entries = [small_horam.submit(Request.read(2)) for _ in range(5)]
        small_horam.drain()
        expected = small_horam.codec.pad(initial_payload(2))
        assert all(e.result == expected for e in entries)

    def test_results_correct_under_load(self, small_horam):
        rng = DeterministicRandom(17)
        requests = list(
            hotspot(small_horam.n_blocks, 600, rng, hot_blocks=40, write_ratio=0.3)
        )
        SimulationEngine(small_horam, verify=True).run(requests)


class TestCycleMechanics:
    def test_every_cycle_issues_one_load(self, small_horam):
        for addr in range(20):
            small_horam.submit(Request.read(addr))
        small_horam.drain()
        m = small_horam.metrics
        assert m.scheduled_misses == m.cycles
        # Storage single reads == cycles (real misses + dummy loads).
        assert m.cycles == small_horam.scheduler.cycles_planned

    def test_period_triggers_shuffle(self, small_horam):
        period = small_horam.period_capacity
        rng = DeterministicRandom(2)
        requests = list(hotspot(small_horam.n_blocks, 4 * period, rng, hot_blocks=20))
        SimulationEngine(small_horam).run(requests)
        assert small_horam.metrics.shuffle_count >= 1
        assert small_horam.period_index == small_horam.metrics.shuffle_count

    def test_tree_never_exceeds_capacity(self, small_horam):
        rng = DeterministicRandom(3)
        requests = list(hotspot(small_horam.n_blocks, 500, rng, hot_blocks=30))
        SimulationEngine(small_horam).run(requests)
        assert (
            small_horam.metrics.tree_real_blocks_peak
            <= small_horam.period_capacity
        )

    def test_c_follows_stage_schedule(self, small_horam):
        # At period start c=1 (the cold stage).
        assert small_horam.current_c == 1

    def test_force_shuffle(self, small_horam):
        small_horam.read(1)
        small_horam.force_shuffle()
        assert small_horam.metrics.shuffle_count >= 1
        # Still functional after an early shuffle.
        assert small_horam.read(1) == small_horam.codec.pad(initial_payload(1))


class TestTimingComposition:
    def test_overlap_beats_serial(self):
        rng = DeterministicRandom(4)
        requests = list(hotspot(512, 300, rng, hot_blocks=30))
        over = build_horam(n_blocks=512, mem_tree_blocks=128, seed=1, overlap_io=True)
        m_over = SimulationEngine(over).run(list(requests))
        serial = build_horam(n_blocks=512, mem_tree_blocks=128, seed=1, overlap_io=False)
        m_serial = SimulationEngine(serial).run(list(requests))
        assert m_over.total_time_us < m_serial.total_time_us

    def test_shuffle_time_included_in_total(self, small_horam):
        rng = DeterministicRandom(5)
        requests = list(
            hotspot(small_horam.n_blocks, 4 * small_horam.period_capacity, rng, hot_blocks=20)
        )
        m = SimulationEngine(small_horam).run(requests)
        assert m.shuffle_count >= 1
        assert m.total_time_us > m.shuffle_time_us > 0
        assert m.access_time_us > 0


class TestSchedulerEffect:
    def test_hits_reduce_loads(self):
        # A hot-set workload must need far fewer loads than requests.
        oram = build_horam(n_blocks=1024, mem_tree_blocks=256, seed=2)
        rng = DeterministicRandom(6)
        requests = list(hotspot(1024, 1000, rng, hot_blocks=30, hot_probability=0.95))
        m = SimulationEngine(oram).run(requests)
        assert m.io_reads < len(requests) / 1.5

    def test_prefetch_window_reduces_dummies(self):
        rng = DeterministicRandom(7)
        requests = list(hotspot(1024, 800, rng, hot_blocks=40))
        narrow = build_horam(
            n_blocks=1024, mem_tree_blocks=256, seed=3, prefetch_window=2
        )
        m_narrow = SimulationEngine(narrow).run(list(requests))
        wide = build_horam(
            n_blocks=1024, mem_tree_blocks=256, seed=3, prefetch_window=30
        )
        m_wide = SimulationEngine(wide).run(list(requests))
        assert m_wide.dummy_hits <= m_narrow.dummy_hits

    def test_dummy_miss_prefetch_counted(self, small_horam):
        # All-cached workload: cycles still load (dummy misses) and those
        # loads prefetch real blocks.
        for _ in range(3):
            small_horam.submit(Request.read(1))
        small_horam.drain()
        m = small_horam.metrics
        assert m.dummy_misses > 0
        assert m.prefetched_hits > 0


class TestConfigPlumbing:
    def test_codec_slot_size_checked(self):
        from repro.core.config import HORAMConfig
        from repro.core.horam import HybridORAM
        from repro.crypto.ctr import StreamCipher
        from repro.oram.base import BlockCodec
        from repro.storage.hierarchy import StorageHierarchy

        config = HORAMConfig(n_blocks=256, mem_tree_blocks=64)
        hierarchy = StorageHierarchy(memory_slots=64, storage_slots=300, slot_bytes=99)
        with pytest.raises(ValueError):
            HybridORAM(config, hierarchy, codec=BlockCodec(16, StreamCipher(b"k")))

    def test_deterministic_replay(self):
        rng = DeterministicRandom(8)
        requests = list(hotspot(512, 200, rng, hot_blocks=20))
        runs = []
        for _ in range(2):
            oram = build_horam(n_blocks=512, mem_tree_blocks=128, seed=5)
            m = SimulationEngine(oram).run(list(requests))
            runs.append((m.io_reads, m.cycles, m.total_time_us))
        assert runs[0] == runs[1]


#: The layer calls the bench spine wraps per instance: (owner attribute
#: of the stack, or "" for the stack itself; method; the metric its call
#: count must equal, or None where only "called at least once" is exact).
SEAMS = {
    "serve_hits": ("", "serve_hits", None),
    "dummy_hit": ("", "dummy_hit", lambda m: m.dummy_hits),
    "fetch_path": ("", "fetch_path", lambda m: m.scheduled_misses - m.dummy_misses),
    "dummy_fetch_path": ("", "dummy_fetch_path", lambda m: m.dummy_misses),
    "run_shuffle_period": ("", "run_shuffle_period", lambda m: m.shuffle_count),
    "scheduler.plan": ("scheduler", "plan", lambda m: m.cycles),
    "cache.evict_all": ("cache", "evict_all", lambda m: m.shuffle_count),
    "storage.shuffle_into": ("storage", "shuffle_into", lambda m: m.shuffle_count),
}


class TestLayerSeams:
    """Every per-cycle layer call goes through the instance, so a wrapper
    installed on one stack (the spine's per-layer profiler) sees each
    call, including the ones inside a shuffle period."""

    @pytest.mark.parametrize("seam", sorted(SEAMS))
    def test_a_per_instance_wrapper_sees_every_call(self, seam):
        owner, name, expected = SEAMS[seam]
        oram = build_horam(n_blocks=512, mem_tree_blocks=64, seed=4)
        target = getattr(oram, owner) if owner else oram
        inner = getattr(target, name)
        calls = []

        def wrapped(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        setattr(target, name, wrapped)
        requests = hotspot(512, 600, DeterministicRandom(6), hot_blocks=12, write_ratio=0.3)
        m = SimulationEngine(oram, verify=True).run(list(requests))
        assert m.shuffle_count >= 2 and m.dummy_hits and m.dummy_misses
        assert calls
        if expected is not None:
            assert len(calls) == expected(m)


class TestDummyLoads:
    @pytest.mark.parametrize("ratio", [1, 4])
    @pytest.mark.parametrize("kind", ["hotspot", "uniform"])
    def test_every_dummy_load_is_counted_as_a_prefetch(self, kind, ratio):
        oram = build_horam(
            n_blocks=1024, mem_tree_blocks=128, seed=5, shuffle_period_ratio=ratio
        )
        requests = make_workload(WorkloadSpec(kind=kind, n_blocks=1024, count=600, seed=3))
        m = SimulationEngine(oram, verify=True).run(list(requests))
        assert m.shuffle_count >= 1 and m.dummy_misses > 0
        assert m.prefetched_hits == m.dummy_misses
        assert m.scheduled_misses == m.cycles

    def test_a_dummy_load_reads_one_slot_and_admits_its_block(self):
        oram = build_horam(n_blocks=512, mem_tree_blocks=64, seed=6)
        reads = oram.hierarchy.storage.snapshot().reads
        cached = oram.cache.real_blocks
        times = oram.dummy_fetch_path()
        assert isinstance(times, TierTimes) and times.io_us > 0
        assert oram.hierarchy.storage.snapshot().reads == reads + 1
        assert oram.cache.real_blocks == cached + 1


class TestShufflePeriod:
    def test_force_shuffle_accounts_one_period(self):
        oram = build_horam(n_blocks=512, mem_tree_blocks=64, seed=7)
        for request in hotspot(512, 20, DeterministicRandom(8), hot_blocks=8):
            oram.submit(request)
        oram.drain()
        start_us = oram.hierarchy.clock.now_us
        oram.force_shuffle()
        m = oram.metrics
        now_us = oram.hierarchy.clock.now_us
        assert m.shuffle_count == oram.period_index == 1
        assert oram._loads_this_period == 0 and oram.current_c == 1
        assert m.shuffle_time_us == now_us - start_us > 0
        assert m.evict_time_us > 0 and m.shuffle_bytes_written > 0
        assert oram.cache.real_blocks == 0
        assert oram.hierarchy.memory_channel.busy_until_us == now_us
        assert oram.hierarchy.io_channel.busy_until_us == now_us
        assert m.extra["partitions_shuffled"] > 0

    def test_an_idle_period_still_records_its_counters(self):
        """The shuffle counters enter ``metrics.extra`` on the first
        period even at zero, so every stack's metrics keep one shape."""
        oram = build_horam(n_blocks=512, mem_tree_blocks=64, seed=7)
        oram.force_shuffle()
        assert oram.metrics.extra["blocks_appended"] == 0
        assert "partitions_shuffled" in oram.metrics.extra
        assert "ready_demotions" not in oram.metrics.extra

"""Path ORAM baseline tests: correctness, sizing, stash health, timing."""

import pytest

from repro.crypto.random import DeterministicRandom
from repro.oram.base import ORAMError, initial_payload
from repro.oram.factory import build_path_oram
from repro.security.statistics import chi_square_uniform_test, fold_histogram
from repro.workload.generators import hotspot


class TestCorrectness:
    def test_read_initial_content(self, small_path_oram):
        for addr in (0, 100, 255):
            payload = small_path_oram.read(addr)
            assert payload == small_path_oram.codec.pad(initial_payload(addr))

    def test_write_then_read(self, small_path_oram):
        small_path_oram.write(7, b"updated!")
        assert small_path_oram.read(7).rstrip(b"\x00") == b"updated!"

    def test_interleaved_ops_match_dict(self, small_path_oram):
        reference = {}
        rng = DeterministicRandom(10)
        for _ in range(300):
            addr = rng.randrange(small_path_oram.n_blocks)
            if rng.random() < 0.5:
                data = b"v%010d" % rng.randrange(10**9)
                small_path_oram.write(addr, data)
                reference[addr] = small_path_oram.codec.pad(data)
            else:
                want = reference.get(
                    addr, small_path_oram.codec.pad(initial_payload(addr))
                )
                assert small_path_oram.read(addr) == want

    def test_address_bounds(self, small_path_oram):
        with pytest.raises(ORAMError):
            small_path_oram.read(small_path_oram.n_blocks)


class TestSizing:
    def test_paper_level_split(self):
        # 64 MB set with 8 MB memory: 4 storage levels (Table 5-1 / eq 5-2).
        oram = build_path_oram(n_blocks=1 << 16, memory_blocks=1 << 13, seed=1)
        assert oram.storage_levels == 4

    def test_quick_scale_level_split(self, small_path_oram):
        # N=256, memory=64: tree has 7 levels, memory holds top 4
        # ((2^4-1)*4 = 60 <= 64), so 3 levels spill to storage.
        assert small_path_oram.geometry.levels == 7
        assert small_path_oram.tree.mem_levels == 4
        assert small_path_oram.storage_levels == 3

    def test_memory_budget_too_small(self):
        from repro.oram.base import CapacityError

        with pytest.raises(CapacityError):
            build_path_oram(n_blocks=256, memory_blocks=2, seed=1)


class TestStashHealth:
    def test_stash_stays_bounded(self, small_path_oram):
        rng = DeterministicRandom(5)
        for request in hotspot(small_path_oram.n_blocks, 400, rng):
            small_path_oram.read(request.addr)
        # At ~50% utilization the stash should stay tiny.
        assert small_path_oram.stash.peak < 40


class TestTiming:
    def test_clock_advances_per_access(self, small_path_oram):
        before = small_path_oram.clock.now_us
        small_path_oram.read(0)
        after = small_path_oram.clock.now_us
        assert after > before

    def test_access_cost_matches_level_arithmetic(self, small_path_oram):
        # Per access: storage_levels bucket reads + writes on the slow
        # device, each one positioning + 4 KB transfer.
        device = small_path_oram.hierarchy.storage.device
        bucket_bytes = 4 * small_path_oram.hierarchy.modeled_slot_bytes
        expected_io = small_path_oram.storage_levels * (
            device.access_us(bucket_bytes, write=False)
            + device.access_us(bucket_bytes, write=True)
        )
        io_before = small_path_oram.hierarchy.storage.snapshot()
        small_path_oram.read(0)
        delta = small_path_oram.hierarchy.storage.snapshot().delta(io_before)
        assert delta.busy_us == pytest.approx(expected_io, rel=0.01)

    def test_io_slots_per_access(self, small_path_oram):
        io_before = small_path_oram.hierarchy.storage.snapshot()
        small_path_oram.read(1)
        delta = small_path_oram.hierarchy.storage.snapshot().delta(io_before)
        z, levels = 4, small_path_oram.storage_levels
        assert delta.reads == z * levels
        assert delta.writes == z * levels


class TestObliviousness:
    def test_leaf_choices_spread_uniformly(self):
        oram = build_path_oram(n_blocks=512, memory_blocks=128, seed=3)
        # Hammer one single address; the observed leaves must still look
        # uniform thanks to remapping.
        for _ in range(400):
            oram.read(42)
        counts = fold_histogram(oram.tree.leaf_counts, 8)
        assert sum(counts) == 400
        result = chi_square_uniform_test(counts)
        assert result.p_value > 0.001

    def test_same_addr_different_paths(self):
        oram = build_path_oram(n_blocks=512, memory_blocks=128, seed=3)
        paths = []
        for _ in range(2):
            before = list(oram.tree.leaf_counts)
            oram.read(42)
            (leaf,) = [i for i, n in enumerate(oram.tree.leaf_counts) if n != before[i]]
            paths.append(leaf)
        first, second = paths
        # Not a hard guarantee for a single pair, but with 64+ leaves a
        # collision here is <2%; the seed is fixed so this is stable.
        assert first != second

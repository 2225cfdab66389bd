"""Position map tests."""

import pytest

from repro.crypto.random import DeterministicRandom
from repro.oram.factory import build_path_oram
from repro.oram.position_map import ArrayPositionMap, DictPositionMap
from repro.security.statistics import chi_square_uniform_test


class TestArrayPositionMap:
    def test_all_addresses_mapped(self):
        pm = ArrayPositionMap(100, leaves=16, rng=DeterministicRandom(1))
        for addr in range(100):
            assert 0 <= pm.get(addr) < 16

    def test_remap_changes_and_is_uniformish(self):
        pm = ArrayPositionMap(1, leaves=64, rng=DeterministicRandom(1))
        rng = DeterministicRandom(2)
        leaves = {pm.remap(0, rng) for _ in range(200)}
        assert len(leaves) > 40  # covers most of the 64 leaves

    def test_set_validates(self):
        pm = ArrayPositionMap(4, leaves=8, rng=DeterministicRandom(1))
        pm.set(0, 7)
        assert pm.get(0) == 7
        with pytest.raises(ValueError):
            pm.set(0, 8)

    def test_secure_bytes(self):
        pm = ArrayPositionMap(1000, leaves=8, rng=DeterministicRandom(1))
        assert pm.secure_bytes() == 4000

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayPositionMap(0, leaves=4, rng=DeterministicRandom(1))
        with pytest.raises(ValueError):
            ArrayPositionMap(4, leaves=0, rng=DeterministicRandom(1))


    def test_set_then_get(self):
        pm = ArrayPositionMap(256, leaves=128, rng=DeterministicRandom(1))
        pm.set(10, 77)
        assert pm.get(10) == 77

    def test_neighbors_unaffected_by_set(self):
        pm = ArrayPositionMap(256, leaves=128, rng=DeterministicRandom(1))
        before = [pm.get(addr) for addr in range(256)]
        pm.set(10, (before[10] + 1) % 128)
        assert [pm.get(addr) for addr in range(256) if addr != 10] == [
            leaf for addr, leaf in enumerate(before) if addr != 10
        ]

    def test_many_updates_consistent(self):
        pm = ArrayPositionMap(512, leaves=128, rng=DeterministicRandom(3))
        reference = [pm.get(addr) for addr in range(512)]
        rng = DeterministicRandom(9)
        for _ in range(300):
            addr = rng.randrange(512)
            if rng.random() < 0.3:
                leaf = rng.randrange(128)
                pm.set(addr, leaf)
                reference[addr] = leaf
            elif rng.random() < 0.5:
                reference[addr] = pm.remap(addr, rng)
            else:
                assert pm.get(addr) == reference[addr]
        assert [pm.get(addr) for addr in range(512)] == reference

    def test_remap_stays_in_range(self):
        pm = ArrayPositionMap(4, leaves=8, rng=DeterministicRandom(1))
        rng = DeterministicRandom(4)
        for _ in range(100):
            leaf = pm.remap(2, rng)
            assert 0 <= leaf < 8
            assert pm.get(2) == leaf

    def test_set_rejects_negative_leaf(self):
        pm = ArrayPositionMap(4, leaves=8, rng=DeterministicRandom(1))
        with pytest.raises(ValueError):
            pm.set(0, -1)

    def test_len_is_the_address_count(self):
        assert len(ArrayPositionMap(37, leaves=8, rng=DeterministicRandom(1))) == 37

    def test_same_seed_same_initial_leaves(self):
        a = ArrayPositionMap(256, leaves=64, rng=DeterministicRandom(11))
        b = ArrayPositionMap(256, leaves=64, rng=DeterministicRandom(11))
        c = ArrayPositionMap(256, leaves=64, rng=DeterministicRandom(12))
        a_leaves, b_leaves, c_leaves = (
            [pm.get(addr) for addr in range(256)] for pm in (a, b, c)
        )
        assert a_leaves == b_leaves
        assert a_leaves != c_leaves

    def test_initial_leaves_uniform(self):
        pm = ArrayPositionMap(4096, leaves=16, rng=DeterministicRandom(5))
        counts = [0] * 16
        for addr in range(4096):
            counts[pm.get(addr)] += 1
        assert chi_square_uniform_test(counts).p_value > 0.001

    def test_path_oram_keeps_a_flat_map(self):
        # The paper's Section 5.3 runs the naive (non-recursive) map: one
        # controller-side entry per block, charged no memory time.
        oram = build_path_oram(n_blocks=512, memory_blocks=128, seed=1)
        assert len(oram.position_map) == 512
        assert oram.position_map.secure_bytes() == 4 * 512
        assert oram.position_map.leaves == oram.geometry.leaves


class TestDictPositionMap:
    def test_absence_means_not_cached(self):
        pm = DictPositionMap(leaves=8)
        assert 3 not in pm
        assert pm.get(3) is None

    def test_set_and_remove(self):
        pm = DictPositionMap(leaves=8)
        pm.set(3, 5)
        assert 3 in pm and pm.get(3) == 5
        assert pm.remove(3) == 5
        assert 3 not in pm

    def test_remap_inserts(self):
        pm = DictPositionMap(leaves=8)
        leaf = pm.remap(9, DeterministicRandom(1))
        assert pm.get(9) == leaf

    def test_clear_and_addresses(self):
        pm = DictPositionMap(leaves=8)
        pm.set(1, 0)
        pm.set(2, 1)
        assert sorted(pm.addresses()) == [1, 2]
        pm.clear()
        assert len(pm) == 0

    def test_leaf_validation(self):
        pm = DictPositionMap(leaves=8)
        with pytest.raises(ValueError):
            pm.set(0, 9)

    def test_secure_bytes_tracks_occupancy(self):
        pm = DictPositionMap(leaves=8)
        assert pm.secure_bytes() == 0
        pm.set(1, 1)
        assert pm.secure_bytes() == 12

    def test_set_overwrites(self):
        pm = DictPositionMap(leaves=8)
        pm.set(4, 1)
        pm.set(4, 6)
        assert pm.get(4) == 6
        assert len(pm) == 1

    def test_remove_absent_raises(self):
        pm = DictPositionMap(leaves=8)
        with pytest.raises(KeyError):
            pm.remove(3)

    def test_many_updates_match_a_dict(self):
        pm = DictPositionMap(leaves=32)
        reference = {}
        rng = DeterministicRandom(6)
        for _ in range(400):
            addr = rng.randrange(64)
            roll = rng.random()
            if roll < 0.4:
                reference[addr] = pm.remap(addr, rng)
            elif roll < 0.6 and addr in reference:
                assert pm.remove(addr) == reference.pop(addr)
            else:
                assert pm.get(addr) == reference.get(addr)
                assert (addr in pm) == (addr in reference)
        assert sorted(pm.addresses()) == sorted(reference)
        assert pm.secure_bytes() == 12 * len(reference)

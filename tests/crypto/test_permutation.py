"""Permutation tests: bijectivity, inverses, refresh behavior."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.permutation import RandomPermutation
from repro.crypto.random import DeterministicRandom


class TestRandomPermutation:
    def test_bijection(self):
        perm = RandomPermutation(100, DeterministicRandom(5))
        slots = [perm.forward(x) for x in range(100)]
        assert sorted(slots) == list(range(100))

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30, deadline=None)
    def test_bijection_property(self, domain, seed):
        perm = RandomPermutation(domain, DeterministicRandom(seed))
        assert sorted(perm.forward(x) for x in range(domain)) == list(range(domain))

    @pytest.mark.parametrize("domain", [1, 2, 97, 321])
    def test_forward_of_inverse(self, domain):
        perm = RandomPermutation(domain, DeterministicRandom(5))
        for y in range(domain):
            assert perm.forward(perm.inverse(y)) == y

    def test_domain_one(self):
        perm = RandomPermutation(1, DeterministicRandom(5))
        assert perm.forward(0) == perm.inverse(0) == 0
        perm.refresh()
        assert perm.as_sequence() == (0,)

    def test_same_seed_same_permutation(self):
        # Replays and checkpoints rebuild the permutation list from the seed.
        a = RandomPermutation(256, DeterministicRandom(11))
        b = RandomPermutation(256, DeterministicRandom(11))
        assert a.as_sequence() == b.as_sequence()
        a.refresh()
        b.refresh()
        assert a.as_sequence() == b.as_sequence()

    def test_seeds_give_different_permutations(self):
        a = RandomPermutation(256, DeterministicRandom(1))
        b = RandomPermutation(256, DeterministicRandom(2))
        assert a.as_sequence() != b.as_sequence()

    def test_refresh_keeps_lookups_consistent(self):
        perm = RandomPermutation(97, DeterministicRandom(5))
        perm.swap_slots(perm.forward(0), perm.forward(1))
        perm.refresh()
        for x in range(97):
            assert perm.inverse(perm.forward(x)) == x

    def test_inverse_consistency(self):
        perm = RandomPermutation(64, DeterministicRandom(5))
        for x in range(64):
            assert perm.inverse(perm.forward(x)) == x

    def test_refresh_changes_mapping(self):
        perm = RandomPermutation(128, DeterministicRandom(5))
        before = list(perm.as_sequence())
        perm.refresh()
        after = list(perm.as_sequence())
        assert before != after
        assert sorted(after) == list(range(128))

    def test_swap_slots(self):
        perm = RandomPermutation(16, DeterministicRandom(5))
        a, b = perm.forward(3), perm.forward(7)
        perm.swap_slots(a, b)
        assert perm.forward(3) == b
        assert perm.forward(7) == a
        assert perm.inverse(a) == 7
        assert perm.inverse(b) == 3

    def test_assign_bulk(self):
        perm = RandomPermutation(8, DeterministicRandom(5))
        perm.assign((x, (x + 1) % 8) for x in range(8))
        for x in range(8):
            assert perm.forward(x) == (x + 1) % 8
            assert perm.inverse((x + 1) % 8) == x

    def test_uniformity_over_seeds(self):
        # Element 0's slot over many fresh permutations should spread out.
        counts = [0] * 8
        for seed in range(400):
            perm = RandomPermutation(8, DeterministicRandom(seed))
            counts[perm.forward(0)] += 1
        assert min(counts) > 20  # expectation 50 per slot

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            RandomPermutation(0, DeterministicRandom(1))

    def test_rejects_negative_domain(self):
        with pytest.raises(ValueError):
            RandomPermutation(-1, DeterministicRandom(1))

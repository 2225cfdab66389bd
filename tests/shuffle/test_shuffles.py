"""Shuffle algorithm tests: permutation property, obliviousness, costs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.random import DeterministicRandom
from repro.shuffle import get_shuffle, shuffle_names
from repro.shuffle.bitonic import BitonicShuffle
from repro.shuffle.cache_shuffle import CacheShuffle
from repro.shuffle.fisher_yates import FisherYatesShuffle
from repro.shuffle.melbourne import MelbourneShuffle

ALL_ALGORITHMS = [CacheShuffle, MelbourneShuffle, BitonicShuffle, FisherYatesShuffle]


@pytest.fixture(params=ALL_ALGORITHMS, ids=lambda c: c.name)
def algorithm(request):
    return request.param()


class TestPermutationProperty:
    @given(st.lists(st.integers(), max_size=80))
    @settings(max_examples=25, deadline=None)
    def test_output_is_permutation(self, items):
        for cls in ALL_ALGORITHMS:
            result = cls().shuffle(items, DeterministicRandom(9))
            assert sorted(result.items) == sorted(items)

    @pytest.mark.parametrize("cls", ALL_ALGORITHMS, ids=lambda c: c.name)
    @given(
        domain=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=20, deadline=None)
    def test_bijection_for_any_size_and_seed(self, cls, domain, seed):
        result = cls().shuffle(list(range(domain)), DeterministicRandom(seed))
        assert sorted(result.items) == list(range(domain))

    def test_seeds_give_different_permutations(self, algorithm):
        items = list(range(256))
        a = type(algorithm)().shuffle(items, DeterministicRandom(1)).items
        b = type(algorithm)().shuffle(items, DeterministicRandom(2)).items
        assert a != b

    def test_empty_and_singleton(self, algorithm):
        assert algorithm.shuffle([], DeterministicRandom(1)).items == []
        assert algorithm.shuffle(["x"], DeterministicRandom(1)).items == ["x"]

    def test_actually_shuffles(self, algorithm):
        items = list(range(200))
        result = algorithm.shuffle(items, DeterministicRandom(2))
        assert result.items != items  # P(identity) is astronomically small

    def test_deterministic_given_rng(self, algorithm):
        items = list(range(50))
        a = type(algorithm)().shuffle(items, DeterministicRandom(3)).items
        b = type(algorithm)().shuffle(items, DeterministicRandom(3)).items
        assert a == b

    def test_first_position_roughly_uniform(self, algorithm):
        # Over many seeds, element 0 of the output should vary broadly.
        counts = {}
        for seed in range(120):
            out = type(algorithm)().shuffle(list(range(6)), DeterministicRandom(seed)).items
            counts[out[0]] = counts.get(out[0], 0) + 1
        assert len(counts) == 6
        assert max(counts.values()) < 50  # expectation 20


class TestCosts:
    def test_moves_reported(self, algorithm):
        result = algorithm.shuffle(list(range(100)), DeterministicRandom(4))
        assert result.moves > 0

    def test_cache_shuffle_linear_moves(self):
        result = CacheShuffle().shuffle(list(range(1000)), DeterministicRandom(4))
        assert result.moves == pytest.approx(3000, rel=0.01)

    def test_bitonic_moves_superlinear(self):
        small = BitonicShuffle().shuffle(list(range(256)), DeterministicRandom(4)).moves
        big = BitonicShuffle().shuffle(list(range(1024)), DeterministicRandom(4)).moves
        # n log^2 n growth: 4x the items -> more than 4x the moves.
        assert big > 4 * small

    def test_expected_moves_close_to_actual(self):
        for cls in (CacheShuffle, FisherYatesShuffle, BitonicShuffle):
            algorithm = cls()
            actual = algorithm.shuffle(list(range(512)), DeterministicRandom(4)).moves
            assert actual <= algorithm.expected_moves(512) * 1.05

    def test_melbourne_padding_costs_more_than_cache(self):
        n = 1000
        melbourne = MelbourneShuffle().shuffle(list(range(n)), DeterministicRandom(4))
        cache = CacheShuffle().shuffle(list(range(n)), DeterministicRandom(4))
        assert melbourne.moves > cache.moves


class TestMelbourneSpecifics:
    def test_rejects_pad_factor_below_one(self):
        with pytest.raises(ValueError):
            MelbourneShuffle(pad_factor=0.9)

    def test_tight_padding_retries_then_fails(self):
        # pad_factor barely above 1 cannot absorb bucket skew for long
        # inputs; the implementation must fail loudly, not loop forever.
        shuffle = MelbourneShuffle(pad_factor=1.01, max_retries=2)
        with pytest.raises(RuntimeError):
            for seed in range(50):
                shuffle.shuffle(list(range(2000)), DeterministicRandom(seed))

    def test_retries_counted(self):
        result = MelbourneShuffle(pad_factor=4.0).shuffle(
            list(range(100)), DeterministicRandom(1)
        )
        assert result.retries == 0


class TestBitonicObliviousness:
    def test_compare_exchange_count_data_independent(self):
        # The whole point of the network: its cost depends only on n.
        moves = {
            BitonicShuffle().shuffle(items, DeterministicRandom(s)).moves
            for s, items in enumerate([list(range(100)), list(range(100, 200)), [0] * 100])
        }
        assert len(moves) == 1


class TestRegistry:
    def test_names(self):
        assert set(shuffle_names()) == {"cache", "melbourne", "bitonic", "fisher-yates"}

    def test_get_by_name(self):
        for name in shuffle_names():
            assert get_shuffle(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_shuffle("riffle")

    def test_obliviousness_flags(self):
        assert get_shuffle("cache").oblivious
        assert get_shuffle("melbourne").oblivious
        assert get_shuffle("bitonic").oblivious
        assert not get_shuffle("fisher-yates").oblivious


class TestIndexShuffle:
    """The storage layer shuffles row indices and gathers its columns: for
    every registered algorithm that must be the order (and the RNG
    position) shuffling the items themselves gives."""

    @pytest.mark.parametrize("name", shuffle_names())
    @pytest.mark.parametrize("n", [0, 1, 2, 37, 256, 300])
    def test_shuffling_indices_then_gathering_is_shuffling_items(self, name, n):
        items = [(n - index, f"record-{index}".encode()) for index in range(n)]
        by_items, by_index = DeterministicRandom(n + 5), DeterministicRandom(n + 5)
        expected = get_shuffle(name).shuffle(items, by_items)
        result = get_shuffle(name).shuffle(range(n), by_index)
        assert [items[row] for row in result.items] == expected.items
        assert result.moves == expected.moves
        assert by_index.state_dict() == by_items.state_dict()

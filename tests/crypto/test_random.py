"""Deterministic CSPRNG tests."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import random as drbg
from repro.crypto.random import DeterministicRandom
from repro.shuffle.cache_shuffle import CacheShuffle
from repro.shuffle.melbourne import _DUMMY, MelbourneShuffle
from repro.shuffle.base import ShuffleResult


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = DeterministicRandom(99)
        b = DeterministicRandom(99)
        assert [a.next_word() for _ in range(50)] == [b.next_word() for _ in range(50)]

    def test_different_seeds_differ(self):
        a = DeterministicRandom(1)
        b = DeterministicRandom(2)
        assert [a.next_word() for _ in range(4)] != [b.next_word() for _ in range(4)]

    def test_seed_types(self):
        for seed in (0, 123456789, "label", b"bytes-seed"):
            rng = DeterministicRandom(seed)
            assert isinstance(rng.next_word(), int)

    def test_spawn_independent_streams(self):
        parent = DeterministicRandom(7)
        child_a = parent.spawn("a")
        child_b = parent.spawn("b")
        assert child_a.next_word() != child_b.next_word()
        # Spawning is deterministic in (seed, label).
        again = DeterministicRandom(7).spawn("a")
        assert DeterministicRandom(7).spawn("a").next_word() == again.next_word()


class TestDraws:
    def test_randrange_bounds(self):
        rng = DeterministicRandom(3)
        for bound in (1, 2, 3, 10, 1000, 1 << 40):
            for _ in range(20):
                assert 0 <= rng.randrange(bound) < bound

    def test_randrange_rejects_nonpositive(self):
        rng = DeterministicRandom(3)
        with pytest.raises(ValueError):
            rng.randrange(0)

    def test_randint_inclusive(self):
        rng = DeterministicRandom(3)
        values = {rng.randint(5, 7) for _ in range(200)}
        assert values == {5, 6, 7}

    def test_random_unit_interval(self):
        rng = DeterministicRandom(3)
        for _ in range(100):
            x = rng.random()
            assert 0.0 <= x < 1.0

    def test_randbits(self):
        rng = DeterministicRandom(3)
        assert rng.randbits(0) == 0
        for bits in (1, 8, 64, 100):
            assert 0 <= rng.randbits(bits) < 1 << bits

    def test_choice(self):
        rng = DeterministicRandom(3)
        population = ["a", "b", "c"]
        assert rng.choice(population) in population
        with pytest.raises(IndexError):
            rng.choice([])

    def test_token_sizes(self):
        rng = DeterministicRandom(3)
        for size in (1, 16, 17, 64):
            assert len(rng.token(size)) == size


class TestShuffleAndSample:
    @given(st.lists(st.integers(), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_shuffle_is_permutation(self, items):
        rng = DeterministicRandom(4)
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == sorted(items)

    def test_sample_distinct(self):
        rng = DeterministicRandom(4)
        picked = rng.sample(range(100), 30)
        assert len(set(picked)) == 30
        assert all(0 <= p < 100 for p in picked)

    def test_sample_rejects_oversize(self):
        rng = DeterministicRandom(4)
        with pytest.raises(ValueError):
            rng.sample([1, 2], 3)

    def test_permutation_uniform_first_element(self):
        counts = [0] * 4
        for seed in range(400):
            rng = DeterministicRandom(seed)
            counts[rng.permutation(4)[0]] += 1
        assert min(counts) > 60  # expectation 100


class TestWeightedChoice:
    def test_respects_weights(self):
        rng = DeterministicRandom(5)
        picks = [rng.weighted_choice([0.0, 1.0, 0.0]) for _ in range(50)]
        assert set(picks) == {1}

    def test_rejects_bad_weights(self):
        rng = DeterministicRandom(5)
        with pytest.raises(ValueError):
            rng.weighted_choice([0.0, 0.0])
        with pytest.raises(ValueError):
            rng.weighted_choice([-1.0, 2.0])

    def test_rough_proportions(self):
        rng = DeterministicRandom(5)
        picks = [rng.weighted_choice([1, 3]) for _ in range(2000)]
        share = picks.count(1) / len(picks)
        assert 0.68 < share < 0.82


# ---------------------------------------------------------------- draw parity
# The batched draws must be the scalar loops they replace: same values,
# same words consumed, same stream position (checkpoints serialize it).
# The references below are those loops, one randrange call per draw.


def scalar_randrange_many(rng, bound, count):
    return [rng.randrange(bound) for _ in range(count)]


def scalar_shuffle(rng, seq):
    for i in range(len(seq) - 1, 0, -1):
        j = rng.randrange(i + 1)
        seq[i], seq[j] = seq[j], seq[i]


def reference_cache_shuffle(items, rng, bucket_count):
    """CacheShuffle as a loop of scalar draws."""
    n = len(items)
    if n <= 1:
        return ShuffleResult(items=list(items), moves=0)
    buckets = [[] for _ in range(bucket_count)]
    for item in items:
        buckets[rng.randrange(bucket_count)].append(item)
    moves = n
    order = list(range(bucket_count))
    scalar_shuffle(rng, order)
    output = []
    for index in order:
        bucket = buckets[index]
        scalar_shuffle(rng, bucket)
        output.extend(bucket)
        moves += 2 * len(bucket)
    return ShuffleResult(items=output, moves=moves)


def reference_melbourne(items, rng, pad_factor=2.0, max_retries=16):
    """MelbourneShuffle as a loop of scalar draws."""
    n = len(items)
    if n <= 1:
        return ShuffleResult(items=list(items), moves=0)
    bucket_count = max(1, math.isqrt(n))
    capacity = max(1, math.ceil(pad_factor * n / bucket_count))
    retries = 0
    while True:
        assignment = [rng.randrange(bucket_count) for _ in range(n)]
        counts = [0] * bucket_count
        for target in assignment:
            counts[target] += 1
        if max(counts) <= capacity:
            break
        retries += 1
        if retries > max_retries:
            raise RuntimeError("overflow")
    buckets = [[] for _ in range(bucket_count)]
    for item, target in zip(items, assignment):
        buckets[target].append(item)
    moves = bucket_count * capacity
    output = []
    for bucket in buckets:
        padded = bucket + [_DUMMY] * (capacity - len(bucket))
        moves += len(padded)
        real = [item for item in padded if item is not _DUMMY]
        scalar_shuffle(rng, real)
        output.extend(real)
        moves += len(real)
    return ShuffleResult(items=output, moves=moves, retries=retries)


def twins(seed=21, held=0):
    """Two streams at the same position, ``held`` words into a block."""
    a, b = DeterministicRandom(seed), DeterministicRandom(seed)
    for rng in (a, b):
        for _ in range(held):
            rng.next_word()
    return a, b


BOUNDS = [1, 2, 3, 16, 17, 91, 2**32, 2**33 + 5, 2**63 + 1, 2**64, 2**64 + 1]
COUNTS = [0, 1, 7, drbg._NP_MIN_DRAWS - 1, drbg._NP_MIN_DRAWS, 300]


class TestRandrangeManyParity:
    @pytest.mark.parametrize("held", [0, 3])
    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_equals_scalar_loop(self, kernel_form, bound, count, held):
        batched, scalar = twins(held=held)
        assert batched.randrange_many(bound, count) == scalar_randrange_many(scalar, bound, count)
        assert batched.state_dict() == scalar.state_dict()
        # ...and the streams stay in step afterwards.
        assert batched.next_word() == scalar.next_word()

    @pytest.mark.parametrize("bound", [16, 91, 2**33 + 5])
    def test_state_round_trip_in_the_middle_of_a_batch(self, kernel_form, bound):
        whole = DeterministicRandom(5)
        expected = whole.randrange_many(bound, 500)
        first = DeterministicRandom(5)
        head = first.randrange_many(bound, 211)
        resumed = DeterministicRandom(5)
        resumed.load_state(first.state_dict())
        tail = resumed.randrange_many(bound, 289)
        assert head + tail == expected
        assert resumed.state_dict() == whole.state_dict()

    def test_rejects_nonpositive_bound(self, kernel_form):
        with pytest.raises(ValueError):
            DeterministicRandom(1).randrange_many(0, 5)

    def test_between_calls_the_buffer_holds_less_than_a_block(self, kernel_form):
        rng = DeterministicRandom(8)
        for count in (1, 64, 500, 3):
            rng.randrange_many(17, count)
            assert len(rng.state_dict()["buffer"]) < 8


class TestShuffleParity:
    @pytest.mark.parametrize("held", [0, 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 16, 17, 100, 257])
    def test_shuffle_equals_scalar_loop(self, n, held):
        tight, scalar = twins(held=held)
        a, b = list(range(n)), list(range(n))
        tight.shuffle(a)
        scalar_shuffle(scalar, b)
        assert a == b
        assert tight.state_dict() == scalar.state_dict()

    def test_shuffle_each_equals_one_shuffle_after_another(self):
        together, apart = twins(held=2)
        sizes = [16, 0, 1, 15, 17, 40, 2]
        a = [list(range(size)) for size in sizes]
        b = [list(range(size)) for size in sizes]
        together.shuffle_each(a)
        for seq in b:
            scalar_shuffle(apart, seq)
        assert a == b
        assert together.state_dict() == apart.state_dict()
        assert len(together.state_dict()["buffer"]) < 8

    def test_permutation_and_sample_unchanged(self):
        tight, scalar = twins()
        order = list(range(33))
        scalar_shuffle(scalar, order)
        assert tight.permutation(33) == order
        assert tight.state_dict() == scalar.state_dict()

    def test_a_failing_swap_leaves_the_scalar_position(self):
        """A loop that stops early leaves the stream where the scalar one does."""
        tight, scalar = twins()
        with pytest.raises(TypeError):
            tight.shuffle(tuple(range(50)))
        with pytest.raises(TypeError):
            scalar_shuffle(scalar, tuple(range(50)))
        assert tight.state_dict() == scalar.state_dict()


class TestShuffleAlgorithmParity:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 63, 64, 256, 530])
    def test_cache_shuffle_equals_reference(self, kernel_form, n):
        items = [(addr, bytes([addr % 251])) for addr in range(n)]
        fast, reference = twins(seed=n)
        got = CacheShuffle().shuffle(items, fast)
        want = reference_cache_shuffle(items, reference, max(1, math.isqrt(n)))
        assert (got.items, got.moves) == (want.items, want.moves)
        assert fast.state_dict() == reference.state_dict()

    def test_cache_shuffle_fixed_buckets_equals_reference(self, kernel_form):
        items = list(range(300))
        fast, reference = twins(held=1)
        got = CacheShuffle(buckets=7).shuffle(items, fast)
        want = reference_cache_shuffle(items, reference, 7)
        assert (got.items, got.moves) == (want.items, want.moves)
        assert fast.state_dict() == reference.state_dict()

    @pytest.mark.parametrize("n", [0, 2, 30, 200])
    def test_melbourne_equals_reference(self, kernel_form, n):
        items = list(range(n))
        fast, reference = twins(seed=n + 1)
        got = MelbourneShuffle().shuffle(items, fast)
        want = reference_melbourne(items, reference)
        assert (got.items, got.moves, got.retries) == (want.items, want.moves, want.retries)
        assert fast.state_dict() == reference.state_dict()

    def test_melbourne_retries_equal_reference(self, kernel_form):
        # A tight pad factor forces redraws of the whole assignment.
        items = list(range(400))
        for seed in range(6):
            fast, reference = twins(seed=seed)
            try:
                got = MelbourneShuffle(pad_factor=1.25, max_retries=40).shuffle(items, fast)
            except RuntimeError:
                with pytest.raises(RuntimeError):
                    reference_melbourne(items, reference, pad_factor=1.25, max_retries=40)
                continue
            want = reference_melbourne(items, reference, pad_factor=1.25, max_retries=40)
            assert (got.items, got.retries) == (want.items, want.retries)
            assert fast.state_dict() == reference.state_dict()

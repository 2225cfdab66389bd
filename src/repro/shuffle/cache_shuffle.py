"""CacheShuffle (Patel, Persiano & Yeo, 2017) -- the paper's default.

The K-oblivious CacheShuffle sprays items into K buckets using secret
randomness, pulls each bucket into the private cache, permutes it there,
and concatenates the (randomly ordered) buckets.  Because the spray
targets are secret and uniform, an adversary observing which bucket each
input element lands in learns nothing about the final permutation beyond
what the (public) bucket sizes reveal -- and bucket sizes concentrate
tightly around n/K.

This implementation performs the two passes explicitly and counts every
element copy so the simulator can charge memory time:

1. *Spray pass*: each item is copied once into a uniformly random bucket
   (n moves).
2. *Cache pass*: each bucket is Fisher-Yates-permuted inside the cache and
   emitted (2 moves per element: load + store).

Total ~3n moves, matching the linear-time claim of the CacheShuffle paper.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from repro.crypto.random import DeterministicRandom
from repro.shuffle.base import ShuffleAlgorithm, ShuffleResult


class CacheShuffle(ShuffleAlgorithm):
    """Spray-then-permute K-oblivious shuffle; ~3n moves.

    Randomness, in draw order: one ``randrange(K)`` spray target per item
    (one ``randrange_many(K, n)`` batch), then ``permutation(K)`` for the
    bucket order, then one Fisher-Yates shuffle per bucket in that order
    (one ``shuffle_each`` call).  This is exactly the stream a loop of
    scalar ``randrange`` calls would draw.  The items themselves are never
    inspected, so the output is a pure function of the input order and
    that stream.
    """

    name = "cache"
    oblivious = True

    def __init__(self, buckets: int | None = None):
        self._buckets = buckets

    def _bucket_count(self, n: int) -> int:
        if self._buckets is not None:
            return max(1, self._buckets)
        return max(1, math.isqrt(n))

    def shuffle(self, items: Sequence[Any], rng: DeterministicRandom) -> ShuffleResult:
        n = len(items)
        if n <= 1:
            return ShuffleResult(items=list(items), moves=0)

        bucket_count = self._bucket_count(n)
        buckets: list[list[Any]] = [[] for _ in range(bucket_count)]
        for item, target in zip(items, rng.randrange_many(bucket_count, n)):
            buckets[target].append(item)
        moves = n  # spray pass

        # Visit buckets in a random order so concatenation order is also
        # secret, then permute each inside the cache.
        ordered = [buckets[index] for index in rng.permutation(bucket_count)]
        rng.shuffle_each(ordered)
        output: list[Any] = []
        for bucket in ordered:
            output.extend(bucket)
        moves += 2 * n  # load each bucket into the cache + store it out
        return ShuffleResult(items=output, moves=moves)

    def expected_moves(self, n: int) -> int:
        return 3 * n

"""The Melbourne shuffle (Ohrimenko, Goodrich, Tamassia & Upfal, 2014).

A two-phase oblivious shuffle designed for cloud storage:

* *Distribution phase*: scan the input in chunks; every chunk writes a
  fixed-size (padded) batch to every bucket, hiding which bucket each real
  element targets.  Buckets are padded with dummies to capacity ``p``; if
  any bucket overflows its padded capacity, the whole pass restarts with
  fresh randomness (the original paper shows overflow probability is
  negligible for p = O(sqrt(n) * polylog)).
* *Cleanup phase*: read each padded bucket, drop dummies, permute the
  survivors in the private memory, emit.

The access pattern -- chunk reads and fixed-size padded bucket writes --
is independent of the realized permutation.  Moves are counted per element
copy including dummy padding, so the simulator charges the real (higher)
cost of this algorithm relative to CacheShuffle, which is exactly the
trade-off the paper's Section 3.2 cites as motivation for a lighter
shuffle.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from repro.crypto.random import DeterministicRandom
from repro.shuffle.base import ShuffleAlgorithm, ShuffleResult

_DUMMY = object()


class MelbourneShuffle(ShuffleAlgorithm):
    """Distribution + cleanup oblivious shuffle with padded buckets."""

    name = "melbourne"
    oblivious = True

    def __init__(self, pad_factor: float = 2.0, max_retries: int = 16):
        if pad_factor <= 1.0:
            raise ValueError("pad_factor must exceed 1.0")
        self.pad_factor = pad_factor
        self.max_retries = max_retries

    def shuffle(self, items: Sequence[Any], rng: DeterministicRandom) -> ShuffleResult:
        n = len(items)
        if n <= 1:
            return ShuffleResult(items=list(items), moves=0)

        bucket_count = max(1, math.isqrt(n))
        capacity = max(1, math.ceil(self.pad_factor * n / bucket_count))

        retries = 0
        while True:
            assignment = rng.randrange_many(bucket_count, n)
            counts = [0] * bucket_count
            for target in assignment:
                counts[target] += 1
            if max(counts) <= capacity:
                break
            retries += 1
            if retries > self.max_retries:
                raise RuntimeError(
                    "Melbourne shuffle could not place items within padded buckets; "
                    f"raise pad_factor (currently {self.pad_factor})"
                )

        # Distribution phase: each bucket is written at its full padded
        # capacity regardless of how many real elements it received.
        buckets: list[list[Any]] = [[] for _ in range(bucket_count)]
        for item, target in zip(items, assignment):
            buckets[target].append(item)
        moves = bucket_count * capacity  # padded writes (real + dummy)

        # Cleanup phase: read padded buckets, strip dummies, permute.
        output: list[Any] = []
        for bucket in buckets:
            padded = bucket + [_DUMMY] * (capacity - len(bucket))
            moves += len(padded)  # padded reads
            real = [item for item in padded if item is not _DUMMY]
            rng.shuffle(real)
            output.extend(real)
            moves += len(real)  # emit
        return ShuffleResult(items=output, moves=moves, retries=retries)

    def expected_moves(self, n: int) -> int:
        if n <= 1:
            return 0
        bucket_count = max(1, math.isqrt(n))
        capacity = max(1, math.ceil(self.pad_factor * n / bucket_count))
        return 2 * bucket_count * capacity + n

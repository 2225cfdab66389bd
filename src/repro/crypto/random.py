"""Deterministic CSPRNG used by every stochastic component.

Experiments in this repository must replay bit-for-bit across platforms and
Python versions, so protocol randomness never comes from :mod:`random`
directly.  :class:`DeterministicRandom` generates its stream from keyed
BLAKE2b in counter mode and implements the handful of draws the ORAM
protocols need (``randrange`` and its batched ``randrange_many``,
``shuffle``, ``sample``, ``random``, ``token``).

The construction is the standard hash-counter DRBG: ``block_i =
BLAKE2b(key=seed, data=i)``; 64-bit words are consumed from successive
blocks.  Rejection sampling keeps ``randrange`` unbiased.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Iterable, MutableSequence, Sequence, TypeVar

from repro import accel as _accel

T = TypeVar("T")

_WORDS_PER_BLOCK = 8  # 64-byte BLAKE2b digest = 8 x 64-bit words
_UNPACK_BLOCK = struct.Struct(f"<{_WORDS_PER_BLOCK}Q").unpack
_PACK_Q = struct.Struct("<Q").pack

#: Draws per :meth:`DeterministicRandom.randrange_many` call from which
#: the vectorized rejection test beats the one-frame loop: numpy's fixed
#: ~15 us per call is repaid per word tested, break-even 50-100 draws
#: whatever the bound.
_NP_MIN_DRAWS = 64


class DeterministicRandom:
    """Counter-mode BLAKE2b DRBG with the draw helpers ORAM needs.

    The stream position is ``(counter, buffer)``: ``counter`` is the index
    of the next block to hash and ``buffer`` holds the unread words of the
    current block, consumed from the end (last word of a block first).
    Every draw helper -- scalar or batched -- consumes words in exactly
    that order, so ``randrange_many(b, k)`` and the tight :meth:`shuffle`
    loop leave the stream, and :meth:`state_dict`, where the equivalent
    loop of :meth:`randrange` calls would.  Checkpoints serialize that
    position, which is why the vectorized ``randrange_many``, the one
    helper that hashes blocks ahead of its draws, rewinds to the block
    that held its last word before it returns.
    """

    def __init__(self, seed: int | bytes | str = 0):
        if isinstance(seed, int):
            seed_bytes = struct.pack("<Q", seed & 0xFFFFFFFFFFFFFFFF)
        elif isinstance(seed, str):
            seed_bytes = seed.encode()
        else:
            seed_bytes = bytes(seed)
        self._key = hashlib.blake2b(seed_bytes, digest_size=32).digest()
        self._counter = 0
        self._buffer: list[int] = []
        self._hasher = hashlib.blake2b(key=self._key, digest_size=64)

    # ------------------------------------------------------------------ core
    def _refill(self) -> None:
        h = self._hasher.copy()
        h.update(_PACK_Q(self._counter))
        self._counter += 1
        self._buffer.extend(_UNPACK_BLOCK(h.digest()))

    def _hash_blocks(self, first: int, count: int) -> bytes:
        """Blocks ``first .. first + count - 1``, joined last block first.

        Read as little-endian words that is the order ``pop()`` consumes
        them in; byte-reversed and read big-endian, it is draw order.
        """
        hasher = self._hasher
        digests = []
        for index in range(first + count - 1, first - 1, -1):
            h = hasher.copy()
            h.update(_PACK_Q(index))
            digests.append(h.digest())
        return b"".join(digests)

    def next_word(self) -> int:
        """Next raw 64-bit word from the stream."""
        if not self._buffer:
            self._refill()
        return self._buffer.pop()

    def randbits(self, bits: int) -> int:
        """Uniform integer with the given number of bits (0 allowed)."""
        if bits < 0:
            raise ValueError("bits must be non-negative")
        if 0 < bits <= 64:
            # One word covers the draw -- the overwhelmingly common case.
            buffer = self._buffer
            if not buffer:
                self._refill()
            return buffer.pop() >> (64 - bits)
        value = 0
        gathered = 0
        while gathered < bits:
            value = (value << 64) | self.next_word()
            gathered += 64
        return value >> (gathered - bits) if bits else 0

    # ----------------------------------------------------------------- draws
    def randrange(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = bound.bit_length()
        if bits <= 64:
            # Inlined single-word rejection loop (hot path: every leaf
            # remap and shuffle swap draws through here).
            shift = 64 - bits
            buffer = self._buffer
            while True:
                if not buffer:
                    self._refill()
                candidate = buffer.pop() >> shift
                if candidate < bound:
                    return candidate
        while True:
            candidate = self.randbits(bits)
            if candidate < bound:
                return candidate

    def randrange_many(self, bound: int, count: int) -> list[int]:
        """``[self.randrange(bound) for _ in range(count)]`` in one call.

        Same values, same words consumed, same stream position afterwards.
        Long batches hash the blocks they need in one frame and run the
        rejection test vectorized, then rewind to the block that held the
        last word used; bounds of 64 bits or more keep the scalar loop
        (their words do not compare safely as ``uint64``).
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = bound.bit_length()
        if bits >= 64:
            randrange = self.randrange
            return [randrange(bound) for _ in range(count)]
        shift = 64 - bits
        rate = bound / (1 << bits)  # acceptance probability, >= 1/2
        np = _accel.np
        if np is not None and count >= _NP_MIN_DRAWS:
            return self._randrange_many_np(np, bound, count, shift, rate)
        out: list[int] = []
        append = out.append
        buffer = self._buffer
        pop = buffer.pop
        for _ in range(count):
            while True:
                if not buffer:
                    self._refill()
                candidate = pop() >> shift
                if candidate < bound:
                    append(candidate)
                    break
        return out

    def _randrange_many_np(
        self, np, bound: int, count: int, shift: int, rate: float
    ) -> list[int]:
        """Vectorized :meth:`randrange_many` (bounds under 64 bits)."""
        buffer = self._buffer
        held = len(buffer)
        first = self._counter
        fetched = 0
        # Words in draw order -- what successive pop() calls would return.
        words = np.array(buffer[::-1], dtype=np.uint64)
        while True:
            candidates = words >> np.uint64(shift)
            accepted = np.flatnonzero(candidates < bound)
            missing = count - len(accepted)
            if missing <= 0:
                break
            # The expected words still missing plus about one standard
            # deviation; a short batch just goes round again.
            fresh = math.ceil((missing + math.sqrt(missing)) / rate / _WORDS_PER_BLOCK)
            raw = self._hash_blocks(first + fetched, fresh)
            fetched += fresh
            words = np.concatenate((words, np.frombuffer(raw[::-1], dtype=">u8")))
        used = int(accepted[count - 1]) + 1  # words consumed, held ones first
        if used <= held:
            del buffer[held - used :]
        else:
            # Rewind to the block that held the last word used: its unread
            # words go back into the buffer, in buffer order.
            blocks = -((held - used) // _WORDS_PER_BLOCK)  # ceil((used - held) / 8)
            self._counter = first + blocks
            buffer[:] = words[used : held + blocks * _WORDS_PER_BLOCK][::-1].tolist()
        return candidates[accepted[:count]].tolist()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range ``[low, high]``."""
        if high < low:
            raise ValueError("empty range")
        return low + self.randrange(high - low + 1)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return self.randbits(53) / (1 << 53)

    def choice(self, seq: Sequence[T]) -> T:
        if not seq:
            raise IndexError("cannot choose from an empty sequence")
        return seq[self.randrange(len(seq))]

    def shuffle(self, seq: MutableSequence[T]) -> None:
        """In-place Fisher-Yates shuffle: swap ``i`` takes ``randrange(i + 1)``."""
        self.shuffle_each((seq,))

    def shuffle_each(self, seqs: Sequence[MutableSequence]) -> None:
        """:meth:`shuffle` each sequence in turn, in one frame.

        The rejection loop is inlined: no method call per draw.
        """
        buffer = self._buffer
        pop = buffer.pop
        refill = self._refill
        for seq in seqs:
            top = len(seq) - 1
            while top > 0:
                # Every bound in [2**(bits-1), top + 1] shares one shift.
                bits = (top + 1).bit_length()
                shift = 64 - bits
                stop = (1 << (bits - 1)) - 2
                for i in range(top, stop, -1):
                    while True:
                        if not buffer:
                            refill()
                        j = pop() >> shift
                        if j <= i:  # j < bound == i + 1
                            break
                    seq[i], seq[j] = seq[j], seq[i]
                top = stop

    def sample(self, population: Sequence[T], k: int) -> list[T]:
        """k distinct elements, order random (selection sampling)."""
        n = len(population)
        if not 0 <= k <= n:
            raise ValueError("sample size out of range")
        picked = list(population)
        for i in range(k):
            j = i + self.randrange(n - i)
            picked[i], picked[j] = picked[j], picked[i]
        return picked[:k]

    def token(self, size: int = 16) -> bytes:
        """``size`` pseudo-random bytes (key material for sub-components)."""
        words = []
        for _ in range((size + 7) // 8):
            words.append(struct.pack("<Q", self.next_word()))
        return b"".join(words)[:size]

    def spawn(self, label: str) -> "DeterministicRandom":
        """Independent child stream; deterministic in (seed, label)."""
        child = DeterministicRandom(0)
        child._key = hashlib.blake2b(label.encode(), key=self._key, digest_size=32).digest()
        child._hasher = hashlib.blake2b(key=child._key, digest_size=64)
        return child

    # ------------------------------------------------------------ checkpoint
    def state_dict(self) -> dict:
        """Resumable stream position (the key is *not* included).

        Restoring requires an instance constructed -- or spawned -- from
        the same seed/label lineage, so checkpoints never carry key
        material; they carry only how far the stream has advanced.
        """
        return {"counter": self._counter, "buffer": list(self._buffer)}

    def load_state(self, state: dict) -> None:
        """Rewind/advance this stream to a :meth:`state_dict` position."""
        self._counter = int(state["counter"])
        self._buffer = [int(word) for word in state["buffer"]]

    # -------------------------------------------------------------- utility
    def permutation(self, n: int) -> list[int]:
        """A fresh uniform permutation of ``range(n)``."""
        order = list(range(n))
        self.shuffle(order)
        return order

    def weighted_choice(self, weights: Iterable[float]) -> int:
        """Index drawn with probability proportional to ``weights``."""
        cumulative = []
        total = 0.0
        for w in weights:
            if w < 0:
                raise ValueError("weights must be non-negative")
            total += w
            cumulative.append(total)
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        x = self.random() * total
        for index, edge in enumerate(cumulative):
            if x < edge:
                return index
        return len(cumulative) - 1

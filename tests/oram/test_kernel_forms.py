"""The size selections never change a byte.

The codec picks its form by run size (the single-record loop under
``_BATCH_MIN`` records, the numpy kernel from there on) and the DRBG its
draw kernel by draw count (the rejection loop under ``_NP_MIN_DRAWS``).
Each run below goes once through the shipped selections and once with
the small-run forms forced at every size, so the numpy kernel is held to
the loop; both must give the same bytes, the same opened records and the
same simulated run.  The sizes are chosen so the shipped selection takes
the numpy kernel, which the tests check, so no comparison is of a form
against itself.
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter

import pytest

from repro.core.checkpoint import snapshot_stack
from repro.core.recipe import StackRecipe, build
from repro.crypto import random as drbg
from repro.crypto.ctr import StreamCipher
from repro.crypto.random import DeterministicRandom
from repro.oram import base
from repro.oram.base import DUMMY_ADDR, BlockCodec
from repro.workload.generators import hotspot

PAYLOAD = 24  # 40-byte records; runs of _BATCH_MIN or more take the numpy kernel


@pytest.fixture
def kernels(monkeypatch):
    """Count calls of the codec's numpy kernels and of the numpy draw kernel."""
    calls: Counter = Counter()
    for owner, name in [
        (BlockCodec, "_seal_batch"),
        (BlockCodec, "_open_batch"),
        (DeterministicRandom, "_randrange_many_np"),
    ]:
        kernel = getattr(owner, name)

        def spied(*args, _kernel=kernel, _name=name):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(owner, name, spied)
    return calls


def both_forms(monkeypatch, fn):
    """``fn()`` under the shipped selections, then with the small forms forced."""
    shipped = fn()
    with monkeypatch.context() as forced:
        forced.setattr(drbg, "_NP_MIN_DRAWS", sys.maxsize)
        forced.setattr(base, "_BATCH_MIN", sys.maxsize)
        small = fn()
    return shipped, small


def make_codec(payload_bytes=PAYLOAD, mac_key=None) -> BlockCodec:
    return BlockCodec(payload_bytes, StreamCipher(b"forms-key"), mac_key=mac_key)


def make_entries(count, payload_bytes=PAYLOAD):
    return [
        (index, bytes((index * 7 + offset) % 251 for offset in range(payload_bytes)))
        for index in range(count)
    ]


class TestCodecForms:
    @pytest.mark.parametrize("count,dummy_tail", [(0, 60), (60, 0), (33, 27), (45, 2)])
    def test_seal_many_is_the_same_in_both_forms(self, monkeypatch, kernels, count, dummy_tail):
        entries = make_entries(count)
        shipped, small = both_forms(
            monkeypatch, lambda: bytes(make_codec().seal_many(entries, dummy_tail=dummy_tail))
        )
        assert shipped == small
        assert kernels == {"_seal_batch": 1}

    def test_short_payloads_are_padded_alike_in_both_forms(self, monkeypatch, kernels):
        entries = [(1, b"short"), (2, b"x" * PAYLOAD)] + make_entries(50)
        shipped, small = both_forms(monkeypatch, lambda: bytes(make_codec().seal_many(entries)))
        assert shipped == small
        assert kernels == {"_seal_batch": 1}

    def test_open_run_is_the_same_in_both_forms(self, monkeypatch, kernels):
        codec = make_codec()
        buffer = bytes(codec.seal_many(make_entries(57), dummy_tail=3))
        kernels.clear()
        shipped, small = both_forms(monkeypatch, lambda: codec.open_run(buffer))
        assert shipped == small
        assert shipped[:57] == make_entries(57)
        assert all(addr == DUMMY_ADDR for addr, _ in shipped[57:])
        assert kernels == {"_open_batch": 1}

    def test_open_many_is_the_same_in_both_forms(self, monkeypatch, kernels):
        codec = make_codec()
        buffer = bytes(codec.seal_many(make_entries(48)))
        size = codec.slot_bytes
        records = [buffer[offset : offset + size] for offset in range(0, len(buffer), size)]
        kernels.clear()
        shipped, small = both_forms(monkeypatch, lambda: codec.open_many(records))
        assert shipped == small == make_entries(48)
        assert kernels == {"_open_batch": 1}

    def test_wide_records_are_the_same_in_both_forms(self, monkeypatch, kernels):
        """Records past one digest batch through the SHAKE-256 keystream."""

        def run():
            codec = make_codec(payload_bytes=200)
            sealed = bytes(codec.seal_many(make_entries(9, payload_bytes=200), dummy_tail=1))
            return sealed, codec.open_run(sealed)

        shipped, small = both_forms(monkeypatch, run)
        assert shipped == small
        assert kernels == {"_seal_batch": 1, "_open_batch": 1}

    def test_a_mac_codec_takes_neither_batch_kernel(self, monkeypatch, kernels):
        """MACed records are tagged and checked one by one at any size."""

        def run():
            codec = make_codec(mac_key=b"forms-mac")
            sealed = bytes(codec.seal_many(make_entries(60), dummy_tail=2))
            return sealed, codec.open_run(sealed)

        shipped, small = both_forms(monkeypatch, run)
        assert shipped == small
        assert shipped[1][:60] == make_entries(60)
        assert not kernels


class TestProtocolForms:
    """End to end: a whole run must not notice which forms it took."""

    @staticmethod
    def run(recipe: StackRecipe):
        """What the stack served, its simulated clock and the sha256 of
        every checkpoint blob (slabs and control tables) after the run."""
        stack = build(recipe)
        try:
            rng = DeterministicRandom(9)
            served = [
                stack.access(request)
                for request in hotspot(recipe.n_blocks, 300, rng, hot_blocks=16, write_ratio=0.5)
            ]
            blobs = snapshot_stack(stack).blobs
            return (
                served,
                stack.hierarchy.clock.now_us,
                {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()},
            )
        finally:
            stack.close()

    def test_horam_serves_the_same_run_in_both_forms(self, monkeypatch, kernels):
        recipe = StackRecipe(n_blocks=2000, mem_blocks=64, seed=5)
        shipped, small = both_forms(monkeypatch, lambda: self.run(recipe))
        assert shipped == small
        assert kernels["_seal_batch"] > 0

    def test_path_oram_serves_the_same_run_in_both_forms(self, monkeypatch, kernels):
        recipe = StackRecipe(protocol="path", n_blocks=2000, mem_blocks=64, seed=5)
        shipped, small = both_forms(monkeypatch, lambda: self.run(recipe))
        assert shipped == small
        assert kernels["_seal_batch"] > 0

"""Batch kernels on records wider than one keystream digest.

A codec whose plaintext (8-byte address + payload) exceeds 64 bytes takes
the same four batch kernels as a narrow one.  Each must produce exactly
the bytes of the scalar ``seal`` / ``open`` loop, with numpy and without
(``REPRO_NO_NUMPY=1`` runs this file with the big-integer kernels only),
however a run is cut into kernel calls.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import accel
from repro.crypto.ctr import StreamCipher
from repro.oram import base
from repro.oram.base import DUMMY_ADDR, BlockCodec

#: 56 is the widest payload one digest still covers; 57 is the first wide one.
PAYLOADS = [56, 57, 200, 1024]

BACKENDS = [
    "bigint",
    pytest.param(
        "numpy", marks=pytest.mark.skipif(accel.np is None, reason="numpy unavailable")
    ),
]


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    """Pin which kernel pair the size thresholds choose between."""
    if request.param == "bigint":
        monkeypatch.setattr(accel, "np", None)
    return request.param


def make_codec(payload_bytes: int) -> BlockCodec:
    return BlockCodec(payload_bytes, StreamCipher(b"wide-codec-key"))


def make_entries(count: int, payload_bytes: int) -> "list[tuple[int, bytes]]":
    return [
        (index * 3 + 1, bytes((index * 7 + offset) % 251 for offset in range(payload_bytes)))
        for index in range(count)
    ]


def scalar_seal(codec: BlockCodec, entries, dummy_tail: int) -> bytes:
    sealed = b"".join(codec.seal(addr, payload) for addr, payload in entries)
    return sealed + b"".join(codec.seal_dummy() for _ in range(dummy_tail))


def scalar_open(codec: BlockCodec, buffer: bytes) -> "list[tuple[int, bytes]]":
    size = codec.slot_bytes
    return [codec.open(buffer[offset : offset + size]) for offset in range(0, len(buffer), size)]


def threshold_counts(codec: BlockCodec) -> "list[int]":
    """Record counts on both sides of the batch and numpy thresholds."""
    np_min = -(-base._NP_MIN_BYTES // codec.slot_bytes)
    counts = {base._BATCH_MIN - 1, base._BATCH_MIN, np_min - 1, np_min, np_min + 5}
    return sorted(count for count in counts if count > 0)


def spy_on_kernels(monkeypatch, codec: BlockCodec) -> "list[tuple[str, int]]":
    """Record (kernel, sealed bytes handled) for every batch-kernel call."""
    calls: list[tuple[str, int]] = []

    def wrap(name, records_of):
        kernel = getattr(codec, name)

        def spied(*args):
            calls.append((name, records_of(*args) * codec.slot_bytes))
            return kernel(*args)

        monkeypatch.setattr(codec, name, spied)

    wrap("_seal_batch", lambda np, entries, tail: len(entries) + tail)
    wrap("_seal_batch_bytes", lambda entries, tail: len(entries) + tail)
    wrap("_open_batch", lambda np, view, n: n)
    wrap("_open_batch_bytes", lambda view, n: n)
    return calls


@pytest.mark.parametrize("payload_bytes", PAYLOADS)
class TestWideBatchParity:
    def test_seal_many_matches_the_scalar_loop(self, backend, payload_bytes):
        for count in threshold_counts(make_codec(payload_bytes)):
            for dummy_tail in (0, count // 3, count):
                batch, loop = make_codec(payload_bytes), make_codec(payload_bytes)
                entries = make_entries(count - dummy_tail, payload_bytes)
                sealed = bytes(batch.seal_many(entries, dummy_tail=dummy_tail))
                assert sealed == scalar_seal(loop, entries, dummy_tail), (count, dummy_tail)
                assert batch._nonce_counter == loop._nonce_counter == count

    def test_open_run_and_open_many_match_the_scalar_loop(self, backend, payload_bytes):
        codec = make_codec(payload_bytes)
        size = codec.slot_bytes
        for count in threshold_counts(codec):
            entries = make_entries(count - count // 3, payload_bytes)
            buffer = scalar_seal(codec, entries, count // 3)
            expected = scalar_open(codec, buffer)
            assert expected[: len(entries)] == entries
            assert all(addr == DUMMY_ADDR for addr, _ in expected[len(entries) :])
            assert codec.open_run(memoryview(buffer)) == expected, count
            records = [buffer[offset : offset + size] for offset in range(0, len(buffer), size)]
            assert codec.open_many(records) == expected, count

    def test_short_payloads_are_padded_alike(self, backend, payload_bytes):
        batch, loop = make_codec(payload_bytes), make_codec(payload_bytes)
        entries = [(index, b"short-%d" % index) for index in range(base._BATCH_MIN + 2)]
        assert bytes(batch.seal_many(entries)) == scalar_seal(loop, entries, 0)

    def test_runs_past_the_threshold_take_a_batch_kernel(
        self, backend, payload_bytes, monkeypatch
    ):
        codec = make_codec(payload_bytes)
        calls = spy_on_kernels(monkeypatch, codec)
        count = threshold_counts(codec)[-1]
        buffer = codec.seal_many(make_entries(count, payload_bytes))
        codec.open_run(buffer)
        suffix = "" if backend == "numpy" else "_bytes"
        assert [name for name, _ in calls] == ["_seal_batch" + suffix, "_open_batch" + suffix]
        calls.clear()
        few = base._BATCH_MIN - 1
        codec.open_run(codec.seal_many(make_entries(few, payload_bytes)))
        assert calls == []


class TestKernelByteCap:
    """No kernel call handles more than ``_KERNEL_MAX_BYTES`` of records."""

    @pytest.mark.parametrize("payload_bytes", [16, 1024])
    def test_a_run_larger_than_the_cap_is_chunked_into_identical_output(
        self, backend, payload_bytes, monkeypatch
    ):
        capped, loop = make_codec(payload_bytes), make_codec(payload_bytes)
        size = capped.slot_bytes
        count = 2 * (base._KERNEL_MAX_BYTES // size) + 11
        entries = make_entries(count - 40, payload_bytes)
        calls = spy_on_kernels(monkeypatch, capped)
        sealed = capped.seal_many(entries, dummy_tail=40)
        opened = capped.open_run(sealed)

        assert len(calls) == 6  # three pieces each way
        assert max(handled for _, handled in calls) <= base._KERNEL_MAX_BYTES
        assert sum(handled for _, handled in calls) == 2 * count * size
        assert capped._nonce_counter == count

        # The same run through one uncapped kernel call, and through none.
        monkeypatch.setattr(base, "_KERNEL_MAX_BYTES", count * size)
        whole = make_codec(payload_bytes)  # a codec reads the cap when built
        assert bytes(whole.seal_many(entries, dummy_tail=40)) == bytes(sealed)
        assert whole.open_run(sealed) == opened
        assert scalar_seal(loop, entries, 40) == bytes(sealed)
        assert opened[: len(entries)] == entries
        assert all(addr == DUMMY_ADDR for addr, _ in opened[len(entries) :])

    def test_a_cap_below_one_record_still_makes_progress(self, backend, monkeypatch):
        monkeypatch.setattr(base, "_KERNEL_MAX_BYTES", 100)
        batch, loop = make_codec(200), make_codec(200)
        entries = make_entries(9, 200)
        sealed = batch.seal_many(entries, dummy_tail=2)
        assert bytes(sealed) == scalar_seal(loop, entries, 2)
        assert batch.open_run(sealed)[:9] == entries


@st.composite
def codec_runs(draw):
    payload_bytes = draw(st.integers(min_value=1, max_value=2048))
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=DUMMY_ADDR - 1),
                st.binary(max_size=payload_bytes),
            ),
            max_size=24,
        )
    )
    return payload_bytes, entries, draw(st.integers(min_value=0, max_value=12))


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(codec_runs())
    def test_seal_many_then_open_run_round_trips(self, run):
        payload_bytes, entries, dummy_tail = run
        batch, loop = make_codec(payload_bytes), make_codec(payload_bytes)
        sealed = batch.seal_many(entries, dummy_tail=dummy_tail)
        assert bytes(sealed) == scalar_seal(loop, entries, dummy_tail)
        opened = batch.open_run(sealed)
        assert opened[: len(entries)] == [(addr, batch.pad(data)) for addr, data in entries]
        assert opened[len(entries) :] == [(DUMMY_ADDR, bytes(payload_bytes))] * dummy_tail

"""Block codec tests: sealing, dummies, padding, the column kernel."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.ctr import StreamCipher
from repro.crypto.random import DeterministicRandom
from repro.oram.base import (
    DUMMY_ADDR,
    MAC_BYTES,
    RECORD_OVERHEAD,
    _BATCH_MIN,
    BlockCodec,
    IntegrityError,
    _make_codec,
    initial_payload,
    initial_payloads,
)
from repro.oram.factory import BASELINES, build_baseline

#: Narrow (one digest), the first wide width, and the widest spine record.
WIDTHS = [16, 57, 1024]


@pytest.fixture
def codec():
    return BlockCodec(16, StreamCipher(b"codec-key"))


class TestSealOpen:
    def test_roundtrip(self, codec):
        record = codec.seal(42, codec.pad(b"hello"))
        addr, payload = codec.open(record)
        assert addr == 42
        assert payload.rstrip(b"\x00") == b"hello"

    def test_record_size(self, codec):
        assert codec.slot_bytes == RECORD_OVERHEAD + 16
        assert len(codec.seal(0, b"\x00" * 16)) == codec.slot_bytes

    def test_auto_pads_short_payloads(self, codec):
        record = codec.seal(1, b"x")
        _, payload = codec.open(record)
        assert payload == b"x" + b"\x00" * 15

    def test_fresh_nonce_every_seal(self, codec):
        a = codec.seal(7, b"\x00" * 16)
        b = codec.seal(7, b"\x00" * 16)
        assert a != b  # re-encryption property

    def test_open_validates_size(self, codec):
        with pytest.raises(ValueError):
            codec.open(b"short")

    def test_ciphertext_hides_addr(self):
        # With a real cipher the address is not visible in the record body.
        codec = BlockCodec(16, StreamCipher(b"k"))
        record = codec.seal(0x11223344, b"\x00" * 16)
        assert (0x11223344).to_bytes(4, "little") not in record[8:12]

    def test_ciphertext_hides_payload(self):
        codec = BlockCodec(16, StreamCipher(b"k"))
        record = codec.seal(5, b"visible-payload!")
        assert b"visible-payload!" not in record

    @pytest.mark.parametrize("mac", [False, True], ids=["no-mac", "mac"])
    @pytest.mark.parametrize("payload_bytes", [1, 56, 57, 200, 1024])
    def test_roundtrip_at_every_width(self, payload_bytes, mac):
        codec = BlockCodec(
            payload_bytes, StreamCipher(b"codec-key"), mac_key=b"mac-key" if mac else None
        )
        payload = bytes((index * 13) % 256 for index in range(payload_bytes))
        record = codec.seal(2**40 + 1, payload)
        assert len(record) == codec.slot_bytes
        assert codec.open(record) == (2**40 + 1, payload)
        assert codec.open(codec.seal_dummy())[0] == DUMMY_ADDR

    @pytest.mark.parametrize("payload_bytes", [16, 200])
    def test_wrong_nonce_garbles(self, payload_bytes):
        # Without a MAC a rewritten nonce goes unnoticed but decrypts to junk.
        codec = BlockCodec(payload_bytes, StreamCipher(b"codec-key"))
        payload = codec.pad(b"secret")
        record = bytearray(codec.seal(3, payload))
        record[0] ^= 0x01
        assert codec.open(bytes(record)) != (3, payload)


class TestBatchCodec:
    """seal_many / open_run / open_many must equal the single-record loop."""

    ENTRIES = [(3, b"alpha"), (9, b"bravo"), (27, b"charlie")]

    @staticmethod
    def pair(mac_key=None):
        """Two codecs with identical key material (independent nonce streams)."""
        make = lambda: BlockCodec(16, StreamCipher(b"codec-key"), mac_key=mac_key)
        return make(), make()

    def test_seal_many_bytes_match_seal_loop(self):
        batched, sequential = self.pair()
        entries = [(addr, sequential.pad(data)) for addr, data in self.ENTRIES]
        buffer = batched.seal_many(entries, dummy_tail=2)
        expected = bytearray()
        for addr, payload in entries:
            expected += sequential.seal(addr, payload)
        expected += sequential.seal_dummy()
        expected += sequential.seal_dummy()
        assert bytes(buffer) == bytes(expected)

    def test_seal_many_bytes_match_with_mac(self):
        batched, sequential = self.pair(mac_key=b"mac-key")
        buffer = batched.seal_many([(5, sequential.pad(b"x"))], dummy_tail=3)
        expected = sequential.seal(5, sequential.pad(b"x"))
        expected += b"".join(sequential.seal_dummy() for _ in range(3))
        assert bytes(buffer) == expected

    def test_open_run_roundtrip(self, codec):
        entries = [(addr, codec.pad(data)) for addr, data in self.ENTRIES]
        buffer = codec.seal_many(entries, dummy_tail=1)
        opened = codec.open_run(buffer)
        assert opened[:3] == entries
        assert opened[3][0] == DUMMY_ADDR

    def test_open_run_accepts_memoryview(self, codec):
        buffer = codec.seal_many([(1, codec.pad(b"mv"))])
        (result,) = codec.open_run(memoryview(bytes(buffer)))
        assert result == (1, codec.pad(b"mv"))

    def test_open_run_rejects_partial_records(self, codec):
        with pytest.raises(ValueError):
            codec.open_run(b"\x00" * (codec.slot_bytes + 1))

    def test_open_many_matches_open(self, codec):
        records = [codec.seal(addr, codec.pad(data)) for addr, data in self.ENTRIES]
        assert codec.open_many(records) == [codec.open(r) for r in records]

    def test_open_accepts_memoryview(self, codec):
        record = codec.seal(7, codec.pad(b"view"))
        addr, payload = codec.open(memoryview(record))
        assert addr == 7
        assert isinstance(payload, bytes)
        assert payload == codec.pad(b"view")


def as_pairs(codec, columns):
    """``open_columns`` output as ``(addr, payload)`` pairs of plain ints and bytes."""
    addrs, payloads = columns
    if not isinstance(payloads, list):
        payloads = [bytes(row) for row in payloads.reshape(-1, codec.payload_bytes)]
    return list(zip([int(addr) for addr in addrs], payloads))


@st.composite
def column_runs(draw):
    """A codec shape, a nonce offset and an address column with its payload rows.

    Widths: 1, the default 16, 56 (the widest one keystream digest
    covers), 57 (the first wide one) and 1024.  Run lengths cross the
    batch threshold for every width.
    """
    payload_bytes = draw(st.sampled_from([1, 16, 56, 57, 1024]))
    n = draw(st.integers(min_value=0, max_value=120 if payload_bytes < 1024 else 12))
    addrs = draw(
        st.lists(
            st.one_of(st.just(DUMMY_ADDR), st.integers(min_value=0, max_value=DUMMY_ADDR - 1)),
            min_size=n,
            max_size=n,
        )
    )
    rows = draw(st.integers(min_value=0, max_value=n))
    payloads = random.Random(draw(st.integers(0, 2**32))).randbytes(rows * payload_bytes)
    return payload_bytes, addrs, payloads, draw(st.integers(0, 3)), draw(st.booleans())


class TestColumnKernel:
    """``seal_columns`` / ``open_columns`` against the per-record loop."""

    @staticmethod
    def codec(payload_bytes, mac, nonce=0):
        codec = BlockCodec(
            payload_bytes, StreamCipher(b"column-key"), mac_key=b"column-mac" if mac else None
        )
        for _ in range(nonce):
            codec.seal_dummy()
        return codec

    @staticmethod
    def loop_seal(codec, addrs, payloads):
        width = codec.payload_bytes
        out = b""
        for index, addr in enumerate(addrs):
            row = payloads[index * width : (index + 1) * width]
            if row:
                out += codec.seal(addr, row)
            elif addr == DUMMY_ADDR:
                out += codec.seal_dummy()
            else:
                out += codec.seal(addr, bytes(width))
        return out

    @settings(max_examples=150, deadline=None)
    @given(column_runs())
    def test_column_seal_is_the_seal_loop(self, run):
        payload_bytes, addrs, payloads, nonce, mac = run
        loop = self.codec(payload_bytes, mac, nonce)
        expected = self.loop_seal(loop, addrs, payloads)
        rows = [
            payloads[start : start + payload_bytes]
            for start in range(0, len(payloads), payload_bytes)
        ]
        for given_payloads in (payloads, rows):
            column = self.codec(payload_bytes, mac, nonce)
            assert bytes(column.seal_columns(addrs, given_payloads)) == expected
            assert column._nonce_counter == loop._nonce_counter == nonce + len(addrs)

    @settings(max_examples=150, deadline=None)
    @given(column_runs())
    def test_column_open_is_open_of_every_record(self, run):
        payload_bytes, addrs, payloads, nonce, mac = run
        codec = self.codec(payload_bytes, mac, nonce)
        buffer = self.loop_seal(codec, addrs, payloads)
        size = codec.slot_bytes
        expected = [
            codec.open(buffer[start : start + size]) for start in range(0, len(buffer), size)
        ]
        assert as_pairs(codec, codec.open_columns(memoryview(buffer))) == expected
        assert codec.open_run(buffer) == expected

    #: A run of about 100 records takes the numpy kernel; one of 3 blocks
    #: and 4 dummies, under ``_BATCH_MIN``, the single-record loop.
    @pytest.mark.parametrize("blocks", [100, 3], ids=["numpy", "loop"])
    def test_columns_round_trip_through_a_second_seal(self, blocks):
        codec = self.codec(16, mac=False)
        addrs = list(range(blocks)) + [DUMMY_ADDR] * 4
        sealed = codec.seal_columns(addrs, initial_payloads(range(blocks), 16))
        opened = codec.open_columns(sealed)
        assert bytes(codec.seal_columns(*opened)) != bytes(sealed)  # fresh nonces
        assert as_pairs(codec, codec.open_columns(codec.seal_columns(*opened))) == as_pairs(
            codec, opened
        )

    def test_misshapen_payload_matrices_are_refused(self):
        codec = self.codec(16, mac=False)
        with pytest.raises(ValueError):
            codec.seal_columns([1, 2], bytes(17))
        with pytest.raises(ValueError):
            codec.seal_columns([1, 2], bytes(48))
        with pytest.raises(ValueError):
            codec.open_columns(bytes(codec.slot_bytes + 1))

    @pytest.mark.parametrize("blocks", [_BATCH_MIN - 1, _BATCH_MIN, 20, 100])
    @pytest.mark.parametrize("widths", [[15], [15, 17]], ids=["short", "short-and-long"])
    @pytest.mark.parametrize("mac", [False, True], ids=["no-mac", "mac"])
    def test_rows_of_the_wrong_width_are_refused(self, blocks, widths, mac):
        """Every list row must be ``payload_bytes`` wide in either form,
        also where the rows' total is whole rows (15 + 17 bytes)."""
        codec = self.codec(16, mac)
        rows = [bytes(range(width)) for width in widths] + [bytes(16)] * (blocks - len(widths))
        with pytest.raises(ValueError, match="16 bytes wide"):
            codec.seal_columns(list(range(blocks)), rows)
        assert codec._nonce_counter == 0


class TestDummies:
    def test_dummy_roundtrip(self, codec):
        record = codec.seal_dummy()
        assert codec.open(record)[0] == DUMMY_ADDR

    def test_real_record_not_dummy(self, codec):
        assert codec.open(codec.seal(3, b"\x00" * 16))[0] != DUMMY_ADDR

    def test_dummies_outwardly_distinct(self, codec):
        # Fresh nonces: two dummies never share ciphertext.
        assert codec.seal_dummy() != codec.seal_dummy()


class TestPadding:
    def test_pad_exact(self, codec):
        assert codec.pad(b"x" * 16) == b"x" * 16

    def test_pad_too_long(self, codec):
        with pytest.raises(ValueError):
            codec.pad(b"x" * 17)

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockCodec(0, StreamCipher(b"k"))


class TestInitialPayload:
    def test_fits_minimum_payload(self):
        assert len(initial_payload(0)) == 8
        assert len(initial_payload(2**63)) == 8

    @pytest.mark.parametrize("payload_bytes", [8, 16, 1024])
    def test_matrix_rows_are_padded_initial_payloads(self, payload_bytes):
        addrs = [0, 1, 2**40 + 3, DUMMY_ADDR - 1, 77]
        codec = BlockCodec(payload_bytes, StreamCipher(b"k"))
        matrix = initial_payloads(addrs, payload_bytes)
        assert bytes(matrix) == b"".join(codec.pad(initial_payload(addr)) for addr in addrs)

    def test_matrix_needs_room_for_the_id(self):
        with pytest.raises(ValueError):
            initial_payloads([1], 4)

    def test_distinct_per_addr(self):
        assert initial_payload(1) != initial_payload(2)


class TestIntegrity:
    def make(self):
        from repro.oram.base import MAC_BYTES, RECORD_OVERHEAD

        codec = BlockCodec(16, StreamCipher(b"codec-key"), mac_key=b"mac-key")
        assert codec.slot_bytes == RECORD_OVERHEAD + 16 + MAC_BYTES
        return codec

    def test_roundtrip_with_mac(self):
        codec = self.make()
        record = codec.seal(5, codec.pad(b"guarded"))
        addr, payload = codec.open(record)
        assert addr == 5 and payload.rstrip(b"\x00") == b"guarded"

    def test_tampered_body_detected(self):
        from repro.oram.base import IntegrityError

        codec = self.make()
        record = bytearray(codec.seal(5, codec.pad(b"guarded")))
        record[12] ^= 0x01  # flip one ciphertext bit
        with pytest.raises(IntegrityError):
            codec.open(bytes(record))

    def test_tampered_tag_detected(self):
        from repro.oram.base import IntegrityError

        codec = self.make()
        record = bytearray(codec.seal(5, codec.pad(b"guarded")))
        record[-1] ^= 0x01
        with pytest.raises(IntegrityError):
            codec.open(bytes(record))

    @pytest.mark.parametrize("where", ["nonce", "body", "tag"])
    @pytest.mark.parametrize("payload_bytes", WIDTHS)
    def test_tampering_detected_at_every_width(self, payload_bytes, where):
        codec = BlockCodec(payload_bytes, StreamCipher(b"codec-key"), mac_key=b"mac-key")
        record = bytearray(codec.seal(5, codec.pad(b"guarded")))
        offset = {"nonce": 0, "body": RECORD_OVERHEAD + payload_bytes - 1, "tag": -1}[where]
        record[offset] ^= 0x80
        with pytest.raises(IntegrityError):
            codec.open(bytes(record))

    def test_wrong_mac_key_detected(self):
        from repro.oram.base import IntegrityError

        sealer = BlockCodec(16, StreamCipher(b"codec-key"), mac_key=b"key-a")
        opener = BlockCodec(16, StreamCipher(b"codec-key"), mac_key=b"key-b")
        record = sealer.seal(1, sealer.pad(b"x"))
        with pytest.raises(IntegrityError):
            opener.open(record)

    def test_empty_mac_key_rejected(self):
        with pytest.raises(ValueError):
            BlockCodec(16, StreamCipher(b"k"), mac_key=b"")

    def test_horam_runs_with_integrity(self):
        from repro.core.horam import build_horam

        oram = build_horam(n_blocks=256, mem_tree_blocks=64, seed=1, integrity=True)
        oram.write(7, b"tamper-proof")
        assert oram.read(7).rstrip(b"\x00") == b"tamper-proof"

    def test_horam_detects_storage_tampering(self):
        from repro.core.horam import build_horam
        from repro.oram.base import IntegrityError

        oram = build_horam(n_blocks=256, mem_tree_blocks=64, seed=1, integrity=True)
        # Corrupt a storage slot behind the protocol's back.
        victim = oram.storage.location[0]
        record = bytearray(oram.hierarchy.storage.peek_slot(victim))
        record[10] ^= 0xFF
        oram.hierarchy.storage.poke_slot(victim, bytes(record))
        with pytest.raises(IntegrityError):
            oram.read(0)

    def test_horam_detects_dummy_slot_tampering(self):
        # The real-slot fast path must not skip MAC checks: corrupting a
        # DUMMY record in the cache tree is tampering too.  Slot 0 is the
        # root bucket's first slot, so every path access reads it.
        from repro.core.horam import build_horam
        from repro.oram.base import IntegrityError

        oram = build_horam(n_blocks=256, mem_tree_blocks=64, seed=1, integrity=True)
        record = bytearray(oram.hierarchy.memory.peek_slot(0))
        record[10] ^= 0xFF
        oram.hierarchy.memory.poke_slot(0, bytes(record))
        with pytest.raises(IntegrityError):
            oram.read(5)


class TestMakeCodec:
    """``_make_codec`` is the one place a seed becomes the record keys."""

    @staticmethod
    def reference(payload_bytes, seed, integrity):
        rng = DeterministicRandom(seed)
        mac_key = rng.spawn("mac-key").token(32) if integrity else None
        cipher = StreamCipher(rng.spawn("record-key").token(32))
        return BlockCodec(payload_bytes, cipher, mac_key=mac_key)

    @pytest.mark.parametrize("integrity", [False, True], ids=["no-mac", "mac"])
    @pytest.mark.parametrize("payload_bytes", WIDTHS)
    def test_keys_are_spawned_from_the_seed(self, payload_bytes, integrity):
        codec = _make_codec(payload_bytes, 7, integrity=integrity)
        reference = self.reference(payload_bytes, 7, integrity)
        entries = [(addr, reference.pad(b"record-%d" % addr)) for addr in range(5)]
        assert bytes(codec.seal_many(entries, dummy_tail=2)) == bytes(
            reference.seal_many(entries, dummy_tail=2)
        )

    @pytest.mark.parametrize("integrity", [False, True], ids=["no-mac", "mac"])
    def test_integrity_adds_the_tag(self, integrity):
        codec = _make_codec(16, 7, integrity=integrity)
        assert codec.slot_bytes == RECORD_OVERHEAD + 16 + (MAC_BYTES if integrity else 0)
        assert (codec.mac_key is not None) == integrity

    def test_seeds_separate_record_keys(self):
        record = _make_codec(16, 1).seal(4, b"x" * 16)
        assert _make_codec(16, 1).open(record) == (4, b"x" * 16)
        assert _make_codec(16, 2).open(record) != (4, b"x" * 16)

    def test_seeds_separate_mac_keys(self):
        record = _make_codec(16, 1, integrity=True).seal(4, b"x" * 16)
        with pytest.raises(IntegrityError):
            _make_codec(16, 2, integrity=True).open(record)

    @staticmethod
    def assert_seals_as_made(oram, seed, integrity=False):
        payload = oram.codec.pad(b"probe")
        record = oram.codec.seal(9, payload)
        made = _make_codec(oram.codec.payload_bytes, seed, integrity=integrity)
        assert made.slot_bytes == oram.codec.slot_bytes
        assert made.open(record) == (9, payload)

    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_every_baseline_seals_with_it(self, name):
        self.assert_seals_as_made(build_baseline(name, 128, memory_blocks=32, seed=3), 3)

    @pytest.mark.parametrize("integrity", [False, True], ids=["no-mac", "mac"])
    def test_horam_seals_with_it(self, integrity):
        from repro.core.horam import build_horam

        oram = build_horam(n_blocks=256, mem_tree_blocks=64, seed=3, integrity=integrity)
        self.assert_seals_as_made(oram, 3, integrity)

    @pytest.mark.parametrize("integrity", [False, True], ids=["no-mac", "mac"])
    def test_restored_horam_seals_with_it(self, integrity):
        from repro.core.checkpoint import restore_stack, snapshot_stack
        from repro.core.horam import build_horam

        oram = build_horam(n_blocks=256, mem_tree_blocks=64, seed=3, integrity=integrity)
        oram.write(7, b"kept")
        restored = restore_stack(snapshot_stack(oram))
        self.assert_seals_as_made(restored, 3, integrity)
        assert restored.read(7).rstrip(b"\x00") == b"kept"

    @pytest.mark.parametrize("name", ["path", "plain"])
    def test_restored_baseline_seals_with_it(self, name):
        from repro.core.checkpoint import restore_stack, snapshot_stack

        oram = build_baseline(name, 128, memory_blocks=32, seed=3)
        self.assert_seals_as_made(restore_stack(snapshot_stack(oram)), 3)

"""Record cipher (StreamCipher keystream) tests."""

import pytest

from repro.crypto.ctr import StreamCipher


class TestRecordCiphers:
    @pytest.mark.parametrize("length", [1, 24, 64, 65, 1000])
    def test_nonce_freshness(self, length):
        # Different nonces must give different keystreams -- re-encryption
        # on every ORAM write-back relies on this.
        cipher = StreamCipher(b"stream-key")
        assert cipher.keystream(1, length) != cipher.keystream(2, length)

    @pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 63, 64, 65, 1000])
    def test_keystream_covers_the_record(self, length):
        # One digest (64 bytes) up to 64; exactly ``length`` past it.
        stream = StreamCipher(b"stream-key").keystream(5, length)
        assert len(stream) == max(64, length)

    @pytest.mark.parametrize("length", [1, 64, 65, 1000])
    def test_deterministic(self, length):
        # Opening a record re-derives its keystream from key and nonce alone.
        a, b = StreamCipher(b"stream-key"), StreamCipher(b"stream-key")
        assert a.keystream(7, length) == b.keystream(7, length)

    @pytest.mark.parametrize("length", [1, 64, 65, 1000])
    def test_keys_separate_streams(self, length):
        a, b = StreamCipher(b"stream-key-a"), StreamCipher(b"stream-key-b")
        assert a.keystream(7, length) != b.keystream(7, length)

    @pytest.mark.parametrize("length", [24, 200])
    def test_nonce_is_taken_modulo_2_64(self, length):
        # Records carry a 64-bit nonce field, so the cipher sees no more.
        cipher = StreamCipher(b"stream-key")
        assert cipher.keystream(2**64 + 3, length) == cipher.keystream(3, length)
        assert cipher.keystream(-1, length) == cipher.keystream(2**64 - 1, length)

    def test_narrow_and_wide_streams_are_unrelated(self):
        cipher = StreamCipher(b"stream-key")
        assert cipher.keystream(9, 65)[:64] != cipher.keystream_block(9)


class TestVectorizedKeystream:
    def test_keystream_block_is_keystream_prefix(self):
        cipher = StreamCipher(b"vec-key")
        assert cipher.keystream_block(13) == cipher.keystream(13, 64)
        assert cipher.keystream_block(13)[:24] == cipher.keystream(13, 24)[:24]

    def test_keystream_blocks_is_a_keystream_block_loop(self):
        cipher = StreamCipher(b"vec-key")
        nonces = [0, 1, 13, 2**63]
        blocks = cipher.keystream_blocks(iter(nonces))
        assert blocks == [cipher.keystream_block(nonce) for nonce in nonces]


class TestCtrConstruction:
    def test_stream_rejects_empty_key(self):
        with pytest.raises(ValueError):
            StreamCipher(b"")

    def test_stream_rejects_keys_it_would_have_to_truncate(self):
        # Two keys that differ only past byte 64 must never be one cipher.
        StreamCipher(b"k" * 64)
        for tail in (b"a", b"b"):
            with pytest.raises(ValueError, match="at most 64"):
                StreamCipher(b"k" * 64 + tail)

    @pytest.mark.parametrize("length", [24, 65])
    def test_stream_absorbs_the_whole_key(self, length):
        # Length-prefixed, so a key is not confused with its zero-padding.
        streams = {
            StreamCipher(key).keystream(1, length)
            for key in (b"k" * 63 + b"a", b"k" * 63 + b"b", b"k" * 63, b"k" * 63 + b"\x00")
        }
        assert len(streams) == 4

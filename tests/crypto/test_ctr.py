"""CTR-mode / stream cipher tests."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.cipher import Speck64, XTEA
from repro.crypto.ctr import CtrCipher, NullCipher, StreamCipher


@pytest.fixture(params=["speck-ctr", "xtea-ctr", "blake2-stream"])
def record_cipher(request):
    if request.param == "speck-ctr":
        return CtrCipher(Speck64(bytes(range(16))))
    if request.param == "xtea-ctr":
        return CtrCipher(XTEA(bytes(range(16))))
    return StreamCipher(b"stream-key")


class TestRecordCiphers:
    def test_roundtrip(self, record_cipher):
        data = b"the quick brown fox jumps over the lazy dog"
        assert record_cipher.decrypt(5, record_cipher.encrypt(5, data)) == data

    def test_length_preserving(self, record_cipher):
        for size in (0, 1, 7, 8, 9, 63, 64, 65, 1000):
            data = bytes(range(256)) * 4
            ct = record_cipher.encrypt(1, data[:size])
            assert len(ct) == size

    def test_nonce_freshness(self, record_cipher):
        # Same plaintext under different nonces must differ -- re-encryption
        # on every ORAM write-back relies on this.
        data = b"identical-plaintext-0"
        assert record_cipher.encrypt(1, data) != record_cipher.encrypt(2, data)

    def test_wrong_nonce_garbles(self, record_cipher):
        data = b"some secret payload"
        assert record_cipher.decrypt(9, record_cipher.encrypt(3, data)) != data

    def test_deterministic(self, record_cipher):
        data = b"replay me"
        assert record_cipher.encrypt(7, data) == record_cipher.encrypt(7, data)

    @given(st.integers(min_value=0, max_value=2**62), st.binary(max_size=200))
    def test_roundtrip_property(self, nonce, data):
        cipher = StreamCipher(b"prop-key")
        assert cipher.decrypt(nonce, cipher.encrypt(nonce, data)) == data


class TestVectorizedKeystream:
    """The word-wise XOR fast paths must equal a byte-by-byte reference."""

    @staticmethod
    def reference_xor(data: bytes, stream: bytes) -> bytes:
        return bytes(p ^ s for p, s in zip(data, stream))

    @pytest.mark.parametrize("size", [0, 1, 7, 8, 24, 63, 64, 65, 200])
    def test_stream_cipher_matches_reference(self, size):
        cipher = StreamCipher(b"vec-key")
        data = bytes(range(256))[:size] if size <= 256 else bytes(size)
        stream = cipher.keystream(9, size)[:size] if size else b""
        assert cipher.encrypt(9, data) == self.reference_xor(data, stream)

    @pytest.mark.parametrize("size", [0, 1, 8, 24, 65])
    def test_ctr_cipher_matches_reference(self, size):
        cipher = CtrCipher(Speck64(bytes(range(16))))
        data = bytes((i * 7) % 256 for i in range(size))
        stream = cipher.keystream(5, size)[:size] if size else b""
        assert cipher.encrypt(5, data) == self.reference_xor(data, stream)

    def test_keystream_block_is_keystream_prefix(self):
        cipher = StreamCipher(b"vec-key")
        assert cipher.keystream_block(13) == cipher.keystream(13, 64)
        assert cipher.keystream_block(13)[:24] == cipher.keystream(13, 24)[:24]

    def test_xor_bytes_helper(self):
        from repro.crypto.ctr import xor_bytes

        data, stream = b"hello-world", bytes(range(200, 216))
        assert xor_bytes(data, stream) == self.reference_xor(data, stream)
        assert xor_bytes(b"", stream) == b""
        assert xor_bytes(memoryview(data), stream) == self.reference_xor(data, stream)


class TestCtrConstruction:
    def test_rejects_non_64bit_cipher(self):
        class Wide:
            block_bytes = 16

        with pytest.raises(ValueError):
            CtrCipher(Wide())

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

    @pytest.mark.parametrize("cipher_cls", [Speck64, XTEA])
    def test_ctr_refuses_nonces_past_its_32_bit_field(self, cipher_cls):
        # The codec counts nonces in 64 bits; wrapping would reuse keystream.
        cipher = CtrCipher(cipher_cls(bytes(range(16))))
        assert cipher.keystream(2**32 - 1, 16) != cipher.keystream(0, 16)
        for nonce in (2**32, 2**32 + 5, 2**63, -1):
            with pytest.raises(ValueError, match="32-bit"):
                cipher.keystream(nonce, 16)
            with pytest.raises(ValueError, match="32-bit"):
                cipher.encrypt(nonce, b"sixteen byte msg")


class TestNullCipher:
    def test_identity(self):
        cipher = NullCipher()
        assert cipher.encrypt(1, b"abc") == b"abc"
        assert cipher.decrypt(99, b"abc") == b"abc"

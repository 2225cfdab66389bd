"""Bit-identity of the vectorized kernels against their pure-Python twins.

Every numpy batch path in the repository must produce exactly the bytes
of the scalar loop it replaces -- the golden fingerprints depend on it.
These tests run each kernel twice, once per backend (monkeypatching
``repro.accel.np``), and compare byte-for-byte.  The CI fallback leg
additionally runs the whole suite with ``REPRO_NO_NUMPY=1``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import accel
from repro.crypto.cipher import XTEA, Speck64
from repro.crypto.ctr import CtrCipher, NullCipher, StreamCipher
from repro.oram.base import DUMMY_ADDR, BlockCodec

KEY16 = bytes(range(16))

needs_numpy = pytest.mark.skipif(
    accel.np is None, reason="numpy unavailable; the scalar path is the only path"
)


@pytest.fixture
def no_numpy(monkeypatch):
    """Force the pure-Python fallback for the duration of one call."""

    def off():
        monkeypatch.setattr(accel, "np", None)

    def on(np=accel.np):
        monkeypatch.setattr(accel, "np", np)

    return off, on


def both_backends(no_numpy, fn):
    """Run ``fn`` with numpy on and off; return (vectorized, fallback)."""
    off, on = no_numpy
    on()
    vectorized = fn()
    off()
    fallback = fn()
    on()
    return vectorized, fallback


@needs_numpy
class TestCounterBlockKeystreams:
    @pytest.mark.parametrize("cipher_cls", [Speck64, XTEA])
    @pytest.mark.parametrize("length", [1, 8, 9, 64, 200])
    def test_ctr_keystream_matches_per_block_loop(self, cipher_cls, length):
        ctr = CtrCipher(cipher_cls(KEY16))
        vectorized = ctr.keystream(0xDEADBEEF, length)
        expected = b"".join(
            cipher_cls(KEY16).encrypt_block(
                (0xDEADBEEF & 0xFFFFFFFF).to_bytes(4, "little") + counter.to_bytes(4, "little")
            )
            for counter in range((length + 7) // 8)
        )
        assert vectorized == expected

    @pytest.mark.parametrize("cipher_cls", [Speck64, XTEA])
    def test_ctr_keystream_numpy_off_is_identical(self, cipher_cls, no_numpy):
        ctr = CtrCipher(cipher_cls(KEY16))
        vectorized, fallback = both_backends(
            no_numpy, lambda: ctr.keystream(0x89ABCDEF, 120)
        )
        assert vectorized == fallback

    @pytest.mark.parametrize("cipher_cls", [Speck64, XTEA])
    def test_ctr_roundtrip_across_backends(self, cipher_cls, no_numpy):
        off, on = no_numpy
        plaintext = bytes(range(97))
        on()
        ciphertext = CtrCipher(cipher_cls(KEY16)).encrypt(42, plaintext)
        off()
        assert CtrCipher(cipher_cls(KEY16)).decrypt(42, ciphertext) == plaintext


#: ``StreamCipher(b"key-material").keystream(7, length)`` for wide lengths.
WIDE_KEYSTREAM_HEX = {
    65: (
        "fff397368b4f2686de7a9b75327b27bb9838307f00e2debe6072b8955aa2fe21"
        "9d516d74141d415b24e5f2dabb479b01bbc7338108d1c1b5ef8c9de5c186e7e5"
        "95"
    ),
    128: (
        "fff397368b4f2686de7a9b75327b27bb9838307f00e2debe6072b8955aa2fe21"
        "9d516d74141d415b24e5f2dabb479b01bbc7338108d1c1b5ef8c9de5c186e7e5"
        "955337b058a545f85f573e3a15c66271235b97975ef1efa11a94d703926234ed"
        "0622b0c3cc26ed35e690ccc4d69be7f37f148aef4b00302230da400b900b0208"
    ),
    1032: (
        "fff397368b4f2686de7a9b75327b27bb9838307f00e2debe6072b8955aa2fe21"
        "9d516d74141d415b24e5f2dabb479b01bbc7338108d1c1b5ef8c9de5c186e7e5"
        "955337b058a545f85f573e3a15c66271235b97975ef1efa11a94d703926234ed"
        "0622b0c3cc26ed35e690ccc4d69be7f37f148aef4b00302230da400b900b0208"
        "9ab14e5a68c2faa232118007d5628d09f5a6bba914cf2b81d646323bcbdbb3ac"
        "3ef2bba35e703c2c92a3d9faa65c7d7aabee8246c9973b9d25f673168ad02ff0"
        "820d044880fd7e49d3991fba58500aad3362c0fd58ba54edc682da4c48872508"
        "a1d1a2ada5633dc7d77698409604721faa5dfae4a33f7c55553adfd5e1dbbf7c"
        "ff334d589d136fa1687d87620308f8459a4b214228add312fd06cf4f886296ae"
        "3373819df5a5340ede4c7d0646efc890753390715c9b3f691ef3af17fc28721f"
        "a4a9f3616416cf9c4e536d2e3a27aac64f26e360a35de111a28c064e2830b7b4"
        "33751b092be34a5a9664ca6671041cf443c63022f71cdfb47e2af94ec1c520f5"
        "6aa6a01d7f6c3b46181defc608cbf3ac49fe68d25a7c9c119fe2affa6a41d61f"
        "27d0a7cdcb7567df1aba993443f2a8133b92e567eea26bce8d70011ce6dd754b"
        "6a5aeb4fc627f78d9d797f2d681b56c95e258253103eaa9d916f8e8f8576991a"
        "ca0aaa99d8a9d4b327809003b9f1ee81598ad23bd16b4e3f3f0e707a54f8a435"
        "1a9f87941b985cff4aa3d943f0997d96b395a866706cd2a4a2c814697259b0ac"
        "05f2cf96ebb2343087bace6152a67cc5b0072cb536bf1bd51d1880a380aebf9e"
        "a18b3b87ea0d145319b0e945ae49d41b8ea8604eb1b410f0b4ea55a0470bb3e1"
        "6513cd65535e65320f844ab04463c3441edf822732b9fe10eb74093bb67f956a"
        "bfb77d5996c5a5a511ffe6630433d7ee35b3105a45fcc68e8f2fe1d9562572ed"
        "a58c76f55b6b3d4c6dcbb6db194d4f78d9fee07439f3a31b619bec41da28767c"
        "47870eac5762bef66fe7a7b9aeb573ea05201c6e1f2d62b27508abc85a30d349"
        "f55af59138b02112e0ccb9788587cc5baeae7349e55a9cff097d32c18e1eea5d"
        "bad6636db05b655f141fafef044201ac94adc64d09ce1ceefaa12de7c5f35e19"
        "ad809bf73ee44219b423ba26ca0d76c590d219648711c86ed9487833101f6947"
        "ea1957d62133c9c16daefa4adf5bbb0dbe2107be8292141f7b142d7e00affab7"
        "bc71732ce2573d88fafb3e63a5f0def926fc6fad1dfda0230df37b1964715d69"
        "c443810f0e33c8429c5d4210a1220dc44f937465bfdab39690d312becb04ac8b"
        "c23558748996ae5078bb0cd85df0c585a1f00b1426f26d2951ec9c875f5128f1"
        "d32c759a5574e8756f96aa8a92a1b7660192b4ea9c1e33f9ed541b563dc23ffb"
        "29c3c652d36162afcc2ecfd913050520a06f6ff46796cd8981785a588d63756c"
        "846161e7f42cdba1"
    ),
}


class TestStreamCipherKeystream:
    @pytest.mark.parametrize("length", [1, 63, 64])
    def test_single_allocation_path_matches_block_chain(self, length):
        """One digest covers every record of at most 64 bytes."""
        cipher = StreamCipher(b"key-material")
        stream = cipher.keystream(7, length)
        assert stream == cipher.keystream_block(7) == cipher.keystream_blocks([7])[0]
        assert len(stream) == 64

    def test_keystream_block_bytes_are_pinned(self):
        """The narrow path is the format every pinned configuration uses."""
        h = hashlib.blake2b(key=b"key-material", digest_size=64)
        h.update((7).to_bytes(8, "little") + bytes(8))
        assert StreamCipher(b"key-material").keystream_block(7) == h.digest()

    @pytest.mark.parametrize("length", sorted(WIDE_KEYSTREAM_HEX))
    def test_wide_keystream_known_answers(self, length):
        stream = StreamCipher(b"key-material").keystream(7, length)
        assert len(stream) == length
        assert stream.hex() == WIDE_KEYSTREAM_HEX[length]

    def test_wide_keystream_is_one_keyed_xof_call(self):
        """domain || len(key) || key, then the 64-bit nonce, squeezed once."""
        key = b"key-material"
        xof = hashlib.shake_256(
            b"repro.crypto.ctr.StreamCipher/shake256/v1" + bytes([len(key)]) + key
        )
        xof.update((7).to_bytes(8, "little"))
        assert StreamCipher(key).keystream(7, 1032) == xof.digest(1032)

    def test_wide_keystream_prefix_consistency(self):
        cipher = StreamCipher(b"key-material")
        assert cipher.keystream(7, 128)[:65] == cipher.keystream(7, 65)
        assert cipher.keystream(7, 1032)[:128] == cipher.keystream(7, 128)

    def test_wide_keystream_is_nonce_and_key_fresh(self):
        cipher = StreamCipher(b"key-material")
        assert cipher.keystream(7, 65) != cipher.keystream(8, 65)
        assert cipher.keystream(7, 65) != cipher.keystream(7 + 2**32, 65)
        assert cipher.keystream(7, 65) != StreamCipher(b"key-materiam").keystream(7, 65)

    @pytest.mark.parametrize("length", [1, 64, 65, 1032])
    def test_keystream_many_matches_per_nonce_calls(self, length):
        cipher = StreamCipher(b"key-material")
        nonces = [1, 2, 2**40, 2**64 - 1]
        streams = cipher.keystream_many(iter(nonces), length)
        assert streams == [cipher.keystream(nonce, length) for nonce in nonces]
        assert len({len(stream) for stream in streams}) == 1


@needs_numpy
class TestCodecBatchParity:
    def codec(self, cipher=None, payload_bytes=24, mac_key=None):
        return BlockCodec(
            payload_bytes, cipher if cipher is not None else StreamCipher(b"k"), mac_key=mac_key
        )

    def entries(self, count, payload_bytes=24):
        return [
            (index, bytes([(index * 7 + offset) % 251 for offset in range(payload_bytes)]))
            for index in range(count)
        ]

    @pytest.mark.parametrize("count,dummy_tail", [(0, 20), (20, 0), (13, 9), (3, 2)])
    def test_seal_many_identical_across_backends(self, no_numpy, count, dummy_tail):
        entries = self.entries(count)
        vectorized, fallback = both_backends(
            no_numpy, lambda: bytes(self.codec().seal_many(entries, dummy_tail=dummy_tail))
        )
        assert vectorized == fallback

    def test_seal_many_pads_short_payloads(self, no_numpy):
        entries = [(1, b"short"), (2, b"x" * 24)] + self.entries(10)
        vectorized, fallback = both_backends(
            no_numpy, lambda: bytes(self.codec().seal_many(entries))
        )
        assert vectorized == fallback

    def test_seal_many_matches_loop_of_seal_calls(self):
        batch, loop = self.codec(), self.codec()
        entries = self.entries(16)
        sealed = bytes(batch.seal_many(entries, dummy_tail=4))
        expected = b"".join(loop.seal(addr, payload) for addr, payload in entries)
        expected += b"".join(loop.seal_dummy() for _ in range(4))
        assert sealed == expected
        assert batch._nonce_counter == loop._nonce_counter

    def test_open_run_identical_across_backends(self, no_numpy):
        codec = self.codec()
        buffer = codec.seal_many(self.entries(17), dummy_tail=3)
        vectorized, fallback = both_backends(no_numpy, lambda: codec.open_run(buffer))
        assert vectorized == fallback
        assert vectorized[0] == self.entries(1)[0]
        assert vectorized[-1][0] == DUMMY_ADDR

    def test_open_many_identical_across_backends(self, no_numpy):
        codec = self.codec()
        buffer = bytes(codec.seal_many(self.entries(12)))
        size = codec.slot_bytes
        records = [buffer[offset : offset + size] for offset in range(0, len(buffer), size)]
        vectorized, fallback = both_backends(no_numpy, lambda: codec.open_many(records))
        assert vectorized == fallback == self.entries(12)

    def test_ctr_cipher_codec_batches_too(self, no_numpy):
        entries = self.entries(15)

        def run():
            codec = self.codec(cipher=CtrCipher(Speck64(KEY16)))
            sealed = bytes(codec.seal_many(entries, dummy_tail=5))
            return sealed, codec.open_run(sealed)

        vectorized, fallback = both_backends(no_numpy, run)
        assert vectorized == fallback

    def test_mac_codec_stays_correct(self, no_numpy):
        """MACed codecs take the scalar path; results must still agree."""

        def run():
            codec = self.codec(mac_key=b"mac")
            sealed = bytes(codec.seal_many(self.entries(10), dummy_tail=2))
            return sealed, codec.open_run(sealed)

        vectorized, fallback = both_backends(no_numpy, run)
        assert vectorized == fallback

    def test_null_cipher_codec_unaffected(self, no_numpy):
        def run():
            codec = self.codec(cipher=NullCipher())
            return bytes(codec.seal_many(self.entries(9), dummy_tail=1))

        vectorized, fallback = both_backends(no_numpy, run)
        assert vectorized == fallback


@needs_numpy
class TestProtocolParity:
    def test_horam_fingerprint_identical_without_numpy(self, no_numpy):
        """End-to-end: a full H-ORAM run must not notice the backend."""
        from repro.core.horam import build_horam
        from repro.crypto.random import DeterministicRandom
        from repro.workload.generators import hotspot

        def run():
            horam = build_horam(n_blocks=256, mem_tree_blocks=64, seed=5)
            rng = DeterministicRandom(9)
            served = [
                horam.access(request)
                for request in hotspot(256, 120, rng, hot_blocks=16)
            ]
            return served, horam.hierarchy.clock.now_us, horam.metrics.requests_served

        vectorized, fallback = both_backends(no_numpy, run)
        assert vectorized == fallback

"""Counter-mode encryption for arbitrary-length ORAM payloads.

ORAM slots hold fixed-size records (header + payload).  :class:`CtrCipher`
turns any 64-bit :class:`~repro.crypto.cipher.BlockCipher` into a
length-preserving cipher: each record is encrypted under a fresh nonce so
re-encrypting the same plaintext on every path write-back produces a fresh
ciphertext -- the property ORAM relies on so an adversary cannot match
blocks across accesses by content.

:class:`StreamCipher` offers a faster keystream built on ``hashlib.blake2b``
(C speed) with the same interface; it is the default for large simulations.
:class:`NullCipher` is the identity and exists so functional tests can
inspect stored bytes directly.

The keystream XOR is word-wise: plaintext and keystream are folded into
single big integers and XORed in one C operation (:func:`xor_bytes`), which
is an order of magnitude faster than a per-byte generator for the record
sizes ORAM moves.  Every :class:`StreamCipher` record costs one hash call:
one 64-byte BLAKE2b digest when it fits, one SHAKE-256 squeeze of the
whole length when it does not.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable, Protocol

from repro.crypto.cipher import BlockCipher

_MASK64 = 0xFFFFFFFFFFFFFFFF
_PACK_Q = struct.Struct("<Q").pack
_PACK_QQ = struct.Struct("<QQ").pack
_PACK_II = struct.Struct("<II").pack

#: Domain separator absorbed ahead of the key into the wide-record XOF.
_XOF_DOMAIN = b"repro.crypto.ctr.StreamCipher/shake256/v1"


def xor_bytes(data: bytes | memoryview, stream: bytes) -> bytes:
    """XOR ``data`` with the prefix of ``stream`` word-wise.

    ``stream`` must be at least as long as ``data``.  Both operands are
    converted to arbitrary-precision integers and XORed in one operation,
    so the per-byte Python loop disappears from the hot path.
    """
    length = len(data)
    if length == 0:
        return b""
    if len(stream) < length:
        # Never zero-pad a keystream: the tail would pass through as
        # plaintext.  Callers must supply at least len(data) bytes.
        raise ValueError(f"keystream of {len(stream)} bytes for {length} bytes of data")
    if len(stream) != length:
        stream = stream[:length]
    return (
        int.from_bytes(data, "little") ^ int.from_bytes(stream, "little")
    ).to_bytes(length, "little")


class RecordCipher(Protocol):
    """Nonce-based, length-preserving record encryption."""

    def encrypt(self, nonce: int, plaintext: bytes) -> bytes: ...

    def decrypt(self, nonce: int, ciphertext: bytes) -> bytes: ...


class CtrCipher:
    """CTR mode over a 64-bit block cipher.

    The counter block is ``nonce (32 bits) || counter (32 bits)``; the
    caller supplies a distinct nonce per (slot, version) pair, and a nonce
    that does not fit 32 bits is refused, since wrapping it would reuse a
    keystream.  Encryption and decryption are the same keystream XOR.
    """

    def __init__(self, cipher: BlockCipher):
        if cipher.block_bytes != 8:
            raise ValueError("CtrCipher expects a 64-bit block cipher")
        self._cipher = cipher

    def keystream(self, nonce: int, length: int) -> bytes:
        """At least ``length`` keystream bytes for ``nonce`` (block-rounded)."""
        if not 0 <= nonce <= 0xFFFFFFFF:
            raise ValueError(f"nonce {nonce} does not fit the 32-bit counter-block field")
        blocks = (length + 7) // 8
        batch = getattr(self._cipher, "encrypt_counter_blocks", None)
        if batch is not None:
            stream = batch(nonce, blocks)
            if stream is not None:
                return stream
        # Single-allocation fallback: fill one buffer block by block
        # instead of building a chunk list and joining it.
        encrypt_block = self._cipher.encrypt_block
        out = bytearray(blocks * 8)
        for counter in range(blocks):
            out[counter * 8 : counter * 8 + 8] = encrypt_block(_PACK_II(nonce, counter))
        return bytes(out)

    def encrypt(self, nonce: int, plaintext: bytes) -> bytes:
        return xor_bytes(plaintext, self.keystream(nonce, len(plaintext)))

    def decrypt(self, nonce: int, ciphertext: bytes) -> bytes:
        # CTR is an involution given the same nonce.
        return self.encrypt(nonce, ciphertext)


class StreamCipher:
    """Keyed keystream cipher, one hash call per record.

    Records of at most 64 bytes take one keyed ``hashlib.blake2b`` digest;
    wider ones take one ``hashlib.shake_256`` squeeze of exactly the length
    asked for (an XOF, so a shorter stream is a prefix of a longer one for
    the same nonce).  Both run at C speed, so encrypting the millions of
    slot records a full Table 5-4 run touches stays tractable while still
    producing nonce-fresh ciphertexts.  Each keyed state is built once and
    ``copy()``-ed per nonce, which skips re-absorbing the key on every
    record.  The two widths share nothing but the key: the first 64 bytes
    of a wide stream are unrelated to the narrow block.
    """

    def __init__(self, key: bytes):
        if not key:
            raise ValueError("StreamCipher needs a non-empty key")
        if len(key) > 64:
            # Truncating would make keys that differ past byte 64 equal.
            raise ValueError(f"StreamCipher key is {len(key)} bytes; at most 64 are supported")
        self._hasher = hashlib.blake2b(key=key, digest_size=64)
        self._xof = hashlib.shake_256(_XOF_DOMAIN + bytes([len(key)]) + key)

    def keystream_block(self, nonce: int) -> bytes:
        """The 64 keystream bytes of a record that fits one digest.

        Exposed so record codecs can take a single-call path for records
        that fit one digest (see :class:`~repro.oram.base.BlockCodec`).
        """
        h = self._hasher.copy()
        h.update(_PACK_QQ(nonce & _MASK64, 0))
        return h.digest()

    def keystream_blocks(self, nonces: "Iterable[int]") -> list[bytes]:
        """:meth:`keystream_block` for every nonce.

        ``b"".join(map(keystream_block, nonces))`` would produce the same
        bytes as joining the result.
        """
        return self.keystream_many(nonces, 64)

    def keystream(self, nonce: int, length: int) -> bytes:
        """At least ``length`` keystream bytes for ``nonce``: 64 when one
        digest covers them, exactly ``length`` otherwise."""
        if length <= 64:
            return self.keystream_block(nonce)
        x = self._xof.copy()
        x.update(_PACK_Q(nonce & _MASK64))
        return x.digest(length)

    def keystream_many(self, nonces: "Iterable[int]", length: int) -> list[bytes]:
        """:meth:`keystream` for every nonce -- the bulk hot path.

        One loop frame for a whole batch instead of one :meth:`keystream`
        call per record: the record codecs hand this the nonce sequence
        of an entire slot run, so the per-call dispatch overhead (which
        dominates at ORAM record sizes) amortizes away.  Every stream in
        the result has the same width (64, or ``length`` when that is
        larger), so a batch kernel can join them into one matrix whatever
        the record size.
        """
        out = []
        append = out.append
        if length <= 64:
            hasher = self._hasher
            pack = _PACK_QQ
            for nonce in nonces:
                h = hasher.copy()
                h.update(pack(nonce & _MASK64, 0))
                append(h.digest())
        else:
            xof = self._xof
            pack = _PACK_Q
            for nonce in nonces:
                x = xof.copy()
                x.update(pack(nonce & _MASK64))
                append(x.digest(length))
        return out

    def encrypt(self, nonce: int, plaintext: bytes) -> bytes:
        length = len(plaintext)
        if 0 < length <= 64:
            # Inlined hot path: one keyed-hash block, one word-wise XOR.
            h = self._hasher.copy()
            h.update(_PACK_QQ(nonce & _MASK64, 0))
            return (
                int.from_bytes(plaintext, "little")
                ^ int.from_bytes(h.digest()[:length], "little")
            ).to_bytes(length, "little")
        return xor_bytes(plaintext, self.keystream(nonce, length))

    def decrypt(self, nonce: int, ciphertext: bytes) -> bytes:
        return self.encrypt(nonce, ciphertext)


class NullCipher:
    """Identity record cipher (plaintext storage, for debugging and tests)."""

    def encrypt(self, nonce: int, plaintext: bytes) -> bytes:
        return plaintext

    def decrypt(self, nonce: int, ciphertext: bytes) -> bytes:
        return ciphertext

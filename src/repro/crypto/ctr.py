"""The record cipher: a nonce-keyed keystream for fixed-size ORAM records.

ORAM slots hold fixed-size records (header + payload).  Every record is
encrypted under a fresh nonce, so re-encrypting the same plaintext on every
path write-back produces a fresh ciphertext -- the property ORAM relies on
so an adversary cannot match blocks across accesses by content.

:class:`StreamCipher` only produces keystream; the record codec
(:class:`~repro.oram.base.BlockCodec`) does the XOR itself, word-wise:
record and keystream are folded into single big integers and XORed in one
C operation, an order of magnitude faster than a per-byte generator for the
record sizes ORAM moves.  Every record costs one hash call: one 64-byte
BLAKE2b digest when it fits, one SHAKE-256 squeeze of the whole length when
it does not.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable

_MASK64 = 0xFFFFFFFFFFFFFFFF
_PACK_Q = struct.Struct("<Q").pack
_PACK_NONCE_BLOCK = struct.Struct("<QQ").pack  # nonce || block index (digest input)

#: Domain separator absorbed ahead of the key into the wide-record XOF.
_XOF_DOMAIN = b"repro.crypto.ctr.StreamCipher/shake256/v1"


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
        h.update(_PACK_NONCE_BLOCK(nonce & _MASK64, 0))
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
            pack = _PACK_NONCE_BLOCK
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

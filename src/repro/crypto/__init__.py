"""Cryptographic substrate for the H-ORAM reproduction.

Every ORAM layer in this repository stores ciphertext and draws its
position remaps and storage permutations from a keyed deterministic
generator.  This package provides those primitives from scratch (no
external dependencies):

* :mod:`repro.crypto.ctr` -- :class:`StreamCipher`, the record cipher: one
  keyed hash call of keystream per record, under a fresh nonce each seal.
* :mod:`repro.crypto.random` -- :class:`DeterministicRandom`, a
  deterministic, version-stable CSPRNG used everywhere a protocol needs
  random choices (leaf remaps, shuffles, keys), so experiments replay
  exactly.

The cipher is a *functional* substitute for the AES hardware the paper
assumes: any nonce-fresh, length-preserving cipher exercises the same
encrypt-on-store / decrypt-on-fetch code path.  Simulated time for
encryption is charged by the device models, not by wall-clock, so the
pure-Python implementation does not distort the reported numbers.
"""

from repro.crypto.ctr import StreamCipher
from repro.crypto.random import DeterministicRandom

__all__ = [
    "StreamCipher",
    "DeterministicRandom",
]

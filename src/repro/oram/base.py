"""Shared ORAM types: requests, the protocol interface, the record codec.

Every slot in every tier stores a *sealed record*::

    nonce (8 bytes, clear) || ciphertext( addr (8 bytes) || payload )

The nonce is drawn fresh on every seal, so rewriting the same block always
yields a new ciphertext (the re-encryption ORAM requires).  ``addr`` is the
logical block address inside the ciphertext; the reserved value
:data:`DUMMY_ADDR` marks dummy records, indistinguishable from real ones
from the outside because the flag sits under encryption.
"""

from __future__ import annotations

import hashlib
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from typing import Iterable

from repro import accel as _accel
from repro.crypto.ctr import StreamCipher
from repro.crypto.random import DeterministicRandom

#: Logical address reserved for dummy records.
DUMMY_ADDR = 0xFFFFFFFFFFFFFFFF

#: Records per batch below which the scalar loop beats the batched paths
#: (setup costs more than it saves on tiny batches).
_BATCH_MIN = 8

#: Bytes of sealed records per batch above which the numpy kernel beats
#: the big-integer batch: 48 of the default 32-byte records.  Below it
#: numpy's per-op dispatch overhead eats the win.  What repays that
#: overhead is bytes moved, not records: a 28-record path write of 1 KiB
#: blocks is 35 % faster per record through numpy, where 28 default
#: records are not.
_NP_MIN_BYTES = 48 * 32

#: Bytes of sealed records one batch-kernel call handles; longer runs go
#: through the kernels in pieces.  A kernel holds several whole-run
#: temporaries (keystream, plaintext, XOR result), which on a store-sized
#: run of wide records would otherwise show up in the peak resident set.
_KERNEL_MAX_BYTES = 1 << 18

_HEADER_FMT = "<Q"  # addr inside the ciphertext
_NONCE_BYTES = 8
_ADDR_BYTES = 8
_PACK_Q = struct.Struct("<Q").pack  # pre-compiled header packer (hot path)
_PACK_QQ = struct.Struct("<QQ").pack  # nonce || addr in one call (batch path)
_ZERO8 = b"\x00" * 8  # keystream hole over the clear nonce (batch path)
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Bytes of overhead a sealed record adds on top of the payload.
RECORD_OVERHEAD = _NONCE_BYTES + _ADDR_BYTES


class ORAMError(Exception):
    """Base class for protocol failures."""


class CapacityError(ORAMError):
    """A structure was asked to hold more real blocks than it can."""


class StashOverflowError(ORAMError):
    """The stash exceeded its configured bound (protocol parameter bug)."""


class IntegrityError(ORAMError):
    """A record failed MAC verification (tampering or corruption)."""


class StackClosedError(ORAMError, RuntimeError):
    """A stack (or a store of one) was used after ``close()``.

    Also a ``RuntimeError``, so a caller that catches a closed fleet's
    error as one keeps working."""


class Released:
    """What ``close()`` leaves in place of a table or slab it gave back.

    Any use of it -- an attribute, an index, ``len``, ``in``, iteration,
    truth, ``bytes()`` -- raises :class:`StackClosedError`, so a
    closed stack fails with one typed error wherever a request, drain or
    checkpoint first touches what it released, and no hot path tests a
    flag.
    """

    _what = "a table"  # a class default: an unset one must not recurse

    def __init__(self, what: str):
        self._what = what

    def _closed(self, *args, **kwargs):
        raise StackClosedError(f"{self._what} was released by close()")

    __getattr__ = __getitem__ = __setitem__ = __delitem__ = _closed
    __len__ = __iter__ = __contains__ = __bool__ = _closed


def release(owner, *names: str) -> None:
    """Replace each named attribute of ``owner`` with a :class:`Released`."""
    for name in names:
        setattr(owner, name, Released(f"{type(owner).__name__}.{name}"))


class OpKind(Enum):
    READ = "read"
    WRITE = "write"


_request_ids = count()


@dataclass
class Request:
    """One logical block request, as produced by the workload generators."""

    op: OpKind
    addr: int
    data: bytes | None = None
    #: tenant tag; ``None`` means "untagged" (multi-user front ends set it).
    user: int | None = None
    request_id: int = field(default_factory=lambda: next(_request_ids))

    def __post_init__(self) -> None:
        if self.op is OpKind.WRITE and self.data is None:
            raise ValueError("write requests need data")
        if self.addr < 0:
            raise ValueError("addresses are non-negative")

    @classmethod
    def read(cls, addr: int, user: int | None = None) -> "Request":
        return cls(op=OpKind.READ, addr=addr, user=user)

    @classmethod
    def write(cls, addr: int, data: bytes, user: int | None = None) -> "Request":
        return cls(op=OpKind.WRITE, addr=addr, data=data, user=user)


#: Bytes of the optional integrity tag appended to sealed records.
MAC_BYTES = 8


class BlockCodec:
    """Seals and opens slot records (pad, address, encrypt, optional MAC).

    With ``mac_key`` set, every record carries an 8-byte keyed BLAKE2b tag
    over ``nonce || ciphertext``; :meth:`open` raises
    :class:`IntegrityError` on mismatch.  This is the "integrity check" of
    the trusted-hardware setting the paper's threat model assumes (the
    enclave detects tampering with off-chip data).

    Batch variants (:meth:`seal_many`, :meth:`open_run`, :meth:`open_many`)
    move whole slot runs through the cipher with one call, producing or
    consuming the flat buffers the :class:`~repro.storage.backend.BlockStore`
    bulk APIs speak.  They are exactly equivalent to a loop of single-record
    calls -- same nonce sequence, same bytes -- just without the per-record
    Python overhead.
    """

    def __init__(self, payload_bytes: int, cipher: StreamCipher, mac_key: bytes | None = None):
        if payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")
        if mac_key is not None and not mac_key:
            raise ValueError("mac_key must be non-empty when given")
        self.payload_bytes = payload_bytes
        self.mac_key = mac_key
        self.slot_bytes = RECORD_OVERHEAD + payload_bytes + (MAC_BYTES if mac_key else 0)
        self._nonce_counter = 0
        self._mac_hasher = (
            hashlib.blake2b(key=mac_key[:64], digest_size=MAC_BYTES)
            if mac_key is not None
            else None
        )
        # The codec XORs records with the cipher's keystream itself (fresh
        # nonce per record as always), and the constant dummy plaintext is
        # precomputed as an integer.  keystream_block is the single-call
        # variant for records that fit one 64-byte keystream block -- the
        # common ORAM slot size.
        self._plain_bytes = _ADDR_BYTES + payload_bytes
        self._keystream = cipher.keystream
        self._keystream_block = cipher.keystream_block if self._plain_bytes <= 64 else None
        # Bulk keystream for the batch kernels, whatever the record width.
        self._keystream_many = cipher.keystream_many
        self._kernel_records = max(1, _KERNEL_MAX_BYTES // self.slot_bytes)
        self._dummy_plain = _PACK_Q(DUMMY_ADDR) + b"\x00" * payload_bytes
        self._dummy_plain_int = int.from_bytes(self._dummy_plain, "little")

    def _tag(self, body: bytes) -> bytes:
        assert self._mac_hasher is not None
        h = self._mac_hasher.copy()
        h.update(body)
        return h.digest()

    def pad(self, data: bytes) -> bytes:
        """Right-pad user data to the fixed payload size."""
        if len(data) > self.payload_bytes:
            raise ValueError(
                f"payload of {len(data)} bytes exceeds block payload size {self.payload_bytes}"
            )
        return data.ljust(self.payload_bytes, b"\x00")

    def seal(self, addr: int, payload: bytes) -> bytes:
        """Encrypt (addr, payload) into a slot record with a fresh nonce."""
        if len(payload) != self.payload_bytes:
            payload = self.pad(payload)
        nonce = self._nonce_counter + 1
        self._nonce_counter = nonce
        length = self._plain_bytes
        keystream_block = self._keystream_block
        # One keystream call, XOR header+payload with the stream as one
        # integer -- no intermediate plaintext or ciphertext objects.
        if keystream_block is not None:
            stream = keystream_block(nonce)[:length]
        else:
            stream = self._keystream(nonce, length)
        plain_int = int.from_bytes(_PACK_Q(addr) + payload, "little")
        body = _PACK_Q(nonce) + (
            plain_int ^ int.from_bytes(stream, "little")
        ).to_bytes(length, "little")
        if self.mac_key is not None:
            body += self._tag(body)
        return body

    def seal_dummy(self) -> bytes:
        """A dummy record, outwardly indistinguishable from a real one."""
        return self.seal(DUMMY_ADDR, b"\x00" * self.payload_bytes)

    def seal_many(
        self, entries: "Iterable[tuple[int, bytes]]", dummy_tail: int = 0
    ) -> bytearray:
        """Seal a run of records into one flat buffer (bulk write path).

        Nonces are drawn in entry order, then for each of the ``dummy_tail``
        trailing dummy records -- byte-identical to the equivalent loop of
        :meth:`seal` / :meth:`seal_dummy` calls.  The result is sized for
        :meth:`~repro.storage.backend.BlockStore.write_run` /
        ``poke_run`` flat-buffer input.
        """
        if type(entries) is not list:
            entries = list(entries)
        n = len(entries) + dummy_tail
        if n >= _BATCH_MIN and self._mac_hasher is None:
            step = self._kernel_records
            if n > step:
                # More than one kernel call may hold: piece by piece, in
                # nonce order, so the bytes are those of a single call.
                out = bytearray()
                for start in range(0, n, step):
                    piece = entries[start : start + step]
                    out += self.seal_many(piece, min(step, n - start) - len(piece))
                return out
            np = _accel.np
            if np is not None and n * self.slot_bytes >= _NP_MIN_BYTES:
                return self._seal_batch(np, entries, dummy_tail)
            return self._seal_batch_bytes(entries, dummy_tail)
        out = bytearray()
        seal = self.seal
        for addr, payload in entries:
            out += seal(addr, payload)
        if dummy_tail > 0:
            # Same bytes as seal_dummy(), minus the per-record plaintext
            # assembly: XOR the constant dummy plaintext with each
            # record's fresh keystream directly.
            length = self._plain_bytes
            dummy_int = self._dummy_plain_int
            nonce = self._nonce_counter
            mac = self._mac_hasher
            keystream_block = self._keystream_block
            if keystream_block is not None and mac is None:
                # Tightest loop: the overwhelmingly common shape (narrow
                # records, no MAC).
                for _ in range(dummy_tail):
                    nonce += 1
                    out += _PACK_Q(nonce)
                    out += (
                        dummy_int
                        ^ int.from_bytes(keystream_block(nonce)[:length], "little")
                    ).to_bytes(length, "little")
            else:
                keystream = self._keystream
                for _ in range(dummy_tail):
                    nonce += 1
                    stream = keystream(nonce, length)
                    if len(stream) != length:
                        stream = stream[:length]
                    body = _PACK_Q(nonce) + (
                        dummy_int ^ int.from_bytes(stream, "little")
                    ).to_bytes(length, "little")
                    if mac is not None:
                        h = mac.copy()
                        h.update(body)
                        body += h.digest()
                    out += body
            self._nonce_counter = nonce
        return out

    def _seal_batch(self, np, entries: "list[tuple[int, bytes]]", dummy_tail: int) -> bytearray:
        """Vectorized :meth:`seal_many` (no MAC).

        The per-record keystream digests still run one hash call each (the
        nonce sequence pins them); what vectorizes is everything around
        them -- header packing, padding, the XOR, and record assembly run
        as whole-matrix operations instead of per-record int conversions.
        """
        k = len(entries)
        n = k + dummy_tail
        length = self._plain_bytes
        payload_bytes = self.payload_bytes
        nonce0 = self._nonce_counter
        stream = np.frombuffer(
            b"".join(self._keystream_many(range(nonce0 + 1, nonce0 + n + 1), length)),
            dtype=np.uint8,
        ).reshape(n, -1)[:, :length]
        self._nonce_counter = nonce0 + n
        plain = np.zeros((n, length), dtype=np.uint8)
        if k:
            plain[:k, :_ADDR_BYTES] = (
                np.array([addr for addr, _ in entries], dtype="<u8")
                .view(np.uint8)
                .reshape(k, _ADDR_BYTES)
            )
            payloads = b"".join(
                payload if len(payload) == payload_bytes else self.pad(payload)
                for _, payload in entries
            )
            plain[:k, _ADDR_BYTES:] = np.frombuffer(payloads, dtype=np.uint8).reshape(
                k, payload_bytes
            )
        if dummy_tail:
            plain[k:, :_ADDR_BYTES] = 0xFF  # DUMMY_ADDR header; payload stays zero
        out = np.empty((n, self.slot_bytes), dtype=np.uint8)
        out[:, :_NONCE_BYTES] = (
            np.arange(nonce0 + 1, nonce0 + n + 1, dtype="<u8")
            .view(np.uint8)
            .reshape(n, _NONCE_BYTES)
        )
        out[:, _NONCE_BYTES:] = plain ^ stream
        return bytearray(out)

    def _seal_batch_bytes(self, entries: "list[tuple[int, bytes]]", dummy_tail: int) -> bytearray:
        """Big-integer :meth:`seal_many` batch (no MAC).

        The path-write batch shape -- a few dozen records -- is too small
        for numpy's per-op dispatch to pay off, but not for batching as
        such: the whole run is XORed as one arbitrary-precision integer
        (one C operation), with the clear nonce column surviving under a
        zero keystream hole.  Also the numpy-absent fallback for large
        runs; byte-identical to the equivalent loop of :meth:`seal` /
        :meth:`seal_dummy` calls either way.
        """
        k = len(entries)
        n = k + dummy_tail
        length = self._plain_bytes
        payload_bytes = self.payload_bytes
        nonce0 = self._nonce_counter
        self._nonce_counter = nonce0 + n
        stream = b"".join(
            [
                _ZERO8 + block[:length]
                for block in self._keystream_many(range(nonce0 + 1, nonce0 + n + 1), length)
            ]
        )
        pack_qq = _PACK_QQ
        pad = self.pad
        parts = [
            pack_qq(nonce, addr)
            + (payload if len(payload) == payload_bytes else pad(payload))
            for nonce, (addr, payload) in enumerate(entries, nonce0 + 1)
        ]
        if dummy_tail:
            pack_q = _PACK_Q
            dummy = self._dummy_plain
            parts.extend(
                [pack_q(nonce) + dummy for nonce in range(nonce0 + k + 1, nonce0 + n + 1)]
            )
        plain = b"".join(parts)
        return bytearray(
            (int.from_bytes(plain, "little") ^ int.from_bytes(stream, "little")).to_bytes(
                n * self.slot_bytes, "little"
            )
        )

    def open(self, record: bytes | memoryview) -> tuple[int, bytes]:
        """Decrypt (and verify, when MACed) a slot record into (addr, payload)."""
        if len(record) != self.slot_bytes:
            raise ValueError(
                f"record is {len(record)} bytes, expected {self.slot_bytes}"
            )
        if self.mac_key is not None:
            body, tag = record[:-MAC_BYTES], record[-MAC_BYTES:]
            if self._tag(body) != tag:
                raise IntegrityError("record failed MAC verification")
            record = body
        nonce = int.from_bytes(record[:_NONCE_BYTES], "little")
        length = self._plain_bytes
        keystream_block = self._keystream_block
        # One keystream call, one integer XOR, then split addr (low 64
        # bits, little-endian) from the payload.
        if keystream_block is not None:
            stream = keystream_block(nonce)[:length]
        else:
            stream = self._keystream(nonce, length)
        plain_int = int.from_bytes(record[_NONCE_BYTES:], "little") ^ int.from_bytes(
            stream, "little"
        )
        addr = plain_int & _MASK64
        payload = (plain_int >> 64).to_bytes(self.payload_bytes, "little")
        return addr, payload

    def open_many(
        self, records: "Iterable[bytes | memoryview]"
    ) -> list[tuple[int, bytes]]:
        """Open a batch of records (amortizes per-call dispatch)."""
        if type(records) is not list:
            records = list(records)
        if len(records) >= _BATCH_MIN and self._mac_hasher is None:
            # Gathering scattered records into one flat buffer costs one
            # copy; the vectorized run-open pays it back severalfold.
            return self.open_run(b"".join(records))
        open_one = self.open
        return [open_one(record) for record in records]

    def open_run(self, buffer: bytes | bytearray | memoryview) -> list[tuple[int, bytes]]:
        """Open every record in a flat slot-run buffer.

        Accepts the memoryview returned by
        :meth:`~repro.storage.backend.BlockStore.peek_run` /
        ``read_run_view`` without copying individual records first.
        """
        view = memoryview(buffer)
        size = self.slot_bytes
        if view.nbytes % size:
            raise ValueError(
                f"buffer of {view.nbytes} bytes is not a whole number of "
                f"{size}-byte records"
            )
        if view.nbytes >= _BATCH_MIN * size and self._mac_hasher is None:
            step = self._kernel_records * size
            if view.nbytes > step:
                out = []
                for offset in range(0, view.nbytes, step):
                    out += self.open_run(view[offset : offset + step])
                return out
            np = _accel.np
            if np is not None and view.nbytes >= _NP_MIN_BYTES:
                return self._open_batch(np, view, view.nbytes // size)
            return self._open_batch_bytes(view, view.nbytes // size)
        open_one = self.open
        return [open_one(view[offset : offset + size]) for offset in range(0, view.nbytes, size)]

    def _open_batch(
        self, np, view: memoryview, n: int
    ) -> list[tuple[int, bytes]]:
        """Vectorized :meth:`open_run` (no MAC)."""
        length = self._plain_bytes
        records = np.frombuffer(view, dtype=np.uint8).reshape(n, self.slot_bytes)
        nonces = records[:, :_NONCE_BYTES].copy().view("<u8").ravel().tolist()
        stream = np.frombuffer(
            b"".join(self._keystream_many(nonces, length)), dtype=np.uint8
        ).reshape(n, -1)[:, :length]
        plain = records[:, _NONCE_BYTES:] ^ stream
        addrs = plain[:, :_ADDR_BYTES].copy().view("<u8").ravel().tolist()
        # A void view turns each row into one bytes object in C.
        payloads = (
            np.ascontiguousarray(plain[:, _ADDR_BYTES:])
            .view(f"V{self.payload_bytes}")
            .ravel()
            .tolist()
        )
        return list(zip(addrs, payloads))

    def _open_batch_bytes(self, view: memoryview, n: int) -> list[tuple[int, bytes]]:
        """Big-integer :meth:`open_run` batch (no MAC).

        Mirror of :meth:`_seal_batch_bytes`: one whole-run XOR under a
        zero keystream hole over each clear nonce, then per-record header
        splits on the decrypted buffer.
        """
        size = self.slot_bytes
        length = self._plain_bytes
        buf = bytes(view)
        from_bytes = int.from_bytes
        nonces = [
            from_bytes(buf[offset : offset + _NONCE_BYTES], "little")
            for offset in range(0, n * size, size)
        ]
        stream = b"".join(
            [_ZERO8 + block[:length] for block in self._keystream_many(nonces, length)]
        )
        plain = (from_bytes(buf, "little") ^ from_bytes(stream, "little")).to_bytes(
            n * size, "little"
        )
        addr_at = _NONCE_BYTES
        payload_at = _NONCE_BYTES + _ADDR_BYTES
        out = []
        append = out.append
        offset = 0
        for _ in range(n):
            append(
                (
                    from_bytes(plain[offset + addr_at : offset + payload_at], "little"),
                    plain[offset + payload_at : offset + size],
                )
            )
            offset += size
        return out

    def is_dummy(self, record: bytes) -> bool:
        addr, _ = self.open(record)
        return addr == DUMMY_ADDR


def _make_codec(payload_bytes: int, seed: int, integrity: bool = False) -> BlockCodec:
    """The record codec every stack built from ``seed`` seals with.

    The only place the record key (and, with ``integrity``, the MAC key)
    is derived, so a build, a kernel's default codec and a checkpoint
    restore all agree on it.
    """
    rng = DeterministicRandom(seed)
    key = rng.spawn("record-key").token(32)
    mac_key = rng.spawn("mac-key").token(32) if integrity else None
    return BlockCodec(payload_bytes, StreamCipher(key), mac_key=mac_key)


def initial_payload(addr: int) -> bytes:
    """Deterministic initial content of block ``addr`` (shared by all ORAMs).

    Every protocol initializes block ``addr`` to this value, so the engine's
    verification oracle knows what a read of a never-written block returns.
    Kept to 8 bytes so it fits any payload size the codec allows.
    """
    return struct.pack("<Q", addr)


class ORAMProtocol(ABC):
    """The user-facing oblivious memory interface.

    Every stack in this repository (H-ORAM, the sharded fleet and the two
    baselines) implements this; the simulation engine and the examples
    only talk to it.  A subclass sets ``_address_limit`` to ``n_blocks``
    when it is built.
    """

    #: set by :meth:`close`.
    closed = False
    #: the :class:`~repro.storage.hierarchy.StorageHierarchy` the stack
    #: runs on, or None (a baseline built outside the recipe).
    hierarchy = None
    #: addresses :meth:`check_addr` accepts: ``n_blocks`` while open, none
    #: once closed, so the bounds check every request already passes is
    #: also its closed check.
    _address_limit = 0

    @property
    @abstractmethod
    def n_blocks(self) -> int:
        """Number of logical blocks protected."""

    @abstractmethod
    def read(self, addr: int) -> bytes:
        """Obliviously read one block's payload."""

    @abstractmethod
    def write(self, addr: int, data: bytes) -> None:
        """Obliviously update one block."""

    def access(self, request: Request) -> bytes | None:
        """Serve a request object (dispatch helper for the engine)."""
        if request.op is OpKind.READ:
            return self.read(request.addr)
        self.write(request.addr, request.data or b"")
        return None

    def check_addr(self, addr: int) -> None:
        if not 0 <= addr < self._address_limit:
            if self.closed:
                raise StackClosedError(f"{type(self).__name__} is closed")
            raise ORAMError(f"address {addr} outside [0, {self.n_blocks})")

    def close(self) -> None:
        """Give back the memory the stack's geometry sized; idempotent.

        Drops the protocol's O(N) tables and closes both tiers of its
        hierarchy (:meth:`_release_memory`).  Metrics, the recipe, the
        served digest, the latency histogram and the store counters stay
        readable; a read, write, submit, drain or ``snapshot_stack`` then
        raises :class:`StackClosedError`.
        """
        if self.closed:
            return
        self.closed = True
        self._address_limit = 0
        self._release_memory()

    def _release_memory(self) -> None:
        """Drop what the geometry sized (tables, slabs, worker processes)."""
        if self.hierarchy is not None:
            self.hierarchy.close()

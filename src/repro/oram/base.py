"""Shared ORAM types: requests, the protocol interface, the record codec.

Every slot in every tier stores a *sealed record*::

    nonce (8 bytes, clear) || ciphertext( addr (8 bytes) || payload )

The nonce is drawn fresh on every seal, so rewriting the same block always
yields a new ciphertext (the re-encryption ORAM requires).  ``addr`` is the
logical block address inside the ciphertext; the reserved value
:data:`DUMMY_ADDR` marks dummy records, indistinguishable from real ones
from the outside because the flag sits under encryption.

Slot runs move through one image kernel, :meth:`BlockCodec.seal_columns` /
:meth:`BlockCodec.open_columns`: an address column (dummy rows included)
and a payload matrix in, one flat buffer of sealed records out, and back.
Initial images (:func:`initial_payloads` builds their matrix) and the
storage layer's partition rewrites use it directly; the pairwise
:meth:`BlockCodec.seal_many` / :meth:`BlockCodec.open_run` are adapters
over it.

The kernel has two forms, picked by the run's record count alone: the
single-record loop under :data:`_BATCH_MIN` records (the reference form,
and the only one MACed records take), and numpy matrix operations from
there on (tree paths, partition images, initial images).  Both produce
the same bytes.
"""

from __future__ import annotations

import hashlib
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from typing import Iterable

import numpy as np

from repro.crypto.ctr import StreamCipher
from repro.crypto.random import DeterministicRandom

#: Logical address reserved for dummy records.
DUMMY_ADDR = 0xFFFFFFFFFFFFFFFF

#: Records per batch below which the single-record loop beats the numpy
#: kernel (numpy's per-op dispatch costs more than it saves on tiny
#: batches).
_BATCH_MIN = 8

#: Bytes of sealed records one numpy kernel call handles; longer runs go
#: through it in pieces.  The kernel holds several whole-run temporaries
#: (keystream, plaintext, XOR result), which on a store-sized run of wide
#: records would otherwise show up in the peak resident set.
_KERNEL_MAX_BYTES = 1 << 18

_HEADER_FMT = "<Q"  # addr inside the ciphertext
_NONCE_BYTES = 8
_ADDR_BYTES = 8
_PACK_Q = struct.Struct("<Q").pack  # pre-compiled header packer (hot path)
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

    The image kernel (:meth:`seal_columns`, :meth:`open_columns`) moves
    whole slot runs through the cipher as columns, producing or consuming
    the flat buffers the :class:`~repro.storage.backend.BlockStore` bulk
    APIs speak; :meth:`seal_many`, :meth:`open_run` and :meth:`open_many`
    adapt ``(addr, payload)`` pairs to it.  Each side has two forms: the
    loop of :meth:`seal` / :meth:`open` calls under :data:`_BATCH_MIN`
    records (and for every MACed run), and one numpy kernel
    (:meth:`_seal_batch`, :meth:`_open_batch`) from there on.  The kernel
    is exactly equivalent to the loop -- same nonce sequence, same bytes --
    just without the per-record Python overhead.
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
        # nonce per record as always).  keystream_block is the single-call
        # variant for records that fit one 64-byte keystream block -- the
        # common ORAM slot size.
        self._plain_bytes = _ADDR_BYTES + payload_bytes
        self._keystream = cipher.keystream
        self._keystream_block = cipher.keystream_block if self._plain_bytes <= 64 else None
        # Bulk keystream for the batch kernels, whatever the record width.
        self._keystream_many = cipher.keystream_many
        self._kernel_records = max(1, _KERNEL_MAX_BYTES // self.slot_bytes)

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

    def reserve_nonces(self, n: int) -> int:
        """Set the next ``n`` nonces aside for a later :meth:`seal_columns`
        call that passes the returned ``nonce0``; later seals draw past them."""
        nonce0 = self._nonce_counter
        self._nonce_counter = nonce0 + n
        return nonce0

    def seal_dummy(self) -> bytes:
        """A dummy record, outwardly indistinguishable from a real one."""
        return self.seal(DUMMY_ADDR, b"\x00" * self.payload_bytes)

    def seal_columns(self, addrs, payloads, nonce0: int | None = None) -> bytearray:
        """Seal one record per row of an address column into one flat
        buffer: the image kernel every bulk write goes through.

        ``addrs`` is the address column (a list, ``array('Q')``, range or
        numpy integer array; :data:`DUMMY_ADDR` marks a dummy row) and
        ``payloads`` the payload matrix of the first ``k`` rows: a list of
        ``payload_bytes``-wide rows, or any C-contiguous buffer holding
        them back to back.  Rows past ``k`` have all-zero payloads, the
        dummy rows of a region.  Nonces are drawn in row order, so the
        bytes are those of a loop of :meth:`seal` calls, in the form the
        run's size picks (see the module docstring).  A list row of any
        other width raises ``ValueError`` in either form (:meth:`seal_many`
        pads short payloads before it gets here).  The result is sized
        for :meth:`~repro.storage.backend.BlockStore.write_run` /
        ``poke_run``.  With ``nonce0`` (from :meth:`reserve_nonces`) the
        rows take the reserved nonces ``nonce0 + 1, ...`` instead of fresh
        ones, so a run sealed late has the bytes it would have had when its
        nonces were reserved.
        """
        if nonce0 is not None:
            # Run the kernel from the reserved range, then put the counter
            # back where later seals left it.
            counter, self._nonce_counter = self._nonce_counter, nonce0
            try:
                return self.seal_columns(addrs, payloads)
            finally:
                self._nonce_counter = counter
        n = len(addrs)
        width = self.payload_bytes
        if type(payloads) is list and any(len(row) != width for row in payloads):
            raise ValueError(f"payload rows are not all {width} bytes wide")
        batch = n >= _BATCH_MIN and self._mac_hasher is None
        payloads = payload_matrix(payloads, width) if batch else self._rows(payloads)
        if len(payloads) > n:
            raise ValueError(f"{len(payloads)} payload rows for {n} addresses")
        if not batch:
            # The reference form: MACed records are tagged one by one, and
            # tiny runs do not repay the numpy kernel's setup.
            seal = self.seal
            zero = bytes(width)
            rows = len(payloads)
            out = bytearray()
            for index, addr in enumerate(addrs):
                out += seal(addr, payloads[index] if index < rows else zero)
            return out
        step = self._kernel_records
        if n <= step:
            return self._seal_batch(addrs, payloads)
        # Piece by piece, in nonce order, so the bytes are those of one call.
        out = bytearray()
        for start in range(0, n, step):
            out += self._seal_batch(addrs[start : start + step], payloads[start : start + step])
        return out

    def _rows(self, payloads) -> "list[bytes]":
        """``payloads`` (rows, or a buffer of them) as a list of rows."""
        if type(payloads) is list:
            return payloads
        data = memoryview(payloads).cast("B").tobytes()
        width = self.payload_bytes
        if len(data) % width:
            raise ValueError(
                f"payload matrix of {len(data)} bytes is not whole {width}-byte rows"
            )
        return [data[start : start + width] for start in range(0, len(data), width)]

    def seal_many(
        self, entries: "Iterable[tuple[int, bytes]]", dummy_tail: int = 0
    ) -> bytearray:
        """Seal ``(addr, payload)`` entries, then ``dummy_tail`` dummy
        records, into one flat buffer (bulk write path).

        An adapter over :meth:`seal_columns`: the entries become its
        address column and payload rows (short payloads padded), so the
        bytes and nonces are those of the equivalent loop of :meth:`seal`
        / :meth:`seal_dummy` calls.
        """
        if type(entries) is not list:
            entries = list(entries)
        payload_bytes = self.payload_bytes
        pad = self.pad
        addrs = [addr for addr, _ in entries]
        if dummy_tail > 0:
            addrs += [DUMMY_ADDR] * dummy_tail
        rows = [
            payload if len(payload) == payload_bytes else pad(payload) for _, payload in entries
        ]
        return self.seal_columns(addrs, rows)

    def _seal_batch(self, addrs, payloads) -> bytearray:
        """Vectorized :meth:`seal_columns` piece (no MAC).

        The per-record keystream digests still run one hash call each (the
        nonce sequence pins them); what vectorizes is everything around
        them -- the nonce and address columns, the payload rows and the
        XOR run as whole-matrix operations on the output buffer itself.
        """
        n = len(addrs)
        length = self._plain_bytes
        nonce0 = self._nonce_counter
        stream = np.frombuffer(
            b"".join(self._keystream_many(range(nonce0 + 1, nonce0 + n + 1), length)),
            dtype=np.uint8,
        ).reshape(n, -1)[:, :length]
        self._nonce_counter = nonce0 + n
        out = bytearray(n * self.slot_bytes)  # rows past the matrix keep zero payloads
        records = np.frombuffer(out, dtype=np.uint8).reshape(n, self.slot_bytes)
        records[:, :_NONCE_BYTES] = (
            np.arange(nonce0 + 1, nonce0 + n + 1, dtype="<u8").view(np.uint8).reshape(n, -1)
        )
        records[:, _NONCE_BYTES:RECORD_OVERHEAD] = (
            np.asarray(addrs, dtype="<u8").view(np.uint8).reshape(n, -1)
        )
        records[: len(payloads), RECORD_OVERHEAD:] = payloads
        records[:, _NONCE_BYTES:] ^= stream
        return out

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
        """Open every record in a flat slot-run buffer into ``(addr,
        payload)`` pairs.

        Accepts the memoryview returned by
        :meth:`~repro.storage.backend.BlockStore.peek_run` /
        ``read_run_view`` without copying individual records first.  An
        adapter over :meth:`open_columns` that pairs its columns up.
        """
        addrs, payloads = self.open_columns(buffer)
        if type(payloads) is list:
            return list(zip(addrs, payloads))
        # A void view turns each row into one bytes object in C.
        return list(zip(addrs.tolist(), payloads.view(f"V{self.payload_bytes}").ravel().tolist()))

    def open_columns(self, buffer):
        """Open every record in a flat slot-run buffer into the columns
        :meth:`seal_columns` takes: ``(addrs, payloads)``.

        An unauthenticated run of :data:`_BATCH_MIN` records or more opens
        through the numpy kernel into a uint64 address array and an ``(n,
        payload_bytes)`` uint8 payload matrix; any other run goes through
        the single-record loop into a list of ints and a list of rows.
        Either is valid :meth:`seal_columns` input.  MACed records are
        verified one by one, in run order (:class:`IntegrityError` on the
        first that fails).
        """
        view = memoryview(buffer).cast("B")
        size = self.slot_bytes
        if view.nbytes % size:
            raise ValueError(
                f"buffer of {view.nbytes} bytes is not a whole number of "
                f"{size}-byte records"
            )
        if view.nbytes < _BATCH_MIN * size or self._mac_hasher is not None:
            open_one = self.open
            opened = [
                open_one(view[offset : offset + size]) for offset in range(0, view.nbytes, size)
            ]
            return [addr for addr, _ in opened], [payload for _, payload in opened]
        step = self._kernel_records * size
        if view.nbytes <= step:
            return self._open_batch(view, view.nbytes // size)
        pieces = [
            self._open_batch(view[offset : offset + step], min(step, view.nbytes - offset) // size)
            for offset in range(0, view.nbytes, step)
        ]
        return (
            np.concatenate([addrs for addrs, _ in pieces]),
            np.concatenate([payloads for _, payloads in pieces]),
        )

    def _open_batch(self, view: memoryview, n: int):
        """Vectorized :meth:`open_columns` piece (no MAC)."""
        length = self._plain_bytes
        records = np.frombuffer(view, dtype=np.uint8).reshape(n, self.slot_bytes)
        nonces = records[:, :_NONCE_BYTES].copy().view("<u8").ravel().tolist()
        stream = np.frombuffer(
            b"".join(self._keystream_many(nonces, length)), dtype=np.uint8
        ).reshape(n, -1)[:, :length]
        addrs = records[:, _NONCE_BYTES:RECORD_OVERHEAD] ^ stream[:, :_ADDR_BYTES]
        payloads = records[:, RECORD_OVERHEAD:] ^ stream[:, _ADDR_BYTES:]
        return addrs.view("<u8").ravel(), payloads


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


def payload_matrix(payloads, payload_bytes: int):
    """A payload matrix -- a list of rows, or a C-contiguous buffer holding
    them back to back -- as a ``(k, payload_bytes)`` uint8 numpy array."""
    rows = len(payloads) if type(payloads) is list else None
    if rows is not None:
        payloads = b"".join(payloads)
    matrix = np.frombuffer(payloads, dtype=np.uint8)
    if matrix.size % payload_bytes or rows not in (None, matrix.size // payload_bytes):
        raise ValueError(
            f"payload matrix of {matrix.size} bytes is not whole {payload_bytes}-byte rows"
        )
    return matrix.reshape(-1, payload_bytes)


def initial_payloads(addrs, payload_bytes: int) -> bytearray:
    """The payload matrix of ``initial_payload(addr)`` for every address of
    the column ``addrs`` (a sequence of ints or a numpy integer array),
    each row zero-padded to ``payload_bytes``: what
    :meth:`BlockCodec.seal_columns` takes to seal a block's initial
    content, with no bytes object per record."""
    if payload_bytes < _ADDR_BYTES:
        raise ValueError(
            f"payload of {_ADDR_BYTES} bytes exceeds block payload size {payload_bytes}"
        )
    packed = np.asarray(addrs, dtype="<u8").tobytes()
    rows = bytearray(len(addrs) * payload_bytes)
    # Byte j of every row at once: the rows are a strided view of the matrix.
    for byte in range(_ADDR_BYTES):
        rows[byte::payload_bytes] = packed[byte::_ADDR_BYTES]
    return rows


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

    def write_back(self, limit: int | None = None) -> int:
        """Write back up to ``limit`` of the storage tier's pending regions
        (all when ``None``), oldest first; returns how many are left.

        A pending region is a partition rewrite whose shuffle period has
        run -- draws, placement, nonces and charges -- but whose records
        are not sealed yet (see
        :class:`~repro.storage.backend.DeferredRun`).  The store writes
        one back by itself before anything touches its slots, so calling
        this only moves that work into time nobody waits on: a server
        with nothing to serve, or the end of an engine run.
        """
        if self.hierarchy is None:
            return 0
        return self.hierarchy.storage.write_back(limit)

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

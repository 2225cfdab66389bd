"""Wire protocol of the serving front door: length-prefixed JSON frames.

Every message on the socket -- request or response -- is one *frame*::

    4-byte big-endian body length || UTF-8 JSON body

JSON keeps the protocol debuggable (``nc`` + a hex dump is a working
client) and the length prefix keeps framing trivial under pipelining:
clients may write any number of request frames before reading a single
response, and responses are matched back by the client-chosen ``id``
field, never by ordering.

Requests the server understands::

    {"id": 1, "op": "read",  "addr": 7,              "tenant": 0}
    {"id": 2, "op": "write", "addr": 7, "data": hex, "tenant": 0}
    {"id": 3, "op": "health"}
    {"id": 4, "op": "metrics"}

Read/write frames may also carry:

* ``"deadline_ms"`` -- wall-clock budget for this request, measured from
  server receipt; a request the server cannot serve in time answers with
  a typed ``deadline_exceeded`` rejection instead of arbitrary lateness.
* ``"idem"`` -- an idempotency key (string, unique per *logical*
  request, shared across its retries).  The server executes each
  ``(tenant, idem)`` pair at most once; a retry of an already-served key
  replays the cached response (flagged ``"replayed": true``) and is
  never journaled twice.

Responses::

    {"id": 1, "ok": true,  "seq": 12, "data": hex, "latency_cycles": 3}
    {"id": 2, "ok": false, "error": "overloaded", "message": "..."}

``seq`` is the server's backend program order (the order the request was
fed to the oblivious stack); it is what the direct-submit twin replays
when conformance diffs served bytes.  Error codes are the
:data:`ERROR_CODES` vocabulary; anything with ``ok: false`` never
entered the backend and is excluded from twin comparison by design.

Payload bytes travel hex-encoded (JSON has no bytes type), which
doubles them on the wire.  For the default 16-byte payloads that is
32 characters inside a ~100-byte response frame.  For 1 KiB records a
write request or a read response carries 2 KiB of hex, a 2.1 KiB frame
for 1 KiB of payload; on a 2-vCPU x86 host under CPython 3.11 such a
frame takes ~12 us to encode and ~6 us to decode, against ~4 and ~4 us
for a 16-byte one, plus 1-2 us for the hex conversion itself.

Two readers share one validation: :func:`read_frame` takes one frame
off an :class:`asyncio.StreamReader`, and :class:`FrameDecoder` takes
every complete frame out of whatever bytes a connection has received so
far (the server and client transports use it, so a wake-up that brings
many pipelined frames decodes them all at once).
"""

from __future__ import annotations

import asyncio
import json
import struct

from repro.oram.base import ORAMError

#: Hard cap on one frame's body; a peer announcing more is protocol abuse.
MAX_FRAME_BYTES = 1 << 20

_LEN = struct.Struct(">I")
#: compact, key-sorted JSON; built once (``json.dumps`` with these
#: options builds a fresh encoder on every call).
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)
#: the decoder's value scanner: ``json.loads`` minus two layers of
#: Python and two whitespace matches per frame.
_SCAN = json.JSONDecoder().scan_once

#: Rejection vocabulary: every ``ok: false`` response carries one of these.
ERROR_CODES = (
    "overloaded",        # admission control: queue + ROB occupancy at the bound
    "quota_exhausted",   # the tenant spent its lifetime ops budget
    "rate_limited",      # the tenant's token bucket is empty
    "access_denied",     # the tenant's ACL does not cover the address
    "unknown_tenant",    # no such tenant registered with the server
    "unavailable",       # the address' shard is fenced
    "bad_request",       # malformed frame/fields
    "deadline_exceeded", # the request's deadline passed before it was served
    "draining",          # the server is draining; it admits nothing new
    "shutting_down",     # the server is closing
    "internal",          # unexpected server-side failure
)

#: Codes a well-behaved client may retry (possibly against another
#: replica).  Everything else is terminal for the request as posed:
#: quota/ACL/tenant errors will fail identically on retry, bad frames
#: are the caller's bug, and a draining/shutting-down server will never
#: admit this connection's retries.  ``deadline_exceeded`` is retriable
#: because each attempt carries a *fresh* deadline.
RETRIABLE_CODES = frozenset(
    {"overloaded", "rate_limited", "unavailable", "deadline_exceeded", "internal"}
)


class ProtocolError(ORAMError):
    """The peer violated framing or sent an undecodable body."""


def encode_frame(message: dict) -> bytes:
    """One wire frame for ``message`` (compact JSON, length-prefixed)."""
    body = _ENCODER.encode(message).encode()
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame body of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} cap"
        )
    return _LEN.pack(len(body)) + body


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame; ``None`` on clean EOF (peer closed between frames)."""
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean close
        raise ProtocolError("connection closed mid-header") from None
    length = _checked_length(_LEN.unpack(header)[0])
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame") from None
    return _decode_body(body)


class FrameDecoder:
    """Incremental frame decoder over a connection's received bytes.

    :meth:`feed` appends what the transport delivered and returns every
    frame now complete, in wire order; a partial frame waits in the
    buffer for the next call.  :meth:`eof` says whether the peer closed
    cleanly between frames.  Validation is :func:`read_frame`'s: an
    oversize announcement is refused as soon as its header is in, before
    any of the body arrives.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> "list[dict]":
        buffer = self._buffer
        buffer += data
        end = len(buffer)
        offset = 0
        messages = []
        while end - offset >= _LEN.size:
            length = _checked_length(_LEN.unpack_from(buffer, offset)[0])
            stop = offset + _LEN.size + length
            if stop > end:
                break
            messages.append(_decode_body(buffer[offset + _LEN.size : stop]))
            offset = stop
        if offset:
            del buffer[:offset]
        return messages

    def eof(self) -> None:
        """The peer closed: fine between frames, a ProtocolError inside one."""
        if not self._buffer:
            return
        if len(self._buffer) < _LEN.size:
            raise ProtocolError("connection closed mid-header")
        raise ProtocolError("connection closed mid-frame")


def _checked_length(length: int) -> int:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame (cap {MAX_FRAME_BYTES})"
        )
    return length


def _decode_body(body) -> dict:
    try:
        text = body.decode()
        # One value spanning the whole body is what json.loads would
        # return; anything else (surrounding whitespace, an error to
        # report) goes through json.loads itself, so both paths accept
        # and refuse exactly the same bodies.
        try:
            message, end = _SCAN(text, 0)
        except StopIteration:
            end = -1
        if end != len(text):
            message = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame body: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError("frame body must be a JSON object")
    return message


def to_hex(data: bytes | None) -> str | None:
    return data.hex() if data is not None else None


def from_hex(text: str | None) -> bytes | None:
    if text is None:
        return None
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise ProtocolError(f"invalid hex payload: {text!r}") from None

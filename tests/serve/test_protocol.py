"""Wire-framing tests: length-prefixed JSON frames."""

import asyncio
import struct

import pytest

from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    from_hex,
    read_frame,
    to_hex,
)


def _reader_with(data: bytes, eof: bool = True) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return reader


def _via_read_frame(data: bytes, eof: bool = True) -> "list[dict]":
    """Every frame in ``data``, one ``read_frame`` at a time."""

    async def scenario():
        reader = _reader_with(data, eof)
        frames = []
        while (message := await asyncio.wait_for(read_frame(reader), 5)) is not None:
            frames.append(message)
        return frames

    return asyncio.run(scenario())


def _via_decoder(data: bytes, eof: bool = True) -> "list[dict]":
    """Every frame in ``data``, from one ``FrameDecoder.feed``."""
    decoder = FrameDecoder()
    frames = decoder.feed(data)
    if eof:
        decoder.eof()
    return frames


@pytest.fixture(params=[_via_read_frame, _via_decoder], ids=["read_frame", "decoder"])
def read_all(request):
    return request.param


class TestFraming:
    """One validation, whichever reader takes the frames off the wire."""

    def test_round_trip(self, read_all):
        message = {"id": 7, "op": "read", "addr": 3, "tenant": 0}
        assert read_all(encode_frame(message)) == [message]

    def test_pipelined_frames_parse_in_order(self, read_all):
        wire = encode_frame({"id": 1}) + encode_frame({"id": 2})
        assert [m["id"] for m in read_all(wire)] == [1, 2]

    def test_clean_eof_returns_no_frame(self, read_all):
        assert read_all(b"") == []

    def test_eof_mid_header_raises(self, read_all):
        with pytest.raises(ProtocolError, match="mid-header"):
            read_all(b"\x00\x00")

    def test_eof_mid_frame_raises(self, read_all):
        with pytest.raises(ProtocolError, match="mid-frame"):
            read_all(struct.pack(">I", 10) + b"{}")

    def test_oversize_frame_rejected_before_reading_body(self, read_all):
        # No EOF and no body: a reader waiting for the body would hang.
        with pytest.raises(ProtocolError, match="cap"):
            read_all(struct.pack(">I", MAX_FRAME_BYTES + 1), eof=False)

    def test_undecodable_body_raises(self, read_all):
        body = b"not json"
        with pytest.raises(ProtocolError, match="undecodable"):
            read_all(struct.pack(">I", len(body)) + body)

    def test_invalid_utf8_body_raises(self, read_all):
        body = b'{"a":"\xff"}'
        with pytest.raises(ProtocolError, match="undecodable"):
            read_all(struct.pack(">I", len(body)) + body)

    def test_trailing_data_in_body_raises(self, read_all):
        body = b'{"a":1} {"b":2}'
        with pytest.raises(ProtocolError, match="undecodable"):
            read_all(struct.pack(">I", len(body)) + body)

    def test_whitespace_around_the_object_is_accepted(self, read_all):
        body = b' {"a":1}\n'
        assert read_all(struct.pack(">I", len(body)) + body) == [{"a": 1}]

    def test_non_object_body_raises(self, read_all):
        body = b"[1,2]"
        with pytest.raises(ProtocolError, match="JSON object"):
            read_all(struct.pack(">I", len(body)) + body)

    def test_encode_rejects_oversize_payload(self):
        with pytest.raises(ProtocolError, match="cap"):
            encode_frame({"data": "ff" * MAX_FRAME_BYTES})


class TestFrameDecoder:
    def test_frames_split_at_every_byte_decode_the_same(self):
        messages = [{"id": n, "op": "read", "addr": n * 7, "tenant": 0} for n in range(4)]
        wire = b"".join(encode_frame(m) for m in messages)
        for cut in range(len(wire) + 1):
            decoder = FrameDecoder()
            frames = decoder.feed(wire[:cut]) + decoder.feed(wire[cut:])
            decoder.eof()
            assert frames == messages

    def test_partial_frame_waits_for_the_rest(self):
        wire = encode_frame({"id": 1}) + encode_frame({"id": 2})
        decoder = FrameDecoder()
        assert decoder.feed(wire[:-1]) == [{"id": 1}]
        with pytest.raises(ProtocolError, match="mid-frame"):
            decoder.eof()
        assert decoder.feed(wire[-1:]) == [{"id": 2}]
        decoder.eof()


class TestHexHelpers:
    def test_round_trip(self):
        assert from_hex(to_hex(b"\x00\xffab")) == b"\x00\xffab"

    def test_none_passthrough(self):
        assert to_hex(None) is None
        assert from_hex(None) is None

    def test_invalid_hex_raises(self):
        with pytest.raises(ProtocolError, match="hex"):
            from_hex("zz")

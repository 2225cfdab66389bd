"""The server's transport: batched outboxes, backpressure, peer loss.

Answers leave a connection in one write per pump quantum; a peer that
stops reading pauses the server's reads instead of growing its buffer;
a peer that vanishes leaves nothing pending, running or logged; and the
pump calls whatever ``front.pump``/``front.submit`` are at call time,
which is what instruments wrapping them after construction rely on.
"""

import asyncio
import gc
import logging
import socket
import struct
from collections import Counter

from repro.core.horam import build_horam
from repro.serve import (
    FrameDecoder,
    ORAMServer,
    ServeClient,
    ServeConfig,
    encode_frame,
)


def _horam(seed=7):
    return build_horam(n_blocks=256, mem_tree_blocks=64, seed=seed)


def _reads(count: int) -> bytes:
    return b"".join(
        encode_frame({"id": n, "op": "read", "addr": n % 256, "tenant": 0})
        for n in range(count)
    )


async def _until(predicate, timeout_s: float = 30.0, poll_s: float = 0.002) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not predicate():
        assert loop.time() < deadline, "condition never held"
        await asyncio.sleep(poll_s)


class TestOutbox:
    def test_one_write_per_quantum_per_connection(self, run, make_pair):
        async def scenario():
            server, client = await make_pair(_horam())
            server.add_tenant(0)
            [connection] = server._connections
            writes = []
            write = connection.transport.write

            def counting_write(data):
                writes.append(data)
                write(data)

            connection.transport.write = counting_write
            futures = [
                client.send({"op": "read", "addr": n, "tenant": 0}) for n in range(24)
            ]
            responses = await asyncio.gather(*futures)
            await client.close()
            await server.close()
            return responses, writes

        responses, writes = run(scenario())
        assert all(response["ok"] for response in responses)
        frames = [m for data in writes for m in FrameDecoder().feed(data)]
        assert sorted(m["id"] for m in frames) == list(range(24))
        assert len(writes) < len(frames)

    def test_unread_answers_pause_reads_and_all_arrive(self, run):
        """5000 answers owed to a peer that reads nothing: the server's
        write buffer stays bounded because it stops reading requests;
        once the peer reads again, every answer arrives (served, or
        refused by admission control)."""
        count = 5000

        async def scenario():
            loop = asyncio.get_running_loop()
            server = ORAMServer(_horam(), ServeConfig(max_inflight=256))
            server.add_tenant(0)
            server_end, peer = socket.socketpair()
            for sock in (server_end, peer):
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 16384)
            connection = await server.attach(server_end)
            peak = [0]
            flush = connection.flush

            def measured_flush():
                flush()
                peak[0] = max(peak[0], connection.transport.get_write_buffer_size())

            connection.flush = measured_flush
            peer.setblocking(False)
            sending = loop.create_task(loop.sock_sendall(peer, _reads(count)))
            # Paused, and nothing admitted is left unanswered.
            await _until(
                lambda: not connection.transport.is_reading()
                and server.inflight() == 0
            )
            answered_while_paused = server.served + sum(server.rejections.values())
            received, frames, decoder = 0, [], FrameDecoder()
            while len(frames) < count:
                data = await asyncio.wait_for(loop.sock_recv(peer, 65536), 30)
                assert data, "server closed before answering everything"
                received += len(data)
                frames.extend(decoder.feed(data))
            await sending
            peer.close()
            await server.close()
            return server, answered_while_paused, peak[0], received, frames

        server, answered, peak, received, frames = run(scenario())
        assert answered < count  # reads stopped with requests unread
        assert peak < received / 2  # the buffer held a fraction of the answers
        assert sorted(m["id"] for m in frames) == list(range(count))
        served = [m for m in frames if m["ok"]]
        assert all(m["error"] == "overloaded" for m in frames if not m["ok"])
        assert len(server.journal) == server.served == len(served) > 0

    def test_half_closed_peer_gets_every_answer_owed(self, run):
        async def scenario():
            loop = asyncio.get_running_loop()
            server = ORAMServer(_horam())
            server.add_tenant(0)
            server_end, peer = socket.socketpair()
            await server.attach(server_end)
            peer.setblocking(False)
            await loop.sock_sendall(peer, _reads(40))
            peer.shutdown(socket.SHUT_WR)
            frames, decoder = [], FrameDecoder()
            while data := await asyncio.wait_for(loop.sock_recv(peer, 65536), 30):
                frames.extend(decoder.feed(data))
            decoder.eof()
            peer.close()
            await server.close()
            return frames

        frames = run(scenario())
        assert sorted(m["id"] for m in frames) == list(range(40))
        assert all(m["ok"] for m in frames)


class TestPeerLoss:
    def test_peer_reset_with_answers_owed_leaves_nothing_behind(self, run, caplog):
        caplog.set_level(logging.INFO, logger="asyncio")

        async def scenario():
            loop = asyncio.get_running_loop()
            server = ORAMServer(_horam(), ServeConfig(max_inflight=256))
            server.add_tenant(0)
            server_end, peer = socket.socketpair()
            connection = await server.attach(server_end)
            peer.setblocking(False)
            await loop.sock_sendall(peer, _reads(200))
            # Some answers sit unread at the peer, more are still owed.
            await _until(lambda: server.served > 0 and server.inflight() > 0, poll_s=0)
            # Unread data at close: the server sees a reset, not an EOF.
            peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            peer.close()
            await asyncio.wait_for(connection.lost, 30)
            await server.close()
            others = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
            return server, others

        server, others = run(scenario())
        gc.collect()
        assert server._pending == {}
        assert server._connections == set()
        assert others == []
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []


class TestIdempotencyAcrossConnections:
    def test_join_across_two_connections_executes_once(self, run, make_pair):
        async def scenario():
            server, client_a = await make_pair(_horam())
            server.add_tenant(0)
            server_end, client_end = socket.socketpair()
            await server.attach(server_end)
            client_b = await ServeClient.from_socket(client_end)
            message = {
                "op": "write",
                "addr": 9,
                "data": b"joined".hex(),
                "tenant": 0,
                "idem": "k-join",
            }
            responses = await asyncio.gather(
                client_a.send(dict(message)), client_b.send(dict(message))
            )
            await client_a.close()
            await client_b.close()
            await server.close()
            return server, responses

        server, responses = run(scenario())
        assert all(response["ok"] for response in responses)
        assert responses[0]["seq"] == responses[1]["seq"] == 0
        assert responses[0]["data"] == responses[1]["data"]
        assert server.idem_joins == 1 and server.idem_replays == 0
        assert len(server.journal) == 1 and server.journal[0].idem == "k-join"


class TestInstrumentedFrontEnd:
    def test_replaced_pump_and_submit_are_the_ones_called(self, run, make_pair):
        """Tracers wrap ``front.pump``/``front.submit`` on the instance
        after the server is built; the server must call the wrappers."""

        async def scenario():
            server, client = await make_pair(_horam())
            server.add_tenant(0)
            calls = Counter()
            for name in ("pump", "submit"):
                original = getattr(server.front, name)

                def wrapper(*args, _original=original, _name=name, **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                setattr(server.front, name, wrapper)
            responses = [await client.read(n, tenant=0) for n in range(3)]
            await client.close()
            await server.close()
            return responses, calls

        responses, calls = run(scenario())
        assert all(response["ok"] for response in responses)
        assert calls["submit"] == 3
        assert calls["pump"] >= 3

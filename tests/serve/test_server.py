"""ORAMServer tests: admission, tenancy, pump, health, twin fidelity."""

import asyncio
import dataclasses
import inspect
import socket
import struct

import pytest

from repro.core.horam import build_horam
from repro.core.sharding import build_sharded_horam
from repro.oram.base import initial_payload
from repro.serve import (
    MAX_FRAME_BYTES,
    ORAMServer,
    ServeClient,
    ServeConfig,
    TenantPolicy,
    diff_served,
    replay_direct,
)
from repro.serve import server as server_mod
from repro.testing.stacks import StackSpec, build_stack


def _horam(seed=7):
    return build_horam(n_blocks=256, mem_tree_blocks=64, seed=seed)


class TestServing:
    def test_read_returns_initial_payload(self, run, make_pair):
        async def scenario():
            stack = _horam()
            server, client = await make_pair(stack)
            server.add_tenant(0)
            response = await client.read(9, tenant=0)
            await client.close()
            await server.close()
            return stack, response

        stack, response = run(scenario())
        assert response["ok"] is True
        assert response["seq"] == 0
        assert bytes.fromhex(response["data"]) == stack.codec.pad(initial_payload(9))
        assert response["latency_cycles"] >= 0

    def test_write_then_read_round_trips(self, run, make_pair):
        async def scenario():
            server, client = await make_pair(_horam())
            server.add_tenant(0)
            wrote = await client.write(5, b"serving-bytes", tenant=0)
            read = await client.read(5, tenant=0)
            await client.close()
            await server.close()
            return wrote, read

        wrote, read = run(scenario())
        assert wrote["ok"] and read["ok"]
        assert bytes.fromhex(read["data"]).startswith(b"serving-bytes")

    def test_pipelined_responses_match_by_id(self, run, make_pair):
        async def scenario():
            server, client = await make_pair(_horam())
            server.add_tenant(0)
            futures = {
                addr: client.send({"op": "read", "addr": addr, "tenant": 0})
                for addr in (3, 1, 4, 1, 5)
            }
            await client.drain()
            responses = {addr: await f for addr, f in futures.items()}
            await client.close()
            await server.close()
            return responses

        responses = run(scenario())
        assert all(r["ok"] for r in responses.values())
        payloads = {a: bytes.fromhex(r["data"]) for a, r in responses.items()}
        for addr, payload in payloads.items():
            assert payload.endswith(initial_payload(addr)[-4:])

    def test_concurrent_clients_twin_identical(self, run, make_pair):
        async def scenario():
            stack = _horam(seed=11)
            server, client_a = await make_pair(stack)
            server.add_tenant(0)
            server.add_tenant(1)
            import socket as socket_mod

            server_end, client_end = socket_mod.socketpair()
            await server.attach(server_end)
            client_b = await ServeClient.from_socket(client_end)
            futures = []
            for i in range(20):
                futures.append(
                    client_a.send({"op": "read", "addr": i % 7, "tenant": 0})
                )
                futures.append(
                    client_b.send(
                        {
                            "op": "write",
                            "addr": 100 + (i % 5),
                            "data": f"w{i}".encode().hex(),
                            "tenant": 1,
                        }
                    )
                )
                await client_a.drain()
                await client_b.drain()
            responses = await asyncio.gather(*futures)
            await client_a.close()
            await client_b.close()
            await server.close()
            return server, responses

        server, responses = run(scenario())
        assert all(r["ok"] for r in responses)
        assert len(server.journal) == 40
        twin = replay_direct(server.journal, _horam(seed=11))
        diff = diff_served(server.journal, server.served_by_seq, twin)
        assert diff.identical
        assert diff.compared == 40
        assert diff.unserved == []


class TestAdmissionControl:
    def test_overload_rejection_under_pipelined_burst(self, run, make_pair):
        async def scenario():
            stack = _horam()
            config = ServeConfig(max_inflight=2)
            server, client = await make_pair(stack, config)
            server.add_tenant(0)
            futures = [
                client.send({"op": "read", "addr": i, "tenant": 0}) for i in range(12)
            ]
            await client.drain()
            responses = await asyncio.gather(*futures)
            await client.close()
            await server.close()
            return server, responses

        server, responses = run(scenario())
        served = [r for r in responses if r["ok"]]
        overloaded = [
            r for r in responses if not r["ok"] and r["error"] == "overloaded"
        ]
        assert len(served) + len(overloaded) == 12
        assert len(overloaded) >= 1
        assert server.rejections["overloaded"] == len(overloaded)
        # Rejections never reach the journal: accepted == served.
        assert len(server.journal) == len(served)
        twin = replay_direct(server.journal, _horam())
        assert diff_served(server.journal, server.served_by_seq, twin).identical

    def test_quota_exhaustion_is_exact(self, run, make_pair):
        async def scenario():
            server, client = await make_pair(_horam())
            server.add_tenant(0, TenantPolicy(quota=3))
            responses = [await client.read(i, tenant=0) for i in range(5)]
            health = await client.health()
            await client.close()
            await server.close()
            return responses, health

        responses, health = run(scenario())
        assert [r["ok"] for r in responses] == [True, True, True, False, False]
        assert all(r["error"] == "quota_exhausted" for r in responses[3:])
        assert health["tenants"]["0"]["quota_remaining"] == 0
        assert health["tenants"]["0"]["rejections"]["quota_exhausted"] == 2

    def test_rate_limit_refills_with_the_clock(self, run, make_pair, manual_clock):
        async def scenario():
            clock = manual_clock()
            server, client = await make_pair(_horam(), clock=clock)
            server.add_tenant(0, TenantPolicy(rate_per_s=1.0, burst=1))
            first = await client.read(1, tenant=0)
            second = await client.read(2, tenant=0)
            clock.advance(1.5)
            third = await client.read(3, tenant=0)
            await client.close()
            await server.close()
            return first, second, third

        first, second, third = run(scenario())
        assert first["ok"] is True
        assert second["ok"] is False and second["error"] == "rate_limited"
        assert third["ok"] is True

    def test_access_denied_costs_no_token(self, run, make_pair, manual_clock):
        async def scenario():
            clock = manual_clock()
            server, client = await make_pair(_horam(), clock=clock)
            server.add_tenant(
                0, TenantPolicy(allowed=range(0, 8), rate_per_s=1.0, burst=1)
            )
            denied = await client.read(100, tenant=0)
            allowed = await client.read(3, tenant=0)
            await client.close()
            await server.close()
            return denied, allowed

        denied, allowed = run(scenario())
        assert denied["error"] == "access_denied"
        # The deny happened before the token spend: the next request
        # still has its token.
        assert allowed["ok"] is True

    def test_unknown_tenant_and_bad_request(self, run, make_pair):
        async def scenario():
            server, client = await make_pair(_horam())
            server.add_tenant(0)
            unknown = await client.read(1, tenant=9)
            bad_op = await client.request({"op": "wat", "addr": 1, "tenant": 0})
            bad_addr = await client.request({"op": "read", "addr": "x", "tenant": 0})
            no_data = await client.request({"op": "write", "addr": 1, "tenant": 0})
            await client.close()
            await server.close()
            return unknown, bad_op, bad_addr, no_data

        unknown, bad_op, bad_addr, no_data = run(scenario())
        assert unknown["error"] == "unknown_tenant"
        assert "9" in unknown["message"] and "[0]" in unknown["message"]
        assert bad_op["error"] == "bad_request"
        assert bad_addr["error"] == "bad_request"
        assert no_data["error"] == "bad_request"


class TestHealthAndMetrics:
    def test_health_reports_the_slo_fields(self, run, make_pair):
        async def scenario():
            server, client = await make_pair(_horam())
            server.add_tenant(0)
            for i in range(6):
                await client.read(i, tenant=0)
            health = await client.health()
            await client.close()
            await server.close()
            return health

        health = run(scenario())
        wall = health["latency_percentiles"]["wall_ms"]
        assert set(wall) == {"p50", "p99", "p999"}
        assert wall["p50"] > 0
        assert health["latency_percentiles"]["simulated_cycles"] is not None
        assert health["requests"]["served"] == 6
        assert health["requests"]["accepted"] == 6
        assert health["requests"]["inflight"] == 0
        assert health["fenced_shards"] == []
        assert health["tenants"]["0"]["served"] == 6

    def test_bookkeeping_stays_bounded_over_many_requests(self, run, make_pair):
        """2000 requests later the seq map holds only what is in flight,
        and the wall latencies are one histogram of every served request."""

        async def scenario():
            server, client = await make_pair(_horam(), ServeConfig(max_inflight=64))
            server.add_tenant(0)
            for start in range(0, 2000, 50):
                await asyncio.gather(
                    *(client.read(addr % 256, tenant=0) for addr in range(start, start + 50))
                )
                assert len(server._seq_of_request) <= server.inflight()
            counts = (len(server._seq_of_request), server.inflight())
            histogram = server.wall_latency_us
            health = server.health()
            await client.close()
            await server.close()
            return counts, histogram, health

        (mapped, inflight), histogram, health = run(scenario())
        assert mapped == inflight == 0
        assert histogram.total == health["requests"]["served"] == 2000
        assert 0 < health["latency_percentiles"]["wall_ms"]["p50"]
        wall = health["latency_percentiles"]["wall_ms"]
        assert wall["p50"] <= wall["p99"] <= wall["p999"]

    def test_metrics_op_returns_backend_metrics(self, run, make_pair):
        async def scenario():
            server, client = await make_pair(_horam())
            server.add_tenant(0)
            await client.read(1, tenant=0)
            metrics = await client.metrics()
            await client.close()
            await server.close()
            return metrics

        metrics = run(scenario())
        assert metrics is not None
        assert metrics["requests_served"] >= 1


class TestShardedServing:
    def test_fenced_stripe_rejected_and_reported(self, run, make_pair):
        async def scenario():
            fleet = build_sharded_horam(
                n_blocks=256, mem_tree_blocks=64, n_shards=2, seed=5
            )
            server, client = await make_pair(fleet)
            server.add_tenant(0)
            before = await client.read(3, tenant=0)  # shard 1
            fleet.fence_shard(1)
            after = await client.read(3, tenant=0)
            live = await client.read(4, tenant=0)  # shard 0 still serves
            health = await client.health()
            await client.close()
            await server.close()
            return before, after, live, health

        before, after, live, health = run(scenario())
        assert before["ok"] is True
        assert after["ok"] is False and after["error"] == "unavailable"
        assert live["ok"] is True
        assert health["fenced_shards"] == [1]
        assert health["load_balance"]["fenced_shards"] == [1]
        assert 1 not in health["load_balance"]["shards"]

    def test_supervised_stack_serves_and_twins(self, run, make_pair):
        async def scenario():
            built = build_stack(
                StackSpec(
                    protocol="sharded", n_blocks=256, mem_blocks=64,
                    n_shards=2, seed=9, supervised=True,
                )
            )
            try:
                server, client = await make_pair(built.driver)
                server.add_tenant(0)
                responses = [await client.read(i, tenant=0) for i in range(8)]
                await client.close()
                await server.close()
                return server, responses
            finally:
                built.cleanup()

        server, responses = run(scenario())
        assert all(r["ok"] for r in responses)
        # The supervised stack must serve the same bytes a bare fleet
        # does -- supervision is invisible to clients.
        twin = replay_direct(
            server.journal,
            build_sharded_horam(n_blocks=256, mem_tree_blocks=64, n_shards=2, seed=9),
        )
        assert diff_served(server.journal, server.served_by_seq, twin).identical


class TestFeedQuantum:
    """The pump hands the back end its own quantum, not a guess."""

    def test_backend_shim_forwards_the_stacks_statement(self):
        stack = _horam()
        backend = ORAMServer(stack)._backend
        assert backend.feed_quantum() == stack.feed_quantum()
        # The old sniffing surface is gone, not kept beside the contract.
        assert not hasattr(backend, "config")
        assert not hasattr(backend, "current_c")

    def test_supervised_parallel_fleet_gets_the_whole_backlog(
        self, run, recording_connection
    ):
        """32 queued requests from 3 bursty tenants: one executor step,
        journaled in tenant round-robin order, twin-identical."""
        tenants = [0] * 16 + [1] * 10 + [2] * 6
        addrs = [(7 * i) % 256 for i in range(32)]

        async def scenario():
            built = build_stack(
                StackSpec(
                    protocol="sharded", n_blocks=256, mem_blocks=64, n_shards=2,
                    seed=9, executor="parallel", supervised=True,
                )
            )
            try:
                executor = built.protocol.executor
                step, batches = executor.step, []

                def counting_step(lockstep):
                    retired = step(lockstep)
                    batches.append(len(retired))
                    return retired

                executor.step = counting_step
                server = ORAMServer(built.driver)
                for tenant in range(3):
                    server.add_tenant(tenant)
                server.ensure_pump()
                connection = recording_connection()
                for i, (addr, tenant) in enumerate(zip(addrs, tenants)):
                    rejection = server._admit(
                        {"id": i, "op": "read", "addr": addr, "tenant": tenant},
                        connection,
                    )
                    assert rejection is None
                responses = await asyncio.wait_for(connection.responses(32), 30)
                await server.close()
                return server, responses, batches
            finally:
                built.cleanup()

        server, responses, batches = run(scenario())
        assert all(r["ok"] for r in responses)
        assert len(batches) <= 2 and sum(batches) == 32
        # Round-robin over the tenant FIFOs, exactly as before the feed
        # quantum grew: 0,1,2,0,1,2,... until a tenant runs dry.
        fifos = {t: [i for i in range(32) if tenants[i] == t] for t in range(3)}
        expected = []
        while any(fifos.values()):
            for tenant in range(3):
                if fifos[tenant]:
                    expected.append(fifos[tenant].pop(0))
        assert [(r.tenant, r.addr) for r in server.journal] == [
            (tenants[i], addrs[i]) for i in expected
        ]
        twin = replay_direct(
            server.journal,
            build_sharded_horam(n_blocks=256, mem_tree_blocks=64, n_shards=2, seed=9),
        )
        assert diff_served(server.journal, server.served_by_seq, twin).identical


class TestTransportLifecycle:
    def test_tcp_round_trip(self, run):
        async def scenario():
            server = ORAMServer(_horam())
            server.add_tenant(0)
            host, port = await server.start("127.0.0.1", 0)
            client = await ServeClient.connect(host, port)
            response = await client.read(2, tenant=0)
            await client.close()
            await server.close()
            return response

        response = run(scenario())
        assert response["ok"] is True

    def test_close_answers_nothing_pending(self, run, make_pair):
        async def scenario():
            server, client = await make_pair(_horam())
            server.add_tenant(0)
            await client.read(1, tenant=0)
            await client.close()
            await server.close()
            return server

        server = run(scenario())
        assert server.inflight() == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(max_inflight=0)
        with pytest.raises(ValueError):
            TenantPolicy(rate_per_s=0)
        with pytest.raises(ValueError):
            TenantPolicy(quota=-1)

    def test_knobs_nothing_set_are_constants_at_the_old_defaults(self, run):
        assert server_mod.PUMP_MAX_CYCLES == 32
        assert server_mod.DRAIN_TIMEOUT_S == 30.0
        assert inspect.signature(ORAMServer.drain).parameters["timeout_s"].default == 30.0
        assert [f.name for f in dataclasses.fields(ServeConfig)] == [
            "max_inflight", "default_deadline_ms", "idem_cache_size",
        ]

        async def announce(length, body):
            """What comes back: EOF (connection dropped) or a reply header."""
            server = ORAMServer(_horam())
            server_end, peer = socket.socketpair()
            await server.attach(server_end)
            reader, writer = await asyncio.open_connection(sock=peer)
            try:
                writer.write(struct.pack(">I", length) + body)
                await writer.drain()
                return await asyncio.wait_for(reader.read(4), timeout=5)
            finally:
                writer.close()
                await server.close()

        # The server's frame cap is the protocol's: one byte over is abuse.
        health = b'{"op":"health","id":1}'.ljust(MAX_FRAME_BYTES)
        assert len(run(announce(MAX_FRAME_BYTES, health))) == 4
        assert run(announce(MAX_FRAME_BYTES + 1, b"")) == b""

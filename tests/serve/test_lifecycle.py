"""Request lifecycle hardening: deadlines, idempotency, graceful drain.

The server-side half of the failure story: per-request deadlines with
typed cancellation (queued work is withdrawn before the backend sees
it; journaled work executes and is judged late at retirement, keeping
the twin gate exact), exactly-once execution of retried idempotent
requests, and a graceful drain that finishes everything admitted,
refuses everything new, and checkpoints a supervised backend at the
drain boundary.
"""

import asyncio
import socket as socket_mod
from dataclasses import replace as dc_replace

import pytest

from repro.core.horam import build_horam
from repro.serve import (
    ORAMServer,
    ServeClient,
    ServeConfig,
    TenantPolicy,
    diff_served,
    replay_direct,
)
from repro.storage.faults import FaultPlan
from repro.testing.stacks import StackSpec, build_stack


def _horam(seed=7):
    return build_horam(n_blocks=256, mem_tree_blocks=64, seed=seed)


class _SlowStack:
    """Backend wrapper that advances an injected clock per engine step.

    Lets a test make execution take deterministic "wall" time, so the
    late-retirement deadline path fires without real sleeps or races.
    """

    def __init__(self, inner, clock, advance_s):
        self._inner = inner
        self._clock = clock
        self._advance = advance_s

    def submit(self, request):
        return self._inner.submit(request)

    def step(self):
        self._clock.advance(self._advance)
        return self._inner.step()

    def drain(self):
        self._clock.advance(self._advance)
        return self._inner.drain()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestDeadlines:
    def test_invalid_deadline_rejected(self, run, make_pair):
        async def scenario():
            server, client = await make_pair(_horam())
            server.add_tenant(0)
            bad = await client.request(
                {"op": "read", "addr": 1, "tenant": 0, "deadline_ms": -5}
            )
            await client.close()
            await server.close()
            return bad

        bad = run(scenario())
        assert bad["ok"] is False
        assert bad["error"] == "bad_request"

    def test_queued_request_cancelled_at_deadline(
        self, run, manual_clock, recording_connection
    ):
        """A request still queued when its deadline lapses is withdrawn:
        never journaled, never executed, answered with a typed error."""

        async def scenario():
            clock = manual_clock()
            server = ORAMServer(_horam(), ServeConfig(), clock=clock)
            server.add_tenant(0)
            connection = recording_connection()
            # Admit directly (no pump running): the request sits queued.
            rejection = server._admit(
                {"op": "read", "addr": 3, "tenant": 0, "deadline_ms": 5.0},
                connection,
            )
            assert rejection is None
            clock.advance(1.0)
            cancelled = server._cancel_expired()
            [response] = await asyncio.wait_for(connection.responses(1), timeout=5)
            await server.close()
            return server, cancelled, response

        server, cancelled, response = run(scenario())
        assert cancelled == 1
        assert response["error"] == "deadline_exceeded"
        assert "before execution" in response["message"]
        assert server.deadline_cancelled == 1
        assert server.journal == []  # the backend never saw it
        assert server.front.total_stats().cancelled == 1

    def test_journaled_request_executes_and_is_judged_late(
        self, run, manual_clock
    ):
        """Once journaled, the oblivious schedule owns the request: it
        executes (twin gate intact), the caller gets a typed late error,
        and the committed result is replayable through the idem cache."""

        async def scenario():
            clock = manual_clock()
            stack = _horam(seed=23)
            server = ORAMServer(
                _SlowStack(stack, clock, advance_s=1.0),
                ServeConfig(),
                clock=clock,
            )
            server.add_tenant(0)
            server_end, client_end = socket_mod.socketpair()
            await server.attach(server_end)
            client = await ServeClient.from_socket(client_end)
            late = await client.request(
                {
                    "op": "write",
                    "addr": 5,
                    "data": b"late-bytes".hex(),
                    "tenant": 0,
                    "deadline_ms": 50.0,
                    "idem": "w-5",
                }
            )
            # The retry of the same logical request replays the cached
            # committed result instead of executing again.
            replay = await client.request(
                {
                    "op": "write",
                    "addr": 5,
                    "data": b"late-bytes".hex(),
                    "tenant": 0,
                    "idem": "w-5",
                }
            )
            await client.close()
            await server.close()
            return server, late, replay

        server, late, replay = run(scenario())
        assert late["error"] == "deadline_exceeded"
        assert "after execution" in late["message"]
        assert server.deadline_late == 1
        assert len(server.journal) == 1  # executed exactly once
        assert replay["ok"] is True
        assert replay["replayed"] is True
        assert server.idem_replays == 1
        # The executed-but-late result still enters the twin comparison.
        twin = replay_direct(server.journal, _horam(seed=23))
        diff = diff_served(server.journal, server.served_by_seq, twin)
        assert diff.identical and diff.compared == 1

    def test_default_deadline_from_config(
        self, run, manual_clock, recording_connection
    ):
        async def scenario():
            clock = manual_clock()
            server = ORAMServer(
                _horam(), ServeConfig(default_deadline_ms=5.0), clock=clock
            )
            server.add_tenant(0)
            connection = recording_connection()
            rejection = server._admit(
                {"op": "read", "addr": 1, "tenant": 0}, connection
            )
            assert rejection is None
            clock.advance(1.0)
            cancelled = server._cancel_expired()
            await asyncio.wait_for(connection.responses(1), timeout=5)
            await server.close()
            return cancelled

        assert run(scenario()) == 1


class TestIdempotency:
    def test_duplicate_idem_replays_not_reexecutes(self, run, make_pair):
        async def scenario():
            server, client = await make_pair(_horam())
            server.add_tenant(0)
            message = {
                "op": "write",
                "addr": 7,
                "data": b"once".hex(),
                "tenant": 0,
                "idem": "k1",
            }
            first = await client.request(dict(message))
            second = await client.request(dict(message))
            health = await client.health()
            await client.close()
            await server.close()
            return server, first, second, health

        server, first, second, health = run(scenario())
        assert first["ok"] and second["ok"]
        assert "replayed" not in first
        assert second["replayed"] is True
        assert second["data"] == first["data"]
        assert second["seq"] == first["seq"]
        assert len(server.journal) == 1
        assert server.journal[0].idem == "k1"
        assert health["requests"]["idem_replays"] == 1

    def test_pipelined_duplicates_execute_once(self, run, make_pair):
        """Two copies racing on the wire: one executes, the other joins
        the in-flight execution or replays the cached result."""

        async def scenario():
            server, client = await make_pair(_horam())
            server.add_tenant(0)
            message = {
                "op": "write",
                "addr": 9,
                "data": b"race".hex(),
                "tenant": 0,
                "idem": "k-race",
            }
            futures = [client.send(dict(message)), client.send(dict(message))]
            await client.drain()
            responses = await asyncio.gather(*futures)
            await client.close()
            await server.close()
            return server, responses

        server, responses = run(scenario())
        assert all(r["ok"] for r in responses)
        assert responses[0]["data"] == responses[1]["data"]
        assert len(server.journal) == 1
        assert server.idem_joins + server.idem_replays == 1

    def test_idem_keys_are_tenant_scoped(self, run, make_pair):
        async def scenario():
            server, client = await make_pair(_horam())
            server.add_tenant(0)
            server.add_tenant(1)
            a = await client.request(
                {"op": "read", "addr": 3, "tenant": 0, "idem": "same"}
            )
            b = await client.request(
                {"op": "read", "addr": 3, "tenant": 1, "idem": "same"}
            )
            await client.close()
            await server.close()
            return server, a, b

        server, a, b = run(scenario())
        assert a["ok"] and b["ok"]
        assert "replayed" not in b  # different tenant: a fresh execution
        assert len(server.journal) == 2

    def test_cache_retention_is_bounded(self, run, make_pair):
        async def scenario():
            server, client = await make_pair(
                _horam(), ServeConfig(idem_cache_size=2)
            )
            server.add_tenant(0)
            for n in range(4):
                await client.request(
                    {"op": "read", "addr": n, "tenant": 0, "idem": f"k{n}"}
                )
            evicted = await client.request(
                {"op": "read", "addr": 0, "tenant": 0, "idem": "k0"}
            )
            fresh = await client.request(
                {"op": "read", "addr": 3, "tenant": 0, "idem": "k3"}
            )
            await client.close()
            await server.close()
            return server, evicted, fresh

        server, evicted, fresh = run(scenario())
        # k0 aged out of the bounded cache: the retry re-executes (the
        # documented retention tradeoff); k3 is still cached and replays.
        assert evicted["ok"] and "replayed" not in evicted
        assert fresh["ok"] and fresh["replayed"] is True
        assert len(server._idem_cache) <= 2

    def test_bad_idem_rejected(self, run, make_pair):
        async def scenario():
            server, client = await make_pair(_horam())
            server.add_tenant(0)
            bad = await client.request(
                {"op": "read", "addr": 1, "tenant": 0, "idem": ""}
            )
            await client.close()
            await server.close()
            return bad

        bad = run(scenario())
        assert bad["error"] == "bad_request"


class TestGracefulDrain:
    def test_drain_refuses_new_work_with_typed_error(self, run, make_pair):
        async def scenario():
            server, client = await make_pair(_horam())
            server.add_tenant(0)
            before = await client.read(1, tenant=0)
            report = await server.drain()
            after = await client.request({"op": "read", "addr": 2, "tenant": 0})
            health = await client.health()
            await client.close()
            await server.close()
            return before, report, after, health

        before, report, after, health = run(scenario())
        assert before["ok"]
        assert report["escalated"] == 0
        assert report["accepted"] == 1 and report["served"] == 1
        assert after["error"] == "draining"
        assert health["draining"] is True

    def test_drain_under_load_loses_nothing(self, run, make_pair):
        """Every admitted request retires and answers; late arrivals get
        the typed rejection; the journal equals the served set."""

        async def scenario():
            stack = _horam(seed=31)
            server, client = await make_pair(stack)
            server.add_tenant(0)
            futures = [
                client.send({"op": "read", "addr": n % 50, "tenant": 0})
                for n in range(24)
            ]
            await client.drain()
            report = await server.drain()
            responses = await asyncio.gather(*futures)
            await client.close()
            await server.close()
            return server, report, responses

        server, report, responses = run(scenario())
        assert all(f is not None for f in responses)
        ok = [r for r in responses if r["ok"]]
        refused = [r for r in responses if not r["ok"]]
        assert all(r["error"] == "draining" for r in refused)
        assert len(ok) == len(server.journal) == report["accepted"]
        assert report["escalated"] == 0
        twin = replay_direct(server.journal, _horam(seed=31))
        diff = diff_served(server.journal, server.served_by_seq, twin)
        assert diff.identical and not diff.unserved

    def test_drain_escalates_past_hard_deadline(
        self, run, manual_clock, recording_connection
    ):
        async def scenario():
            clock = manual_clock()
            server = ORAMServer(_horam(), ServeConfig(), clock=clock)
            server.add_tenant(0)
            connection = recording_connection()
            rejection = server._admit(
                {"op": "read", "addr": 1, "tenant": 0}, connection
            )
            assert rejection is None
            report = await server.drain(timeout_s=0.0)
            [response] = await asyncio.wait_for(connection.responses(1), timeout=5)
            await server.close()
            return report, response

        report, response = run(scenario())
        assert report["escalated"] == 1
        assert response["error"] == "shutting_down"

    def test_drain_checkpoints_supervised_backend_bit_identically(self, run):
        """The drain-time checkpoint is the restart point: a shard crash
        after drain restores from it and serves the same bytes as the
        direct-submit twin."""

        spec = StackSpec(
            protocol="sharded",
            n_blocks=512,
            n_shards=2,
            seed=41,
            supervised=True,
            checkpoint_every_ops=10_000,  # only the drain hook checkpoints
            max_restarts=2,
        )
        stack = build_stack(spec)
        try:

            async def scenario():
                server = ORAMServer(stack.driver, ServeConfig())
                server.add_tenant(0)
                server_end, client_end = socket_mod.socketpair()
                await server.attach(server_end)
                client = await ServeClient.from_socket(client_end)
                for n in range(12):
                    response = await client.write(
                        n * 17 % 512, f"drain-{n}".encode(), tenant=0
                    )
                    assert response["ok"]
                report = await server.drain()
                await client.close()
                await server.close()
                return server, report

            server, report = run(scenario())
            assert report["checkpointed_shards"] == 2
            assert report["escalated"] == 0

            # Kill both shards on their next op: recovery must come from
            # the drain-time checkpoint, not from replaying served work.
            stack.install_faults(FaultPlan(seed=41, crash_schedule=[1]))
            twin = build_stack(dc_replace(spec, supervised=False))
            try:
                twin_served = replay_direct(server.journal, twin.driver)
                diff = diff_served(server.journal, server.served_by_seq, twin_served)
                assert diff.identical and not diff.unserved
                for record in server.journal:
                    assert stack.driver.read(record.addr) == twin.driver.read(
                        record.addr
                    )
            finally:
                twin.cleanup()
            recovery = stack.supervisor.recovery_report()
            assert recovery["restores"] >= 1
            assert sorted(stack.supervisor.fenced) == []
        finally:
            stack.cleanup()

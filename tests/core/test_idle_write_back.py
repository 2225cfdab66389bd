"""Idle write-back: a server with nothing to serve, and a parallel worker
between calls, write back the partition rewrites a shuffle period left
pending -- without changing a served byte or a checkpointed one.
"""

from __future__ import annotations

import asyncio
import socket
import time

from repro.core import executor as executor_module
from repro.core.horam import build_horam
from repro.core.sharding import build_sharded_horam
from repro.crypto.random import DeterministicRandom
from repro.oram.base import initial_payload
from repro.serve import ORAMServer, ServeClient
from repro.serve.protocol import from_hex
from repro.sim.engine import drive
from repro.workload.generators import uniform


def _end_period_on_next_step(oram, besides: int) -> int:
    """Step ``oram`` (idle) until its next load ends a period; returns a
    cached address other than ``besides``, whose read is then served in
    that very step."""
    while oram._loads_this_period < oram.period_capacity - 1:
        oram.step()
    return next(
        addr for addr in range(oram.n_blocks) if addr != besides and oram.cache.contains(addr)
    )


def test_an_idle_server_writes_back_every_pending_region():
    oram = build_horam(n_blocks=4096, mem_tree_blocks=128, seed=7)
    storage = oram.hierarchy.storage
    written = oram.codec.pad(b"idle-write")
    oram.write(5, written)
    hit = _end_period_on_next_step(oram, besides=5)

    after_period = []
    run_period = oram.run_shuffle_period

    def run_shuffle_period():
        run_period()
        after_period.append(storage.pending_regions)

    oram.run_shuffle_period = run_shuffle_period
    idle_calls = []
    first_idle = asyncio.Event()
    write_back = oram.write_back

    def counted_write_back(limit=None):
        idle_calls.append(limit)
        left = write_back(limit)
        first_idle.set()
        return left

    oram.write_back = counted_write_back

    async def scenario():
        server = ORAMServer(oram)
        server_end, client_end = socket.socketpair()
        await server.attach(server_end)
        client = await ServeClient.from_socket(client_end)
        server.add_tenant(0)
        try:
            # The burst: one read whose step ends the period.
            burst = await client.request({"op": "read", "addr": hit, "tenant": 0})
            assert burst["ok"]
            assert after_period == [oram.storage.partition_count]
            # A request arriving mid write-back reads a block the period
            # just folded into storage: its partition is written back first.
            await asyncio.wait_for(first_idle.wait(), 10)
            pending_when_sent = storage.pending_regions
            middle = await client.request({"op": "read", "addr": 5, "tenant": 0})
            # Then no traffic at all: the pump finishes the job by itself.
            deadline = time.monotonic() + 10
            while storage.pending_regions and time.monotonic() < deadline:
                await asyncio.sleep(0.001)
            return pending_when_sent, middle, storage.pending_regions
        finally:
            await client.close()
            await server.close()

    try:
        pending_when_sent, middle, left = asyncio.run(scenario())
        assert 0 < pending_when_sent < oram.storage.partition_count
        assert middle["ok"] and from_hex(middle["data"]) == written
        assert left == 0
        assert set(idle_calls) == {1}  # one partition per pump turn
        # Every block reads back as the oracle says, from a settled slab.
        assert oram.read(hit) == oram.codec.pad(initial_payload(hit))
        assert oram.read(5) == written
    finally:
        oram.close()


def _pending_regions() -> int:
    """Worker side: the shard's pending regions right now."""
    return executor_module._WORKER["shard"].hierarchy.storage.pending_regions


def test_parallel_workers_write_back_between_calls():
    stream = list(uniform(1024, 600, DeterministicRandom(3), write_ratio=0.3))
    fleets = [
        build_sharded_horam(n_blocks=1024, mem_tree_blocks=64, n_shards=2, seed=9, executor=kind)
        for kind in ("parallel", "serial")
    ]
    parallel, serial = fleets
    try:
        assert drive(parallel, stream, batch=len(stream)) == drive(
            serial, stream, batch=len(stream)
        )
        assert all(shard.metrics.shuffle_count >= 1 for shard in parallel.shards)
        assert serial.write_back(0) > 0  # the serial twin still holds its rewrites
        # The idle pause: no call reaches the workers, yet they settle.
        deadline = time.monotonic() + 10
        for index in range(2):
            while parallel.executor._call(index, _pending_regions):
                assert time.monotonic() < deadline, "worker left regions pending"
                time.sleep(0.01)
        for index in range(2):
            assert parallel.executor.shard_state(index) == serial.executor.shard_state(index)
    finally:
        for fleet in fleets:
            fleet.close()

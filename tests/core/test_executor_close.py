"""ParallelExecutor.close() hardening: idempotent, safe mid-drain, safe
with a padding round in flight, safe after failures, never leaks worker
processes."""

from __future__ import annotations

import time

import pytest

from repro.core.executor import ShardCrashed
from repro.core.sharding import build_sharded_horam
from repro.crypto.random import DeterministicRandom
from repro.oram.base import Request
from repro.storage.faults import FaultPlan
from repro.workload.generators import hotspot


def _fleet(n_shards=2, executor="parallel"):
    return build_sharded_horam(
        n_blocks=256, mem_tree_blocks=64, n_shards=n_shards, seed=0,
        executor=executor,
    )


def _requests(count, seed=11):
    rng = DeterministicRandom(seed)
    return list(hotspot(256, count, rng, hot_blocks=32))


def _worker_pids(executor):
    return [worker.pid for worker in executor._workers]


def _alive(pids):
    import os

    alive = []
    for pid in pids:
        try:
            os.kill(pid, 0)
        except OSError:
            continue
        alive.append(pid)
    return alive


class TestIdempotentClose:
    def test_double_close_is_a_noop(self):
        fleet = _fleet()
        fleet.close()
        fleet.close()  # must not raise or hang

    def test_close_then_context_exit(self):
        fleet = _fleet()
        with fleet:
            fleet.close()
        fleet.close()

    def test_serial_close_is_idempotent_too(self):
        fleet = _fleet(executor="serial")
        fleet.close()
        fleet.close()

    def test_use_after_close_raises(self):
        fleet = _fleet()
        fleet.close()
        with pytest.raises(RuntimeError, match="closed"):
            fleet.submit(_requests(1)[0])


class TestCloseDuringInflightDrain:
    def test_close_with_queued_undrained_work(self):
        fleet = _fleet()
        pids = _worker_pids(fleet.executor)
        for request in _requests(8):
            fleet.submit(request)
        fleet.close()  # queued batches are cancelled, not drained
        assert not _alive(pids)

    def test_close_mid_drain(self):
        fleet = _fleet()
        pids = _worker_pids(fleet.executor)
        for request in _requests(8):
            fleet.submit(request)
        while fleet.has_work():
            fleet.step()
            break  # leave retirements unharvested
        fleet.close()
        fleet.close()
        assert not _alive(pids)

    def test_close_after_monitored_failure(self):
        """A crash surfaced in monitored mode must not wedge close()."""
        fleet = _fleet()
        fleet.executor.monitored = True
        pids = _worker_pids(fleet.executor)
        fleet.executor.install_fault_plan(
            FaultPlan(seed=0, crash_schedule=[5], crash_op_kind="any")
        )
        with pytest.raises(ShardCrashed):
            for request in _requests(30):
                fleet.submit(request)
                while fleet.has_work():
                    fleet.step()
                fleet.retire()
        fleet.close()
        fleet.close()
        assert not _alive(pids)

    def test_close_after_fence(self):
        fleet = _fleet()
        fleet.executor.monitored = True
        pids = _worker_pids(fleet.executor)
        fleet.executor.fence_shard(0)
        fleet.close()  # fenced worker already shut; must skip, not raise
        assert not _alive(pids)


def _start_padding(fleet, stall_s=0.0, crash_at=0, reads=20):
    """One step that leaves shard 1's padding round behind it.

    Every request is for an even address, so shard 0 does all the real
    work and *every* cycle shard 1 runs is lockstep padding inside
    ``_worker_finish``; a fault plan on shard 1 alone therefore fires in
    the padding round for certain: ``stall_s`` wedges its third padded
    access for real wall time, ``crash_at`` crashes that access.
    """
    executor = fleet.executor
    if stall_s or crash_at:
        executor.install_fault_plan_shard(
            1,
            FaultPlan(
                seed=0,
                hang_at_op=3 if stall_s else 0,
                hang_wall_s=stall_s,
                crash_schedule=[crash_at] if crash_at else [],
            ),
        )
    for addr in range(0, 2 * reads, 2):
        fleet.submit(Request.read(addr))
    retired = fleet.step()
    assert len(retired) == reads  # delivered without waiting for the padding
    assert set(executor._finishing) == {0, 1}
    return retired


class TestTeardownWithPaddingInFlight:
    def test_step_returns_while_the_idle_shard_still_pads(self):
        fleet = _fleet()
        try:
            _start_padding(fleet, stall_s=0.4)
            assert not fleet.executor._finishing[1].done()
        finally:
            fleet.close()

    def test_close_collects_a_live_workers_padding_round(self):
        fleet = _fleet()
        pids = _worker_pids(fleet.executor)
        _start_padding(fleet, reads=40)
        fleet.close()
        assert not fleet.executor._finishing
        assert not _alive(pids)
        # The last snapshots were applied, not dropped: lockstep holds.
        served = [shard.metrics.requests_served for shard in fleet.shards]
        cycles = {shard.metrics.cycles for shard in fleet.shards}
        assert served == [40, 0] and len(cycles) == 1 and cycles != {0}

    def test_close_does_not_wait_on_a_killed_workers_round(self):
        fleet = _fleet()
        pids = _worker_pids(fleet.executor)
        _start_padding(fleet, stall_s=60.0)
        fleet.executor._kill_worker(1)
        began = time.monotonic()
        fleet.close()
        fleet.close()
        assert time.monotonic() - began < 5.0
        assert not _alive(pids)

    def test_fence_discards_the_fenced_shards_round(self):
        fleet = _fleet()
        fleet.executor.monitored = True
        pids = _worker_pids(fleet.executor)
        _start_padding(fleet, stall_s=60.0)
        began = time.monotonic()
        fleet.executor.fence_shard(1)
        assert time.monotonic() - began < 5.0
        assert set(fleet.executor._finishing) == {0}
        assert fleet.read(4) is not None  # shard 0 settles and keeps serving
        fleet.close()
        assert not _alive(pids)

    def test_respawn_discards_the_old_workers_round(self):
        fleet = _fleet()
        fleet.executor.monitored = True
        blank = fleet.executor.shard_state(1)
        _start_padding(fleet, stall_s=60.0)
        began = time.monotonic()
        fleet.executor.recover_shard(1, blank, [], ShardCrashed(1, "hung", None))
        assert time.monotonic() - began < 5.0
        assert set(fleet.executor._finishing) == {0}
        pids = _worker_pids(fleet.executor)
        assert fleet.read(5) is not None  # the fresh worker answers
        fleet.close()
        assert not _alive(pids)

    def test_padding_failure_is_the_next_steps_failure(self):
        """Delivered results stay delivered; the crash found by the settle
        drops the dead shard's buffered envelopes, so the requeue after
        recovery sends each of them once."""
        fleet = _fleet()
        fleet.executor.monitored = True
        try:
            blank = fleet.executor.shard_state(1)
            delivered = _start_padding(fleet, crash_at=3)
            assert all(entry.result is not None for entry in delivered)
            queued = [fleet.submit(Request.read(addr)) for addr in (1, 3, 5, 7, 9)]
            assert len(fleet.executor._pending[1]) == 5
            with pytest.raises(ShardCrashed) as failure:
                fleet.step()
            assert (failure.value.shard_index, failure.value.kind) == (1, "crash")
            assert fleet.executor._pending[1] == []
            assert not fleet.executor._proxies[1]
            fleet.executor.recover_shard(1, blank, [], failure.value)
            assert fleet.requeue_shard(1) == 5
            assert len(fleet.executor._pending[1]) == 5
            assert len(fleet.drain()) == 5
            assert all(entry.result is not None for entry in queued)
        finally:
            fleet.close()

    def test_unsupervised_padding_failure_poisons_the_fleet(self):
        from repro.storage.faults import CrashFault

        fleet = _fleet()
        try:
            _start_padding(fleet, crash_at=3)
            with pytest.raises(CrashFault):
                fleet.metrics  # the first read settles and finds it
            with pytest.raises(RuntimeError, match="broken"):
                fleet.submit(Request.read(0))
        finally:
            fleet.close()


class TestSupervisedClose:
    def test_supervisor_close_is_idempotent(self, tmp_path):
        from repro.core.supervisor import FleetSupervisor, SupervisorConfig

        supervisor = FleetSupervisor(
            _fleet(), str(tmp_path), SupervisorConfig(checkpoint_every_ops=0)
        )
        for request in _requests(6):
            supervisor.submit(request)
        supervisor.drain()
        supervisor.close()
        supervisor.close()

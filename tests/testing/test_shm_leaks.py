"""Regression: no shared-memory segment outlives its stack.

Every teardown path a shm-backed fleet can take -- graceful close, shard
fence, respawn, injected crash with supervised recovery, a scenario that
fails mid-run -- must leave ``/dev/shm`` exactly as it found it.  A
leaked segment pins physical memory until reboot, which is strictly
worse than the leaked tmpdirs the durable backend risks.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.executor import ShardCrashed
from repro.core.sharding import build_sharded_horam
from repro.crypto.random import DeterministicRandom
from repro.sim.engine import drive
from repro.storage.faults import FaultPlan
from repro.storage.shm import active_segments
from repro.testing.scenario import CrashSpec, ScenarioRunner, ScenarioSpec
from repro.testing.stacks import StackSpec, build_stack
from repro.workload.generators import WorkloadSpec, hotspot


@pytest.fixture
def segments_before():
    before = set(active_segments())
    children = set(multiprocessing.active_children())
    yield before
    leaked = set(active_segments()) - before
    assert not leaked, f"leaked shm segments: {sorted(leaked)}"
    assert not (set(multiprocessing.active_children()) - children), "live child"


def _fleet(n_shards=2, executor="parallel"):
    return build_sharded_horam(
        n_blocks=256, mem_tree_blocks=64, n_shards=n_shards, seed=0,
        executor=executor, storage_backend="shm",
    )


def _requests(count, seed=11):
    rng = DeterministicRandom(seed)
    return list(hotspot(256, count, rng, hot_blocks=32))


class TestExecutorTeardown:
    def test_close_unlinks_every_shard_slab(self, segments_before):
        fleet = _fleet()
        drive(fleet, _requests(8))
        created = set(active_segments()) - segments_before
        assert created, "shm fleet created no segments?"
        fleet.close()

    def test_double_close_after_drain(self, segments_before):
        fleet = _fleet()
        drive(fleet, _requests(4))
        fleet.close()
        fleet.close()

    def test_close_mid_drain_with_queued_work(self, segments_before):
        fleet = _fleet()
        for request in _requests(8):
            fleet.submit(request)
        fleet.step()  # leave retirements unharvested
        fleet.close()

    @pytest.mark.parametrize("teardown", ["close", "kill-close", "fence", "respawn"])
    def test_teardown_mid_padding(self, segments_before, teardown):
        """A padding round still running on an idle shard (every request
        goes to shard 0; shard 1 stalls inside its third padded access)
        must not keep a segment or a child alive on any way down."""
        fleet = _fleet()
        executor = fleet.executor
        executor.monitored = True
        blank = executor.shard_state(1)
        executor.install_fault_plan_shard(
            1,
            FaultPlan(
                seed=0, hang_at_op=3, hang_wall_s=0.3 if teardown == "close" else 60.0
            ),
        )
        for request in _requests(12):
            if request.addr % 2 == 0:
                fleet.submit(request)
        assert fleet.step()
        assert not executor._finishing[1].done()
        if teardown == "kill-close":
            executor._kill_worker(1)
        elif teardown == "fence":
            executor.fence_shard(1)
        elif teardown == "respawn":
            executor.recover_shard(1, blank, [], ShardCrashed(1, "hung", None))
            drive(fleet, _requests(4))
        fleet.close()

    def test_fence_reaps_the_fenced_shards_slab(self, segments_before):
        fleet = _fleet()
        fleet.executor.monitored = True
        drive(fleet, _requests(4))
        during = set(active_segments()) - segments_before
        fleet.executor.fence_shard(0)
        after_fence = set(active_segments()) - segments_before
        assert after_fence < during  # shard 0's slab and scratch are gone
        fleet.close()

    def test_respawn_recreates_without_leaking(self, segments_before):
        fleet = _fleet()
        fleet.executor.monitored = True
        drive(fleet, _requests(4))
        state = fleet.executor.shard_state(1)
        fleet.executor.fence_shard(1)
        fleet.executor.recover_shard(1, state, [], ShardCrashed(1, "hung", None))
        drive(fleet, _requests(4))
        fleet.close()

    def test_crashed_worker_slab_reaped_on_close(self, segments_before):
        """A killed worker cannot close() its store; the coordinator must."""
        fleet = _fleet()
        fleet.executor.monitored = True
        fleet.executor.install_fault_plan(
            FaultPlan(seed=0, crash_schedule=[5], crash_op_kind="any")
        )
        with pytest.raises(ShardCrashed):
            drive(fleet, _requests(30))
        fleet.close()

    def test_sigkilled_idle_worker_then_close(self, segments_before):
        """Nothing ever talks to the dead worker again before close():
        its slab is reaped by name and its process is still joined."""
        import os
        import signal

        fleet = _fleet()
        drive(fleet, _requests(4))
        os.kill(fleet.executor._workers[0].pid, signal.SIGKILL)
        fleet.close()

    def test_serial_shm_fleet_closes_clean(self, segments_before):
        fleet = _fleet(executor="serial")
        drive(fleet, _requests(4))
        fleet.close()


class TestSupervisedTeardown:
    def test_crash_recovery_cycle_leaks_nothing(self, segments_before, tmp_path):
        from repro.core.supervisor import FleetSupervisor, SupervisorConfig

        supervisor = FleetSupervisor(
            _fleet(),
            str(tmp_path),
            SupervisorConfig(checkpoint_every_ops=8, max_restarts=4),
        )
        supervisor.install_fault_plan(
            FaultPlan(seed=3, crash_schedule=[10], crash_op_kind="any")
        )
        for request in _requests(40):
            supervisor.submit(request)
            supervisor.drain()
        events = [event.kind for event in supervisor.events]
        assert "restored" in events  # the crash actually happened
        supervisor.close()


class TestScenarioTeardown:
    def _spec(self, name, **overrides) -> ScenarioSpec:
        stack = dict(
            protocol="sharded", n_blocks=512, mem_blocks=128, n_shards=2,
            executor="parallel", seed=3, storage_backend="shm",
        )
        stack.update(overrides.pop("stack", {}))
        return ScenarioSpec(
            name=name,
            stack=StackSpec(**stack),
            workload=WorkloadSpec(kind="hotspot", n_blocks=512, count=120, seed=8),
            **overrides,
        )

    def test_green_shm_scenario_cleans_up(self, segments_before):
        result = ScenarioRunner().run(self._spec("green-shm"))
        assert result.ok, result.failures

    def test_raising_shm_scenario_cleans_up(self, segments_before):
        before = set(multiprocessing.active_children())
        result = ScenarioRunner().run(
            self._spec("raising-shm", faults=FaultPlan(seed=1, read_error_rate=1.0))
        )
        assert not result.ok
        assert not (set(multiprocessing.active_children()) - before)

    def test_crash_shm_scenario_cleans_up(self, segments_before):
        result = ScenarioRunner().run(
            self._spec("crash-shm", crash=CrashSpec(snapshot_at=40, crash_at_op=20))
        )
        assert result.ok, result.failures
        assert result.crash_info["crashed"] and result.crash_info["recovered"]

    def test_built_stack_cleanup_needs_no_storage_dir(self, segments_before):
        stack = build_stack(
            StackSpec(protocol="horam", n_blocks=256, mem_blocks=64, storage_backend="shm")
        )
        assert stack.storage_dir is None  # shm slabs live in /dev/shm, not tmp
        stack.cleanup()

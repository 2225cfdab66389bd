"""The self-healing fleet: supervision, heartbeats, auto-recovery.

Crash storms are diffed against an uninterrupted, unsupervised twin --
recovery is *value-level* (same bytes for the same requests), and the
recovery trace must be a pure function of (seed, fault plan).
"""

from __future__ import annotations

import shutil
import tempfile
from collections import Counter

import pytest

from repro.core.sharding import ShardUnavailableError, build_sharded_horam
from repro.core.supervisor import FleetSupervisor, SupervisorConfig
from repro.crypto.random import DeterministicRandom
from repro.storage.faults import FaultPlan
from repro.workload.generators import hotspot

N_BLOCKS = 512
MEM_BLOCKS = 128


def _workload(count, seed=31):
    rng = DeterministicRandom(seed)
    return list(hotspot(N_BLOCKS, count, rng, hot_blocks=48))


def _drive(protocol, requests):
    served = []
    for request in requests:
        entry = protocol.submit(request)
        protocol.drain()
        served.append(entry.result)
    return served


def _twin_results(requests, n_shards):
    twin = build_sharded_horam(
        n_blocks=N_BLOCKS, mem_tree_blocks=MEM_BLOCKS, n_shards=n_shards, seed=0
    )
    try:
        return _drive(twin, requests)
    finally:
        twin.close()


@pytest.fixture
def ckpt_dir():
    path = tempfile.mkdtemp(prefix="horam-sup-test-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _supervised(ckpt_dir, n_shards=4, executor="serial", **config):
    fleet = build_sharded_horam(
        n_blocks=N_BLOCKS,
        mem_tree_blocks=MEM_BLOCKS,
        n_shards=n_shards,
        seed=0,
        executor=executor,
    )
    defaults = dict(checkpoint_every_ops=24, max_restarts=2, keep_checkpoints=3)
    defaults.update(config)
    return FleetSupervisor(fleet, ckpt_dir, SupervisorConfig(**defaults))


class TestSerialStorm:
    def test_storm_recovers_and_matches_twin(self, ckpt_dir):
        requests = _workload(140)
        twin = _twin_results(requests, 4)
        supervisor = _supervised(ckpt_dir)
        try:
            supervisor.install_fault_plan(
                FaultPlan(seed=0, crash_schedule=[40, 90], crash_op_kind="any")
            )
            results = _drive(supervisor, requests)
            report = supervisor.recovery_report()
            assert report["crashes_detected"] == 2
            assert report["restores"] == 2
            assert report["fences"] == 0
            assert all(i["outcome"] == "restored" for i in report["incidents"])
            assert not supervisor.fenced
            assert results == twin
        finally:
            supervisor.close()

    def test_event_counts_match_a_scan_of_the_events(self, ckpt_dir):
        supervisor = _supervised(ckpt_dir)
        try:
            supervisor.install_fault_plan(
                FaultPlan(seed=0, crash_schedule=[20, 50, 80], crash_op_kind="any")
            )
            _drive(supervisor, _workload(120))
            scanned = Counter(event.kind for event in supervisor.events)
            assert scanned["crash_detected"] == 3
            for kind in (*scanned, "fenced", "gave_up"):
                assert supervisor._count(kind) == scanned[kind]
            report = supervisor.recovery_report()
            extra = supervisor.metrics.extra
            assert report["crashes_detected"] == extra["supervisor_crashes"] == 3
            assert report["restores"] == extra["supervisor_restores"] == scanned["restored"]
            assert report["checkpoints"] == extra["supervisor_checkpoints"] == scanned["checkpoint"]
            assert report["fences"] == extra["supervisor_fenced"] == 0
            # Counting reads the events, never rewrites them.
            assert supervisor.event_trace() == [
                (event.kind, event.shard, event.attempt) for event in supervisor.events
            ]
        finally:
            supervisor.close()

    def test_recovery_trace_is_deterministic(self, ckpt_dir):
        requests = _workload(120)
        traces, payloads = [], []
        for run in range(2):
            run_dir = tempfile.mkdtemp(prefix="horam-sup-det-")
            supervisor = _supervised(run_dir)
            try:
                supervisor.install_fault_plan(
                    FaultPlan(seed=0, crash_schedule=[35], crash_op_kind="any")
                )
                payloads.append(_drive(supervisor, requests))
                traces.append(supervisor.event_trace())
            finally:
                supervisor.close()
                shutil.rmtree(run_dir, ignore_errors=True)
        assert traces[0] == traces[1]
        assert payloads[0] == payloads[1]
        assert any(kind == "crash_detected" for kind, _, _ in traces[0])

    def test_supervision_counters_surface_in_metrics(self, ckpt_dir):
        supervisor = _supervised(ckpt_dir)
        try:
            supervisor.install_fault_plan(
                FaultPlan(seed=0, crash_schedule=[20], crash_op_kind="any")
            )
            _drive(supervisor, _workload(60))
            extra = supervisor.metrics.extra
            assert extra["supervisor_crashes"] == 1
            assert extra["supervisor_restores"] == 1
            assert extra["supervisor_fenced"] == 0
            assert extra["supervisor_checkpoints"] >= 4  # one initial per shard
            assert extra["fault_crashes"] == 1
        finally:
            supervisor.close()


class TestFencing:
    def test_exhausted_retries_fence_the_shard(self, ckpt_dir):
        requests = _workload(90)
        supervisor = _supervised(ckpt_dir, max_restarts=0)
        try:
            supervisor.install_fault_plan(
                FaultPlan(seed=0, crash_schedule=[30], crash_op_kind="any")
            )
            served = failed = 0
            for request in requests:
                try:
                    entry = supervisor.submit(request)
                except ShardUnavailableError:
                    failed += 1
                    continue
                supervisor.drain()
                if entry.error is not None:
                    assert isinstance(entry.error, ShardUnavailableError)
                    failed += 1
                else:
                    served += 1
            kinds = [kind for kind, _, _ in supervisor.event_trace()]
            assert "gave_up" in kinds and "fenced" in kinds
            assert "restored" not in kinds
            assert len(supervisor.fenced) == 1
            assert served > 0  # survivors kept serving
            assert failed > 0  # the fenced stripe failed fast
            assert supervisor.metrics.extra["supervisor_fenced"] == 1
        finally:
            supervisor.close()

    def test_fenced_stripe_raises_typed_error_with_context(self, ckpt_dir):
        supervisor = _supervised(ckpt_dir, max_restarts=0)
        try:
            supervisor.install_fault_plan(
                FaultPlan(seed=0, crash_schedule=[25], crash_op_kind="any")
            )
            _drive_tolerant(supervisor, _workload(80))
            (fenced_shard,) = supervisor.fenced
            addr = next(
                a for a in range(N_BLOCKS)
                if supervisor.fleet.shard_of(a) == fenced_shard
            )
            with pytest.raises(ShardUnavailableError) as excinfo:
                supervisor.read(addr)
            assert excinfo.value.shard_index == fenced_shard
        finally:
            supervisor.close()

    def test_survivors_serve_correct_values_after_fence(self, ckpt_dir):
        requests = _workload(100)
        twin = _twin_results(requests, 4)
        supervisor = _supervised(ckpt_dir, max_restarts=0)
        try:
            supervisor.install_fault_plan(
                FaultPlan(seed=0, crash_schedule=[30], crash_op_kind="any")
            )
            results = _drive_tolerant(supervisor, requests)
            (fenced_shard,) = supervisor.fenced
            checked = 0
            for request, mine, twin_value in zip(requests, results, twin):
                if supervisor.fleet.shard_of(request.addr) == fenced_shard:
                    continue
                assert mine == twin_value
                checked += 1
            assert checked > 0
        finally:
            supervisor.close()


def _drive_tolerant(supervisor, requests):
    """Drive accepting fenced fail-fasts; returns result-or-None per request."""
    results = []
    for request in requests:
        try:
            entry = supervisor.submit(request)
        except ShardUnavailableError:
            results.append(None)
            continue
        supervisor.drain()
        results.append(entry.result if entry.error is None else None)
    return results


class TestCheckpointFallback:
    def test_restore_falls_back_past_corrupted_newest(self, ckpt_dir):
        requests = _workload(140)
        twin = _twin_results(requests, 4)
        supervisor = _supervised(ckpt_dir, checkpoint_every_ops=12)
        try:
            results = _drive(supervisor, requests[:100])
            for store in supervisor.stores:
                assert len(store.paths()) >= 2
                manifest = store.paths()[-1] / "checkpoint.json"
                manifest.write_text("{ torn garbage")
            supervisor.install_fault_plan(
                FaultPlan(seed=0, crash_schedule=[5], crash_op_kind="any")
            )
            results += _drive(supervisor, requests[100:])
            report = supervisor.recovery_report()
            assert report["restores"] == report["crashes_detected"] == 1
            assert not supervisor.fenced
            assert results == twin
        finally:
            supervisor.close()

    def test_no_valid_checkpoint_fences_after_retries(self, ckpt_dir):
        requests = _workload(90)
        supervisor = _supervised(ckpt_dir, checkpoint_every_ops=0, max_restarts=2)
        try:
            _drive(supervisor, requests[:40])
            for store in supervisor.stores:
                for path in store.paths():
                    (path / "checkpoint.json").write_text("not json")
            supervisor.install_fault_plan(
                FaultPlan(seed=0, crash_schedule=[5], crash_op_kind="any")
            )
            _drive_tolerant(supervisor, requests[40:])
            kinds = [kind for kind, _, _ in supervisor.event_trace()]
            assert kinds.count("restore_failed") == 2  # both attempts
            assert "fenced" in kinds
            assert len(supervisor.fenced) == 1
        finally:
            supervisor.close()


class TestCheckpointCadence:
    def test_cadence_writes_and_rotates_on_disk(self, ckpt_dir):
        supervisor = _supervised(
            ckpt_dir, checkpoint_every_ops=8, keep_checkpoints=2
        )
        try:
            _drive(supervisor, _workload(120))
            report = supervisor.recovery_report()
            assert report["checkpoints"] > 4  # beyond the initial per-shard ones
            for store in supervisor.stores:
                paths = store.paths()
                assert 1 <= len(paths) <= 2
                # rotation kept the newest sequence numbers
                seqs = [int(p.name[5:]) for p in paths]
                assert seqs == sorted(seqs)
                assert store.load_latest_valid()[1] == paths[-1]
        finally:
            supervisor.close()

    def test_zero_cadence_keeps_initial_checkpoint_only(self, ckpt_dir):
        supervisor = _supervised(ckpt_dir, checkpoint_every_ops=0)
        try:
            _drive(supervisor, _workload(60))
            assert supervisor.recovery_report()["checkpoints"] == 4
            for store in supervisor.stores:
                assert len(store.paths()) == 1
        finally:
            supervisor.close()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(checkpoint_every_ops=-1)
        with pytest.raises(ValueError):
            SupervisorConfig(keep_checkpoints=0)
        with pytest.raises(ValueError):
            SupervisorConfig(max_restarts=-1)


class TestFacadeFollowsRecovery:
    @pytest.mark.parametrize("executor", ["serial", "parallel"])
    def test_hierarchy_facade_reads_the_live_shards(self, ckpt_dir, executor):
        """Recovery puts a new object in the shard's slot; the facade the
        engine reads for simulated time and I/O must follow it, not keep
        summing the dead one."""
        supervisor = _supervised(ckpt_dir, executor=executor)
        try:
            supervisor.install_fault_plan(FaultPlan(seed=0, crash_schedule=[40]))
            _drive(supervisor, _workload(200))
            assert supervisor.recovery_report()["restores"] >= 1
            fleet = supervisor.fleet
            for tier in ("storage", "memory"):
                total = getattr(fleet.hierarchy, tier).snapshot()
                live = [getattr(s.hierarchy, tier).snapshot() for s in fleet.shards]
                assert total.reads == sum(c.reads for c in live)
                assert total.bytes_written == sum(c.bytes_written for c in live)
                assert total.busy_us == sum(c.busy_us for c in live)
            assert fleet.hierarchy.clock.now_us == max(
                s.hierarchy.clock.now_us for s in fleet.shards
            )
        finally:
            supervisor.close()


class TestSerialHealth:
    def test_heartbeats_report_all_shards(self, ckpt_dir):
        supervisor = _supervised(ckpt_dir)
        try:
            _drive(supervisor, _workload(20))
            beats = supervisor.check_health()
            assert sorted(beats) == [0, 1, 2, 3]
            assert all(now >= 0 for now in beats.values())
        finally:
            supervisor.close()


class TestParallelSupervision:
    def test_parallel_storm_recovers_and_matches_twin(self, ckpt_dir):
        requests = _workload(70)
        twin = _twin_results(requests, 2)
        supervisor = _supervised(ckpt_dir, n_shards=2, executor="parallel")
        try:
            # one injector per worker: the schedule fires on each shard
            supervisor.install_fault_plan(
                FaultPlan(seed=0, crash_schedule=[30], crash_op_kind="any")
            )
            results = _drive(supervisor, requests)
            report = supervisor.recovery_report()
            assert report["crashes_detected"] >= 1
            assert report["restores"] == report["crashes_detected"]
            assert report["fences"] == 0
            assert results == twin
        finally:
            supervisor.close()

    def test_parallel_hang_detected_by_heartbeat_timeout(self, ckpt_dir):
        requests = _workload(50)
        twin = _twin_results(requests, 2)
        supervisor = _supervised(
            ckpt_dir, n_shards=2, executor="parallel", heartbeat_timeout_s=0.75
        )
        try:
            supervisor.install_fault_plan(
                FaultPlan(seed=0, hang_at_op=25, hang_wall_s=3.0)
            )
            results = _drive(supervisor, requests)
            report = supervisor.recovery_report()
            assert report["crashes_detected"] >= 1
            assert all(i["kind"] == "hung" for i in report["incidents"])
            assert report["fences"] == 0
            assert results == twin
        finally:
            supervisor.close()

    @pytest.mark.parametrize("wedged", [False, True], ids=["dead", "hung"])
    def test_idle_worker_failure_found_by_a_checkpoint_is_recovered(self, ckpt_dir, wedged):
        """A settled worker that dies (or stops answering) is first touched
        by the checkpoint's single-shard state read: that must be an
        incident the drain loop recovers, not a raw transport error."""
        import os
        import signal

        requests = _workload(40)
        twin = _twin_results(requests, 2)
        supervisor = _supervised(
            ckpt_dir, n_shards=2, executor="parallel", checkpoint_every_ops=0,
            heartbeat_timeout_s=0.5,
        )
        try:
            results = _drive(supervisor, requests[:20])
            supervisor.executor._settle()  # both workers idle in recv()
            mark = len(supervisor.events)
            pid = supervisor.executor._workers[0].pid
            os.kill(pid, signal.SIGSTOP if wedged else signal.SIGKILL)
            assert supervisor.checkpoint_now() == 2
            assert supervisor.events[mark].detail == ("hung" if wedged else "dead")
            assert supervisor.event_trace()[mark:] == [
                ("crash_detected", 0, 0),
                ("restore_started", 0, 1),
                ("restored", 0, 1),
                ("checkpoint", 0, 0),
                ("checkpoint", 1, 0),
            ]
            assert supervisor.executor._workers[0].pid != pid
            results += _drive(supervisor, requests[20:])
            assert results == twin
        finally:
            supervisor.close()


class TestCrashWhilePadding:
    """A worker that dies inside ``_worker_finish`` -- after its step's
    results were already handed out -- is recovered as a failure at the
    start of whatever talks to it next."""

    def _run(self, ckpt_dir, cadence):
        from repro.oram.base import Request

        supervisor = _supervised(
            ckpt_dir, n_shards=2, executor="parallel", checkpoint_every_ops=cadence
        )
        try:
            # Shard 1 alone, and only even addresses in the first batch:
            # every cycle it runs there is padding, so its third physical
            # access -- the crash point -- is inside the padding round.
            supervisor.executor.install_fault_plan_shard(
                1, FaultPlan(seed=0, crash_schedule=[3], crash_op_kind="any")
            )
            first = [
                Request.write(addr, b"w%d" % addr) if addr % 8 == 0 else Request.read(addr)
                for addr in range(0, 48, 2)
            ]
            second = [Request.read(addr) for addr in (0, 1, 8, 3, 16, 5, 7, 9)]
            entries = [supervisor.submit(request) for request in first]
            delivered = supervisor.drain()
            after_first = supervisor.event_trace()
            first_results = [entry.result for entry in entries]
            entries += [supervisor.submit(request) for request in second]
            delivered += supervisor.drain()
            return {
                "after_first": after_first,
                "first_results": first_results,
                "results": [entry.result for entry in entries],
                "delivered": [id(entry) for entry in delivered],
                "entries": [id(entry) for entry in entries],
                "journaled": list(supervisor._ops_journaled),
                "trace": supervisor.event_trace(),
                "report": supervisor.recovery_report(),
                "twin": _twin_results(first + second, 2),
            }
        finally:
            supervisor.close()

    def test_found_by_the_next_step_and_recovered_exactly_once(self, ckpt_dir):
        run = self._run(ckpt_dir, cadence=0)
        # The first drain returned before anyone looked at shard 1 again.
        assert not [e for e in run["after_first"] if e[0] == "crash_detected"]
        assert all(result is not None for result in run["first_results"])
        # Already-delivered results are kept, each entry retired once.
        assert run["results"][: len(run["first_results"])] == run["first_results"]
        assert run["delivered"] == run["entries"]
        assert run["results"] == run["twin"]
        # One journal entry per request: the requeue after recovery did
        # not journal (or send) the buffered second batch twice.
        assert run["journaled"] == [24 + 3, 5]
        incidents = run["report"]["incidents"]
        assert [(i["shard"], i["kind"], i["outcome"]) for i in incidents] == [
            (1, "crash", "restored")
        ]

    def test_found_by_a_cadence_checkpoint_at_the_drain_boundary(self, ckpt_dir):
        run = self._run(ckpt_dir, cadence=8)
        # Shard 0's checkpoint came due after the first drain; talking to
        # the workers for it settled the padding round and found the crash.
        kinds = [kind for kind, _shard, _attempt in run["after_first"]]
        assert kinds.count("crash_detected") == 1
        assert kinds.index("crash_detected") < kinds.index("restored")
        assert ("checkpoint", 0, 0) in run["after_first"][kinds.index("restored") :]
        assert run["results"] == run["twin"]
        assert run["report"]["restores"] == 1 and run["report"]["fences"] == 0

    @pytest.mark.parametrize("cadence", [0, 8])
    def test_recovery_trace_is_seed_deterministic(self, cadence):
        traces = []
        for _ in range(2):
            path = tempfile.mkdtemp(prefix="horam-sup-test-")
            try:
                traces.append(self._run(path, cadence)["trace"])
            finally:
                shutil.rmtree(path, ignore_errors=True)
        assert traces[0] == traces[1]
        assert ("crash_detected", 1, 0) in traces[0]

"""Executor equivalence: the parallel runtime must be invisible.

The contract the tentpole rests on: for the batched submit/drain pattern
(the engine, the benchmarks, the conformance harness), a
``ParallelExecutor`` fleet produces bit-identical observables to the
``SerialExecutor`` fleet built from the same ``(seed, n_shards)`` --
retired results, fleet served log, per-shard metrics and served/latency
logs, merged metrics, and the full per-shard bus traces.  One recoverable
fault-injection scenario is routed through the parallel runtime too:
faults perturb only timing, so logical results must still match the
conformance oracle.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.checkpoint import snapshot_shard
from repro.core.executor import ParallelExecutor, SerialExecutor, ShardExecutor
from repro.core.sharding import build_sharded_horam
from repro.crypto.random import DeterministicRandom
from repro.oram.base import initial_payload
from repro.sim.engine import SimulationEngine
from repro.storage.faults import FaultPlan
from repro.testing.scenario import ScenarioRunner, ScenarioSpec
from repro.testing.stacks import StackSpec, build_stack
from repro.workload.generators import WorkloadSpec, hotspot, uniform


def _build(executor, n_shards, n_blocks=1024, mem=128, trace=False, **kwargs):
    return build_sharded_horam(
        n_blocks=n_blocks,
        mem_tree_blocks=mem,
        n_shards=n_shards,
        seed=42,
        executor=executor,
        trace=trace,
        **kwargs,
    )


def _stream(n_blocks, count, seed=7, write_ratio=0.25):
    return list(
        hotspot(
            n_blocks,
            count,
            DeterministicRandom(seed),
            hot_blocks=48,
            write_ratio=write_ratio,
        )
    )


def _trace_digest(sharded) -> str:
    h = hashlib.blake2b(digest_size=16)
    for index, shard in enumerate(sharded.shards):
        for e in shard.hierarchy.trace.events:
            h.update(
                f"t{index}:{e.op}:{e.tier}:{e.slot}:{e.size}:{e.time_us!r}:{e.label};".encode()
            )
    return h.hexdigest()


def _observables(sharded, engine, metrics):
    return {
        "results": list(engine.results),
        "served_digest": sharded.served_digest,
        "merged_metrics": metrics.to_dict(),
        "shard_metrics": [m.to_dict() for m in sharded.shard_metrics()],
        "latency_histograms": [s.latency_histogram.to_list() for s in sharded.shards],
        "percentiles": sharded.latency_percentiles(),
        "load_balance": sharded.load_balance(),
        "trace": _trace_digest(sharded),
    }


def _run_fleet(executor, n_shards, requests=350, trace=True, lockstep=True):
    sharded = _build(executor, n_shards, trace=trace, lockstep=lockstep)
    try:
        engine = SimulationEngine(sharded, verify=True, record_results=True)
        metrics = engine.run(_stream(sharded.n_blocks, requests))
        return _observables(sharded, engine, metrics)
    finally:
        sharded.close()


class TestParallelEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_bit_identical_to_serial(self, n_shards):
        """Retired results, served digests, metrics and traces all match."""
        serial = _run_fleet("serial", n_shards)
        parallel = _run_fleet("parallel", n_shards)
        for key in serial:
            assert serial[key] == parallel[key], f"{key} diverged at {n_shards} shards"

    def test_non_lockstep_matches_serial(self):
        serial = _run_fleet("serial", 2, lockstep=False)
        parallel = _run_fleet("parallel", 2, lockstep=False)
        assert serial == parallel

    def test_cross_run_and_sync_reads_match(self):
        """Two engine runs plus synchronous reads stay equivalent."""
        outcomes = {}
        for executor in ("serial", "parallel"):
            sharded = _build(executor, 2)
            try:
                engine = SimulationEngine(sharded, verify=True, record_results=True)
                engine.run(_stream(sharded.n_blocks, 200, seed=5))
                engine.run(_stream(sharded.n_blocks, 200, seed=6))
                sync = [sharded.read(addr) for addr in (0, 1, 7, 1023)]
                outcomes[executor] = (
                    list(engine.results),
                    sync,
                    sharded.metrics.to_dict(),
                )
            finally:
                sharded.close()
        assert outcomes["serial"] == outcomes["parallel"]

    def test_lockstep_cycles_equalize_across_workers(self):
        sharded = _build("parallel", 4)
        try:
            SimulationEngine(sharded).run(
                list(uniform(sharded.n_blocks, 200, DeterministicRandom(3), write_ratio=0.3))
            )
            cycles = {shard.metrics.cycles for shard in sharded.shards}
            assert len(cycles) == 1
        finally:
            sharded.close()

    def test_force_shuffle_matches_serial(self):
        outcomes = {}
        for executor in ("serial", "parallel"):
            sharded = _build(executor, 2)
            try:
                SimulationEngine(sharded).run(_stream(sharded.n_blocks, 120))
                sharded.force_shuffle()
                value = sharded.read(17)
                outcomes[executor] = (value, sharded.metrics.to_dict())
            finally:
                sharded.close()
        assert outcomes["serial"] == outcomes["parallel"]

    def test_writes_round_trip_through_workers(self):
        sharded = _build("parallel", 2)
        try:
            sharded.write(5, b"hello")
            sharded.write(6, b"world")
            assert sharded.read(5) == b"hello".ljust(16, b"\x00")
            assert sharded.read(6) == b"world".ljust(16, b"\x00")
        finally:
            sharded.close()


def _step_view(sharded) -> dict:
    """Everything a reader can see of a fleet between two steps."""
    hierarchy = sharded.hierarchy
    return {
        "metrics": sharded.metrics.to_dict(),
        "served_digest": sharded.served_digest,
        "latency": [s.latency_histogram.to_list() for s in sharded.shards],
        "shard_metrics": [m.to_dict() for m in sharded.shard_metrics()],
        "storage": hierarchy.storage.snapshot(),
        "memory": hierarchy.memory.snapshot(),
        "clock_us": hierarchy.clock.now_us,
        "shard_stores": [
            (s.hierarchy.storage.snapshot(), s.hierarchy.memory.snapshot())
            for s in sharded.shards
        ],
    }


class TestOverlappedPadding:
    """A step returns before the idle shards have padded; whoever reads
    the fleet next must still see the padded state, every time."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_every_step_reads_like_serial(self, n_shards):
        serial = _build("serial", n_shards)
        parallel = _build("parallel", n_shards)
        try:
            stream = _stream(serial.n_blocks, 260)
            sizes = [1, 1, 3, 32, 7, 64, 2, 50, 100]
            assert sum(sizes) == len(stream)
            start = 0
            for size in sizes:
                batch = stream[start : start + size]
                start += size
                for fleet in (serial, parallel):
                    for request in batch:
                        fleet.submit(request)
                got = parallel.step()  # one step is the whole batch
                want = serial.drain()
                assert [e.result for e in got] == [e.result for e in want]
                assert not parallel.has_work()
                assert _step_view(parallel) == _step_view(serial), (
                    f"diverged after the batch ending at request {start}"
                )
            stats = parallel.executor.ipc_stats()
            assert stats["steps"] == len(sizes)
            assert stats["requests"] == len(stream)
            # One round per step on the critical path, plus at most the
            # previous padding round when the next step caught it running.
            assert stats["steps"] <= stats["blocking_rounds"] <= 2 * stats["steps"] - 1
        finally:
            serial.close()
            parallel.close()

    def test_back_to_back_steps_keep_the_fifo_order(self):
        """No read between steps: batch k+1 queues behind padding k in
        each worker, and the end state is still the serial one."""
        serial = _build("serial", 2, trace=True)
        parallel = _build("parallel", 2, trace=True)
        try:
            stream = _stream(serial.n_blocks, 200)
            for start in range(0, 200, 8):
                for fleet in (serial, parallel):
                    for request in stream[start : start + 8]:
                        fleet.submit(request)
                    fleet.drain()
            assert _step_view(parallel) == _step_view(serial)
            assert _trace_digest(parallel) == _trace_digest(serial)
        finally:
            serial.close()
            parallel.close()


class TestParallelFaults:
    def test_fault_scenario_through_parallel_executor(self):
        """Recoverable faults in the workers leave results oracle-exact."""
        spec = ScenarioSpec(
            name="parallel-faults-equivalence",
            stack=StackSpec(
                protocol="sharded", n_blocks=1024, mem_blocks=128,
                n_shards=2, executor="parallel", seed=11,
            ),
            workload=WorkloadSpec(
                kind="hotspot", n_blocks=1024, count=220, seed=78, write_ratio=0.25,
            ),
            faults=FaultPlan(seed=9, read_error_rate=0.05, latency_spike_rate=0.05),
        )
        result = ScenarioRunner().run(spec)
        assert result.ok, "\n".join(result.failures)
        assert result.fault_stats is not None
        assert result.fault_stats.read_faults + result.fault_stats.latency_spikes > 0

    def test_faulted_results_match_serial(self):
        """Timing-only faults: served payloads identical across executors."""
        plan = FaultPlan(seed=4, read_error_rate=0.05, latency_spike_rate=0.05)
        outcomes = {}
        for executor in ("serial", "parallel"):
            stack = build_stack(
                StackSpec(
                    protocol="sharded", n_blocks=1024, mem_blocks=128,
                    n_shards=2, executor=executor, seed=11,
                )
            )
            try:
                stack.protocol.executor.install_fault_plan(plan)
                engine = SimulationEngine(stack.protocol, record_results=True)
                engine.run(_stream(1024, 200, seed=9))
                outcomes[executor] = (
                    list(engine.results),
                    stack.protocol.served_digest,
                )
            finally:
                stack.close()
        assert outcomes["serial"] == outcomes["parallel"]


    def test_worker_failure_poisons_fleet_instead_of_hanging(self):
        """An unrecoverable worker fault must not leave drain() spinning."""
        from repro.storage.faults import UnrecoverableFaultError

        sharded = _build("parallel", 2)
        try:
            sharded.executor.install_fault_plan(
                FaultPlan(seed=1, read_error_rate=1.0)  # escalates immediately
            )
            for request in _stream(sharded.n_blocks, 40):
                sharded.submit(request)
            with pytest.raises(UnrecoverableFaultError):
                sharded.drain()
            # The fleet is out of sync with its workers: further use fails
            # loudly (previously this spun forever in drain()).
            with pytest.raises(RuntimeError, match="broken"):
                sharded.drain()
            with pytest.raises(RuntimeError, match="broken"):
                sharded.read(0)
        finally:
            sharded.close()


class TestExecutorPlumbing:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            build_sharded_horam(
                n_blocks=512, mem_tree_blocks=128, n_shards=2, executor="threads"
            )

    def test_stack_spec_validates_executor(self):
        with pytest.raises(ValueError, match="unknown executor"):
            StackSpec(protocol="sharded", executor="gpu")
        with pytest.raises(ValueError, match="sharded stacks only"):
            StackSpec(protocol="horam", executor="parallel")

    def test_parallel_label_and_describe(self):
        spec = StackSpec(protocol="sharded", n_shards=2, executor="parallel")
        assert spec.label().startswith("shardedx2-par")
        sharded = _build("parallel", 2)
        try:
            described = sharded.describe()
            assert described["executor"] == "parallel"
            assert described["n_shards"] == 2
        finally:
            sharded.close()

    def test_close_is_idempotent_and_context_managed(self):
        with _build("parallel", 2) as sharded:
            assert sharded.read(3) == initial_payload(3).ljust(16, b"\x00")
        sharded.close()  # second close must be a no-op

    def test_serial_executor_is_default(self):
        sharded = build_sharded_horam(n_blocks=512, mem_tree_blocks=128, n_shards=2)
        assert isinstance(sharded.executor, SerialExecutor)
        assert sharded.describe()["executor"] == "serial"

    def test_parallel_codec_facade_pads(self):
        sharded = _build("parallel", 2)
        try:
            assert sharded.codec.pad(b"ab") == b"ab".ljust(16, b"\x00")
            assert sharded.codec.payload_bytes == 16
            with pytest.raises(ValueError, match="exceeds"):
                sharded.codec.pad(b"x" * 17)
        finally:
            sharded.close()

    def test_empty_parallel_executor_rejected(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ParallelExecutor([])


def _public_callables(cls) -> set:
    return {
        name
        for name in dir(cls)
        if not name.startswith("_") and callable(getattr(cls, name))
    }


class TestOneSurface:
    """Callers never need to know which runtime they hold."""

    #: parallel-only, by design: transport accounting for the benchmarks,
    #: and the per-worker injector hook tests aim single-worker faults with.
    PARALLEL_ONLY = {"ipc_stats", "install_fault_plan_shard"}

    def test_both_executors_have_the_same_public_callables(self):
        serial = _public_callables(SerialExecutor)
        parallel = _public_callables(ParallelExecutor)
        assert parallel - serial == self.PARALLEL_ONLY
        assert serial - parallel == set()

    def test_the_base_class_has_no_unimplemented_stubs(self):
        """Every method is abstract (so both runtimes must define it) or
        really implemented -- never a ``raise NotImplementedError`` body
        one runtime forgot to override."""
        for name in _public_callables(ShardExecutor):
            method = getattr(ShardExecutor, name)
            if getattr(method, "__isabstractmethod__", False):
                continue
            assert "NotImplementedError" not in method.__code__.co_names, name
        assert not SerialExecutor.__abstractmethods__
        assert not ParallelExecutor.__abstractmethods__

    def test_shard_checkpoints_have_one_shape(self):
        checkpoints = []
        for executor in ("serial", "parallel"):
            with _build(executor, 2) as sharded:
                checkpoints.append(snapshot_shard(sharded, 1))
        serial, parallel = checkpoints
        assert set(serial.state) == set(parallel.state) == {"index", "stack"}
        assert serial.kind == parallel.kind == "shard"
        assert set(serial.blobs) == set(parallel.blobs)

"""Simulation engine tests."""

import pytest

from repro.core.horam import build_horam
from repro.crypto.random import DeterministicRandom
from repro.oram.base import OpKind, Request, initial_payload
from repro.oram.factory import build_path_oram
from repro.sim.engine import SimulationEngine, VerificationError, drive
from repro.storage.faults import FaultPlan
from repro.testing.stacks import StackSpec, build_stack
from repro.workload.generators import hotspot, read_write_mix


class TestBatchedPath:
    def test_metrics_delta_isolated_between_runs(self):
        oram = build_horam(n_blocks=256, mem_tree_blocks=64, seed=1)
        engine = SimulationEngine(oram)
        first = engine.run([Request.read(a) for a in range(10)])
        second = engine.run([Request.read(a) for a in range(10, 20)])
        assert first.requests_served == 10
        assert second.requests_served == 10
        assert second.total_time_us > 0

    def test_verify_catches_protocol_lies(self):
        oram = build_horam(n_blocks=256, mem_tree_blocks=64, seed=1)

        # Sabotage: make every read return zeros by clobbering results.
        class Lying:
            def __init__(self, inner):
                self._inner = inner
                self.hierarchy = inner.hierarchy
                self.metrics = inner.metrics
                self.codec = inner.codec

            def submit(self, request):
                entry = self._inner.submit(request)
                return entry

            def drain(self):
                retired = self._inner.drain()
                for entry in retired:
                    entry.result = b"\x00" * 16
                return retired

        engine = SimulationEngine(Lying(oram), verify=True)
        with pytest.raises(VerificationError):
            engine.run([Request.read(3)])

    def test_write_read_verified(self):
        oram = build_horam(n_blocks=256, mem_tree_blocks=64, seed=1)
        rng = DeterministicRandom(2)
        requests = list(read_write_mix(256, 200, rng, write_ratio=0.5, hot_blocks=30))
        SimulationEngine(oram, verify=True).run(requests)  # raises on any mismatch

    def test_second_run_reads_first_runs_writes(self):
        # Regression: the batched replay used to start from an empty
        # shadow state, so a second run(verify=True) reading an address
        # written in an earlier run raised a spurious VerificationError.
        oram = build_horam(n_blocks=256, mem_tree_blocks=64, seed=1)
        engine = SimulationEngine(oram, verify=True)
        engine.run([Request.write(9, b"from-run-one")])
        metrics = engine.run([Request.read(9)])  # must verify clean
        assert metrics.requests_served == 1

    def test_cross_run_read_before_write_sees_earlier_run(self):
        # Within the second run the read precedes a write to the same
        # address; it must verify against run one's value, not run two's.
        oram = build_horam(n_blocks=256, mem_tree_blocks=64, seed=1)
        engine = SimulationEngine(oram, verify=True)
        engine.run([Request.write(5, b"old")])
        engine.run([Request.read(5), Request.write(5, b"new"), Request.read(5)])
        engine.run([Request.read(5)])  # and the update carries forward

    def test_cross_run_verify_still_catches_lies(self):
        oram = build_horam(n_blocks=256, mem_tree_blocks=64, seed=1)
        engine = SimulationEngine(oram, verify=True)
        engine.run([Request.write(3, b"truth")])
        oram.write(3, b"corrupted")  # mutate behind the engine's back
        with pytest.raises(VerificationError):
            engine.run([Request.read(3)])


class TestSynchronousPath:
    def test_baseline_verified(self):
        oram = build_path_oram(n_blocks=128, memory_blocks=32, seed=1)
        rng = DeterministicRandom(3)
        requests = list(read_write_mix(128, 150, rng, write_ratio=0.4, hot_blocks=20))
        metrics = SimulationEngine(oram, verify=True).run(requests)
        assert metrics.requests_served == 150
        assert metrics.io_reads > 0 and metrics.io_writes > 0

    def test_io_accounting_matches_store(self):
        oram = build_path_oram(n_blocks=128, memory_blocks=32, seed=1)
        engine = SimulationEngine(oram)
        metrics = engine.run([Request.read(5)])
        z, levels = 4, oram.storage_levels
        assert metrics.io_reads == z * levels
        assert metrics.io_writes == z * levels
        assert metrics.mem_accesses > 0

    def test_total_time_is_clock_delta(self):
        oram = build_path_oram(n_blocks=128, memory_blocks=32, seed=1)
        engine = SimulationEngine(oram)
        metrics = engine.run([Request.read(1), Request.read(2)])
        assert metrics.total_time_us == pytest.approx(oram.clock.now_us)


class TestShuffleSeparation:
    def test_access_io_excludes_shuffle_runs(self):
        oram = build_horam(n_blocks=512, mem_tree_blocks=128, seed=4)
        rng = DeterministicRandom(5)
        requests = list(
            hotspot(512, 10 * oram.period_capacity, rng, hot_blocks=40, hot_probability=0.6)
        )
        metrics = SimulationEngine(oram).run(requests)
        assert metrics.shuffle_count >= 1
        # Access-period I/O is single-block loads only: reads equal cycles
        # and writes are zero (all storage writes happen inside shuffles).
        assert metrics.io_reads == metrics.cycles
        assert metrics.io_writes == 0
        assert metrics.shuffle_io_writes > 0

    def test_engine_requires_hierarchy(self):
        class Bare:
            pass

        with pytest.raises(ValueError):
            SimulationEngine(Bare())


#: One stack of every shape ``drive`` feeds: both API styles, a fleet on
#: each executor, and a supervised fleet.
DRIVEN_STACKS = {
    "horam": StackSpec(protocol="horam", n_blocks=256, mem_blocks=64, seed=3),
    "sharded-serial": StackSpec(protocol="sharded", n_blocks=512, mem_blocks=64, n_shards=2, seed=3),
    "sharded-parallel": StackSpec(
        protocol="sharded", n_blocks=512, mem_blocks=64, n_shards=2, executor="parallel", seed=3
    ),
    "supervised": StackSpec(
        protocol="sharded", n_blocks=512, mem_blocks=64, n_shards=2, supervised=True, seed=3
    ),
    "path": StackSpec(protocol="path", n_blocks=256, mem_blocks=64, seed=3),
    "plain": StackSpec(protocol="plain", n_blocks=256, seed=3),
}


class TestDrive:
    @pytest.mark.parametrize("name", sorted(DRIVEN_STACKS))
    def test_batch_size_never_changes_the_served_bytes(self, name):
        spec = DRIVEN_STACKS[name]
        requests = list(
            read_write_mix(256, 120, DeterministicRandom(8), write_ratio=0.3, hot_blocks=24)
        )
        served = {}
        for batch in (1, 16, len(requests)):
            stack = build_stack(spec)
            try:
                served[batch] = drive(stack.driver, requests, batch)
                pad = stack.protocol.codec.pad
            finally:
                stack.cleanup()
        assert served[1] == served[16] == served[len(requests)]
        assert len(served[1]) == len(requests)
        for request, result in zip(requests, served[1]):
            if request.op is OpKind.READ:
                assert result is not None
            elif stack.batched:
                assert result == pad(request.data)  # the written record
            else:
                assert result is None  # a synchronous write returns nothing

    @pytest.mark.parametrize("batch", [1, 16])
    def test_a_fenced_stripe_yields_none_and_does_not_raise(self, batch):
        stack = build_stack(
            StackSpec(
                protocol="sharded", n_blocks=512, mem_blocks=128, n_shards=4,
                supervised=True, max_restarts=0, seed=0,
            )
        )
        try:
            stack.install_faults(FaultPlan(seed=0, crash_schedule=[25], crash_op_kind="any"))
            requests = list(hotspot(512, 80, DeterministicRandom(31), hot_blocks=48))
            results = drive(stack.driver, requests, batch)
            (fenced,) = stack.supervisor.fenced
            on_stripe = [a for a in range(512) if stack.protocol.shard_of(a) == fenced][:3]
            off_stripe = next(a for a in range(512) if stack.protocol.shard_of(a) != fenced)
            assert None in results
            later = drive(stack.driver, [Request.read(a) for a in on_stripe + [off_stripe]], batch)
            assert later[:-1] == [None] * len(on_stripe)
            assert later[-1] is not None
        finally:
            stack.cleanup()

    def test_engine_results_hold_the_last_run_only(self):
        oram = build_horam(n_blocks=256, mem_tree_blocks=64, seed=1)
        engine = SimulationEngine(oram)
        engine.run([Request.write(4, b"a"), Request.read(4)])
        assert engine.results == [oram.codec.pad(b"a")] * 2
        engine.run([Request.read(5)])
        assert engine.results == [oram.codec.pad(initial_payload(5))]

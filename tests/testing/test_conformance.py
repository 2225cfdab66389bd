"""Tier-2 conformance matrix: every standing scenario must conform.

The exact specs behind ``horam-bench conformance`` run here one test per
scenario, so a regression names the offending stack/workload/fault
combination directly in the pytest report.
"""

import pytest

from repro.sim.engine import SimulationEngine
from repro.storage.faults import FaultPlan
from repro.testing import (
    PROTOCOLS,
    ScenarioRunner,
    ScenarioSpec,
    StackSpec,
    build_stack,
    default_matrix,
    matrix_summary,
    run_matrix,
)
from repro.workload.generators import WorkloadSpec

MATRIX = default_matrix("quick")
_RUNNER = ScenarioRunner()


class TestDefaultMatrix:
    def test_matrix_is_broad_enough(self):
        """The acceptance floor: >=12 scenarios, >=3 protocols, >=2 devices,
        shard widths 1/2/4/8, >=2 fault-injection scenarios."""
        assert len(MATRIX) >= 12
        protocols = {spec.stack.protocol for spec in MATRIX}
        assert {"horam", "sharded", "path"} <= protocols
        assert len(protocols) >= 4
        devices = {spec.stack.device for spec in MATRIX}
        assert len(devices) >= 2
        shard_widths = {
            spec.stack.n_shards for spec in MATRIX if spec.stack.protocol == "sharded"
        }
        assert {1, 2, 4, 8} <= shard_widths
        faulted = [spec for spec in MATRIX if spec.faults and spec.faults.active()]
        assert len(faulted) >= 2
        assert any(spec.stack.users for spec in MATRIX)
        # Durability tier: crash/restore scenarios, including one on the
        # parallel executor and one landing mid-shuffle (write_run), plus a
        # disk-backed slab scenario.
        crashes = [spec for spec in MATRIX if spec.crash is not None]
        assert len(crashes) >= 3
        assert any(spec.stack.executor == "parallel" for spec in crashes)
        assert any(spec.crash.crash_op_kind == "write_run" for spec in crashes)
        assert any(spec.stack.storage_backend == "file" for spec in MATRIX)
        # Chaos tier: wire faults, a supervised backend crash storm and a
        # mid-stream graceful drain, all on the serve path.
        chaotic = [
            spec
            for spec in MATRIX
            if spec.serve is not None and spec.serve.chaotic()
        ]
        assert len(chaotic) >= 3
        assert any(
            spec.serve.chaos is not None and spec.serve.chaos.active()
            for spec in chaotic
        )
        assert any(
            spec.serve.crash_ops and spec.stack.supervised for spec in chaotic
        )
        assert any(spec.serve.drain_after for spec in chaotic)

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            default_matrix("huge")

    @pytest.mark.parametrize("spec", MATRIX, ids=[s.name for s in MATRIX])
    def test_scenario_conforms(self, spec):
        result = _RUNNER.run(spec)
        assert result.ok, "\n".join(result.failures)
        assert result.mismatches == 0
        assert result.final_state_checked > 0

    def test_matrix_summary_counts(self):
        results = run_matrix(MATRIX[:3])
        summary = matrix_summary(results)
        assert summary["scenarios"] == 3
        assert summary["passed"] + summary["failed"] == 3


class TestSpecSerialization:
    def test_json_roundtrip_preserves_everything(self):
        spec = ScenarioSpec(
            name="rt",
            stack=StackSpec(protocol="sharded", n_blocks=1024, n_shards=4, users=2),
            workload=WorkloadSpec(kind="stride", n_blocks=1024, count=64, params={"step": 4}),
            faults=FaultPlan(seed=2, torn_write_rate=0.5),
            expect_failure=True,
        )
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec

    def test_workload_must_fit_stack(self):
        with pytest.raises(ValueError, match="spans"):
            ScenarioSpec(
                name="bad",
                stack=StackSpec(n_blocks=128),
                workload=WorkloadSpec(n_blocks=256, count=10),
            )


class TestHarnessCatchesBugs:
    """The differential harness must actually detect non-conformance."""

    def _spec(self, **fault_kwargs):
        return ScenarioSpec(
            name="seeded-bug",
            stack=StackSpec(n_blocks=512, mem_blocks=128, seed=3),
            workload=WorkloadSpec(kind="hotspot", n_blocks=512, count=120, seed=9, write_ratio=0.3),
            faults=FaultPlan(seed=1, **fault_kwargs) if fault_kwargs else None,
        )

    def test_silent_corruption_detected(self):
        result = _RUNNER.run(self._spec(corrupt_read_rate=0.08))
        assert not result.ok
        assert result.mismatches > 0 or result.error or result.failures

    def test_unrecoverable_fault_propagates_as_failure(self):
        result = _RUNNER.run(self._spec(read_error_rate=0.98, max_retries=2))
        assert not result.ok
        assert result.error is not None and "UnrecoverableFaultError" in result.error

    def test_fault_stats_reported(self):
        result = _RUNNER.run(self._spec(latency_spike_rate=0.2))
        assert result.ok  # spikes are timing-only
        assert result.fault_stats is not None
        assert result.fault_stats.latency_spikes > 0
        assert result.fault_stats.injected_delay_us > 0


class TestStackSpecs:
    def test_the_four_protocols(self):
        assert PROTOCOLS == ("horam", "sharded", "path", "plain")
        assert {spec.stack.protocol for spec in MATRIX} == set(PROTOCOLS)

    def test_invalid_protocol_and_device_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            StackSpec(protocol="bogus")
        with pytest.raises(ValueError, match="unknown device"):
            StackSpec(device="tape")
        with pytest.raises(ValueError, match="batched back end"):
            StackSpec(protocol="path", users=2)

    def test_build_stack_shapes(self):
        sharded = build_stack(StackSpec(protocol="sharded", n_blocks=1024, n_shards=4))
        assert len(sharded.storage_stores) == 4
        assert sharded.batched
        path = build_stack(StackSpec(protocol="path", n_blocks=256, mem_blocks=64))
        assert len(path.storage_stores) == 1
        assert not path.batched


class TestEngineResultRecording:
    def test_batched_and_sync_results_in_stream_order(self):
        from repro.oram.factory import build_plain
        from repro.oram.base import Request, initial_payload

        plain = build_plain(64)
        engine = SimulationEngine(plain, record_results=True)
        engine.run([Request.read(5), Request.write(6, b"x"), Request.read(6)])
        assert engine.results[0] == plain.codec.pad(initial_payload(5))
        assert engine.results[1] is None  # synchronous write returns nothing
        assert engine.results[2] == plain.codec.pad(b"x")

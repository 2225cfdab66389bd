"""Tier-2 conformance matrix: every standing scenario must conform.

The exact specs behind ``horam-bench conformance`` run here one test per
scenario, so a regression names the offending stack/workload/fault
combination directly in the pytest report.
"""

from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.oram.base import Request
from repro.sim.engine import SimulationEngine
from repro.storage.faults import FaultPlan
from repro.testing import (
    PROTOCOLS,
    CrashSpec,
    ScenarioRunner,
    ScenarioSpec,
    StackSpec,
    build_stack,
    default_matrix,
    matrix_summary,
    run_matrix,
)
from repro.testing.scenario import check_twin
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
        engine = SimulationEngine(plain)
        engine.run([Request.read(5), Request.write(6, b"x"), Request.read(6)])
        assert engine.results[0] == plain.codec.pad(initial_payload(5))
        assert engine.results[1] is None  # synchronous write returns nothing
        assert engine.results[2] == plain.codec.pad(b"x")


def _stack_view(digest=b"d", metrics=None, clock_us=100.0):
    """What the twin check reads off a stack: digest, metrics, clock."""
    metrics = {"cycles": 7} if metrics is None else metrics
    return SimpleNamespace(
        served_digest=digest,
        metrics=SimpleNamespace(to_dict=lambda: dict(metrics)),
        hierarchy=SimpleNamespace(clock=SimpleNamespace(now_us=clock_us)),
    )


class TestTwinCheck:
    """Each divergence class the one twin check gates on must fail it."""

    REQUESTS = {0: Request.read(1), 1: Request.write(2, b"w"), 2: Request.read(3)}
    SERVED = {0: b"one", 1: b"w", 2: b"three"}

    def _check(self, got=None, want=None, **kwargs):
        failures = []
        verdict = check_twin(
            failures, self.REQUESTS, self.SERVED if got is None else got,
            dict(self.SERVED) if want is None else want, **kwargs,
        )
        return failures, verdict

    def test_identical_runs_pass(self):
        failures, verdict = self._check(exact=(_stack_view(), _stack_view()))
        assert failures == [] and verdict == (3, 0)

    def test_a_flipped_result_byte_fails(self):
        failures, verdict = self._check(want={**self.SERVED, 2: b"thref"})
        assert verdict == (3, 1)
        assert len(failures) == 1 and "request 2 (read addr 3) diverges" in failures[0]

    def test_a_different_served_digest_fails(self):
        failures, _ = self._check(exact=(_stack_view(digest=b"a"), _stack_view(digest=b"b")))
        assert failures == ["served-order digest diverges from the twin's"]

    def test_different_metrics_fail(self):
        failures, _ = self._check(
            exact=(_stack_view(metrics={"cycles": 7}), _stack_view(metrics={"cycles": 8}))
        )
        assert failures == ["metrics diverge from the twin's"]

    def test_a_clock_one_microsecond_off_fails(self):
        failures, _ = self._check(
            exact=(_stack_view(clock_us=100.0), _stack_view(clock_us=101.0))
        )
        assert failures == ["simulated clock 100.0 != twin 101.0"]

    def test_an_unserved_journal_seq_fails(self):
        served = {seq: payload for seq, payload in self.SERVED.items() if seq != 1}
        failures, verdict = self._check(got=served, label="seq")
        assert verdict == (2, 0)
        assert failures == ["1 accepted requests were never served (seqs [1])"]

    def test_a_mismatch_on_a_fenced_stripe_is_skipped(self):
        failures, verdict = self._check(
            want={**self.SERVED, 0: None}, skip=lambda addr: addr == 1
        )
        assert failures == [] and verdict == (2, 0)

    def test_the_runner_reports_a_twin_that_diverges(self):
        """Wired end to end: a crash scenario whose twin serves one
        flipped byte fails on exactly that request."""

        class FlippedTwin(ScenarioRunner):
            @contextmanager
            def _twin(self, spec, requests):
                with super()._twin(spec, requests) as (twin, want):
                    want[5] = bytes([want[5][0] ^ 1]) + want[5][1:]
                    yield twin, want

        spec = ScenarioSpec(
            name="flipped-twin",
            stack=StackSpec(n_blocks=256, mem_blocks=64, seed=3),
            workload=WorkloadSpec(kind="hotspot", n_blocks=256, count=60, seed=9),
            crash=CrashSpec(snapshot_at=20, crash_at_op=5),
        )
        assert _RUNNER.run(spec).ok
        result = FlippedTwin().run(spec)
        assert not result.ok
        assert [f for f in result.failures if "diverges from the twin" in f] == [
            next(f for f in result.failures if f.startswith("request 5 "))
        ]

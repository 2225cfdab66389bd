"""Crash-storm soaks: supervised scenarios in the conformance harness.

A storm schedules shard failures under a FleetSupervisor and expects the
fleet to keep serving -- every incident auto-recovered (or fenced when
the spec says so), every never-fenced request bit-identical to an
uninterrupted, unsupervised twin, and the whole choreography replayable
from the spec's JSON.
"""

from __future__ import annotations

import pytest

from repro.storage.faults import FaultPlan
from repro.testing.scenario import (
    ScenarioRunner,
    ScenarioSpec,
    StormSpec,
)
from repro.testing.stacks import StackSpec
from repro.workload.generators import WorkloadSpec, make_workload

_RUNNER = ScenarioRunner()


def _storm_spec(
    name="storm",
    count=120,
    n_shards=2,
    executor="serial",
    storm=None,
    max_restarts=2,
    faults=None,
    crash=None,
    supervised=True,
):
    return ScenarioSpec(
        name=name,
        stack=StackSpec(
            protocol="sharded",
            n_blocks=512,
            mem_blocks=128,
            n_shards=n_shards,
            seed=11,
            executor=executor,
            supervised=supervised,
            checkpoint_every_ops=24,
            max_restarts=max_restarts,
        ),
        workload=WorkloadSpec(
            kind="hotspot", n_blocks=512, count=count, seed=78, write_ratio=0.25
        ),
        storm=storm,
        faults=faults,
        crash=crash,
    )


class TestStormScenarios:
    def test_serial_storm_conforms(self):
        result = _RUNNER.run(_storm_spec(storm=StormSpec(crash_ops=[40, 90])))
        assert result.ok, "\n".join(result.failures)
        assert result.crash_info["crashes"] == 2
        assert result.crash_info["restores"] == 2
        assert result.crash_info["fenced"] == []
        assert result.mismatches == 0

    def test_parallel_storm_conforms(self):
        result = _RUNNER.run(
            _storm_spec(count=80, executor="parallel", storm=StormSpec(crash_ops=[40]))
        )
        assert result.ok, "\n".join(result.failures)
        assert result.crash_info["crashes"] >= 1
        assert result.crash_info["restores"] == result.crash_info["crashes"]

    def test_crash_inside_the_padding_round_conforms(self):
        """The conformance matrix's padding storm: shard 1 serves nothing
        (every address is even), so its crash fires while it pads -- after
        the step that started the padding had delivered its results."""
        from repro.testing.conformance import default_matrix

        (spec,) = [
            s for s in default_matrix("quick") if "padding-storm" in s.name
        ]
        assert all(r.addr % 2 == 0 for r in make_workload(spec.workload))
        first = _RUNNER.run(spec)
        assert first.ok, "\n".join(first.failures)
        assert first.mismatches == 0
        info = first.crash_info
        assert info["fenced"] == [] and info["failed_fast"] == 0
        crashed = sorted(shard for kind, shard, _ in info["trace"] if kind == "crash_detected")
        assert crashed == [0, 1]  # the idle shard's crash was found and recovered
        assert info["restores"] == 2
        again = _RUNNER.run(spec)
        assert again.crash_info["trace"] == info["trace"]

    def test_expected_fencing_degrades_gracefully(self):
        result = _RUNNER.run(
            _storm_spec(
                max_restarts=0,
                storm=StormSpec(crash_ops=[40], expect_fenced=True),
            )
        )
        assert result.ok, "\n".join(result.failures)
        assert len(result.crash_info["fenced"]) == 1

    def test_unexpected_fencing_fails_the_scenario(self):
        result = _RUNNER.run(
            _storm_spec(max_restarts=0, storm=StormSpec(crash_ops=[40]))
        )
        assert not result.ok
        assert any("fenced" in failure for failure in result.failures)

    def test_supervised_passthrough_conforms(self):
        """No storm: a supervised stack must behave exactly like the
        bare fleet under the standard differential run."""
        result = _RUNNER.run(_storm_spec(name="passthrough", storm=None))
        assert result.ok, "\n".join(result.failures)
        assert result.mismatches == 0

    def test_storm_trace_survives_json_round_trip(self):
        spec = _storm_spec(storm=StormSpec(crash_ops=[40, 90]))
        replayed_spec = ScenarioSpec.from_json(spec.to_json())
        assert replayed_spec.storm == spec.storm
        original = _RUNNER.run(spec)
        replay = _RUNNER.run(replayed_spec)
        assert original.ok and replay.ok
        # determinism: same seed + same schedule => bit-identical trace
        assert original.crash_info["trace"] == replay.crash_info["trace"]


class TestStormValidation:
    def test_storm_requires_supervised_stack(self):
        with pytest.raises(ValueError, match="supervised"):
            _storm_spec(supervised=False, storm=StormSpec(crash_ops=[10]))

    def test_storm_excludes_fault_plans(self):
        with pytest.raises(ValueError):
            _storm_spec(
                storm=StormSpec(crash_ops=[10]),
                faults=FaultPlan(seed=1, read_error_rate=0.1),
            )

    def test_storm_needs_a_failure_point(self):
        with pytest.raises(ValueError, match="at least one crash or hang"):
            StormSpec()

    def test_crash_ops_are_one_based_and_increasing(self):
        with pytest.raises(ValueError):
            StormSpec(crash_ops=[0])
        with pytest.raises(ValueError):
            StormSpec(crash_ops=[20, 10])


class TestFaultCountersSurface:
    def test_recoverable_faults_surface_in_metrics_extra(self):
        """Satellite check: injector retries/escalations/backoff land in
        Metrics.extra for a plain (unsupervised) faulted scenario."""
        spec = ScenarioSpec(
            name="faulted",
            stack=StackSpec(protocol="horam", n_blocks=512, mem_blocks=128, seed=5),
            workload=WorkloadSpec(
                kind="hotspot", n_blocks=512, count=150, seed=6, write_ratio=0.25
            ),
            faults=FaultPlan(seed=3, read_error_rate=0.05, latency_spike_rate=0.05),
        )
        result = _RUNNER.run(spec)
        assert result.ok, "\n".join(result.failures)
        extra = result.metrics.extra
        assert extra["fault_read_faults"] > 0
        assert extra["fault_retries"] >= extra["fault_read_faults"]
        assert extra["fault_injected_delay_us"] > 0
        assert extra["fault_escalations"] == 0

    def test_supervised_metrics_carry_fault_and_supervisor_counters(self):
        result = _RUNNER.run(_storm_spec(storm=StormSpec(crash_ops=[40])))
        assert result.ok, "\n".join(result.failures)
        extra = result.metrics.extra
        assert extra["supervisor_crashes"] == 1
        assert extra["supervisor_restores"] == 1
        assert extra["supervisor_checkpoints"] >= 2
        assert "fault_crashes" in extra

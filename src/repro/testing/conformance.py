"""The conformance scenario matrix.

``default_matrix`` enumerates the scenarios every change to the serving
stack must keep green: every protocol (H-ORAM, Path ORAM, the
unprotected store), the sharded fleet at 1/2/4/8 shards, the multi-user
front end, at least two device models, adversarial workload shapes
(single-block hotspot, shard-aliased strides, write storms), recoverable
fault injection (transient read errors, latency spikes, torn bulk
writes), disk-backed slab stacks, and crash/restore choreographies
(checkpoint, kill at a chosen physical op -- including a torn
mid-shuffle bulk write and a parallel-executor fleet -- recover, finish,
and diff against an uninterrupted twin), and chaos serving soaks (seeded
wire faults between retrying clients and the server, graceful drain
under live load, a crash storm under a served supervised fleet -- all
gated on exactly-once execution and twin identity). The same specs back
the ``horam-bench conformance`` CLI experiment and the tier-2 pytest
matrix in ``tests/testing/test_conformance.py``.

``seeded_fault_demo`` is the harness eating its own dog food: a scenario
with silent read corruption (the one fault class that is *not*
recovered) must fail differentially, shrink to a minimal explicit
stream, and replay from the shrunk spec's JSON.
"""

from __future__ import annotations

from repro.serve.chaos import ChaosSpec
from repro.storage.faults import FaultPlan
from repro.testing.scenario import (
    CrashSpec,
    ScenarioResult,
    ScenarioRunner,
    ScenarioSpec,
    ServeSpec,
    StormSpec,
)
from repro.testing.shrinker import ShrinkResult, shrink
from repro.testing.stacks import StackSpec
from repro.workload.generators import WorkloadSpec

#: Per-scale multiplier on request counts (geometries stay fixed so the
#: matrix exercises the same shuffle-period boundaries at every scale).
_SCALE = {"quick": 1, "medium": 3, "full": 8}


def _spec(
    name: str,
    protocol: str,
    kind: str,
    count: int,
    *,
    n_blocks: int = 512,
    mem_blocks: int = 128,
    n_shards: int = 1,
    users: int = 0,
    device: str = "hdd-paper",
    write_ratio: float = 0.25,
    params: dict | None = None,
    faults: FaultPlan | None = None,
    crash: CrashSpec | None = None,
    storm: StormSpec | None = None,
    serve: ServeSpec | None = None,
    expect_failure: bool = False,
    seed: int = 11,
    executor: str = "serial",
    storage_backend: str = "memory",
    supervised: bool = False,
    checkpoint_every_ops: int = 64,
    max_restarts: int = 2,
) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        stack=StackSpec(
            protocol=protocol,
            n_blocks=n_blocks,
            mem_blocks=mem_blocks,
            n_shards=n_shards,
            users=users,
            device=device,
            seed=seed,
            executor=executor,
            storage_backend=storage_backend,
            supervised=supervised,
            checkpoint_every_ops=checkpoint_every_ops,
            max_restarts=max_restarts,
        ),
        workload=WorkloadSpec(
            kind=kind,
            n_blocks=n_blocks,
            count=count,
            seed=seed * 7 + 1,
            write_ratio=write_ratio,
            params=params or {},
        ),
        faults=faults,
        crash=crash,
        storm=storm,
        serve=serve,
        expect_failure=expect_failure,
    )


def _scale_multiplier(scale: str) -> int:
    try:
        return _SCALE[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r} (valid: {', '.join(sorted(_SCALE))})"
        ) from None


def default_matrix(scale: str = "quick") -> list[ScenarioSpec]:
    """The standing conformance matrix (all scenarios must pass)."""
    m = _scale_multiplier(scale)
    return [
        # -- H-ORAM across devices and workload shapes
        _spec("horam-hotspot-hdd", "horam", "hotspot", 300 * m),
        _spec("horam-uniform-ssd", "horam", "uniform", 300 * m, device="ssd-sata"),
        _spec("horam-storm-hdd", "horam", "write_storm", 250 * m, write_ratio=0.0),
        _spec("horam-hotspot-degraded", "horam", "hotspot", 200 * m, device="hdd-degraded"),
        # -- baselines (differential against the same oracle)
        _spec("path-hotspot-hdd", "path", "hotspot", 200 * m, n_blocks=256, mem_blocks=64),
        _spec("path-uniform-ssd", "path", "uniform", 200 * m, n_blocks=256, mem_blocks=64, device="ssd-sata"),
        _spec("plain-mix-hdd", "plain", "mix", 200 * m, n_blocks=256, mem_blocks=64, write_ratio=0.0),
        # -- the sharded fleet at every supported width
        _spec("sharded1-hotspot-hdd", "sharded", "hotspot", 260 * m, n_shards=1),
        _spec("sharded2-zipf-hdd", "sharded", "zipfian", 300 * m, n_blocks=1024, n_shards=2),
        _spec(
            "sharded4-stride-ssd", "sharded", "stride", 300 * m,
            n_blocks=1024, n_shards=4, device="ssd-sata", params={"step": 4},
        ),
        _spec("sharded8-uniform-hdd", "sharded", "uniform", 300 * m, n_blocks=1024, n_shards=8),
        _spec("sharded8-single-block-hdd", "sharded", "single_block", 220 * m, n_blocks=1024, n_shards=8),
        # -- the multi-tenant front end over the fleet
        _spec("multiuser4-sharded2-hdd", "sharded", "hotspot", 240 * m, n_blocks=1024, n_shards=2, users=4),
        # -- the process-per-shard parallel runtime
        _spec(
            "sharded2-parallel-hotspot-hdd", "sharded", "hotspot", 260 * m,
            n_blocks=1024, n_shards=2, executor="parallel",
        ),
        _spec(
            "sharded4-parallel-uniform-ssd", "sharded", "uniform", 280 * m,
            n_blocks=1024, n_shards=4, device="ssd-sata", executor="parallel",
        ),
        _spec(
            "sharded2-parallel-faults-hdd", "sharded", "hotspot", 240 * m,
            n_blocks=1024, n_shards=2, executor="parallel",
            faults=FaultPlan(seed=9, read_error_rate=0.04, latency_spike_rate=0.04),
        ),
        # -- durability: the disk-backed slab under the standard differential run
        _spec(
            "horam-durable-hotspot-hdd", "horam", "hotspot", 260 * m,
            storage_backend="file",
        ),
        # -- crash/recovery: checkpoint, kill, restore, finish bit-identically
        _spec(
            "horam-crash-restore-hdd", "horam", "hotspot", 260 * m,
            crash=CrashSpec(snapshot_at=90, crash_at_op=40),
        ),
        _spec(
            "horam-crash-midshuffle-durable-hdd", "horam", "mix", 260 * m,
            write_ratio=0.0, storage_backend="file",
            crash=CrashSpec(
                snapshot_at=70, crash_at_op=1,
                crash_op_kind="write_run", crash_torn=True,
            ),
        ),
        _spec(
            "sharded2-crash-durable-ssd", "sharded", "uniform", 240 * m,
            n_blocks=1024, n_shards=2, device="ssd-sata",
            storage_backend="file",
            crash=CrashSpec(snapshot_at=80, crash_at_op=60),
        ),
        _spec(
            "sharded4-parallel-crash-hdd", "sharded", "hotspot", 260 * m,
            n_blocks=1024, n_shards=4, executor="parallel",
            crash=CrashSpec(snapshot_at=100, crash_at_op=30),
        ),
        # -- resilience: supervised fleets (passthrough + crash storms)
        _spec(
            "sharded2-supervised-hotspot-hdd", "sharded", "hotspot", 240 * m,
            n_blocks=1024, n_shards=2, supervised=True,
        ),
        _spec(
            "sharded4-supervised-storm-hdd", "sharded", "hotspot", 260 * m,
            n_blocks=1024, n_shards=4, supervised=True,
            storm=StormSpec(crash_ops=[90, 400]),
        ),
        _spec(
            "sharded2-parallel-supervised-storm-hdd", "sharded", "uniform", 240 * m,
            n_blocks=1024, n_shards=2, executor="parallel", supervised=True,
            storm=StormSpec(crash_ops=[120]),
        ),
        # Every request aliases onto shard 0, so each cycle shard 1 runs is
        # lockstep padding: its crash point fires inside the overlapped
        # padding round, after that step's results were already delivered.
        _spec(
            "sharded2-parallel-supervised-padding-storm-hdd", "sharded", "stride", 200 * m,
            n_blocks=1024, n_shards=2, executor="parallel", supervised=True,
            write_ratio=0.25, params={"step": 2},
            storm=StormSpec(crash_ops=[60]),
        ),
        # -- the asyncio serving front door (socket stream vs direct twin)
        _spec(
            "serve-sharded2-hotspot-hdd", "sharded", "hotspot", 220 * m,
            n_blocks=1024, n_shards=2,
            serve=ServeSpec(clients=3, tenants=3),
        ),
        _spec(
            "serve-horam-overload-hdd", "horam", "hotspot", 150 * m,
            serve=ServeSpec(
                clients=1, tenants=1, max_inflight=4, expect_overloaded=True,
            ),
        ),
        _spec(
            "serve-horam-quota-hdd", "horam", "uniform", 180 * m,
            serve=ServeSpec(
                clients=2, tenants=2, quota=30, expect_quota_exhausted=True,
            ),
        ),
        # -- chaos soaks: retrying clients, idempotency, drain, backend storms
        _spec(
            "serve-chaos-wire-horam-hdd", "horam", "hotspot", 100 * m,
            serve=ServeSpec(
                clients=3, tenants=2,
                chaos=ChaosSpec(
                    seed=7, reset_rate=0.05, cut_rate=0.04,
                    drop_rate=0.02, stall_rate=0.04, stall_s=0.001,
                ),
                retry_attempts=5, request_timeout_s=0.25,
            ),
        ),
        _spec(
            "serve-chaos-storm-supervised-hdd", "sharded", "hotspot", 100 * m,
            n_blocks=1024, n_shards=2, supervised=True,
            serve=ServeSpec(
                clients=3, tenants=2,
                chaos=ChaosSpec(seed=9, reset_rate=0.04, cut_rate=0.03, drop_rate=0.02),
                retry_attempts=5, request_timeout_s=0.3,
                crash_ops=[80, 400],
            ),
        ),
        _spec(
            "serve-drain-underload-hdd", "horam", "uniform", 100 * m,
            serve=ServeSpec(
                clients=3, tenants=2, retry_attempts=3, drain_after=50 * m,
            ),
        ),
        # -- recoverable fault injection (results must still match the oracle)
        _spec(
            "horam-transient-faults-hdd", "horam", "hotspot", 300 * m,
            faults=FaultPlan(seed=3, read_error_rate=0.05, latency_spike_rate=0.03),
        ),
        _spec(
            "sharded2-torn-writes-ssd", "sharded", "mix", 260 * m,
            n_blocks=1024, n_shards=2, device="ssd-sata", write_ratio=0.0,
            faults=FaultPlan(seed=4, torn_write_rate=0.3, latency_spike_rate=0.05),
        ),
        _spec(
            "path-transient-faults-hdd", "path", "uniform", 150 * m,
            n_blocks=256, mem_blocks=64,
            faults=FaultPlan(seed=5, read_error_rate=0.04, torn_write_rate=0.1),
        ),
    ]


def run_matrix(
    specs: list[ScenarioSpec], runner: ScenarioRunner | None = None
) -> list[ScenarioResult]:
    runner = runner or ScenarioRunner()
    return [runner.run(spec) for spec in specs]


def matrix_summary(results: list[ScenarioResult]) -> dict:
    """Pass/fail roll-up honoring each spec's ``expect_failure``."""
    passed = sum(1 for r in results if r.ok != r.spec.expect_failure)
    return {
        "scenarios": len(results),
        "passed": passed,
        "failed": len(results) - passed,
        "unexpected": [
            r.spec.name for r in results if r.ok == r.spec.expect_failure
        ],
    }


def corruption_demo_spec(scale: str = "quick") -> ScenarioSpec:
    """A scenario seeded to fail: silent read corruption, no recovery."""
    m = _scale_multiplier(scale)
    return _spec(
        "horam-corrupt-reads-hdd",
        "horam",
        "hotspot",
        220 * m,
        faults=FaultPlan(seed=6, corrupt_read_rate=0.05),
        expect_failure=True,
        seed=13,
    )


def seeded_fault_demo(
    scale: str = "quick", max_attempts: int = 150
) -> tuple[ScenarioResult, ShrinkResult, ScenarioResult]:
    """Reproduce + shrink + replay the seeded corruption failure.

    Returns (original failing result, shrink result, replay of the
    shrunk spec after a JSON round-trip).  The replay must fail again --
    that is the "replayable seed+spec" guarantee the acceptance criteria
    name.
    """
    runner = ScenarioRunner()
    spec = corruption_demo_spec(scale)
    original = runner.run(spec)
    # The original run already established the failure; skip shrink()'s
    # redundant initial probe of the identical full stream.
    shrunk = shrink(
        spec, runner=runner, max_attempts=max_attempts, assume_failing=not original.ok
    )
    replayed_spec = ScenarioSpec.from_json(shrunk.spec.to_json())
    replay = runner.run(replayed_spec)
    return original, shrunk, replay

"""Differential scenario execution.

One :class:`ScenarioSpec` names a workload, a stack and (optionally) a
fault plan -- all JSON-able, so any run, including a shrunk failing one,
replays from its spec alone.  :class:`ScenarioRunner` executes the spec
and differentially compares everything observable against the insecure
:class:`~repro.testing.oracle.ReferenceOracle`:

* every served result (reads always; writes where the API returns the
  written value),
* the final logical state over a deterministic address sample,
* metrics invariants (nothing lost, nothing double-served, accounting
  sane).

Failures are collected, not raised, so the caller can hand a failing
spec to :mod:`repro.testing.shrinker` for minimization.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import asdict, dataclass, field

from repro.core.sharding import ShardUnavailableError
from repro.crypto.random import DeterministicRandom
from repro.oram.base import OpKind, Request
from repro.serve.chaos import ChaosSpec
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import Metrics
from repro.storage.faults import CrashFault, FaultInjector, FaultPlan, FaultStats
from repro.testing.oracle import ReferenceOracle
from repro.testing.stacks import BuiltStack, StackSpec, build_stack
from repro.workload.generators import WorkloadSpec, make_workload

#: Cap on reported per-request mismatches (the count is still exact).
_MAX_REPORTED = 5


@dataclass
class CrashSpec:
    """Crash-and-recover choreography for one scenario (JSON-able).

    The runner drives ``snapshot_at`` requests, checkpoints the stack to
    disk, keeps going until the injected :class:`CrashFault` kills it,
    then recovers from the checkpoint and serves the rest of the
    workload on the restored stack.  With ``compare_uninterrupted`` the
    run is also held bit-identical (served results, served-order digest,
    metrics, simulated clock) to a crash-free twin.
    """

    #: request index at which the checkpoint is taken (a quiesced point).
    snapshot_at: int
    #: physical storage op -- counted from the checkpoint -- that crashes.
    crash_at_op: int
    #: "any" op, or "write_run" (H-ORAM bulk writes happen only inside
    #: the shuffle period, so this lands the crash mid-shuffle).
    crash_op_kind: str = "any"
    #: leave a torn prefix of the crashing bulk write in the slab.
    crash_torn: bool = False
    #: also diff the recovered run against an uninterrupted twin.
    compare_uninterrupted: bool = True

    def __post_init__(self) -> None:
        if self.snapshot_at < 0:
            raise ValueError("snapshot_at must be >= 0")
        if self.crash_at_op < 1:
            raise ValueError("crash_at_op must be >= 1")
        if self.crash_op_kind not in ("any", "write_run"):
            raise ValueError(
                f"crash_op_kind must be 'any' or 'write_run', got {self.crash_op_kind!r}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CrashSpec":
        return cls(**data)


@dataclass
class StormSpec:
    """Crash-storm choreography for a *supervised* stack (JSON-able).

    Unlike :class:`CrashSpec` -- which kills the whole stack once and
    recovers it by hand from an explicit checkpoint -- a storm schedules
    N shard-level failures under a :class:`~repro.core.supervisor.
    FleetSupervisor` and expects the fleet to keep serving: every crash
    auto-recovered from cadence checkpoints (or the shard fenced when
    ``expect_fenced``), with every request routed to a never-fenced shard
    served bit-identically to an uninterrupted, unsupervised twin.
    """

    #: 1-based physical-op indices that crash (per injector: the serial
    #: executor runs one injector fleet-wide, the parallel executor one
    #: per worker -- so a parallel storm fires each point on each shard).
    crash_ops: list = field(default_factory=list)
    #: which accesses count: "any", or "write_run" (mid-shuffle crashes).
    op_kind: str = "any"
    #: leave a torn prefix of each crashing bulk write.
    torn: bool = False
    #: physical op at which the shard hangs (0 = no hang); on parallel
    #: fleets ``hang_wall_s`` stalls the worker for real wall time so the
    #: IPC heartbeat timeout, not an exception, detects it.
    hang_at_op: int = 0
    hang_wall_s: float = 0.0
    #: diff served results against an uninterrupted, unsupervised twin.
    compare_uninterrupted: bool = True
    #: the scenario *expects* shards to end up fenced (degradation runs);
    #: otherwise any fenced shard fails the scenario.
    expect_fenced: bool = False

    def __post_init__(self) -> None:
        if any(op < 1 for op in self.crash_ops):
            raise ValueError("crash_ops entries are 1-based op indices (>= 1)")
        if list(self.crash_ops) != sorted(set(self.crash_ops)):
            raise ValueError("crash_ops must be strictly increasing")
        if self.op_kind not in ("any", "write_run"):
            raise ValueError(f"op_kind must be 'any' or 'write_run', got {self.op_kind!r}")
        if self.hang_at_op < 0:
            raise ValueError("hang_at_op must be >= 0 (0 = disabled)")
        if self.hang_wall_s < 0:
            raise ValueError("hang_wall_s must be >= 0")
        if not self.crash_ops and not self.hang_at_op:
            raise ValueError("a storm needs at least one crash or hang point")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "StormSpec":
        return cls(**data)


@dataclass
class ServeSpec:
    """Network-serving choreography for one scenario (JSON-able).

    The runner wraps the stack in an :class:`~repro.serve.server.
    ORAMServer`, connects ``clients`` socketpair connections, spreads the
    workload round-robin over connections and tenants, and pipelines it
    through the asyncio service.  Correctness is judged against the
    *direct-submit twin*: a fresh identical stack replaying the server's
    journal must serve bit-identical bytes for every seq the server
    served.  Rejections (overload backpressure, tenant quotas) never
    enter the journal -- they are excluded from the twin comparison by
    design and asserted on explicitly via ``expect_overloaded`` /
    ``expect_quota_exhausted``.

    Setting any of ``chaos``, ``drain_after``, ``deadline_ms`` or the
    backend-storm fields switches the scenario onto the *chaos soak*
    path: retrying clients with idempotency keys drive the stream
    closed-loop (:func:`~repro.serve.chaos.drive_through_chaos`), with
    the pass criteria of the chaos gate -- zero duplicate executions,
    twin-identical served bytes, and the drain contract when
    ``drain_after`` fires.
    """

    #: concurrent socketpair connections.
    clients: int = 2
    #: tenants registered with the server (requests round-robin them).
    tenants: int = 2
    #: admission bound handed to :class:`~repro.serve.server.ServeConfig`.
    max_inflight: int = 64
    #: per-tenant lifetime ops budget (None = unmetered).
    quota: int | None = None
    #: the scenario must provoke at least one Overloaded rejection; the
    #: workload is sent as one unthrottled pipelined burst.
    expect_overloaded: bool = False
    #: the scenario must exhaust at least one tenant's quota, and every
    #: tenant's accepted count must equal min(submitted, quota).
    expect_quota_exhausted: bool = False
    #: seeded network-fault plan between clients and server (chaos path).
    chaos: ChaosSpec | None = None
    #: retry attempts per request on the chaos path.
    retry_attempts: int = 4
    #: per-attempt client timeout on the chaos path (blackhole defense).
    request_timeout_s: float = 0.3
    #: per-request deadline stamped on every frame (ms; None = none).
    deadline_ms: float | None = None
    #: gracefully ``drain()`` the server mid-stream, once its journal
    #: holds this many accepted requests (None = close() at the end).
    drain_after: int | None = None
    #: backend crash-storm schedule (1-based physical-op indices) fired
    #: under the server; needs a *supervised* stack.
    crash_ops: list = field(default_factory=list)
    #: physical op at which a backend shard hangs (0 = no hang).
    hang_at_op: int = 0
    hang_wall_s: float = 0.0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.expect_quota_exhausted and self.quota is None:
            raise ValueError("expect_quota_exhausted needs a quota")
        if self.retry_attempts < 1:
            raise ValueError("retry_attempts must be >= 1")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        if self.drain_after is not None and self.drain_after < 1:
            raise ValueError("drain_after must be >= 1")
        if any(op < 1 for op in self.crash_ops):
            raise ValueError("crash_ops entries are 1-based op indices (>= 1)")
        if list(self.crash_ops) != sorted(set(self.crash_ops)):
            raise ValueError("crash_ops must be strictly increasing")
        if self.hang_at_op < 0:
            raise ValueError("hang_at_op must be >= 0 (0 = disabled)")
        if self.hang_wall_s < 0:
            raise ValueError("hang_wall_s must be >= 0")
        if self.chaotic() and (
            self.expect_overloaded or self.expect_quota_exhausted
        ):
            raise ValueError(
                "the chaos path drives closed-loop with retries; admission "
                "pressure expectations belong to the pipelined serve path"
            )

    def chaotic(self) -> bool:
        """True when the scenario runs the chaos-soak serve path."""
        return (
            self.chaos is not None
            or self.drain_after is not None
            or self.deadline_ms is not None
            or bool(self.crash_ops)
            or bool(self.hang_at_op)
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ServeSpec":
        data = dict(data)
        chaos = data.pop("chaos", None)
        return cls(
            chaos=ChaosSpec.from_dict(chaos) if chaos else None, **data
        )


@dataclass
class ScenarioSpec:
    """One replayable conformance scenario (seed + spec = the whole run)."""

    name: str
    stack: StackSpec = field(default_factory=StackSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    faults: FaultPlan | None = None
    #: crash-and-recover choreography; None = run uninterrupted.
    crash: CrashSpec | None = None
    #: supervised crash-storm choreography; None = no storm.
    storm: StormSpec | None = None
    #: network-serving choreography; None = drive the stack in-process.
    serve: ServeSpec | None = None
    #: scenarios that *should* fail (seeded corruption demos) are inverted
    #: by the matrix runner, not by the scenario itself.
    expect_failure: bool = False
    final_state_sample: int = 32

    def __post_init__(self) -> None:
        if self.workload.n_blocks > self.stack.n_blocks:
            raise ValueError(
                f"workload spans {self.workload.n_blocks} blocks but the stack "
                f"serves only {self.stack.n_blocks}"
            )
        if self.crash is not None:
            # Any registered EngineKernel protocol checkpoints (so does the
            # sharded fleet); the legacy baselines do not.
            from repro.core.kernel import KERNEL_PROTOCOLS

            if (
                self.stack.protocol != "sharded"
                and self.stack.protocol not in KERNEL_PROTOCOLS
            ):
                raise ValueError("crash scenarios need a checkpointable batched stack")
            if self.stack.users:
                raise ValueError("crash scenarios do not drive the multi-user front end")
            if self.faults is not None:
                raise ValueError(
                    "crash scenarios run without recoverable fault injection: "
                    "the uninterrupted twin could not replay the same fault "
                    "stream; drop `faults` from this spec"
                )
        if self.storm is not None:
            if not self.stack.supervised:
                raise ValueError("storm scenarios need a supervised stack")
            if self.crash is not None:
                raise ValueError("storm and crash choreographies are exclusive")
            if self.faults is not None:
                raise ValueError(
                    "storm scenarios carry their fault schedule in the storm "
                    "spec; drop `faults`"
                )
        if self.serve is not None:
            if self.crash is not None or self.storm is not None:
                raise ValueError(
                    "serve scenarios are exclusive with crash/storm choreographies"
                )
            if self.faults is not None:
                raise ValueError(
                    "serve scenarios carry backend faults in the serve spec "
                    "(crash_ops / hang_at_op); drop `faults`"
                )
            if self.stack.users:
                raise ValueError(
                    "serve scenarios bring their own multi-tenant front end; "
                    "set stack.users = 0"
                )
            if self.stack.protocol not in ("horam", "sharded"):
                raise ValueError("serve scenarios need a batched horam/sharded stack")
            if (
                self.serve.crash_ops or self.serve.hang_at_op
            ) and not self.stack.supervised:
                raise ValueError(
                    "serve backend storms need a supervised stack: only the "
                    "fleet supervisor auto-recovers crashes under the server"
                )

    # -------------------------------------------------------- serialization
    def to_json(self) -> str:
        data = asdict(self)
        data["faults"] = self.faults.to_dict() if self.faults else None
        data["crash"] = self.crash.to_dict() if self.crash else None
        data["storm"] = self.storm.to_dict() if self.storm else None
        data["serve"] = self.serve.to_dict() if self.serve else None
        return json.dumps(data, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        data = json.loads(text)
        faults = data.pop("faults", None)
        crash = data.pop("crash", None)
        storm = data.pop("storm", None)
        serve = data.pop("serve", None)
        stack = StackSpec.from_dict(data.pop("stack"))
        workload = WorkloadSpec(**data.pop("workload"))
        return cls(
            stack=stack,
            workload=workload,
            faults=FaultPlan.from_dict(faults) if faults else None,
            crash=CrashSpec.from_dict(crash) if crash else None,
            storm=StormSpec.from_dict(storm) if storm else None,
            serve=ServeSpec.from_dict(serve) if serve else None,
            **data,
        )


@dataclass
class ScenarioResult:
    """Outcome of one scenario run."""

    spec: ScenarioSpec
    ok: bool
    requests: int
    failures: list[str] = field(default_factory=list)
    mismatches: int = 0
    final_state_checked: int = 0
    error: str | None = None
    metrics: Metrics | None = None
    fault_stats: FaultStats | None = None
    #: crash scenarios: what actually happened (crashed?, recovered?, op).
    crash_info: dict | None = None
    #: serve scenarios: served/rejected counts and the twin-diff outcome.
    serve_info: dict | None = None

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        head = f"{status} {self.spec.name} ({self.requests} requests)"
        if self.serve_info is not None:
            head += (
                f"\n  serve: served={self.serve_info['served']} "
                f"rejected={self.serve_info['rejections']} "
                f"twin_compared={self.serve_info['twin_compared']}"
            )
        if self.crash_info is not None and "crashed" in self.crash_info:
            head += (
                f"\n  crash: fired={self.crash_info['crashed']} "
                f"op={self.crash_info['crash_op']} "
                f"recovered={self.crash_info['recovered']}"
            )
        elif self.crash_info is not None:
            head += (
                f"\n  storm: crashes={self.crash_info['crashes']} "
                f"restores={self.crash_info['restores']} "
                f"fenced={self.crash_info['fenced']} "
                f"failed_fast={self.crash_info['failed_fast']}"
            )
        if self.failures:
            head += "\n  " + "\n  ".join(self.failures[:_MAX_REPORTED + 2])
        return head


class ScenarioRunner:
    """Runs scenario specs; every run builds a fresh, isolated stack."""

    def run(self, spec: ScenarioSpec) -> ScenarioResult:
        requests = make_workload(spec.workload)
        failures: list[str] = []
        stack = build_stack(spec.stack)
        try:
            if spec.crash is not None:
                return self._run_crash(spec, stack, requests, failures)
            if spec.storm is not None:
                return self._run_storm(spec, stack, requests, failures)
            if spec.serve is not None:
                return self._run_serve(spec, stack, requests, failures)
            return self._run_built(spec, stack, requests, failures)
        finally:
            # Failed comparisons, raising scenarios and crash phases all
            # end here: worker processes shut down, durable slabs removed.
            stack.cleanup()

    def _run_built(self, spec, stack, requests, failures) -> ScenarioResult:
        injector = None
        if spec.faults is not None and spec.faults.active():
            if stack.storage_stores:
                injector = FaultInjector(spec.faults)
                for store in stack.storage_stores:
                    injector.attach(store)
            else:
                # Parallel fleets own their stores inside worker processes;
                # the plan travels over IPC and stats come back the same way.
                stack.install_faults(spec.faults)

        def fault_stats():
            return injector.stats if injector else stack.fault_stats()

        oracle = ReferenceOracle(stack.payload_bytes)
        expected = oracle.expect_all(requests)

        metrics = None
        try:
            results, metrics = self._execute(stack, requests)
        except Exception as error:  # noqa: BLE001 -- faults legitimately raise
            return ScenarioResult(
                spec=spec,
                ok=False,
                requests=len(requests),
                failures=[f"run raised {type(error).__name__}: {error}"],
                error=f"{type(error).__name__}: {error}",
                fault_stats=fault_stats(),
            )

        mismatches = self._compare_results(requests, results, expected, failures)
        checked = self._check_final_state(
            stack.driver, stack.spec.n_blocks, oracle, spec, failures
        )
        self._check_invariants(stack, metrics, len(requests), failures)
        if metrics is not None:
            metrics.absorb_fault_stats(fault_stats())

        return ScenarioResult(
            spec=spec,
            ok=not failures,
            requests=len(requests),
            failures=failures,
            mismatches=mismatches,
            final_state_checked=checked,
            metrics=metrics,
            fault_stats=fault_stats(),
        )

    # -------------------------------------------------------------- serving
    def _run_serve(self, spec, stack, requests, failures) -> ScenarioResult:
        """Drive the workload through the asyncio front door over sockets.

        Pass criteria: every request is answered (served or typed
        rejection); only the rejection classes the spec provokes appear;
        quota accounting is exact; and every served byte stream is
        bit-identical to the direct-submit twin's replay of the server's
        journal.
        """
        import asyncio

        serve = spec.serve
        if serve.chaotic():
            return self._run_serve_chaos(spec, stack, requests, failures)
        try:
            server, responses = asyncio.run(
                self._serve_session(serve, stack, requests)
            )
        except Exception as error:  # noqa: BLE001 -- surface as a failed scenario
            return ScenarioResult(
                spec=spec,
                ok=False,
                requests=len(requests),
                failures=[f"serve run raised {type(error).__name__}: {error}"],
                error=f"{type(error).__name__}: {error}",
            )

        from repro.serve.twin import diff_served, replay_direct

        rejections = {}
        served_count = 0
        expected_codes = set()
        if serve.expect_overloaded:
            expected_codes.add("overloaded")
        if serve.quota is not None:
            expected_codes.add("quota_exhausted")
        for index, response in enumerate(responses):
            if response.get("ok"):
                served_count += 1
                continue
            code = response.get("error", "internal")
            rejections[code] = rejections.get(code, 0) + 1
            if code not in expected_codes:
                if len(failures) <= _MAX_REPORTED:
                    failures.append(
                        f"request {index} rejected with unexpected code "
                        f"{code!r}: {response.get('message')}"
                    )
        if served_count != len(server.journal):
            failures.append(
                f"served {served_count} responses but the journal holds "
                f"{len(server.journal)} accepted requests"
            )
        if serve.expect_overloaded and not rejections.get("overloaded"):
            failures.append("the scenario expected Overloaded rejections; none fired")
        if serve.expect_quota_exhausted:
            if not rejections.get("quota_exhausted"):
                failures.append(
                    "the scenario expected quota exhaustion; none fired"
                )
            submitted: dict[int, int] = {}
            for index in range(len(requests)):
                tenant = index % serve.tenants
                submitted[tenant] = submitted.get(tenant, 0) + 1
            accepted: dict[int, int] = {}
            for record in server.journal:
                accepted[record.tenant] = accepted.get(record.tenant, 0) + 1
            for tenant, count in submitted.items():
                want = min(count, serve.quota)
                if accepted.get(tenant, 0) != want:
                    failures.append(
                        f"tenant {tenant} accepted {accepted.get(tenant, 0)} "
                        f"of {count} submitted; quota {serve.quota} implies {want}"
                    )

        twin = build_stack(spec.stack)
        try:
            twin_served = replay_direct(server.journal, twin.driver)
            diff = diff_served(server.journal, server.served_by_seq, twin_served)
            checked = self._check_serve_final_state(spec, stack, twin, server, failures)
        finally:
            twin.cleanup()
        if diff.unserved:
            failures.append(
                f"{len(diff.unserved)} accepted requests were never served "
                f"(seqs {diff.unserved[:_MAX_REPORTED]})"
            )
        for mismatch in diff.mismatched:
            failures.append(
                f"seq {mismatch['seq']} ({mismatch['op']} addr {mismatch['addr']}) "
                f"diverges from the direct-submit twin"
            )

        serve_info = {
            "served": served_count,
            "rejections": rejections,
            "accepted": len(server.journal),
            "clients": serve.clients,
            "tenants": serve.tenants,
            "twin_compared": diff.compared,
            "twin_identical": diff.identical,
        }
        return ScenarioResult(
            spec=spec,
            ok=not failures,
            requests=len(requests),
            failures=failures,
            mismatches=len(diff.mismatched),
            final_state_checked=checked,
            metrics=stack.driver.metrics.copy(),
            serve_info=serve_info,
        )

    # ----------------------------------------------------------- chaos soak
    def _run_serve_chaos(self, spec, stack, requests, failures) -> ScenarioResult:
        """Soak the front door under network chaos, retries and drain.

        Pass criteria: every request resolves to a served result or an
        *expected* typed outcome (``give_up`` only under active chaos,
        ``draining`` only when a drain fires, ``deadline_exceeded`` only
        with deadlines armed); idempotent retries never double-execute
        (zero duplicate ``(tenant, idem)`` journal pairs); every served
        byte is bit-identical to the direct-submit twin; and when
        ``drain_after`` is set, the drain contract holds -- a report is
        produced and no admitted request is escalated past the hard
        deadline.
        """
        import asyncio
        from dataclasses import replace as dc_replace

        from repro.serve.twin import diff_served, replay_direct

        serve = spec.serve
        if serve.crash_ops or serve.hang_at_op:
            stack.install_faults(
                FaultPlan(
                    seed=spec.stack.seed,
                    crash_schedule=list(serve.crash_ops),
                    hang_at_op=serve.hang_at_op,
                    hang_wall_s=serve.hang_wall_s,
                )
            )
        messages = []
        for index, request in enumerate(requests):
            message = {
                "op": request.op.value,
                "addr": request.addr,
                "tenant": index % serve.tenants,
            }
            if request.data is not None:
                message["data"] = request.data.hex()
            if serve.deadline_ms is not None:
                message["deadline_ms"] = serve.deadline_ms
            messages.append(message)

        try:
            server, report = asyncio.run(
                self._chaos_session(serve, stack, messages)
            )
        except Exception as error:  # noqa: BLE001 -- surface as a failed scenario
            return ScenarioResult(
                spec=spec,
                ok=False,
                requests=len(requests),
                failures=[f"chaos serve run raised {type(error).__name__}: {error}"],
                error=f"{type(error).__name__}: {error}",
            )

        outcomes = report.outcome_counts()
        expected_codes = {"ok"}
        if serve.chaos is not None and serve.chaos.active():
            expected_codes.add("give_up")
        if serve.drain_after is not None:
            expected_codes.add("draining")
        if serve.deadline_ms is not None:
            expected_codes.add("deadline_exceeded")
        unexpected = {
            code: count
            for code, count in outcomes.items()
            if code not in expected_codes
        }
        if unexpected:
            failures.append(f"unexpected outcome codes under chaos: {unexpected}")
        if not outcomes.get("ok"):
            failures.append("no requests were served under chaos")

        # Exactly-once: a retried idempotent request may journal at most
        # once, however many times the wire ate it.
        keys = [
            (record.tenant, record.idem)
            for record in server.journal
            if record.idem is not None
        ]
        duplicates = len(keys) - len(set(keys))
        if duplicates:
            failures.append(
                f"{duplicates} duplicate (tenant, idem) journal pairs: "
                "idempotent retries double-executed"
            )
        if serve.drain_after is not None and report.drain_report is None:
            failures.append("drain_after was set but no drain report was produced")
        if report.drain_report and report.drain_report.get("escalated"):
            failures.append(
                f"drain escalated {report.drain_report['escalated']} in-flight "
                "requests past the hard deadline"
            )

        supervision = None
        if serve.crash_ops or serve.hang_at_op:
            recovery = stack.supervisor.recovery_report()
            kinds = [incident["kind"] for incident in recovery["incidents"]]
            if serve.crash_ops and "crash" not in kinds:
                failures.append(
                    "the backend crash schedule never fired under the server"
                )
            if serve.hang_at_op and "hung" not in kinds:
                failures.append("the backend hang point never fired under the server")
            fenced = sorted(stack.supervisor.fenced)
            if fenced:
                failures.append(
                    f"shards {fenced} were fenced during the serve soak; the "
                    "storm schedule is sized to stay within max_restarts"
                )
            supervision = {
                "crashes": recovery["crashes_detected"],
                "restores": recovery["restores"],
                "fenced": fenced,
            }

        # The twin is always unsupervised: replaying the journal in
        # program order needs no crash recovery, and bit-identity across
        # that gap is exactly what the soak is for.
        twin = build_stack(dc_replace(spec.stack, supervised=False))
        try:
            twin_served = replay_direct(server.journal, twin.driver)
            diff = diff_served(server.journal, server.served_by_seq, twin_served)
            checked = self._check_serve_final_state(spec, stack, twin, server, failures)
        finally:
            twin.cleanup()
        if diff.unserved:
            failures.append(
                f"{len(diff.unserved)} accepted requests were never served "
                f"(seqs {diff.unserved[:_MAX_REPORTED]})"
            )
        for mismatch in diff.mismatched:
            failures.append(
                f"seq {mismatch['seq']} ({mismatch['op']} addr {mismatch['addr']}) "
                f"diverges from the direct-submit twin"
            )

        serve_info = {
            "served": outcomes.get("ok", 0),
            "rejections": {k: v for k, v in outcomes.items() if k != "ok"},
            "accepted": len(server.journal),
            "clients": serve.clients,
            "tenants": serve.tenants,
            "twin_compared": diff.compared,
            "twin_identical": diff.identical,
            "outcomes": outcomes,
            "retry": asdict(report.retry),
            "chaos_injected": report.chaos.to_dict(),
            "drain": report.drain_report,
            "duplicate_executions": duplicates,
            "supervision": supervision,
        }
        return ScenarioResult(
            spec=spec,
            ok=not failures,
            requests=len(requests),
            failures=failures,
            mismatches=len(diff.mismatched),
            final_state_checked=checked,
            metrics=stack.driver.metrics.copy(),
            serve_info=serve_info,
        )

    async def _chaos_session(self, serve, stack, messages):
        """One asyncio chaos soak: server + retrying clients + drain."""
        from repro.serve import (
            ORAMServer,
            RetryPolicy,
            ServeConfig,
            TenantPolicy,
            drive_through_chaos,
        )

        server = ORAMServer(
            stack.driver,
            ServeConfig(max_inflight=serve.max_inflight),
        )
        for tenant in range(serve.tenants):
            server.add_tenant(tenant, TenantPolicy(quota=serve.quota))
        policy = RetryPolicy(
            max_attempts=serve.retry_attempts,
            base_backoff_s=0.001,
            max_backoff_s=0.02,
            request_timeout_s=serve.request_timeout_s,
        )
        try:
            report = await drive_through_chaos(
                server,
                messages,
                clients=serve.clients,
                chaos=serve.chaos,
                policy=policy,
                label="scenario",
                drain_after=serve.drain_after,
            )
        finally:
            await server.close()
        return server, report

    def _check_serve_final_state(self, spec, stack, twin, server, failures) -> int:
        """Server stack and twin must agree on the final logical state.

        The external oracle cannot predict a concurrently-interleaved
        run, but the twin replayed the server's exact backend order, so
        every address -- sampled plus everything written -- must read
        back identically from both stacks.
        """
        if spec.final_state_sample <= 0:
            return 0
        rng = DeterministicRandom(f"final-state-{spec.stack.seed}")
        sample = {
            rng.randrange(spec.stack.n_blocks)
            for _ in range(spec.final_state_sample)
        }
        for record in server.journal:
            if len(sample) >= 2 * spec.final_state_sample:
                break
            if record.op == "write":
                sample.add(record.addr)
        bad = 0
        for addr in sorted(sample):
            got = stack.driver.read(addr)
            want = twin.driver.read(addr)
            if got != want:
                bad += 1
                if bad <= _MAX_REPORTED:
                    failures.append(
                        f"final state addr {addr}: served stack has {got!r}, "
                        f"twin has {want!r}"
                    )
        if bad > _MAX_REPORTED:
            failures.append(f"... {bad} final-state divergences total")
        return len(sample)

    async def _serve_session(self, serve, stack, requests):
        """One asyncio session: server + clients over socketpairs."""
        import socket as socket_mod
        from collections import deque

        from repro.serve import ORAMServer, ServeClient, ServeConfig, TenantPolicy

        server = ORAMServer(
            stack.driver,
            ServeConfig(max_inflight=serve.max_inflight),
        )
        for tenant in range(serve.tenants):
            server.add_tenant(tenant, TenantPolicy(quota=serve.quota))
        clients = []
        try:
            for _ in range(serve.clients):
                server_end, client_end = socket_mod.socketpair()
                await server.attach(server_end)
                clients.append(await ServeClient.from_socket(client_end))
            # Overload scenarios pipeline the whole stream as one burst so
            # the admission bound must trip; otherwise sends are windowed
            # below the bound, which a well-behaved client would do.
            throttle = not serve.expect_overloaded
            window = max(1, serve.max_inflight // 2)
            futures = []
            outstanding = deque()
            for index, request in enumerate(requests):
                client = clients[index % len(clients)]
                message = {
                    "op": request.op.value,
                    "addr": request.addr,
                    "tenant": index % serve.tenants,
                }
                if request.data is not None:
                    message["data"] = request.data.hex()
                future = client.send(message)
                futures.append(future)
                outstanding.append(future)
                if throttle:
                    await client.drain()
                    if len(outstanding) >= window:
                        await outstanding.popleft()
            for client in clients:
                await client.drain()
            import asyncio

            responses = await asyncio.gather(*futures)
        finally:
            for client in clients:
                await client.close()
            await server.close()
        return server, responses

    # ------------------------------------------------------- crash/recovery
    def _drive(self, protocol, requests) -> list:
        """One-request-at-a-time submit/drain (quiesced between requests).

        Crash scenarios use this driving pattern for every phase --
        crashed, recovered and the uninterrupted twin -- so bit-identity
        comparisons see the same schedule on both sides.
        """
        results = []
        for request in requests:
            entry = protocol.submit(request)
            protocol.drain()
            results.append(entry.result)
        return results

    def _run_crash(self, spec, stack, requests, failures) -> ScenarioResult:
        from repro.core.checkpoint import recover, save_checkpoint

        crash = spec.crash
        if crash.snapshot_at >= len(requests):
            raise ValueError(
                f"snapshot_at ({crash.snapshot_at}) must fall inside the "
                f"{len(requests)}-request workload"
            )
        oracle = ReferenceOracle(stack.payload_bytes)
        expected = oracle.expect_all(requests)
        head, tail = requests[: crash.snapshot_at], requests[crash.snapshot_at :]
        crash_info = {"crashed": False, "recovered": False, "crash_op": None}

        results = self._drive(stack.protocol, head)
        restored = None
        try:
            with tempfile.TemporaryDirectory(prefix="horam-ckpt-") as ckpt_dir:
                save_checkpoint(stack.protocol, ckpt_dir)

                plan = FaultPlan(
                    seed=spec.stack.seed,
                    crash_at_op=crash.crash_at_op,
                    crash_op_kind=crash.crash_op_kind,
                    crash_torn=crash.crash_torn,
                )
                if stack.storage_stores:
                    injector = FaultInjector(plan)
                    for store in stack.storage_stores:
                        injector.attach(store)
                else:
                    stack.install_faults(plan)
                try:
                    self._drive(stack.protocol, tail)
                except CrashFault as fault:
                    crash_info["crashed"] = True
                    crash_info["crash_op"] = f"{fault.op}#{fault.op_index}" + (
                        " torn" if fault.torn else ""
                    )
                if not crash_info["crashed"]:
                    failures.append(
                        f"crash at {crash.crash_op_kind} op {crash.crash_at_op} "
                        "never fired; the workload tail is too short for it"
                    )
                # The "kill": tear the crashed stack down (worker processes
                # and all) before recovering from the on-disk checkpoint.
                stack.close()
                restored = recover(ckpt_dir)
                crash_info["recovered"] = True

            results.extend(self._drive(restored, tail))
            metrics = restored.metrics.copy()
            mismatches = self._compare_results(requests, results, expected, failures)
            if metrics.requests_served != len(requests):
                failures.append(
                    f"metrics.requests_served={metrics.requests_served} after "
                    f"recovery, expected {len(requests)}"
                )
            if crash.compare_uninterrupted:
                # Before the final-state readback: those reads advance the
                # restored stack's clock and digest, which the twin never sees.
                self._compare_with_twin(spec, requests, results, restored, failures)
            checked = self._check_final_state(
                restored, stack.spec.n_blocks, oracle, spec, failures
            )
        except Exception as error:  # noqa: BLE001 -- surface as a failed scenario
            return ScenarioResult(
                spec=spec,
                ok=False,
                requests=len(requests),
                failures=failures + [f"crash run raised {type(error).__name__}: {error}"],
                error=f"{type(error).__name__}: {error}",
                crash_info=crash_info,
            )
        finally:
            if restored is not None:
                close = getattr(restored, "close", None)
                if close is not None:
                    close()
        return ScenarioResult(
            spec=spec,
            ok=not failures,
            requests=len(requests),
            failures=failures,
            mismatches=mismatches,
            final_state_checked=checked,
            metrics=metrics,
            crash_info=crash_info,
        )

    def _compare_with_twin(self, spec, requests, results, restored, failures) -> None:
        """Hold the recovered run bit-identical to an uninterrupted twin."""
        twin = build_stack(spec.stack)
        try:
            twin_results = self._drive(twin.protocol, requests)
            if twin_results != results:
                diverged = sum(1 for a, b in zip(twin_results, results) if a != b)
                failures.append(
                    f"recovered run diverges from the uninterrupted twin on "
                    f"{diverged} served results"
                )
            if restored.served_digest != twin.protocol.served_digest:
                failures.append("recovered served-order digest diverges from the twin's")
            if restored.metrics.to_dict() != twin.protocol.metrics.to_dict():
                failures.append("recovered metrics diverge from the twin's")
            restored_clock = restored.hierarchy.clock.now_us
            twin_clock = twin.protocol.hierarchy.clock.now_us
            if restored_clock != twin_clock:
                failures.append(
                    f"recovered simulated clock {restored_clock} != twin {twin_clock}"
                )
        finally:
            twin.cleanup()

    # --------------------------------------------------------- crash storms
    def _drive_supervised(self, supervisor, requests) -> "tuple[list, int]":
        """One-at-a-time drive that tolerates fenced stripes.

        Returns ``(results, failed_fast)``: a fenced request contributes
        ``None`` (whether it failed at submit or while in flight) and
        counts toward ``failed_fast``.
        """
        results: list = []
        failed_fast = 0
        for request in requests:
            try:
                entry = supervisor.submit(request)
            except ShardUnavailableError:
                results.append(None)
                failed_fast += 1
                continue
            supervisor.drain()
            if entry.error is not None:
                results.append(None)
                failed_fast += 1
            else:
                results.append(entry.result)
        return results, failed_fast

    def _run_storm(self, spec, stack, requests, failures) -> ScenarioResult:
        """Drive a scheduled crash storm under supervision.

        Pass criteria: every incident ends in ``restored`` or (when
        ``expect_fenced``) ``fenced`` without manual intervention; every
        request routed to a never-fenced shard is served with the exact
        bytes an uninterrupted, unsupervised twin serves; the final
        logical state of never-fenced stripes matches the oracle.
        """
        storm = spec.storm
        supervisor = stack.supervisor
        protocol = stack.protocol
        oracle = ReferenceOracle(stack.payload_bytes)
        expected = oracle.expect_all(requests)
        stack.install_faults(
            FaultPlan(
                seed=spec.stack.seed,
                crash_schedule=list(storm.crash_ops),
                crash_op_kind=storm.op_kind,
                crash_torn=storm.torn,
                hang_at_op=storm.hang_at_op,
                hang_wall_s=storm.hang_wall_s,
            )
        )

        try:
            results, failed_fast = self._drive_supervised(supervisor, requests)
        except Exception as error:  # noqa: BLE001 -- a storm must not escape
            return ScenarioResult(
                spec=spec,
                ok=False,
                requests=len(requests),
                failures=[f"storm run raised {type(error).__name__}: {error}"],
                error=f"{type(error).__name__}: {error}",
                fault_stats=stack.fault_stats(),
            )

        fenced = sorted(supervisor.fenced)
        report = supervisor.recovery_report()
        storm_info = {
            "crashes": report["crashes_detected"],
            "restores": report["restores"],
            "fenced": fenced,
            "failed_fast": failed_fast,
            "mttr_s": report["mttr_s"],
            "trace": supervisor.event_trace(),
        }

        if fenced and not storm.expect_fenced:
            failures.append(f"shards {fenced} were fenced; the storm expected none")
        if storm.expect_fenced and not fenced:
            failures.append("the storm expected fenced shards but all recovered")
        if not fenced and failed_fast:
            failures.append(
                f"{failed_fast} requests failed fast with no shard fenced"
            )
        unresolved = [i for i in report["incidents"] if i["outcome"] is None]
        if unresolved:
            failures.append(
                f"{len(unresolved)} incidents never resolved to restored/fenced"
            )
        # Judge "did the schedule fire" from the supervisor's incident log:
        # a respawned parallel worker gets a fresh injector, so its mirror's
        # fault stats forget everything the dead process counted.
        kinds = [incident["kind"] for incident in report["incidents"]]
        stats = stack.fault_stats()
        if storm.crash_ops and "crash" not in kinds:
            failures.append("the storm's crash schedule never fired")
        if storm.hang_at_op and "hung" not in kinds:
            failures.append("the storm's hang point never fired")

        # Value-identity on every never-fenced stripe (fenced requests
        # legitimately return None).
        mismatches = 0
        for index, (request, got, want) in enumerate(zip(requests, results, expected)):
            if protocol.shard_of(request.addr) in supervisor.fenced:
                continue
            if request.op is OpKind.WRITE and got is None:
                continue
            if got != want:
                mismatches += 1
                if mismatches <= _MAX_REPORTED:
                    failures.append(
                        f"request {index} ({request.op.value} addr {request.addr}): "
                        f"got {got!r}, want {want!r}"
                    )
        if mismatches > _MAX_REPORTED:
            failures.append(f"... {mismatches} result mismatches total")

        if storm.compare_uninterrupted:
            self._compare_storm_twin(spec, requests, results, supervisor, failures)

        checked = self._check_storm_final_state(spec, stack, oracle, failures)
        metrics = supervisor.metrics
        return ScenarioResult(
            spec=spec,
            ok=not failures,
            requests=len(requests),
            failures=failures,
            mismatches=mismatches,
            final_state_checked=checked,
            metrics=metrics,
            fault_stats=stats,
            crash_info=storm_info,
        )

    def _compare_storm_twin(self, spec, requests, results, supervisor, failures) -> None:
        """Non-fenced served results must match an uninterrupted twin's.

        Recovery is value-level (replay may batch what the original run
        interleaved), so unlike :meth:`_compare_with_twin` this compares
        served bytes only -- not cycle counts, clocks or served digests.
        """
        from dataclasses import replace as dc_replace

        twin_spec = dc_replace(spec.stack, supervised=False)
        twin = build_stack(twin_spec)
        try:
            twin_results = self._drive(twin.protocol, requests)
            diverged = 0
            for index, (request, got, want) in enumerate(
                zip(requests, results, twin_results)
            ):
                if twin.protocol.shard_of(request.addr) in supervisor.fenced:
                    continue
                if got != want:
                    diverged += 1
                    if diverged <= _MAX_REPORTED:
                        failures.append(
                            f"request {index} (addr {request.addr}) diverges from "
                            f"the uninterrupted twin: got {got!r}, want {want!r}"
                        )
            if diverged > _MAX_REPORTED:
                failures.append(f"... {diverged} twin divergences total")
        finally:
            twin.cleanup()

    def _check_storm_final_state(self, spec, stack, oracle, failures) -> int:
        """Oracle readback over never-fenced addresses only."""
        if spec.final_state_sample <= 0:
            return 0
        supervisor = stack.supervisor
        protocol = stack.protocol
        rng = DeterministicRandom(f"final-state-{spec.stack.seed}")
        sample = {rng.randrange(stack.spec.n_blocks) for _ in range(spec.final_state_sample)}
        for addr in sorted(oracle.state):
            if len(sample) >= 2 * spec.final_state_sample:
                break
            sample.add(addr)
        live = [
            addr for addr in sorted(sample)
            if protocol.shard_of(addr) not in supervisor.fenced
        ]
        bad = 0
        for addr in live:
            try:
                got = supervisor.read(addr)
            except Exception as error:  # noqa: BLE001
                failures.append(
                    f"final-state read of addr {addr} raised "
                    f"{type(error).__name__}: {error}"
                )
                return len(live)
            want = oracle.value(addr)
            if got != want:
                bad += 1
                if bad <= _MAX_REPORTED:
                    failures.append(
                        f"final state addr {addr}: got {got!r}, want {want!r}"
                    )
        if bad > _MAX_REPORTED:
            failures.append(f"... {bad} final-state mismatches total")
        return len(live)

    # ------------------------------------------------------------ execution
    def _execute(self, stack: BuiltStack, requests) -> tuple[list, Metrics]:
        if stack.front is not None:
            return self._execute_multiuser(stack, requests)
        engine = SimulationEngine(stack.driver, record_results=True)
        metrics = engine.run(requests)
        return engine.results, metrics

    def _execute_multiuser(self, stack: BuiltStack, requests) -> tuple[list, Metrics]:
        """Round-robin the stream over the registered users, then pump.

        Retirement order interleaves across users, so results are matched
        back to stream order by request id.
        """
        front = stack.front
        users = front.users()
        before = stack.protocol.metrics.copy()
        for index, request in enumerate(requests):
            front.submit(users[index % len(users)], request)
        retired = front.pump()
        by_id = {entry.request.request_id: entry.result for entry in retired}
        results = [by_id.get(request.request_id) for request in requests]
        metrics = stack.protocol.metrics.diff(before)
        return results, metrics

    # ----------------------------------------------------------- comparison
    def _compare_results(self, requests, results, expected, failures) -> int:
        if len(results) != len(requests):
            failures.append(
                f"served {len(results)} results for {len(requests)} requests"
            )
            return abs(len(requests) - len(results))
        mismatches = 0
        for index, (request, got, want) in enumerate(zip(requests, results, expected)):
            if request.op is OpKind.WRITE and got is None:
                continue  # synchronous APIs return nothing for writes
            if got != want:
                mismatches += 1
                if mismatches <= _MAX_REPORTED:
                    failures.append(
                        f"request {index} ({request.op.value} addr {request.addr}): "
                        f"got {got!r}, want {want!r}"
                    )
        if mismatches > _MAX_REPORTED:
            failures.append(f"... {mismatches} result mismatches total")
        return mismatches

    def _check_final_state(self, reader, n_blocks, oracle, spec, failures) -> int:
        """Read back a deterministic address sample after the run.

        ``reader`` is the protocol that serves the reads (the front end
        delegates reads to the back end; crash scenarios pass the
        *restored* stack).
        """
        if spec.final_state_sample <= 0:
            return 0
        rng = DeterministicRandom(f"final-state-{spec.stack.seed}")
        sample = {rng.randrange(n_blocks) for _ in range(spec.final_state_sample)}
        # Always include written addresses (bounded) -- where bugs live.
        for addr in sorted(oracle.state):
            if len(sample) >= 2 * spec.final_state_sample:
                break
            sample.add(addr)
        bad = 0
        for addr in sorted(sample):
            try:
                got = reader.read(addr)
            except Exception as error:  # noqa: BLE001
                failures.append(
                    f"final-state read of addr {addr} raised "
                    f"{type(error).__name__}: {error}"
                )
                return len(sample)
            want = oracle.value(addr)
            if got != want:
                bad += 1
                if bad <= _MAX_REPORTED:
                    failures.append(
                        f"final state addr {addr}: got {got!r}, want {want!r}"
                    )
        if bad > _MAX_REPORTED:
            failures.append(f"... {bad} final-state mismatches total")
        return len(sample)

    def _check_invariants(self, stack, metrics, n_requests, failures) -> None:
        """Metrics sanity every conforming stack must uphold."""
        if metrics is None:
            return
        if stack.front is not None:
            total = stack.front.total_stats()
            if total.served != n_requests:
                failures.append(
                    f"front end attributed {total.served} served of {n_requests}"
                )
            if stack.front.unattributed_retired:
                failures.append(
                    f"{stack.front.unattributed_retired} retirees lost their user tag"
                )
        if metrics.requests_served != n_requests:
            failures.append(
                f"metrics.requests_served={metrics.requests_served}, "
                f"expected {n_requests}"
            )
        if n_requests and metrics.total_time_us <= 0 and stack.front is None:
            failures.append("clock did not advance over a non-empty run")
        for name in ("io_reads", "io_writes", "io_time_us", "mem_time_us"):
            value = getattr(metrics, name, 0)
            if value < 0:
                failures.append(f"negative accounting: metrics.{name}={value}")
        protocol = stack.protocol
        recovered = stack.supervisor is not None and any(
            event.kind == "restored" for event in stack.supervisor.events
        )
        # Recovery is value-level: a restored shard's replay may batch
        # cycles the original run interleaved, so cycle equality only
        # binds fleets that never went through a restore.
        if getattr(protocol, "lockstep", False) and not recovered:
            cycles = {shard.metrics.cycles for shard in protocol.shards}
            if len(cycles) > 1:
                failures.append(
                    f"lockstep shards diverged in cycle count: {sorted(cycles)}"
                )


def run_spec(spec: ScenarioSpec) -> ScenarioResult:
    """One-shot convenience wrapper."""
    return ScenarioRunner().run(spec)

"""Shard execution runtimes for :class:`~repro.core.sharding.ShardedHORAM`.

The sharded serving layer treats its shards as parallel devices in
*simulated* time (the fleet clock is the slowest shard's clock), but the
original implementation executed them sequentially on one thread.  This
module factors the "run the fleet" concern out of the coordinator into a
:class:`ShardExecutor` -- one surface its callers (the coordinator, the
supervisor, the checkpointer) use without knowing which runtime they
hold -- with two implementations:

* :class:`SerialExecutor` -- the original in-process lockstep loop; the
  default, and the reference the golden fingerprints pin.
* :class:`ParallelExecutor` -- one dedicated worker **process** per shard
  on one duplex pipe (a :class:`~repro.core.worker_channel.WorkerChannel`
  each: shard state stays pinned to its process, calls are pickled
  from the calling thread and answered in order, and the coordinator
  runs no helper thread for any of it).  The coordinator
  buffers submitted requests into per-shard envelope batches; a step
  flushes each batch over IPC, lets every worker retire its own backlog
  at full speed and merges the retired envelopes back in global
  submission order.  Equalizing cycle counts across the fleet (the
  lockstep contract) is a second round the step starts but does not
  wait for: the idle shards pad while the caller works, and the round
  is collected before the next batch goes out or a mirror is read.

Determinism contract (what the equivalence tests assert): for the
batched ``submit*``/``drain`` pattern -- the engine, the benchmarks and
the conformance harness -- a parallel fleet produces **bit-identical**
retired results, served digests, per-shard metrics and bus traces to a
serial fleet built from the same ``(seed, n_shards)``:

* each worker builds its shard from the same spawn-derived seed the
  serial path uses, so per-shard randomness is identical;
* shards share no state, so a shard's cycle stream depends only on its
  own request sequence -- draining a backlog locally and *then* padding
  to the fleet's maximum cycle count replays exactly the busy-then-padded
  cycle sequence the serial lockstep loop interleaves;
* the coordinator releases retirements through the same global-order
  hold-back queue either way.

The one intentional divergence: ``step()`` on a parallel fleet executes
a whole batch (IPC per simulated cycle would defeat the point), so
callers that interleave ``submit`` with single ``step`` calls -- e.g.
:class:`~repro.core.multiuser.MultiUserFrontEnd.pump` -- still get
correct results but a different (coarser) schedule than serial mode.
"""

from __future__ import annotations

import multiprocessing
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields, replace

from repro.core.recipe import StackRecipe, build_kernel
from repro.core.rob import EntryState, RobEntry
from repro.core.worker_channel import FuturesTimeout, WorkerChannel, WorkerLost
from repro.oram.base import OpKind, Request, StackClosedError
from repro.sim.metrics import Histogram, Metrics
from repro.storage.backend import StoreCounters
from repro.storage.faults import CrashFault, FaultInjector, FaultPlan, FaultStats, HangFault
from repro.storage.trace import TraceEvent

#: one shard's ``state_dict()``: ``(state, blobs)``, what a shard
#: checkpoint stores and a shard is built back from (the kernel's
#: ``image``: :meth:`ShardExecutor.recover_shard`, a fleet restore).
ShardPayload = "tuple[dict, dict[str, bytes]]"

#: (seq, op, local addr, data) -- one buffered request on its way to a worker.
#: ``data`` is payload bytes inline, or an ``int`` byte length consuming the
#: shard's shared-memory scratch segment sequentially in envelope order.
SubmitEnvelope = "tuple[int, OpKind, int, bytes | int | None]"
#: (seq, result, submit_cycle, served_cycle) -- one retirement coming back;
#: ``result`` uses the same inline-bytes-or-scratch-length convention.
RetiredEnvelope = "tuple[int, bytes | int | None, int, int]"

#: Size of each per-shard envelope scratch segment.  Payloads are tens of
#: bytes, so this covers hundreds of thousands of buffered requests; a
#: batch that still overflows it degrades per-envelope to inline bytes.
_SCRATCH_BYTES = 1 << 20

#: Cap on the per-worker durable flush inside ``ParallelExecutor.close``; a
#: worker that cannot flush in time is terminated instead.
_CLOSE_TIMEOUT_S = 10.0


class ShardCrashed(RuntimeError):
    """One shard failed while the rest of the fleet stayed healthy.

    Raised only by *monitored* executors (a supervisor set
    ``executor.monitored = True``); unmonitored fleets keep the original
    fail-the-whole-fleet behavior.  Carries enough for the supervisor to
    run recovery: which shard, how it failed (``"crash"`` for an injected
    :class:`~repro.storage.faults.CrashFault`, ``"hung"`` for a
    :class:`~repro.storage.faults.HangFault` or an IPC heartbeat timeout,
    ``"dead"`` for a worker process that vanished, ``"error"`` otherwise)
    and the underlying cause.
    """

    def __init__(self, shard_index: int, kind: str, cause: BaseException | None):
        detail = f": {cause}" if cause is not None else ""
        super().__init__(f"shard {shard_index} {kind}{detail}")
        self.shard_index = shard_index
        self.kind = kind
        self.cause = cause


def _failure_kind(error: BaseException) -> str:
    if isinstance(error, HangFault) or isinstance(error, FuturesTimeout):
        return "hung"
    if isinstance(error, CrashFault):
        return "crash"
    if isinstance(error, WorkerLost):
        return "dead"
    return "error"


@dataclass
class ShardSnapshot:
    """One worker's observable state, shipped back after every batch."""

    metrics: Metrics
    clock_now_us: float
    storage: StoreCounters
    memory: StoreCounters
    current_c: int
    served_digest: bytes = bytes(16)
    #: latency samples recorded since the previous snapshot
    latency_delta: Histogram = field(default_factory=Histogram)
    trace_delta: "list[TraceEvent]" = field(default_factory=list)
    fault_stats: FaultStats | None = None


@dataclass
class ShardInfo:
    """Static shard facts from the worker handshake."""

    n_blocks: int
    period_capacity: int
    payload_bytes: int
    slot_bytes: int
    snapshot: ShardSnapshot = None


# --------------------------------------------------------------------------
# Coordinator-side mirrors: the minimal HybridORAM surface the sharding
# layer's aggregates read (metrics, served digest, latency histogram,
# hierarchy counters), kept in sync from worker snapshots at batch
# boundaries.
# --------------------------------------------------------------------------
class _Settled:
    """A mirror attribute that is only current once the executor has
    collected the padding round its last step left running: every read
    settles first.  Writes (the executor applying a snapshot) go straight
    to the slot."""

    def __set_name__(self, owner, name: str) -> None:
        self._slot = "_" + name

    def __get__(self, mirror, owner=None):
        if mirror is None:
            return self
        mirror._settle()
        return getattr(mirror, self._slot)

    def __set__(self, mirror, value) -> None:
        setattr(mirror, self._slot, value)


class _MirrorClock:
    now_us = _Settled()

    def __init__(self, settle) -> None:
        self._settle = settle
        self.now_us = 0.0

    @property
    def now_ms(self) -> float:
        return self.now_us / 1000.0

    @property
    def now_s(self) -> float:
        return self.now_us / 1_000_000.0


class _MirrorStore:
    counters = _Settled()

    def __init__(self, settle) -> None:
        self._settle = settle
        self.counters = StoreCounters()

    def snapshot(self) -> StoreCounters:
        return self.counters.copy()


class _MirrorTrace:
    events = _Settled()

    def __init__(self, settle) -> None:
        self._settle = settle
        self.events: list[TraceEvent] = []


class _MirrorHierarchy:
    def __init__(self, settle) -> None:
        self.clock = _MirrorClock(settle)
        self.storage = _MirrorStore(settle)
        self.memory = _MirrorStore(settle)
        self.trace = _MirrorTrace(settle)


class ShardMirror:
    """Read-only stand-in for a worker-owned :class:`HybridORAM` shard.

    ``settle`` is the owning executor's collect-the-padding-round hook;
    every observable below calls it before answering, so a reader never
    sees a shard between its batch and its lockstep padding.
    """

    metrics = _Settled()
    current_c = _Settled()
    served_digest = _Settled()
    latency_histogram = _Settled()
    fault_stats = _Settled()

    def __init__(self, info: ShardInfo, settle):
        self._settle = settle
        self.n_blocks = info.n_blocks
        self.period_capacity = info.period_capacity
        self.metrics = Metrics()
        self.current_c = 0
        self.served_digest = bytes(16)
        self.latency_histogram = Histogram()
        self.hierarchy = _MirrorHierarchy(settle)
        self.fault_stats: FaultStats | None = None
        self.apply(info.snapshot)

    def apply(self, snapshot: ShardSnapshot) -> None:
        # Private slots throughout: apply() *is* the settle.
        hierarchy = self.hierarchy
        self._metrics = snapshot.metrics
        self._current_c = snapshot.current_c
        self._served_digest = snapshot.served_digest
        self._latency_histogram.merge(snapshot.latency_delta)
        hierarchy.clock._now_us = snapshot.clock_now_us
        hierarchy.storage._counters = snapshot.storage
        hierarchy.memory._counters = snapshot.memory
        hierarchy.trace._events.extend(snapshot.trace_delta)
        self._fault_stats = snapshot.fault_stats


class _InterfaceCodec:
    """Padding-only codec facade for parallel fleets.

    Record keys live inside the worker processes; the coordinator only
    needs the geometry side of the codec (``pad`` is key-independent),
    which is all the engine's verifier and the conformance stacks use.
    """

    def __init__(self, payload_bytes: int, slot_bytes: int):
        self.payload_bytes = payload_bytes
        self.slot_bytes = slot_bytes

    def pad(self, data: bytes) -> bytes:
        if len(data) > self.payload_bytes:
            raise ValueError(
                f"payload of {len(data)} bytes exceeds block payload size "
                f"{self.payload_bytes}"
            )
        return data.ljust(self.payload_bytes, b"\x00")


# --------------------------------------------------------------------------
# The executor abstraction
# --------------------------------------------------------------------------
class ShardExecutor(ABC):
    """Runs a shard fleet on behalf of :class:`ShardedHORAM`.

    ``shards`` exposes shard-like objects (live instances or mirrors) for
    the coordinator's aggregate views.  Everything else goes through the
    methods below, the same set on both runtimes, so no caller has to
    know which one it holds: the execution verbs, and per-shard
    primitives for the checkpointer (a fleet snapshot is a loop over
    ``shard_state``; a restore builds each runtime straight from the
    payloads) and the supervisor (recovery is one ``recover_shard``
    call).
    """

    kind: str = "abstract"
    shards: list
    #: set by a :class:`~repro.core.supervisor.FleetSupervisor`: per-shard
    #: failures surface as :class:`ShardCrashed` (fault containment)
    #: instead of poisoning the fleet.
    monitored: bool = False
    #: whether one ``step`` runs everything submitted to retirement (a
    #: whole batch per IPC round) instead of one scheduler cycle per shard;
    #: the coordinator's feed quantum follows from it.
    step_drains: bool = False
    #: cap on any single IPC round-trip (a supervisor sets it); a worker
    #: that does not answer within it is classified as hung.  ``None``
    #: waits forever; an in-process fleet has no round-trip to cap.
    heartbeat_timeout_s: float | None = None

    def __init__(self) -> None:
        #: shard indexes taken out of service by a supervisor.
        self.fenced: set[int] = set()
        # Retirements collected before a shard failure aborted the step:
        # they were already popped from their ROBs, so dropping them would
        # wedge the coordinator's in-order release.  Delivered by the next
        # retire() call.
        self._orphaned: list[RobEntry] = []

    @abstractmethod
    def submit(self, shard_index: int, request: Request) -> RobEntry:
        """Queue one local-address request; returns the entry to track."""

    @abstractmethod
    def step(self, lockstep: bool) -> list[RobEntry]:
        """Advance the fleet; returns entries retired (any order)."""

    @abstractmethod
    def has_work(self) -> bool:
        """Whether any submitted request has not yet retired."""

    @abstractmethod
    def retire(self) -> list[RobEntry]:
        """Collect entries already served and waiting at ROB heads."""

    @abstractmethod
    def force_shuffle(self) -> None:
        """End every shard's current period immediately."""

    @abstractmethod
    def write_back(self, limit: int | None = None) -> int:
        """Write back up to ``limit`` pending partition rewrites across the
        live shards (all when ``None``); returns how many are left that
        this process can write."""

    @property
    @abstractmethod
    def codec(self):
        """The record codec facade (shard 0's geometry)."""

    @abstractmethod
    def install_fault_plan(self, plan: FaultPlan) -> None:
        """Attach fault injection to every shard's storage store."""

    @abstractmethod
    def fault_stats(self) -> FaultStats | None:
        """Fleet-wide injector counters; ``None`` with no plan installed."""

    # ------------------------------------------------------------- per shard
    @abstractmethod
    def shard_state(self, index: int) -> ShardPayload:
        """One (idle) shard's ``state_dict()`` payload."""

    @abstractmethod
    def recover_shard(
        self, index: int, payload: ShardPayload, replay: list, failure: ShardCrashed
    ) -> None:
        """Put a failed (or fenced) shard back in service.

        A shard of the same build, built straight from ``payload`` (no
        initial image is written), replaces it and re-executes ``replay``
        (journaled ``(op, local addr, data)`` requests already answered
        before the failure; results discarded) with no fault injector
        attached, so recovery cannot re-crash.  The fault plan goes back
        on afterwards, moved past whatever ``failure`` says fired.
        """

    @abstractmethod
    def fence_shard(self, index: int) -> None:
        """Stop running ``index``: skip it in step/has_work/retire."""

    @abstractmethod
    def heartbeats(self) -> "dict[int, float]":
        """Per-live-shard liveness signal: the shard's simulated clock.

        Serial fleets read it in-process; parallel fleets round-trip a
        ping over IPC, so a dead or wedged worker fails the read.
        """

    @abstractmethod
    def close(self) -> None:
        """Release runtime resources (worker processes); idempotent."""


class SerialExecutor(ShardExecutor):
    """The original single-thread lockstep loop over in-process shards."""

    kind = "serial"

    def __init__(self, recipe: StackRecipe, images: "list[ShardPayload] | None" = None):
        """Build every shard of ``recipe`` in this process; ``images`` (one
        checkpoint payload per shard) builds each from it instead of fresh."""
        super().__init__()
        self.recipe = recipe
        self.shards = []
        self._injector: FaultInjector | None = None
        try:
            for index in range(recipe.n_shards):
                image = images[index] if images else None
                self.shards.append(build_kernel(recipe, index, image))
        except Exception:
            self.close()
            raise

    def submit(self, shard_index: int, request: Request) -> RobEntry:
        return self.shards[shard_index].submit(request)

    def step(self, lockstep: bool) -> list[RobEntry]:
        retired: list[RobEntry] = []
        for index, shard in enumerate(self.shards):
            if index in self.fenced:
                continue
            if lockstep or shard.rob.has_work():
                try:
                    retired.extend(shard.step())
                except Exception as error:
                    if not self.monitored:
                        raise
                    self._orphaned.extend(retired)
                    raise ShardCrashed(index, _failure_kind(error), error) from error
        return retired

    def has_work(self) -> bool:
        return any(
            shard.rob.has_work()
            for index, shard in enumerate(self.shards)
            if index not in self.fenced
        )

    def retire(self) -> list[RobEntry]:
        retired, self._orphaned = self._orphaned, []
        for index, shard in enumerate(self.shards):
            if index not in self.fenced:
                retired.extend(shard.rob.retire())
        return retired

    def force_shuffle(self) -> None:
        for index, shard in enumerate(self.shards):
            if index not in self.fenced:
                shard.force_shuffle()

    def write_back(self, limit: int | None = None) -> int:
        left = 0
        for index, shard in enumerate(self.shards):
            if index in self.fenced:
                continue
            budget = shard.hierarchy.storage.pending_regions
            if limit is not None:
                budget = min(limit, budget)
                limit -= budget
            left += shard.write_back(budget)
        return left

    @property
    def codec(self):
        return self.shards[0].codec

    def install_fault_plan(self, plan: FaultPlan) -> None:
        """One injector across the fleet's storage stores, like the
        conformance runner wires serial stacks by hand."""
        self._injector = FaultInjector(plan)
        for shard in self.shards:
            self._injector.attach(shard.hierarchy.storage)

    def fault_stats(self) -> FaultStats | None:
        return self._injector.stats if self._injector else None

    # ------------------------------------------------------------- per shard
    def shard_state(self, index: int) -> ShardPayload:
        return self.shards[index].state_dict()

    def recover_shard(
        self, index: int, payload: ShardPayload, replay: list, failure: ShardCrashed
    ) -> None:
        """The new shard is ``(recipe, index)`` built from ``payload``.  It
        is swapped into ``self.shards`` in place (the coordinator aliases
        the list) once it has caught up, and only then re-attached to the
        fleet's one fault injector, whose shared counters keep running
        across the restore (``failure`` has nothing to move)."""
        shard = build_kernel(self.recipe, index, payload)
        for op, addr, data in replay:
            shard.submit(Request(op=op, addr=addr, data=data))
        while shard.rob.has_work():
            shard.step()
        shard.rob.retire()
        self.shards[index] = shard
        self.fenced.discard(index)
        if self._injector is not None:
            self._injector.attach(shard.hierarchy.storage)

    def fence_shard(self, index: int) -> None:
        self.fenced.add(index)

    def heartbeats(self) -> "dict[int, float]":
        return {
            index: shard.hierarchy.clock.now_us
            for index, shard in enumerate(self.shards)
            if index not in self.fenced
        }

    def close(self) -> None:
        for shard in self.shards:
            shard.close()


# --------------------------------------------------------------------------
# Worker-process side.  Each process owns exactly one shard (one worker per
# channel), kept in this module-global between calls.
# --------------------------------------------------------------------------
_WORKER: dict = {}


def _worker_init(
    recipe: StackRecipe,
    index: int,
    scratch_name: str | None = None,
    image: ShardPayload | None = None,
) -> None:
    """Build this worker's shard, ``(recipe, index)``: fresh, or straight
    from a checkpoint payload ``image`` (a respawned or restored worker)."""
    scratch = None
    if scratch_name is not None:
        from multiprocessing import shared_memory

        # The coordinator created this segment before spawning us; an
        # attach failure means the transport contract is already broken,
        # so fail the worker loudly instead of silently disagreeing about
        # where payload bytes live.
        scratch = shared_memory.SharedMemory(name=scratch_name)
    shard = build_kernel(recipe, index, image)
    _WORKER.clear()
    _WORKER.update(
        shard=shard,
        inflight={},
        latency_mark=Histogram(),
        trace_mark=0,
        injector=None,
        scratch=scratch,
    )


def _worker_snapshot() -> ShardSnapshot:
    shard = _WORKER["shard"]
    latency = shard.latency_histogram
    events = shard.hierarchy.trace.events
    injector = _WORKER["injector"]
    snapshot = ShardSnapshot(
        metrics=shard.metrics.copy(),
        clock_now_us=shard.hierarchy.clock.now_us,
        storage=shard.hierarchy.storage.snapshot(),
        memory=shard.hierarchy.memory.snapshot(),
        current_c=shard.current_c,
        served_digest=shard.served_digest,
        latency_delta=latency.since(_WORKER["latency_mark"]),
        trace_delta=events[_WORKER["trace_mark"] :],
        fault_stats=injector.stats if injector else None,
    )
    if snapshot.latency_delta.total:
        _WORKER["latency_mark"] = latency.copy()
    _WORKER["trace_mark"] = len(events)
    return snapshot


def _worker_describe() -> ShardInfo:
    shard = _WORKER["shard"]
    return ShardInfo(
        n_blocks=shard.n_blocks,
        period_capacity=shard.period_capacity,
        payload_bytes=shard.codec.payload_bytes,
        slot_bytes=shard.codec.slot_bytes,
        snapshot=_worker_snapshot(),
    )


def _worker_run(envelopes: list) -> "tuple[int, list]":
    """Submit a batch and drain the shard's own backlog.

    Envelope ``data`` is either payload bytes inline or an ``int`` length
    to consume (in envelope order) from the coordinator-owned scratch
    segment; retired results ship back the same way when the scratch has
    room.  The request bytes are copied out *before* anything executes,
    so the scratch region is free for results by the time the drain ends.

    Returns ``(absolute cycle count, retired envelopes)``; padding to the
    fleet-wide cycle target happens in :func:`_worker_finish` once the
    coordinator has seen every shard's count.
    """
    shard = _WORKER["shard"]
    inflight = _WORKER["inflight"]
    scratch = _WORKER["scratch"]
    buf = scratch.buf if scratch is not None else None
    offset = 0
    for seq, op, addr, data in envelopes:
        if type(data) is int:
            data = bytes(buf[offset : offset + data])
            offset += len(data)
        entry = shard.submit(Request(op=op, addr=addr, data=data))
        inflight[id(entry)] = (seq, entry)
    retired: list[RobEntry] = []
    while shard.rob.has_work():
        retired.extend(shard.step())
    retired.extend(shard.rob.retire())
    out = []
    offset = 0
    limit = buf.nbytes if buf is not None else 0
    for entry in retired:
        seq, _ = inflight.pop(id(entry))
        result = entry.result
        if type(result) is bytes and offset + len(result) <= limit:
            buf[offset : offset + len(result)] = result
            result = len(result)
            offset += result
        out.append((seq, result, entry.submit_cycle, entry.served_cycle))
    return shard.metrics.cycles, out


def _worker_finish(target_cycles: int | None) -> ShardSnapshot:
    """Run padded cycles up to the fleet target (lockstep), then snapshot."""
    shard = _WORKER["shard"]
    if target_cycles is not None:
        while shard.metrics.cycles < target_cycles:
            shard.step()
    return _worker_snapshot()


def _worker_force_shuffle() -> ShardSnapshot:
    _WORKER["shard"].force_shuffle()
    return _worker_snapshot()


def _worker_write_back() -> int:
    return _WORKER["shard"].write_back()


def _worker_idle() -> bool:
    """Between calls: write back one pending partition rewrite; whether
    another is left."""
    shard = _WORKER.get("shard")
    return shard is not None and shard.write_back(1) > 0


def _worker_install_faults(plan: FaultPlan) -> None:
    shard = _WORKER["shard"]
    injector = FaultInjector(plan)
    injector.attach(shard.hierarchy.storage)
    _WORKER["injector"] = injector


def _rebase_plan(plan: FaultPlan, failure: ShardCrashed) -> FaultPlan:
    """Shift a worker's fault plan past the fault that just fired.

    A respawned worker gets a fresh injector whose op counters start at
    zero, so re-installing the old plan verbatim would refire the same
    crash forever.  Scheduled points at or before the fired op are
    dropped; later ones shift down by the fired count, preserving "each
    scheduled fault fires exactly once" across restarts.  (The serial
    executor needs none of this: its injector outlives the shard and its
    shared counters keep running.)

    The crash and hang counters are tracked separately in the injector;
    when both kinds are scheduled and the op-kind filters differ, the
    non-firing kind's offset is unknowable here and is left unshifted --
    a documented approximation for combined plans.
    """
    if failure.kind == "hung" or plan.hang_at_op and failure.kind != "crash":
        fired = plan.hang_at_op
        hang_at_op = 0
    elif isinstance(failure.cause, CrashFault):
        fired = failure.cause.op_index
        hang_at_op = (
            max(0, plan.hang_at_op - fired)
            if plan.hang_at_op and plan.crash_op_kind == "any"
            else plan.hang_at_op
        )
    else:
        # Nothing scheduled fired (process death, unexpected error):
        # the plan carries over unchanged.
        return plan
    crash_schedule = [op - fired for op in plan.crash_schedule if op > fired]
    crash_at_op = plan.crash_at_op - fired if plan.crash_at_op > fired else 0
    if failure.kind == "hung" and plan.crash_op_kind != "any":
        crash_schedule = list(plan.crash_schedule)
        crash_at_op = plan.crash_at_op
    return replace(
        plan,
        crash_schedule=crash_schedule,
        crash_at_op=crash_at_op,
        hang_at_op=hang_at_op,
    )


def _worker_state() -> ShardPayload:
    """Checkpoint payload of this worker's shard (state dict + blobs)."""
    return _WORKER["shard"].state_dict()


def _worker_ping() -> float:
    """IPC heartbeat: prove the worker is responsive; report its clock."""
    return _WORKER["shard"].hierarchy.clock.now_us


def _worker_close() -> None:
    """Flush and release the shard's durable backing before shutdown."""
    shard = _WORKER.get("shard")
    if shard is not None:
        shard.close()
    scratch = _WORKER.get("scratch")
    if scratch is not None:
        # Detach only: the coordinator owns the scratch segment and
        # unlinks it when the fleet closes.
        scratch.close()
        _WORKER["scratch"] = None


# --------------------------------------------------------------------------
# Coordinator side of the parallel runtime
# --------------------------------------------------------------------------
class ParallelExecutor(ShardExecutor):
    """One worker process per shard, batched envelopes over IPC.

    Requests buffer locally until the next ``step``; a step is two rounds
    across the fleet, of which it waits for one:

    1. *run* -- each worker submits its envelope batch and drains its own
       backlog at full speed, reporting its absolute cycle count.  The
       step blocks on this round, rebinds the retired envelopes and
       returns.
    2. *finish* -- each worker pads to the fleet's maximum cycle count
       (lockstep only; the padded cycles do the same dummy work the
       serial loop interleaves) and ships back a state snapshot.  The
       step only *starts* this round.  It is **settled** -- snapshots
       applied to the mirrors, failures queued -- at the top of the next
       ``step`` and before anything else that reads a mirror or talks to
       a worker, so the idle shards pad beside whatever the caller does
       with the results, not in front of it.

    Every channel has one worker and answers in order, so each shard
    still executes ``[batch k][pad to T_k][batch k+1]`` in exactly the
    serial order: simulated state cannot tell the rounds were
    overlapped.  A worker that fails while padding is found by the next
    settle; under supervision that is a failure at the start of the next
    step (the delivered requests are already the journal's retired
    prefix and are replayed), otherwise it poisons the fleet like any
    worker error.

    Retired envelopes rebind to the coordinator-side proxy entries the
    caller holds, so ``submit(...)`` keeps returning an object whose
    ``result`` materializes at drain time, exactly like the serial path.
    """

    kind = "parallel"
    step_drains = True

    def __init__(
        self,
        recipe: StackRecipe,
        images: "list[ShardPayload] | None" = None,
    ):
        """Fork one worker per shard of ``recipe``; ``images`` (one
        checkpoint payload per shard) builds each worker's shard from it
        instead of fresh."""
        # Before the worker handshake: its failure path runs ``close()``,
        # which consults ``fenced``.
        super().__init__()
        #: what every worker builds its shard from, with its index.
        self.recipe = recipe
        n_shards = recipe.n_shards
        self._context = _default_context()
        #: payload-byte accounting for the envelope transport: how many
        #: request/result payload bytes crossed via the shared-memory
        #: scratch vs. inline inside the pickled envelopes.
        self.ipc_shm_bytes = 0
        self.ipc_inline_bytes = 0
        #: round accounting: steps that reached the workers, requests they
        #: carried, and rounds a step had to wait on (the run round, plus
        #: the previous padding round when it was still going).
        self.ipc_steps = 0
        self.ipc_requests = 0
        self.ipc_blocking_rounds = 0
        #: shard index -> the ``_worker_finish`` reply of the padding
        #: round the last step left running (see :meth:`_settle`).
        self._finishing: dict[int, object] = {}
        #: per-shard coordinator-owned scratch segments for envelope
        #: payloads (``None`` entries fall back to inline bytes).
        self._scratch: list = [self._create_scratch(index) for index in range(n_shards)]
        #: one worker process per shard, forked here (not on first use).
        self._workers: list[WorkerChannel] = []
        self._closed = False
        try:
            for index in range(n_shards):
                self._workers.append(
                    self._spawn_worker(index, images[index] if images else None)
                )
            infos: list[ShardInfo] = self._broadcast(_worker_describe)
        except Exception:
            self.close()
            raise
        self.shards = [ShardMirror(info, self._settle) for info in infos]
        self._codec = _InterfaceCodec(infos[0].payload_bytes, infos[0].slot_bytes)
        self._pending: list[list] = [[] for _ in range(n_shards)]
        self._proxies: list[dict[int, RobEntry]] = [{} for _ in range(n_shards)]
        self._outstanding = 0
        self._seq = 0
        # A worker exception mid-batch leaves coordinator and worker state
        # out of sync (batches flushed, retirements half-collected); the
        # fleet is then unusable and every further call must fail loudly
        # instead of spinning in drain().
        self._broken = False
        # Additional per-shard failures from a multi-failure step; each
        # subsequent step() raises one until the supervisor has recovered
        # them all.
        self._pending_failures: list[ShardCrashed] = []
        #: per-worker fault plans as installed (:meth:`recover_shard`
        #: re-installs a rebased one on the respawned worker).
        self.worker_plans: dict[int, FaultPlan] = {}

    # ----------------------------------------------------- envelope transport
    def _create_scratch(self, index: int):
        """One coordinator-owned scratch segment per shard (best effort)."""
        from multiprocessing import shared_memory

        from repro.storage.shm import make_segment_name

        try:
            return shared_memory.SharedMemory(
                name=make_segment_name(f"io{index}"),
                create=True,
                size=_SCRATCH_BYTES,
            )
        except Exception:  # no POSIX shm (exotic platform/sandbox): inline
            return None

    def _release_scratch(self, index: int | None = None) -> None:
        """Unlink coordinator-owned scratch segments (all, or one shard's)."""
        targets = range(len(self._scratch)) if index is None else (index,)
        for i in targets:
            scratch = self._scratch[i]
            if scratch is None:
                continue
            self._scratch[i] = None
            try:
                scratch.close()
            except BufferError:  # pragma: no cover - views die with us
                pass
            try:
                scratch.unlink()
            except FileNotFoundError:  # pragma: no cover - already reaped
                pass

    def _reap_segments(self, index: int | None = None) -> None:
        """Force-unlink worker-owned shm slabs a dead worker left behind.

        A worker that closed gracefully already unlinked its slab; this
        covers the kill paths (heartbeat timeout, injected crash,
        mid-drain teardown), where only the coordinator still knows the
        segment name (it derives from the recipe).
        """
        from repro.storage.shm import unlink_segment

        if self.recipe.storage_backend != "shm":
            return
        for shard in range(self.recipe.n_shards) if index is None else (index,):
            unlink_segment(self.recipe.shard_storage_path(shard))

    def _pack_batch(self, index: int, batch: list) -> list:
        """Move payload bytes into the shard's scratch; ship lengths."""
        scratch = self._scratch[index]
        if scratch is None or not batch:
            return batch
        buf = scratch.buf
        limit = buf.nbytes
        offset = 0
        packed = []
        for seq, op, addr, data in batch:
            if type(data) is bytes and offset + len(data) <= limit:
                buf[offset : offset + len(data)] = data
                self.ipc_shm_bytes += len(data)
                packed.append((seq, op, addr, len(data)))
                offset += len(data)
            else:
                if data is not None:
                    self.ipc_inline_bytes += len(data)
                packed.append((seq, op, addr, data))
        return packed

    def _unpack_results(self, index: int, envelopes: list) -> list:
        """Materialize results the worker parked in the scratch segment.

        Integer results are lengths consuming the scratch sequentially in
        envelope order (mirroring the worker's packing loop); bytes/None
        results pass through inline.
        """
        scratch = self._scratch[index]
        if scratch is None:
            return envelopes
        buf = scratch.buf
        offset = 0
        out = []
        for seq, result, submit_cycle, served_cycle in envelopes:
            if type(result) is int:
                result = bytes(buf[offset : offset + result])
                offset += len(result)
                self.ipc_shm_bytes += len(result)
            elif result is not None:
                self.ipc_inline_bytes += len(result)
            out.append((seq, result, submit_cycle, served_cycle))
        return out

    def ipc_stats(self) -> dict:
        """Envelope-payload accounting for the parallel benchmark."""
        return {
            "shm_payload_bytes": self.ipc_shm_bytes,
            "inline_payload_bytes": self.ipc_inline_bytes,
            "scratch_segments": sum(1 for s in self._scratch if s is not None),
            "scratch_bytes_each": _SCRATCH_BYTES,
            "steps": self.ipc_steps,
            "requests": self.ipc_requests,
            "blocking_rounds": self.ipc_blocking_rounds,
        }

    # ------------------------------------------------------------- plumbing
    def _spawn_worker(self, index: int, image: ShardPayload | None = None) -> WorkerChannel:
        scratch = self._scratch[index]
        return WorkerChannel(
            self._context,
            _worker_init,
            (self.recipe, index, scratch.name if scratch is not None else None, image),
            idle=_worker_idle,
        )

    def _broadcast(self, fn, *args) -> list:
        replies = [worker.submit(fn, *args) for worker in self._workers]
        return [reply.result() for reply in replies]

    def _call(self, index: int, fn, *args):
        """One call to one worker under the heartbeat timeout, its failure
        classified (and a wedged worker killed) exactly like a step's:
        :class:`ShardCrashed` under supervision, the worker's own error
        otherwise."""
        results, failures = self._gather({index: self._workers[index].submit(fn, *args)})
        if not failures:
            return results[index]
        raise failures[0] if self.monitored else failures[0].cause

    def _check_usable(self) -> None:
        if self._broken:
            raise RuntimeError(
                "parallel shard fleet is broken after a worker failure; "
                "build a fresh one"
            )
        self._check_open()

    def _check_open(self) -> None:
        """Refuse a closed fleet, as a serial one's released ROBs do."""
        if self._closed:
            raise StackClosedError("parallel shard fleet is closed")

    # ------------------------------------------------------------ execution
    def submit(self, shard_index: int, request: Request) -> RobEntry:
        self._check_usable()
        seq = self._seq
        self._seq += 1
        entry = RobEntry(request=request)
        self._pending[shard_index].append(
            (seq, request.op, request.addr, request.data)
        )
        self._proxies[shard_index][seq] = entry
        self._outstanding += 1
        return entry

    def step(self, lockstep: bool) -> list[RobEntry]:
        """Flush every buffered batch, wait for the workers to retire it,
        start the lockstep padding round and return the retired entries.

        Per-shard fault containment under supervision: one worker failing
        does not poison the fleet.  The failed shard's outstanding proxies
        are dropped and the failure raised as :class:`ShardCrashed` (one
        per step; the rest wait in ``_pending_failures``); the
        coordinator (``ShardedHORAM.requeue_shard``) re-enters those
        requests after the supervisor restores the shard.  Unsupervised,
        the worker's own error is raised and the fleet is unusable.
        """
        self._check_usable()
        if not all(reply.done() for reply in self._finishing.values()):
            self.ipc_blocking_rounds += 1
        self._sync()
        if not self.has_work():
            return []
        batches, self._pending = self._pending, [[] for _ in self._workers]
        live = [index for index in range(len(self._workers)) if index not in self.fenced]
        self.ipc_steps += 1
        self.ipc_requests += sum(len(batches[index]) for index in live)
        self.ipc_blocking_rounds += 1
        runs, failures = self._gather(
            {
                index: self._workers[index].submit(
                    _worker_run, self._pack_batch(index, batches[index])
                )
                for index in live
            }
        )
        # The padding round only starts here; _settle() collects it.
        target = None
        if lockstep and runs:
            target = max(cycles for cycles, _ in runs.values())
        self._finishing = {
            index: self._workers[index].submit(_worker_finish, target) for index in runs
        }
        retired: list[RobEntry] = []
        for index, (_, envelopes) in runs.items():
            proxies = self._proxies[index]
            for seq, result, submit_cycle, served_cycle in self._unpack_results(
                index, envelopes
            ):
                entry = proxies.pop(seq)
                entry.result = result
                entry.submit_cycle = submit_cycle
                entry.served_cycle = served_cycle
                entry.state = EntryState.SERVED
                retired.append(entry)
            self._outstanding -= len(envelopes)
        if failures:
            self._orphaned.extend(retired)
            self._fail(failures)
            raise self._pending_failures.pop(0)
        return retired

    def _gather(self, replies: "dict[int, object]"):
        """Await per-shard replies with the heartbeat timeout.

        Returns ``(results, failures)`` where ``failures`` is a list of
        :class:`ShardCrashed` (one per failed shard).  A worker that
        misses the timeout is presumed wedged and its process is killed
        -- the recovery path respawns it.
        """
        results: dict[int, object] = {}
        failures: list[ShardCrashed] = []
        for index, reply in replies.items():
            try:
                results[index] = reply.result(timeout=self.heartbeat_timeout_s)
            except FuturesTimeout as error:
                self._kill_worker(index)
                failures.append(ShardCrashed(index, "hung", error))
            except Exception as error:  # noqa: BLE001 -- classified below
                failures.append(ShardCrashed(index, _failure_kind(error), error))
        return results, failures

    def _settle(self) -> None:
        """Collect the padding round the last step left running.

        Applies each worker's snapshot to its mirror.  A shard found dead
        here failed *after* its batch was delivered, so to recovery it is
        a failure at the start of the next step: its buffered-but-unsent
        envelopes go with its proxies (``requeue_shard`` re-enters them
        from the coordinator's own table, once) and the failure waits in
        ``_pending_failures`` for the next :meth:`_sync`.
        """
        if not self._finishing:
            return
        finishing, self._finishing = self._finishing, {}
        snapshots, failures = self._gather(finishing)
        for index, snapshot in snapshots.items():
            self.shards[index].apply(snapshot)
        if failures:
            self._fail(failures)

    def _sync(self) -> None:
        """Settle, then surface one queued shard failure; the supervisor
        recovers shards one incident at a time."""
        self._settle()
        if self._pending_failures:
            raise self._pending_failures.pop(0)

    def _fail(self, failures: "list[ShardCrashed]") -> None:
        """Contain shard failures under supervision; otherwise poison the
        fleet -- flushed batches and half-collected retirements can no
        longer reconcile with worker state, and a later drain() would
        spin on has_work() forever -- and raise the worker's own error."""
        if not self.monitored:
            self._broken = True
            raise failures[0].cause
        for failure in failures:
            self._drop_shard_work(failure.shard_index)
        self._pending_failures.extend(failures)

    def _drop_shard_work(self, index: int) -> None:
        """Forget a failed or fenced shard's buffered and in-flight work."""
        self._outstanding -= len(self._proxies[index])
        self._proxies[index].clear()
        self._pending[index].clear()

    def has_work(self) -> bool:
        self._check_open()
        return self._outstanding > 0 or bool(self._pending_failures)

    def retire(self) -> list[RobEntry]:
        self._check_open()
        # Workers retire everything inside step(); only retirements
        # stranded by an aborted monitored step wait here.
        retired, self._orphaned = self._orphaned, []
        return retired

    def force_shuffle(self) -> None:
        self._check_usable()
        self._sync()
        try:
            snapshots = self._broadcast(_worker_force_shuffle)
        except Exception:
            self._broken = True
            raise
        for mirror, snapshot in zip(self.shards, snapshots):
            mirror.apply(snapshot)

    def write_back(self, limit: int | None = None) -> int:
        """Workers write back between calls on their own, so a bounded
        call has nothing to do here; ``None`` waits until every live
        worker has written back all it holds."""
        if limit is not None:
            return 0
        self._check_usable()
        self._sync()
        _, failures = self._gather(
            {
                index: worker.submit(_worker_write_back)
                for index, worker in enumerate(self._workers)
                if index not in self.fenced
            }
        )
        if failures:
            self._fail(failures)
        return 0

    @property
    def codec(self):
        return self._codec

    # ---------------------------------------------------------------- faults
    def install_fault_plan(self, plan: FaultPlan) -> None:
        """Attach a per-worker injector to each shard's storage store.

        Worker ``i`` gets ``seed + i`` so the shards' fault streams are
        decorrelated; recoverable faults perturb only timing, so results
        remain bit-identical to a fault-free (or serial) run.
        """
        self._sync()
        for index in range(len(self._workers)):
            self.install_fault_plan_shard(index, replace(plan, seed=plan.seed + index))

    def install_fault_plan_shard(self, index: int, plan: FaultPlan) -> None:
        """(Re)install one worker's injector: a single-worker fault for a
        test to aim, or the plan a respawned worker's predecessor took
        with it (along with its op counters)."""
        self._call(index, _worker_install_faults, plan)
        self.worker_plans[index] = plan

    def fault_stats(self) -> FaultStats | None:
        stats = [m.fault_stats for m in self.shards if m.fault_stats is not None]
        if not stats:
            return None
        total = FaultStats()
        for s in stats:
            for f in fields(FaultStats):
                setattr(total, f.name, getattr(total, f.name) + getattr(s, f.name))
        return total

    # ------------------------------------------------------------- per shard
    def shard_state(self, index: int) -> ShardPayload:
        """One worker's checkpoint payload over IPC (shard must be idle)."""
        self._check_usable()
        if self._proxies[index] or self._pending[index]:
            raise RuntimeError(
                f"shard {index} snapshots at quiescent points only; drain() first"
            )
        self._sync()
        return self._call(index, _worker_state)

    def fence_shard(self, index: int) -> None:
        """Take a worker out of service permanently: drop its queued work
        and tear its process down."""
        if index in self.fenced:
            return
        self.fenced.add(index)
        # Its padding round dies with the worker: dropped, never awaited.
        self._finishing.pop(index, None)
        self._drop_shard_work(index)
        self._pending_failures = [
            failure
            for failure in self._pending_failures
            if failure.shard_index != index
        ]
        self._shutdown_worker(index)
        self._reap_segments(index)
        self._release_scratch(index)

    def heartbeats(self) -> "dict[int, float]":
        """Ping every live worker over IPC (timeout ⇒ ShardCrashed)."""
        self._check_usable()
        self._sync()
        beats, failures = self._gather(
            {
                index: self._workers[index].submit(_worker_ping)
                for index in range(len(self._workers))
                if index not in self.fenced
            }
        )
        if failures:
            self._pending_failures.extend(failures[1:])
            raise failures[0]
        return beats

    def recover_shard(
        self, index: int, payload: ShardPayload, replay: list, failure: ShardCrashed
    ) -> None:
        """Replace the worker with a fresh process that builds its shard
        from the recipe and ``payload``.  Always respawning -- even
        when the old process still answers -- keeps one recovery path for
        every failure kind.  The old worker's padding round, if any, dies
        with it; the other shards' rounds stay for the settle."""
        self._shutdown_worker(index)
        self._finishing.pop(index, None)
        # The dead worker never closed: reap its slab segment so the fresh
        # worker creates a clean one instead of attaching stale pages.
        self._reap_segments(index)
        self._workers[index] = self._spawn_worker(index, payload)
        self.fenced.discard(index)
        self.shards[index] = ShardMirror(self._call(index, _worker_describe), self._settle)
        if replay:
            self._call(
                index,
                _worker_run,
                [(seq, op, addr, data) for seq, (op, addr, data) in enumerate(replay)],
            )
            self.shards[index].apply(self._call(index, _worker_finish, None))
        plan = self.worker_plans.get(index)
        if plan is not None:
            self.install_fault_plan_shard(index, _rebase_plan(plan, failure))

    # --------------------------------------------------------------- teardown
    def _kill_worker(self, index: int) -> None:
        """Kill a wedged worker's process (it will not answer IPC)."""
        self._workers[index].kill()

    def _shutdown_worker(self, index: int) -> None:
        self._kill_worker(index)
        self._workers[index].shutdown()

    def close(self) -> None:
        """Shut the worker processes down and wait for them to exit.

        Waiting matters: a fire-and-forget shutdown leaves worker
        processes alive briefly after a failed scenario, which is exactly
        the leak the harness' regression tests look for.  Workers flush
        durable slabs first (best-effort -- a crashed fleet skips it), but
        a worker that cannot answer within ``_CLOSE_TIMEOUT_S`` (wedged in
        an injected hang, say) is terminated instead of waited on, so
        ``close()`` cannot itself hang.  Idempotent, including after a
        failed or in-flight drain: unanswered calls are dropped.
        """
        if self._closed:
            return
        self._closed = True
        flushes = [
            (index, worker.submit(_worker_close))
            for index, worker in enumerate(self._workers)
            if index not in self.fenced  # fenced workers are already shut down
        ]
        for index, reply in flushes:
            try:
                reply.result(timeout=_CLOSE_TIMEOUT_S)
            except Exception:
                self._kill_worker(index)
        # Channels answer in order: a worker that answered _worker_close has
        # answered its padding round, so the last snapshot is there for the
        # taking; a killed worker's reply is dropped (it fails at once).
        finishing, self._finishing = self._finishing, {}
        for index, reply in finishing.items():
            try:
                self.shards[index].apply(reply.result(timeout=0))
            except Exception:
                pass
        for worker in self._workers:
            worker.shutdown()
        # With every worker gone, reap whatever shm the fleet still owns:
        # the envelope scratch segments (coordinator-owned) and any worker
        # slab a killed process left behind.
        self._release_scratch()
        self._reap_segments()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass


def _default_context():
    """Prefer fork (fast, works in sandboxes); fall back to the platform
    default where fork is unavailable."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


"""Deterministic fault injection for the storage tier.

The conformance harness (:mod:`repro.testing`) stresses every protocol
under adverse I/O conditions.  Faults are injected at the
:class:`~repro.storage.backend.BlockStore` boundary -- the same five
methods every protocol in this repository funnels its physical accesses
through -- so one injector covers H-ORAM, the baselines and the sharded
fleet without protocol-specific hooks.

Semantics (the contract the conformance scenarios assert):

* **transient read errors** -- a read attempt fails and the device layer
  retries it.  Each retry re-pays the full access duration; after
  ``max_retries`` consecutive failures the fault is *unrecoverable* and
  :class:`UnrecoverableFaultError` propagates to the protocol.  Data is
  never silently wrong on this path.
* **latency spikes** -- an access occasionally takes ``spike_factor``
  times its modeled duration (queueing, background GC, relocated
  sectors).  Purely a timing perturbation.
* **torn bulk writes** -- a ``write_run`` is interrupted partway: only a
  prefix of the run lands, the tear is detected (write-verify), and the
  whole run is re-issued.  The final stored bytes are correct; the store
  pays for the partial attempt plus the full retry.  A deferred run
  (:class:`~repro.storage.backend.DeferredRun`) is written back as it
  arrives, so a tear, or a crash's torn prefix, cuts the same bytes it
  would cut from the eager buffer.
* **silent read corruption** -- a read returns bit-flipped bytes with no
  error signalled.  This one is deliberately *not* recovered: it models
  the failure class ORAM integrity checking exists for, and the harness
  uses it to seed reproducible failures for the scenario shrinker.
* **crashes** -- the process dies at a chosen physical access
  (:class:`CrashFault`; optionally leaving a torn prefix of the crashing
  bulk write in the slab).  Terminal by design: recovery goes through
  :func:`repro.core.checkpoint.recover`, never through a retry.

All randomness comes from one :class:`DeterministicRandom` seeded by the
:class:`FaultPlan`, so a scenario replays bit-identically from its
(seed, plan) pair.  Injection wraps the methods of an existing store
*instance* (the protocols hold direct references to their stores, handed
out at construction time), leaving the class and all other instances
untouched.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from repro.crypto.random import DeterministicRandom
from repro.storage.backend import BlockStore, DeferredRun
from repro.storage.device import DeviceModel


class FaultError(Exception):
    """Base class for injected-fault failures."""


class UnrecoverableFaultError(FaultError):
    """A transient fault persisted past the retry budget."""


class CrashFault(FaultError):
    """The process "died" at this physical access (durability testing).

    Unlike every other fault this one is terminal by design: nothing
    retries it, the stack that raised it is considered dead, and the only
    way forward is :func:`repro.core.checkpoint.recover` from the last
    checkpoint.  With ``torn=True`` the crashing ``write_run`` landed a
    prefix of the run before dying -- the torn most-recent write a real
    power cut leaves in a slab.
    """

    def __init__(self, op: str, op_index: int, torn: bool = False):
        super().__init__(
            f"injected crash at physical op {op_index} ({op}"
            + (", torn write" if torn else "")
            + ")"
        )
        self.op = op
        self.op_index = op_index
        self.torn = torn

    def __reduce__(self):
        # Exceptions pickle as (cls, self.args); ours takes structured
        # arguments, so spell the constructor call out for the trip back
        # from a worker process.
        return (CrashFault, (self.op, self.op_index, self.torn))


class HangFault(FaultError):
    """The process "hung" at this physical access (heartbeat testing).

    Models a worker that stops making progress without dying: a stuck
    I/O, a livelocked retry loop.  On serial fleets the injected
    exception *is* the missed heartbeat -- the shard's simulated clock
    stops advancing at this access and never recovers.  On parallel
    fleets ``hang_wall_s`` first stalls the worker process for real wall
    time, so the coordinator's IPC heartbeat timeout fires while the
    worker is still unresponsive.  Terminal like :class:`CrashFault`:
    recovery goes through the supervisor's checkpoint restore.
    """

    def __init__(self, op: str, op_index: int):
        super().__init__(f"injected hang at physical op {op_index} ({op})")
        self.op = op
        self.op_index = op_index

    def __reduce__(self):
        return (HangFault, (self.op, self.op_index))


@dataclass
class FaultPlan:
    """Declarative fault mix; JSON-able so scenario specs can carry it."""

    seed: int = 0
    read_error_rate: float = 0.0
    latency_spike_rate: float = 0.0
    spike_factor: float = 10.0
    torn_write_rate: float = 0.0
    corrupt_read_rate: float = 0.0
    max_retries: int = 3
    #: kill the process at the Nth physical access of the matching kind
    #: (1-based; 0 disables crash injection).
    crash_at_op: int = 0
    #: which accesses count toward ``crash_at_op``: "any", or "write_run"
    #: (bulk writes only -- in H-ORAM those happen exclusively inside the
    #: shuffle period, so this targets a mid-shuffle crash).
    crash_op_kind: str = "any"
    #: land a torn prefix of the crashing bulk write before dying.
    crash_torn: bool = False
    #: crash storm: additional 1-based physical-op indices (same counter
    #: and kind filter as ``crash_at_op``) that each raise a
    #: :class:`CrashFault`.  After a supervisor restores the shard, later
    #: entries keep firing -- repeated crash/recover in one run.
    crash_schedule: list = field(default_factory=list)
    #: hang (not die) at the Nth physical access (1-based; 0 disables).
    #: Counted on its own counter so enabling a hang does not shift the
    #: crash schedule.
    hang_at_op: int = 0
    #: real wall-clock stall before the hang surfaces -- lets a parallel
    #: worker sit unresponsive long enough for the coordinator's IPC
    #: heartbeat timeout to classify it as hung (0 = raise immediately).
    hang_wall_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("read_error_rate", "latency_spike_rate", "torn_write_rate", "corrupt_read_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.spike_factor < 1.0:
            raise ValueError("spike_factor must be >= 1")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.crash_at_op < 0:
            raise ValueError("crash_at_op must be >= 0 (0 = disabled)")
        if self.crash_op_kind not in ("any", "write_run"):
            raise ValueError(
                f"crash_op_kind must be 'any' or 'write_run', got {self.crash_op_kind!r}"
            )
        if any(op < 1 for op in self.crash_schedule):
            raise ValueError("crash_schedule entries are 1-based op indices (>= 1)")
        if list(self.crash_schedule) != sorted(set(self.crash_schedule)):
            raise ValueError("crash_schedule must be strictly increasing")
        if self.hang_at_op < 0:
            raise ValueError("hang_at_op must be >= 0 (0 = disabled)")
        if self.hang_wall_s < 0:
            raise ValueError("hang_wall_s must be >= 0")

    def active(self) -> bool:
        return self.crash_at_op > 0 or bool(self.crash_schedule) or self.hang_at_op > 0 or any(
            rate > 0.0
            for rate in (
                self.read_error_rate,
                self.latency_spike_rate,
                self.torn_write_rate,
                self.corrupt_read_rate,
            )
        )

    def describe(self) -> str:
        parts = []
        if self.read_error_rate:
            parts.append(f"read-err {self.read_error_rate:g}")
        if self.latency_spike_rate:
            parts.append(f"spike {self.latency_spike_rate:g}x{self.spike_factor:g}")
        if self.torn_write_rate:
            parts.append(f"torn {self.torn_write_rate:g}")
        if self.corrupt_read_rate:
            parts.append(f"corrupt {self.corrupt_read_rate:g}")
        if self.crash_at_op:
            parts.append(
                f"crash@{self.crash_op_kind}:{self.crash_at_op}"
                + ("+torn" if self.crash_torn else "")
            )
        if self.crash_schedule:
            parts.append(
                f"storm@{self.crash_op_kind}:{','.join(map(str, self.crash_schedule))}"
            )
        if self.hang_at_op:
            parts.append(f"hang@{self.hang_at_op}")
        return ", ".join(parts) or "none"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(**data)


@dataclass
class FaultStats:
    """What the injector actually did (per injector, across its stores)."""

    read_faults: int = 0
    retries: int = 0
    #: transient faults that exhausted the retry budget and escalated to
    #: an :class:`UnrecoverableFaultError`.
    escalations: int = 0
    latency_spikes: int = 0
    torn_writes: int = 0
    corrupted_reads: int = 0
    injected_delay_us: float = 0.0
    crashes: int = 0
    hangs: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    def to_extra(self) -> dict:
        """``Metrics.extra`` projection (``fault_``-prefixed counters).

        Surfaces the injector's retry/escalation/backoff bookkeeping so
        supervisor and conformance runs can assert on it from the one
        metrics record they already report.
        """
        return {f"fault_{name}": value for name, value in asdict(self).items()}


class FaultInjector:
    """Wraps the physical-access methods of live :class:`BlockStore`\\ s.

    One injector may attach to several stores (a sharded fleet); all
    share the plan's random stream, so the injection sequence is a pure
    function of the plan and the order of physical accesses -- which is
    itself deterministic for a fixed scenario.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.rng = DeterministicRandom(f"fault-{plan.seed}")
        self.stats = FaultStats()
        self._stores: list[BlockStore] = []
        #: physical accesses counted toward the crash point (all stores).
        self._crash_ops = 0
        #: 1-based op indices that crash: crash_at_op plus the storm
        #: schedule, on the one shared counter.
        self._crash_points = set(plan.crash_schedule)
        if plan.crash_at_op > 0:
            self._crash_points.add(plan.crash_at_op)
        #: separate counter for the hang point (any-op, never filtered).
        self._hang_ops = 0

    # ------------------------------------------------------------- rolling
    def _roll(self, rate: float) -> bool:
        # Disabled fault kinds consume no randomness, so enabling one kind
        # does not shift another kind's injection points.
        return rate > 0.0 and self.rng.random() < rate

    def _crash_due(self, op: str) -> bool:
        """Count one physical access; True when it is a crash point.

        Counting consumes no randomness, so enabling a crash does not
        shift any other fault kind's injection points -- the pre-crash
        behavior stays bit-identical to a crash-free run.  Under a
        supervisor the counter keeps running across restores (the
        injector outlives the shard it is attached to), so a
        ``crash_schedule`` fires each of its points exactly once --
        including the physical ops re-executed by recovery replay on the
        stores the injector is re-attached to.
        """
        if not self._crash_points:
            return False
        if self.plan.crash_op_kind == "write_run" and op != "write_run":
            return False
        self._crash_ops += 1
        return self._crash_ops in self._crash_points

    def _crash(self, op: str, torn: bool = False) -> None:
        self.stats.crashes += 1
        raise CrashFault(op, self._crash_ops, torn=torn)

    def _maybe_hang(self, op: str) -> None:
        """Count one physical access toward the hang point; stall + raise there."""
        if self.plan.hang_at_op <= 0:
            return
        self._hang_ops += 1
        if self._hang_ops == self.plan.hang_at_op:
            self.stats.hangs += 1
            if self.plan.hang_wall_s > 0:
                time.sleep(self.plan.hang_wall_s)
            raise HangFault(op, self._hang_ops)

    def _perturb_read(self, store: BlockStore, op: str, duration: float) -> float:
        """Common read-path injection: transient errors then latency spikes."""
        extra = 0.0
        if self._roll(self.plan.read_error_rate):
            # Consecutive failed attempts for this transient fault (>= 1);
            # one more failure past the retry budget escalates.  Either
            # way the failed attempts are recorded and charged first, so
            # fault stats stay truthful for aborted runs too.
            attempts = 1
            while attempts < self.plan.max_retries and self._roll(self.plan.read_error_rate):
                attempts += 1
            escalate = attempts >= self.plan.max_retries and self._roll(self.plan.read_error_rate)
            self.stats.read_faults += 1
            self.stats.retries += attempts
            retry_us = duration * attempts
            store.counters.busy_us += retry_us
            self.stats.injected_delay_us += retry_us
            if escalate:
                self.stats.escalations += 1
                raise UnrecoverableFaultError(
                    f"{op} on store '{store.name}' failed {self.plan.max_retries} retries"
                )
            extra += retry_us
        if self._roll(self.plan.latency_spike_rate):
            self.stats.latency_spikes += 1
            spike_us = duration * (self.plan.spike_factor - 1.0)
            store.counters.busy_us += spike_us
            self.stats.injected_delay_us += spike_us
            extra += spike_us
        return duration + extra

    def _perturb_write(self, store: BlockStore, duration: float) -> float:
        extra = 0.0
        if self._roll(self.plan.latency_spike_rate):
            self.stats.latency_spikes += 1
            extra += duration * (self.plan.spike_factor - 1.0)
        if extra:
            store.counters.busy_us += extra
            self.stats.injected_delay_us += extra
        return duration + extra

    def _corrupt(self, record: bytes) -> bytes:
        """Flip one deterministic bit of a returned record."""
        flipped = bytearray(record)
        position = self.rng.randrange(len(flipped) * 8)
        flipped[position // 8] ^= 1 << (position % 8)
        return bytes(flipped)

    # -------------------------------------------------------------- attach
    def attach(self, store: BlockStore) -> BlockStore:
        """Intercept ``store``'s physical accesses; returns the store.

        Idempotent: attaching the same store twice would nest the
        wrappers and double-count every fault, so repeats are no-ops.
        """
        if any(existing is store for existing in self._stores):
            return store
        injector = self

        orig_read_slot = store.read_slot
        orig_read_slot_view = store.read_slot_view
        orig_read_run = store.read_run
        orig_read_run_view = store.read_run_view
        orig_write_slot = store.write_slot
        orig_write_run = store.write_run

        def read_slot(slot):
            if injector._crash_due("read_slot"):
                injector._crash("read_slot")
            injector._maybe_hang("read_slot")
            record, duration = orig_read_slot(slot)
            duration = injector._perturb_read(store, "read_slot", duration)
            if injector._roll(injector.plan.corrupt_read_rate):
                injector.stats.corrupted_reads += 1
                record = injector._corrupt(record)
            return record, duration

        def read_slot_view(slot):
            if injector._crash_due("read_slot"):
                injector._crash("read_slot")
            injector._maybe_hang("read_slot")
            view, duration = orig_read_slot_view(slot)
            duration = injector._perturb_read(store, "read_slot", duration)
            if injector._roll(injector.plan.corrupt_read_rate):
                # A view aliases live storage; corrupt a copy, not the disk.
                injector.stats.corrupted_reads += 1
                view = memoryview(injector._corrupt(bytes(view)))
            return view, duration

        def read_run(start, count):
            if injector._crash_due("read_run"):
                injector._crash("read_run")
            injector._maybe_hang("read_run")
            records, duration = orig_read_run(start, count)
            duration = injector._perturb_read(store, "read_run", duration)
            if injector._roll(injector.plan.corrupt_read_rate):
                injector.stats.corrupted_reads += 1
                index = injector.rng.randrange(len(records))
                records[index] = injector._corrupt(records[index])
            return records, duration

        def read_run_view(start, count):
            if injector._crash_due("read_run"):
                injector._crash("read_run")
            injector._maybe_hang("read_run")
            view, duration = orig_read_run_view(start, count)
            duration = injector._perturb_read(store, "read_run_view", duration)
            if injector._roll(injector.plan.corrupt_read_rate):
                # A view aliases live storage; corrupt a copy, not the disk.
                injector.stats.corrupted_reads += 1
                copied = bytearray(view)
                slot_bytes = store.slot_bytes
                index = injector.rng.randrange(len(copied) // slot_bytes)
                base = index * slot_bytes
                copied[base : base + slot_bytes] = injector._corrupt(
                    bytes(copied[base : base + slot_bytes])
                )
                view = memoryview(copied)
            return view, duration

        def write_slot(slot, record):
            if injector._crash_due("write_slot"):
                injector._crash("write_slot")
            injector._maybe_hang("write_slot")
            duration = orig_write_slot(slot, record)
            return injector._perturb_write(store, duration)

        def write_run(start, records):
            if type(records) is DeferredRun:
                records = records.build()
            if isinstance(records, (bytes, bytearray, memoryview)):
                count = memoryview(records).nbytes // store.slot_bytes
            else:
                count = len(records)
            if injector._crash_due("write_run"):
                # The crash interrupts this very write: with crash_torn a
                # prefix lands in the slab first (what a power cut leaves
                # behind); either way the process dies before the run
                # completes or is charged.
                if injector.plan.crash_torn and count > 1:
                    cut = 1 + injector.rng.randrange(count - 1)
                    if isinstance(records, (bytes, bytearray, memoryview)):
                        prefix = memoryview(records)[: cut * store.slot_bytes]
                    else:
                        prefix = records[:cut]
                    orig_write_run(start, prefix)
                    injector._crash("write_run", torn=True)
                injector._crash("write_run")
            injector._maybe_hang("write_run")
            # A run of one slot cannot tear (the slot write is atomic), so
            # the roll is only consumed -- and the tear only counted --
            # for genuinely tearable runs.
            if count > 1 and injector._roll(injector.plan.torn_write_rate):
                # Tear: a prefix lands, the verify catches it, the full
                # run is re-issued.  Charge both attempts for real.
                cut = 1 + injector.rng.randrange(count - 1)
                if isinstance(records, (bytes, bytearray, memoryview)):
                    prefix = memoryview(records)[: cut * store.slot_bytes]
                else:
                    prefix = records[:cut]
                retry_us = orig_write_run(start, prefix)
                duration = retry_us + orig_write_run(start, records)
                injector.stats.torn_writes += 1
                # the partial attempt is injected delay like any other fault
                injector.stats.injected_delay_us += retry_us
            else:
                duration = orig_write_run(start, records)
            return injector._perturb_write(store, duration)

        store.read_slot = read_slot
        store.read_slot_view = read_slot_view
        store.read_run = read_run
        store.read_run_view = read_run_view
        store.write_slot = write_slot
        store.write_run = write_run
        store.fault_injector = self
        self._stores.append(store)
        return store


def degraded(base: DeviceModel, slowdown: float = 4.0) -> DeviceModel:
    """A uniformly slower copy of ``base`` (aging disk, throttled cloud volume).

    Positioning overheads scale up and streaming rates scale down by
    ``slowdown``; the result is a plain frozen :class:`DeviceModel`, so
    the store's stock fast path still applies.
    """
    if slowdown < 1.0:
        raise ValueError("slowdown must be >= 1")
    return DeviceModel(
        name=f"{base.name}-degraded{slowdown:g}x",
        read_overhead_us=base.read_overhead_us * slowdown,
        write_overhead_us=base.write_overhead_us * slowdown,
        read_mb_per_s=base.read_mb_per_s / slowdown,
        write_mb_per_s=base.write_mb_per_s / slowdown,
    )

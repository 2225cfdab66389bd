"""Self-healing shard fleets: supervision, heartbeats, auto-recovery.

:class:`FleetSupervisor` wraps a :class:`~repro.core.sharding.ShardedHORAM`
(under either executor) and keeps it serving across injected crashes,
hangs and dead worker processes:

* **cadence checkpointing** -- every shard is checkpointed into a
  rotating keep-last-K :class:`~repro.core.checkpoint.CheckpointStore`
  once ``checkpoint_every_ops`` requests have hit it (checked at
  quiescent drain boundaries, where the PR-5 checkpoint format is
  valid).  Saves are atomic: a crash mid-save loses at most the new
  checkpoint, never the previous recovery point.
* **health monitoring** -- serial shards report simulated-clock
  heartbeats in-process; parallel workers answer a real IPC ping under a
  receive timeout, so both dead processes (lost pipe) and wedged ones
  (injected ``hang_wall_s`` stalls) are detected.  During a drain the
  same timeout bounds every batch round-trip.
* **automatic restart** -- a failed shard is rolled back to its newest
  *valid* checkpoint (falling back past torn/corrupt newer ones), its
  journal of since-checkpoint retired requests is replayed injector-free,
  and its lost in-flight requests are requeued through the normal path.
  Retries are bounded (``max_restarts`` per incident).
* **graceful degradation** -- when retries are exhausted the shard is
  *fenced*: its in-flight requests fail fast with
  :class:`~repro.core.sharding.ShardUnavailableError`, new submissions
  to its stripe raise the same, and the surviving shards keep serving.

Every transition lands in an event log (``crash_detected``,
``restore_started``, ``restored``, ``fenced``, ``gave_up``, plus
``checkpoint`` markers); :meth:`FleetSupervisor.event_trace` projects the
wall-clock-free view the determinism tests pin -- for a fixed
``(seed, fault plan)`` the trace and every served result are
bit-identical across runs -- and :meth:`recovery_report` derives MTTR
and availability for the resilience benchmark.

Recovery is *value-level*: a recovered shard serves the same bytes for
the same requests as an uninterrupted twin, but its scheduler cycle
alignment may differ (replay batches what the original run may have
interleaved), so lockstep cycle-equality invariants do not apply to
fleets that have been through a restore.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from repro.core.checkpoint import CheckpointStore, shard_state_payload, snapshot_shard
from repro.core.executor import ShardCrashed
from repro.core.rob import RobEntry
from repro.oram.base import Request
from repro.sim.metrics import Metrics
from repro.storage.faults import FaultPlan


@dataclass
class SupervisorConfig:
    """Tuning knobs for one supervised fleet."""

    #: per-shard checkpoint cadence in requests; 0 = initial checkpoint
    #: only (recovery then replays the whole journal).
    checkpoint_every_ops: int = 64
    #: rotating retention per shard (the newest valid checkpoint is
    #: always kept regardless).
    keep_checkpoints: int = 3
    #: restore attempts per incident before the shard is fenced;
    #: 0 fences immediately on the first failure.
    max_restarts: int = 2
    #: IPC receive timeout for parallel fleets (batch round-trips and
    #: heartbeat pings); None waits forever.
    heartbeat_timeout_s: float | None = 30.0

    def __post_init__(self) -> None:
        if self.checkpoint_every_ops < 0:
            raise ValueError("checkpoint_every_ops must be >= 0")
        if self.keep_checkpoints < 1:
            raise ValueError("keep_checkpoints must be >= 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")


@dataclass
class SupervisorEvent:
    """One supervision transition (the event log's unit)."""

    kind: str
    shard: int
    attempt: int = 0
    detail: str = ""
    #: real wall-clock seconds since the supervisor started (excluded
    #: from determinism comparisons; feeds MTTR/availability).
    wall_s: float = 0.0
    #: requests submitted fleet-wide when the event fired.
    op_count: int = 0


class FleetSupervisor:
    """Keeps a sharded fleet serving through shard failures.

    Duck-types the protocol surface the engine and harnesses drive
    (``submit``/``drain``/``has_work``/``retire``/``read``/``write``/
    ``metrics``/``hierarchy``); anything else is delegated to the
    wrapped fleet.  The wrapped fleet's executor is switched to
    *monitored* mode, so per-shard failures surface as
    :class:`~repro.core.executor.ShardCrashed` incidents this class
    recovers from instead of poisoning the whole fleet.
    """

    def __init__(self, fleet, checkpoint_dir, config: SupervisorConfig | None = None):
        self.fleet = fleet
        self.executor = fleet.executor
        self.config = config or SupervisorConfig()
        self.executor.monitored = True
        self.executor.heartbeat_timeout_s = self.config.heartbeat_timeout_s
        n = fleet.n_shards
        #: per-shard rotating checkpoint stores.
        self.stores = [
            CheckpointStore(
                f"{checkpoint_dir}/shard-{index}",
                keep_last=self.config.keep_checkpoints,
            )
            for index in range(n)
        ]
        #: per-shard journal of ``(op, local_addr, data)`` reaching back
        #: to that shard's *oldest retained* checkpoint (not just the
        #: newest -- restore may fall back past a corrupt newer one).
        #: The shard's ROB retires in program order, so the journal is
        #: always [retired prefix][in-flight suffix]; recovery replays
        #: the prefix past the chosen checkpoint and requeues the suffix.
        self.journals: list[list] = [[] for _ in range(n)]
        #: absolute op index of ``journals[i][0]`` (ops are counted per
        #: shard from fleet construction).
        self._journal_base = [0] * n
        self._ops_journaled = [0] * n
        #: per shard: checkpoint directory name -> absolute op offset it
        #: captures (how many journal ops it already contains).
        self._ckpt_offsets: list[dict] = [{} for _ in range(n)]
        self._ops_since_ckpt = [0] * n
        self._ops_submitted = 0
        self.events: list[SupervisorEvent] = []
        #: events by kind, kept by ``_event`` so counters never rescan.
        self._event_counts: Counter = Counter()
        #: entries that failed fast when their shard was fenced (each
        #: carries a ShardUnavailableError on ``entry.error``).
        self.failed_entries: list[RobEntry] = []
        self._t0 = time.monotonic()
        for index in range(n):
            self._checkpoint(index)

    # ------------------------------------------------------------- facade
    @property
    def metrics(self) -> Metrics:
        """Fleet aggregate plus fault-injector and supervision counters."""
        merged = self.fleet.metrics
        stats = self.executor.fault_stats()
        merged.absorb_fault_stats(stats)
        merged.extra.update(
            supervisor_crashes=self._count("crash_detected"),
            supervisor_restores=self._count("restored"),
            supervisor_fenced=self._count("fenced"),
            supervisor_checkpoints=self._count("checkpoint"),
        )
        return merged

    @property
    def hierarchy(self):
        return self.fleet.hierarchy

    @property
    def codec(self):
        return self.fleet.codec

    @property
    def n_blocks(self) -> int:
        return self.fleet.n_blocks

    @property
    def fenced(self) -> set:
        return self.fleet.fenced

    def __getattr__(self, name):
        # Protocol odds and ends (served_digest, shard_metrics, describe...)
        # pass straight through to the wrapped fleet.
        return getattr(self.fleet, name)

    def __enter__(self) -> "FleetSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self.fleet.close()

    # ------------------------------------------------------------- serving
    def submit(self, request: Request) -> RobEntry:
        """Journal + route one request (fails fast on a fenced stripe)."""
        shard = self.fleet.shard_of(request.addr)
        entry = self.fleet.submit(request)  # raises ShardUnavailableError
        self.journals[shard].append(
            (request.op, self.fleet.local_addr(request.addr), request.data)
        )
        self._ops_journaled[shard] += 1
        self._ops_since_ckpt[shard] += 1
        self._ops_submitted += 1
        return entry

    def drain(self) -> list[RobEntry]:
        """Drain the fleet, recovering every shard failure on the way.

        Returns the retired entries in global submission order, including
        fenced entries that failed fast mid-drain (``entry.error`` set,
        ``entry.result`` None); callers that index results by the entry
        objects they hold are unaffected.
        """
        return self._drain(every_shard=False)[0]

    def _drain(self, every_shard: bool) -> "tuple[list[RobEntry], int]":
        """Drain, then checkpoint the shards that are due (or all of them).

        The checkpoint sits inside the recovery loop: a parallel worker
        that died while padding after its last batch is only found when
        the checkpoint next talks to it, and is recovered like any other
        incident before the save is retried.
        """
        out: list[RobEntry] = []
        while True:
            try:
                while self.fleet.has_work():
                    out.extend(self.fleet.step())
                out.extend(self.fleet.retire())
                return out, self._save_checkpoints(every_shard)
            except ShardCrashed as failure:
                # Survivors' retirements from the aborted step first.
                out.extend(self.fleet.retire())
                out.extend(self._handle_failure(failure))

    def has_work(self) -> bool:
        return self.fleet.has_work()

    def feed_quantum(self) -> None:
        """Everything queued: recovery lives in :meth:`drain`, not ``step``."""
        return None

    def retire(self) -> list[RobEntry]:
        return self.fleet.retire()

    def read(self, addr: int) -> bytes:
        entry = self.submit(Request.read(addr))
        self.drain()
        if entry.error is not None:
            raise entry.error
        assert entry.result is not None
        return entry.result

    def write(self, addr: int, data: bytes) -> None:
        entry = self.submit(Request.write(addr, data))
        self.drain()
        if entry.error is not None:
            raise entry.error

    # -------------------------------------------------------------- faults
    def install_fault_plan(self, plan: FaultPlan) -> None:
        self.executor.install_fault_plan(plan)

    def fault_stats(self):
        return self.executor.fault_stats()

    # -------------------------------------------------------------- health
    def check_health(self) -> dict:
        """One heartbeat round; recovers any failure it uncovers.

        Parallel fleets ping every live worker over IPC (a worker that
        misses ``heartbeat_timeout_s`` is treated as hung and recovered);
        serial fleets read the shards' simulated clocks in-process.
        """
        while True:
            try:
                return self.executor.heartbeats()
            except ShardCrashed as failure:
                self._handle_failure(failure)

    # ------------------------------------------------------------ reporting
    def event_trace(self) -> "list[tuple[str, int, int]]":
        """Wall-clock-free event view: ``(kind, shard, attempt)`` tuples.

        This is the recovery trace the determinism criterion pins: a pure
        function of the seed and the fault plan.
        """
        return [(e.kind, e.shard, e.attempt) for e in self.events]

    def recovery_report(self) -> dict:
        """MTTR / availability inputs derived from the event log."""
        incidents = []
        open_incident: dict | None = None
        for event in self.events:
            if event.kind == "crash_detected":
                open_incident = {
                    "shard": event.shard,
                    "kind": event.detail,
                    "detected_wall_s": event.wall_s,
                    "outcome": None,
                    "repair_wall_s": None,
                }
                incidents.append(open_incident)
            elif event.kind in ("restored", "fenced") and open_incident is not None:
                open_incident["outcome"] = event.kind
                open_incident["repair_wall_s"] = event.wall_s - open_incident["detected_wall_s"]
                open_incident = None
        repairs = [i["repair_wall_s"] for i in incidents if i["repair_wall_s"] is not None]
        total_wall_s = time.monotonic() - self._t0
        downtime_s = sum(repairs)
        return {
            "incidents": incidents,
            "crashes_detected": self._count("crash_detected"),
            "restores": self._count("restored"),
            "fences": self._count("fenced"),
            "checkpoints": self._count("checkpoint"),
            "mttr_s": (downtime_s / len(repairs)) if repairs else 0.0,
            "recovery_wall_s": downtime_s,
            "total_wall_s": total_wall_s,
            "availability": (
                max(0.0, 1.0 - downtime_s / total_wall_s) if total_wall_s > 0 else 1.0
            ),
        }

    # ------------------------------------------------------------- recovery
    def _handle_failure(self, failure: ShardCrashed) -> list[RobEntry]:
        """Recover one incident: bounded restore attempts, then fence.

        Returns entries released to the caller as a side effect of
        fencing (fenced fail-fast entries plus survivors' retirements the
        dead sequence numbers were blocking); restores release nothing
        directly -- the requeued requests retire through later steps.
        """
        index = failure.shard_index
        self._event("crash_detected", index, detail=failure.kind)
        for attempt in range(1, self.config.max_restarts + 1):
            self._event("restore_started", index, attempt)
            try:
                self._restore(index, failure)
            except Exception as error:  # noqa: BLE001 -- retried, then fenced
                self._event("restore_failed", index, attempt, detail=str(error))
                continue
            requeued = self.fleet.requeue_shard(index)
            self._event("restored", index, attempt, detail=f"requeued={requeued}")
            return []
        self._event("gave_up", index, self.config.max_restarts)
        failed, released = self.fleet.fence_shard(index)
        self.failed_entries.extend(failed)
        self._event("fenced", index, detail=f"failed_fast={len(failed)}")
        return failed + released

    def _restore(self, index: int, failure: ShardCrashed) -> None:
        """Roll one shard back to its newest valid checkpoint and replay.

        The replay prefix is the journal slice between the chosen
        checkpoint's recorded offset (falling back past a corrupt newer
        checkpoint picks an older offset, and the journal reaches back to
        the oldest retained one) and the shard's still-in-flight suffix
        (per-shard ROBs retire in program order, so the journal is always
        prefix-retired).  The executor replays it with no injector
        attached -- recovery itself cannot re-crash on the same scheduled
        fault; the requeued suffix goes back through the normal
        (injected) path.
        """
        checkpoint, path = self.stores[index].load_latest_valid()
        journal = self.journals[index]
        offset = self._ckpt_offsets[index].get(path.name, self._journal_base[index])
        start = offset - self._journal_base[index]
        replay = journal[start : len(journal) - self.fleet.inflight_count(index)]
        self.executor.recover_shard(
            index, shard_state_payload(checkpoint), replay, failure
        )

    # ----------------------------------------------------------- checkpoints
    def checkpoint_now(self) -> int:
        """Checkpoint every live shard immediately (the drain-time hook).

        A graceful server drain calls this after the fleet quiesces so a
        restart resumes from the drain boundary instead of replaying back
        to the last cadence checkpoint.  The fleet is drained first --
        the checkpoint format is only valid at a quiescent boundary --
        and fenced shards are skipped (there is nothing live to save).
        Returns the number of shards checkpointed.
        """
        return self._drain(every_shard=True)[1]

    def _save_checkpoints(self, every_shard: bool) -> int:
        """At a quiescent drain boundary: save each live shard whose
        cadence is due, or every live shard."""
        cadence = self.config.checkpoint_every_ops
        saved = 0
        for index in range(self.fleet.n_shards):
            if index in self.fleet.fenced:
                continue
            if every_shard or 0 < cadence <= self._ops_since_ckpt[index]:
                self._checkpoint(index)
                saved += 1
        return saved

    def _checkpoint(self, index: int) -> None:
        store = self.stores[index]
        path = store.save(snapshot_shard(self.fleet, index))
        offsets = self._ckpt_offsets[index]
        offsets[path.name] = self._ops_journaled[index]
        # Retention may have rotated checkpoints out; the journal only
        # needs to reach back to the oldest *retained* one (restore can
        # fall back no further than that).
        retained = {p.name for p in store.paths()}
        for name in [n for n in offsets if n not in retained]:
            del offsets[name]
        floor = min(offsets.values())
        cut = floor - self._journal_base[index]
        if cut > 0:
            del self.journals[index][:cut]
            self._journal_base[index] = floor
        self._ops_since_ckpt[index] = 0
        self._event("checkpoint", index, detail=path.name)

    # -------------------------------------------------------------- plumbing
    def _event(self, kind: str, shard: int, attempt: int = 0, detail: str = "") -> None:
        self._event_counts[kind] += 1
        self.events.append(
            SupervisorEvent(
                kind=kind,
                shard=shard,
                attempt=attempt,
                detail=detail,
                wall_s=time.monotonic() - self._t0,
                op_count=self._ops_submitted,
            )
        )

    def _count(self, kind: str) -> int:
        return self._event_counts[kind]

"""Sharded H-ORAM serving layer: N independent instances, one address space.

The paper's grouped, fixed-shape scheduler "extends to multiple users for
free" (Section 5.3.2) -- but one :class:`~repro.core.horam.HybridORAM`
instance is still one device: one cache tree, one permuted storage, one
I/O channel.  :class:`ShardedHORAM` scales past that by partitioning the
logical address space across ``n_shards`` fully independent instances,
the same move throughput-oriented oblivious memories (Palermo) and
parameterized outsourced storage (BIOS ORAM) make.

Design points:

* **striped partitioning** -- block ``a`` lives on shard ``a % n_shards``
  at local address ``a // n_shards``.  Striping (rather than contiguous
  ranges) spreads every workload's hot region across all shards, so
  hotspot and zipfian streams load-balance as well as uniform ones.
* **independent shards** -- each shard owns its cache tree, permuted
  storage, scheduler and clock, seeded from one root seed via
  ``DeterministicRandom.spawn("shard-i")``; replays stay bit-exact for a
  fixed ``(seed, n_shards)``.
* **lockstep cycles** -- by default every scheduler cycle steps *all*
  shards; a shard with no useful work runs a fully padded cycle.  Each
  shard's bus then shows the same fixed ``(c, 1)`` shape every cycle
  regardless of how requests split across shards, so the routing itself
  leaks nothing beyond what a single instance leaks.  ``lockstep=False``
  steps only busy shards -- faster, but the per-shard traffic envelope
  then tracks the (address-dependent) routing, which is only safe when
  the address-to-shard map is considered public.
* **drop-in interface** -- the dual ``submit``/``drain`` + ``read``/
  ``write`` API of :class:`HybridORAM`, plus ``metrics``/``hierarchy``
  facades, so :class:`~repro.sim.engine.SimulationEngine` (including its
  ``verify=True`` oracle) and
  :class:`~repro.core.multiuser.MultiUserFrontEnd` work unchanged.

Aggregate timing treats shards as parallel devices: the sharded clock
reads the *maximum* of the shard clocks (wall time of a parallel
deployment), while I/O and memory counters sum across shards.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import HORAMConfig
from repro.core.executor import (
    EXECUTORS,
    ParallelExecutor,
    SerialExecutor,
    ShardBuildSpec,
    ShardExecutor,
)
from repro.core.horam import HybridORAM, build_horam
from repro.core.rob import RobEntry
from repro.crypto.random import DeterministicRandom
from repro.oram.base import ORAMProtocol, Request
from repro.sim.metrics import Histogram, Metrics
from repro.storage.backend import StoreCounters


class ShardUnavailableError(RuntimeError):
    """The shard serving this address is fenced (supervision gave up on it).

    Raised synchronously by :meth:`ShardedHORAM.submit` for new requests,
    and recorded on the ``error`` field of entries that were in flight
    when the shard was fenced.  Surviving shards keep serving; only the
    fenced shard's address stripe fails fast.
    """

    def __init__(self, shard_index: int, addr: int | None = None):
        at = f" (addr {addr})" if addr is not None else ""
        super().__init__(f"shard {shard_index} is fenced{at}")
        self.shard_index = shard_index
        self.addr = addr


class _SummedStores:
    """Read-only facade summing one tier's :class:`StoreCounters` across
    the shards.  It holds the executor's live shard list and resolves the
    stores on every read: recovery puts a new object in a shard's slot."""

    def __init__(self, shards: list, tier: str):
        self._shards = shards
        self._tier = tier

    def snapshot(self) -> StoreCounters:
        total = StoreCounters()
        for shard in self._shards:
            counters = getattr(shard.hierarchy, self._tier).snapshot()
            total.reads += counters.reads
            total.writes += counters.writes
            total.bytes_read += counters.bytes_read
            total.bytes_written += counters.bytes_written
            total.busy_us += counters.busy_us
        return total


class _MaxClock:
    """Aggregate clock of a parallel deployment: the slowest shard's time
    (over the live shard list, like :class:`_SummedStores`)."""

    def __init__(self, shards: list):
        self._shards = shards

    @property
    def now_us(self) -> float:
        return max(shard.hierarchy.clock.now_us for shard in self._shards)

    @property
    def now_ms(self) -> float:
        return self.now_us / 1000.0

    @property
    def now_s(self) -> float:
        return self.now_us / 1_000_000.0


class _ShardedHierarchy:
    """The hierarchy facade the engine's accounting reads (the engine
    keeps ``clock`` for a whole run, so these objects never change)."""

    def __init__(self, shards: list):
        self._shards = shards
        self.clock = _MaxClock(shards)
        self.storage = _SummedStores(shards, "storage")
        self.memory = _SummedStores(shards, "memory")

    def describe(self) -> dict:
        return {"shards": len(self._shards)}


class ShardedHORAM(ORAMProtocol):
    """Address-space-partitioned serving layer over independent H-ORAMs."""

    def __init__(
        self,
        shards: list[HybridORAM] | None = None,
        n_blocks: int = 0,
        config: HORAMConfig | None = None,
        lockstep: bool = True,
        executor: ShardExecutor | None = None,
    ):
        if n_blocks <= 0:
            raise ValueError("n_blocks must be positive")
        if config is None:
            raise ValueError("config is required (the per-shard template)")
        if executor is None:
            executor = SerialExecutor(shards or [])
        elif shards:
            raise ValueError("pass either shards or an executor, not both")
        #: the runtime actually stepping the fleet (serial or parallel).
        self.executor = executor
        #: shard views: live instances (serial) or mirrors (parallel).
        self.shards = executor.shards
        self._n_blocks = n_blocks
        #: the per-shard configuration template (window sizing, stages).
        self.config = config
        self.lockstep = lockstep
        self.hierarchy = _ShardedHierarchy(self.shards)
        #: entry id -> (global submit order, caller's tagged request, the
        #: entry object the caller holds).  The object reference matters
        #: for supervised recovery: a requeued request gets a *new*
        #: executor entry, whose retirement must land on the entry the
        #: caller is still watching.
        self._inflight: dict[int, tuple[int, Request, RobEntry]] = {}
        self._submit_seq = 0
        # Cross-shard in-order release: shards retire in their own program
        # order, but a lightly loaded shard finishes later-submitted
        # requests in earlier cycles; entries are held here until every
        # earlier submission has retired, extending the ROB's in-order
        # retire guarantee across the fleet.
        self._release_seq = 0
        self._held: dict[int, RobEntry] = {}
        # Sequence numbers that will never retire (their shard was fenced
        # while they were in flight); the release loop skips them so the
        # fleet-wide in-order stream does not wedge on a dead gap.
        self._dead_seqs: set[int] = set()

    # ----------------------------------------------------------- properties
    @property
    def n_blocks(self) -> int:
        return self._n_blocks

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def codec(self):
        """Shard 0's codec (padding geometry is identical across shards).

        Parallel fleets expose a padding-only facade: record keys never
        leave the worker processes.
        """
        return self.executor.codec

    @property
    def metrics(self) -> Metrics:
        """Cross-shard aggregate (sums; peaks take the max).

        Fenced shards are skipped: a fenced parallel worker's mirror stops
        updating when the supervisor gives up on it, so folding it in would
        silently mix dead, stale counters into the live aggregate.  When
        any shard is fenced the aggregate says so via
        ``extra["fenced_shards"]``.
        """
        merged = Metrics()
        for index, shard in enumerate(self.shards):
            if index in self.fenced:
                continue
            merged = merged.merge(shard.metrics)
        if self.fenced:
            merged.extra["fenced_shards"] = sorted(self.fenced)
        return merged

    @property
    def current_c(self) -> int:
        return max(shard.current_c for shard in self.shards)

    @property
    def served_digest(self) -> "tuple[bytes, ...]":
        """Every shard's served-order digest, in shard order.

        Each covers that shard's ``(local addr, shard cycle)`` serve
        sequence (see :attr:`EngineKernel.served_digest`); two fleets
        served the same sequences exactly when these compare equal.
        """
        return tuple(shard.served_digest for shard in self.shards)

    @property
    def fenced(self) -> set[int]:
        """Shard indexes taken out of service by a supervisor."""
        return self.executor.fenced

    # -------------------------------------------------------------- routing
    def shard_of(self, addr: int) -> int:
        return addr % self.n_shards

    def local_addr(self, addr: int) -> int:
        return addr // self.n_shards

    def global_addr(self, shard_index: int, local: int) -> int:
        return local * self.n_shards + shard_index

    # -------------------------------------------------------------- batch API
    def submit(self, request: Request) -> RobEntry:
        """Route a request to its shard's ROB; returns the shard's entry.

        The retired entry carries the caller's request (global address)
        back; internally the shard sees a local-address copy.  Requests
        for a fenced shard fail fast with :class:`ShardUnavailableError`.
        """
        self.check_addr(request.addr)
        shard_index = self.shard_of(request.addr)
        if shard_index in self.fenced:
            raise ShardUnavailableError(shard_index, request.addr)
        local = replace(request, addr=self.local_addr(request.addr))
        entry = self.executor.submit(shard_index, local)
        self._inflight[id(entry)] = (self._submit_seq, request, entry)
        self._submit_seq += 1
        return entry

    def step(self) -> list[RobEntry]:
        """Advance the shard fleet and release retirements in order.

        On the serial executor this is one scheduler cycle across every
        shard (padded when idle under lockstep); the parallel executor's
        scheduling quantum is the whole buffered batch instead, since a
        per-cycle IPC barrier would erase the parallelism.
        """
        return self._restore(self.executor.step(self.lockstep))

    def drain(self) -> list[RobEntry]:
        """Run cycles until every shard's ROB has drained."""
        retired: list[RobEntry] = []
        while self.has_work():
            retired.extend(self.step())
        retired.extend(self.retire())
        return retired

    def has_work(self) -> bool:
        return self.executor.has_work()

    def feed_quantum(self) -> int | None:
        """One kernel window per shard when a ``step`` is one cycle on every
        shard; ``None`` (everything queued) when a ``step`` drains."""
        if self.executor.step_drains:
            return None
        return self.n_shards * max(2, self.config.window_for(self.current_c))

    def retire(self) -> list[RobEntry]:
        """Collect served entries waiting at every shard's ROB head."""
        return self._restore(self.executor.retire())

    # -------------------------------------------------------- synchronous API
    def read(self, addr: int) -> bytes:
        entry = self.submit(Request.read(addr))
        self.drain()
        assert entry.result is not None
        return entry.result

    def write(self, addr: int, data: bytes) -> None:
        self.submit(Request.write(addr, data))
        self.drain()

    def force_shuffle(self) -> None:
        """End every shard's current period immediately (maintenance hook)."""
        self.executor.force_shuffle()

    def close(self) -> None:
        """Release the runtime (worker processes in parallel mode)."""
        self.executor.close()

    def snapshot(self):
        """Fleet-wide checkpoint (see :mod:`repro.core.checkpoint`).

        Requires a quiescent coordinator: everything submitted has
        drained.  Parallel fleets checkpoint their workers over IPC.
        """
        from repro.core.checkpoint import snapshot_stack

        return snapshot_stack(self)

    def __enter__(self) -> "ShardedHORAM":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ reporting
    def shard_metrics(self) -> list[Metrics]:
        """Per-shard metric snapshots, in shard order."""
        return [shard.metrics.copy() for shard in self.shards]

    def latency_percentiles(self, quantiles=(50, 90, 99)) -> dict[int, float]:
        """Fleet-wide latency percentiles over live (non-fenced) shards.

        A fenced shard's histogram is a dead mirror frozen at the moment
        supervision gave up on it; merging it would skew the live
        distribution with stale samples.
        """
        merged = Histogram()
        for index, shard in enumerate(self.shards):
            if index not in self.fenced:
                merged.merge(shard.latency_histogram)
        return {int(q): v for q, v in merged.percentiles(quantiles).items()}

    def load_balance(self) -> dict:
        """How evenly real work spread across the live fleet.

        ``imbalance`` is max/mean of per-shard served requests (1.0 =
        perfectly even); ``cycle_spread`` the same for scheduler cycles.
        Fenced shards are excluded from the per-shard lists and the
        ratios (their mirrors are stale) and reported in
        ``fenced_shards``; ``shards`` lists the live indexes the
        positional lists describe.
        """
        live = [index for index in range(self.n_shards) if index not in self.fenced]
        served = [self.shards[i].metrics.requests_served for i in live]
        cycles = [self.shards[i].metrics.cycles for i in live]
        mean_served = (sum(served) / len(served)) if served else 0.0
        mean_cycles = (sum(cycles) / len(cycles)) if cycles else 0.0
        return {
            "shards": live,
            "fenced_shards": sorted(self.fenced),
            "per_shard_served": served,
            "per_shard_cycles": cycles,
            "per_shard_clock_us": [self.shards[i].hierarchy.clock.now_us for i in live],
            "imbalance": (max(served) / mean_served) if mean_served else 1.0,
            "cycle_spread": (max(cycles) / mean_cycles) if mean_cycles else 1.0,
        }

    def describe(self) -> dict:
        return {
            "n_blocks": self.n_blocks,
            "n_shards": self.n_shards,
            "lockstep": self.lockstep,
            "executor": self.executor.kind,
            "shard_n_blocks": [shard.n_blocks for shard in self.shards],
            "shard_period_capacity": [shard.period_capacity for shard in self.shards],
        }

    # ------------------------------------------------------------- internals
    def _restore(self, retired: list[RobEntry]) -> list[RobEntry]:
        """Swap local-address requests back for the caller's originals and
        release entries in global submission order.

        An entry whose predecessors are still in flight is parked (its
        result is already set) and released once the gap closes, so
        callers see one coherent retirement stream, not per-shard bursts.
        """
        for entry in retired:
            seq, original, public = self._inflight.pop(id(entry))
            if public is not entry:
                # A requeued request retired on its replacement entry;
                # copy the outcome onto the entry the caller holds.
                public.result = entry.result
                public.state = entry.state
                public.submit_cycle = entry.submit_cycle
                public.served_cycle = entry.served_cycle
            public.request = original
            self._held[seq] = public
        return self._release()

    def _release(self) -> list[RobEntry]:
        released: list[RobEntry] = []
        while True:
            if self._release_seq in self._held:
                released.append(self._held.pop(self._release_seq))
            elif self._release_seq in self._dead_seqs:
                self._dead_seqs.discard(self._release_seq)
            else:
                break
            self._release_seq += 1
        return released

    # ------------------------------------------------------------ supervision
    def inflight_count(self, shard_index: int) -> int:
        """Requests routed to ``shard_index`` that have not retired yet."""
        return sum(
            1
            for _, request, _ in self._inflight.values()
            if self.shard_of(request.addr) == shard_index
        )

    def requeue_shard(self, shard_index: int) -> int:
        """Re-enter a restored shard's lost in-flight requests.

        A shard failure discards whatever the shard had not retired (the
        executor drops the state along with the worker/instance); after
        the supervisor rolls the shard back to a checkpoint and replays
        its journal, this re-submits the still-unserved suffix through
        the normal path -- under the *original* sequence numbers, so the
        fleet-wide in-order release stream is unchanged.  Returns how
        many requests were requeued.
        """
        stale = [
            (key, value)
            for key, value in self._inflight.items()
            if self.shard_of(value[1].addr) == shard_index
        ]
        for key, (seq, request, public) in stale:
            del self._inflight[key]
            local = replace(request, addr=self.local_addr(request.addr))
            entry = self.executor.submit(shard_index, local)
            self._inflight[id(entry)] = (seq, request, public)
        return len(stale)

    def fence_shard(self, shard_index: int) -> "tuple[list[RobEntry], list[RobEntry]]":
        """Take a shard out of service: fail its in-flight requests fast.

        Returns ``(failed, released)``: the entries that will never be
        served (each carries a :class:`ShardUnavailableError` on
        ``entry.error``) and entries from *other* shards whose in-order
        release was unblocked by marking the dead sequence numbers.
        """
        failed: list[RobEntry] = []
        for key, (seq, request, public) in list(self._inflight.items()):
            if self.shard_of(request.addr) != shard_index:
                continue
            del self._inflight[key]
            public.request = request
            public.error = ShardUnavailableError(shard_index, request.addr)
            self._dead_seqs.add(seq)
            failed.append(public)
        self.executor.fence_shard(shard_index)
        return failed, self._release()


def shard_block_counts(n_blocks: int, n_shards: int) -> list[int]:
    """Blocks per shard under striped partitioning."""
    return [len(range(i, n_blocks, n_shards)) for i in range(n_shards)]


def build_sharded_horam(
    n_blocks: int,
    mem_tree_blocks: int,
    n_shards: int = 2,
    payload_bytes: int = 16,
    modeled_block_bytes: int = 1024,
    seed: int = 0,
    lockstep: bool = True,
    trace: bool = False,
    storage_device=None,
    memory_device=None,
    executor: str = "serial",
    storage_backend: str = "memory",
    storage_dir=None,
    protocol: str = "horam",
    **config_kwargs,
) -> ShardedHORAM:
    """Factory mirroring :func:`~repro.core.horam.build_horam`.

    ``n_blocks`` and ``mem_tree_blocks`` are *global* budgets, split
    evenly across ``n_shards``; each shard's protocol randomness derives
    from ``seed`` via ``DeterministicRandom.spawn`` so the whole fleet
    replays deterministically.  ``executor="parallel"`` builds the same
    fleet inside dedicated worker processes (one per shard); the derived
    seeds and the striped ``initial_addr_map`` travel in the build specs,
    so the parallel fleet replays bit-identically to the serial one.

    ``protocol`` picks what runs inside each shard: any registered
    :class:`~repro.core.kernel.EngineKernel` protocol (see
    :func:`repro.oram.factory.shard_protocol_names`) stripes the same
    way H-ORAM does, because the coordinator only speaks the kernel's
    submit/step/drain surface.
    """
    from repro.oram.factory import shard_builder, shard_protocol_names

    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r} (valid: {', '.join(EXECUTORS)})"
        )
    if protocol not in shard_protocol_names():
        raise ValueError(
            f"unknown shard protocol {protocol!r} "
            f"(valid: {', '.join(shard_protocol_names())})"
        )
    counts = shard_block_counts(n_blocks, n_shards)
    if min(counts) <= 0:
        raise ValueError(
            f"n_blocks ({n_blocks}) must cover all {n_shards} shards"
        )
    mem_per_shard = mem_tree_blocks // n_shards
    bucket_size = config_kwargs.get("bucket_size", 4)
    if mem_per_shard < 2 * bucket_size:
        raise ValueError(
            f"mem_tree_blocks ({mem_tree_blocks}) split {n_shards} ways leaves "
            f"{mem_per_shard} blocks per shard; need at least {2 * bucket_size}"
        )
    if mem_per_shard >= min(counts):
        raise ValueError(
            f"per-shard memory ({mem_per_shard} blocks) must be smaller than "
            f"the smallest shard's address space ({min(counts)} blocks); "
            "use fewer shards or a larger n_blocks"
        )

    if storage_backend == "file" and storage_dir is None:
        raise ValueError("storage_backend='file' needs a storage_dir")

    shm_namespace = None
    if storage_backend == "shm":
        # One collision-resistant namespace per fleet: each shard's slab
        # segment derives its name from it, so the coordinator can reap a
        # killed worker's segment without asking the worker anything.
        from repro.storage.shm import make_segment_name

        shm_namespace = make_segment_name("fleet")

    def shard_path(index: int):
        if storage_backend == "shm":
            return f"{shm_namespace}-s{index}"
        if storage_backend != "file":
            return None
        import os

        return os.path.join(str(storage_dir), f"shard-{index}.slab")

    root = DeterministicRandom(seed)
    shard_seeds = [root.spawn(f"shard-{index}").next_word() for index in range(n_shards)]
    template = HORAMConfig(
        n_blocks=counts[0],
        mem_tree_blocks=mem_per_shard,
        payload_bytes=payload_bytes,
        modeled_block_bytes=modeled_block_bytes,
        seed=seed,
        **config_kwargs,
    )

    if executor == "parallel":
        specs = [
            ShardBuildSpec(
                index=index,
                n_shards=n_shards,
                n_blocks=counts[index],
                mem_tree_blocks=mem_per_shard,
                payload_bytes=payload_bytes,
                modeled_block_bytes=modeled_block_bytes,
                seed=shard_seeds[index],
                trace=trace,
                storage_device=storage_device,
                memory_device=memory_device,
                config_kwargs=dict(config_kwargs),
                storage_backend=storage_backend,
                storage_path=shard_path(index),
                protocol=protocol,
            )
            for index in range(n_shards)
        ]
        runtime = ParallelExecutor(specs)
        return ShardedHORAM(
            n_blocks=n_blocks, config=template, lockstep=lockstep, executor=runtime
        )

    builder = shard_builder(protocol)
    shards: list[HybridORAM] = []
    for index in range(n_shards):
        shards.append(
            builder(
                n_blocks=counts[index],
                mem_tree_blocks=mem_per_shard,
                payload_bytes=payload_bytes,
                modeled_block_bytes=modeled_block_bytes,
                seed=shard_seeds[index],
                trace=trace,
                storage_device=storage_device,
                memory_device=memory_device,
                initial_addr_map=lambda local, index=index: local * n_shards + index,
                storage_backend=storage_backend,
                storage_path=shard_path(index),
                **config_kwargs,
            )
        )
    return ShardedHORAM(shards, n_blocks=n_blocks, config=template, lockstep=lockstep)

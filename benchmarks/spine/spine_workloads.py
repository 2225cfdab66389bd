"""The four named workloads and the metric tables of the bench spine.

Names are fixed: later issues cite them.  Each workload pairs one stack
shape with one request stream so that the four together load different
layers (see README.md for the reasoning and the sizes relative to the
cache).  Stack seeds stay fixed; every stream and arrival seed derives
from the run's ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.horam import build_horam
from repro.crypto.random import DeterministicRandom
from repro.oram.base import OpKind, Request
from repro.testing.stacks import StackSpec, build_stack
from repro.workload.generators import WorkloadSpec, make_workload

#: Seed of every stack the spine builds (streams vary, stacks do not).
STACK_SEED = 23

#: ``--seconds`` at which the request counts below apply unscaled; it is
#: ``run_seconds`` in BENCHMARK.json.  Other values scale the counts
#: linearly, so work stays identical for a given ``--seconds``.
REFERENCE_SECONDS = 20

#: Requests outstanding in the closed loop (a device at queue depth 32).
CLOSED_DEPTH = 32
#: Admission bound of every server the spine starts; the gates demand
#: zero rejections under it.
MAX_INFLIGHT = 256


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``build_horam`` keyword arguments, or None for the supervised fleet.
    horam: dict | None
    #: request stream template (count and seed are filled per phase).
    stream: WorkloadSpec
    #: requests per engine / closed32 repetition and in the open phase, at
    #: REFERENCE_SECONDS.
    engine_count: int
    closed_count: int
    open_count: int
    #: open-loop Poisson rate: a quarter to four tenths of queue-depth-1
    #: capacity, and high enough that shuffle stalls catch well over 1 % of
    #: the requests (else p99 flips in and out of the stalled set).
    open_rate: float
    #: identical repetitions of the engine and closed32 phases per run.
    repetitions: int = 6
    tenants: int = 1
    #: writes carry this many random bytes instead of the generator's tag.
    write_bytes: int | None = None
    fleet: StackSpec | None = None

    @property
    def payload_bytes(self) -> int:
        return self.horam.get("payload_bytes", 16) if self.horam else 16


_FLEET = StackSpec(
    protocol="sharded",
    n_blocks=16384,
    mem_blocks=1024,
    n_shards=2,
    executor="parallel",
    supervised=True,
    checkpoint_every_ops=2000,
    storage_backend="shm",
    seed=STACK_SEED,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hot_fit",
            why="Working set (90 hot blocks) fits the 254-load cache period: few kernel "
            "cycles per request, so serve and multiuser layers dominate through the socket.",
            horam=dict(n_blocks=8192, mem_tree_blocks=512),
            stream=WorkloadSpec(
                kind="hotspot", n_blocks=8192, write_ratio=0.10, params={"hot_blocks": 90}
            ),
            engine_count=4400,
            closed_count=2000,
            open_count=2000,
            open_rate=250.0,
        ),
        Workload(
            name="uniform_large",
            why="Uniform over 65536 blocks, 128x the cache tree: one load per request and a "
            "shuffle every 254 cycles; shuffle, storage_layer and storage dominate, p99 is the stall.",
            horam=dict(n_blocks=65536, mem_tree_blocks=512),
            stream=WorkloadSpec(kind="uniform", n_blocks=65536, write_ratio=0.10),
            engine_count=520,
            closed_count=520,
            open_count=1050,
            open_rate=75.0,
            repetitions=4,
        ),
        Workload(
            name="block1k_write",
            why="1 KiB payloads, zipfian, 50% full-block writes: records leave the one-digest "
            "keystream path (crypto dominates) and frames carry 2 KiB of hex.",
            horam=dict(n_blocks=8192, mem_tree_blocks=512, payload_bytes=1024),
            stream=WorkloadSpec(kind="zipfian", n_blocks=8192, write_ratio=0.50),
            engine_count=480,
            closed_count=400,
            open_count=1000,
            open_rate=60.0,
            repetitions=4,
            write_bytes=1024,
        ),
        Workload(
            name="fleet_supervised",
            why="Two shard workers under a supervisor with shm slabs and 3 tenants: sharding, "
            "executor IPC, cadence checkpoints and tenant round-robin carry the cost.",
            horam=None,
            stream=WorkloadSpec(
                kind="hotspot", n_blocks=16384, write_ratio=0.25, params={"hot_blocks": 180}
            ),
            engine_count=4000,
            closed_count=800,
            open_count=1600,
            open_rate=100.0,
            tenants=3,
            fleet=_FLEET,
        ),
    )
}


def scaled(workload: Workload, seconds: float) -> Workload:
    """The workload with its request counts scaled to ``--seconds``."""
    factor = seconds / REFERENCE_SECONDS

    def scale(count: int) -> int:
        return max(1, int(round(count * factor)))

    return replace(
        workload,
        engine_count=scale(workload.engine_count),
        closed_count=scale(workload.closed_count),
        open_count=scale(workload.open_count),
    )


# ------------------------------------------------------------------ stacks
class Stack:
    """One live stack and the handles the phases need around it."""

    def __init__(self, workload: Workload):
        self._built = None
        #: the in-process kernel (single-stack workloads), else None
        self.kernel = None
        #: the FleetSupervisor (the fleet workload), else None
        self.supervisor = None
        if workload.fleet is None:
            self.kernel = build_horam(seed=STACK_SEED, **workload.horam)
            self.driver = self.kernel
            return
        self._built = build_stack(workload.fleet)
        self.supervisor = self._built.supervisor
        self.driver = self._built.driver

    @property
    def checkpointable(self):
        """What ``save_checkpoint`` takes: the fleet under a supervisor."""
        return self.supervisor.fleet if self.supervisor is not None else self.driver

    def close(self) -> None:
        if self._built is not None:
            self._built.cleanup()
        else:
            self.kernel.close()


# ----------------------------------------------------------------- streams
def make_stream(workload: Workload, phase: str, count: int, seed: int) -> "list[Request]":
    """The phase's request stream; a pure function of its arguments."""
    label = f"spine-{seed}-{workload.name}-{phase}"
    stream = make_workload(replace(workload.stream, count=count, seed=label))
    if workload.write_bytes is None:
        return stream
    rng = DeterministicRandom(label + "-payload")
    return [
        Request.write(request.addr, rng.token(workload.write_bytes))
        if request.op is OpKind.WRITE
        else request
        for request in stream
    ]


# ----------------------------------------------------------------- metrics
#: name -> (unit, better, bound); ``bound`` None marks an exact metric:
#: simulated or counted, so any difference between two same-seed runs of
#: the same commit is a change in behaviour, not noise.
#: What BENCHMARK.json gives the exact metrics for a bound: the driver
#: runs ten different seeds and wants their spread inside it.
EXACT_BOUND_ACROSS_SEEDS = 0.05

END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "engine_rps": ("req/s", "higher", 0.25),
    "serve_rps": ("req/s", "higher", 0.25),
    "serve_p50_ms": ("ms", "lower", 0.25),
    "serve_p99_ms": ("ms", "lower", 0.25),
    "sim_us_per_req": ("sim_us/req", "lower", None),
    "sim_io_bytes_per_req": ("bytes/req", "lower", None),
    "checkpoint_bytes": ("bytes", "lower", None),
    "peak_rss_mb": ("MiB", "lower", 0.10),
    "failed_share": ("ratio", "lower", None),
}

#: name -> (unit, better).  Times are self times (span minus child spans)
#: unless the README says otherwise.
PER_LAYER = {
    "serve.pump_s": ("s", "lower"),
    "serve.overhead_s": ("s", "lower"),
    "serve.overhead_us_per_req": ("us/req", "lower"),
    "serve.pump_calls": ("count", "lower"),
    "serve.reqs_per_pump": ("req/call", "higher"),
    "serve.frame_encode_us": ("us", "lower"),
    "serve.frame_decode_us": ("us", "lower"),
    "serve.frame_bytes_per_req": ("bytes/req", "lower"),
    "serve.rejected": ("count", "lower"),
    "serve.health_ms": ("ms", "lower"),
    "serve.loadgen_late_p99_ms": ("ms", "lower"),
    "serve.closed32_p50_ms": ("ms", "lower"),
    "serve.closed32_p99_ms": ("ms", "lower"),
    "multiuser.submit_s": ("s", "lower"),
    "kernel.cycles": ("count", "lower"),
    "kernel.cycles_per_req": ("cycles/req", "lower"),
    "kernel.us_per_cycle": ("us", "lower"),
    "kernel.self_s": ("s", "lower"),
    "kernel.scheduler_plan_s": ("s", "lower"),
    "kernel.dummy_hit_ratio": ("ratio", "lower"),
    "kernel.dummy_miss_ratio": ("ratio", "lower"),
    "cache_tree.hit_s": ("s", "lower"),
    "cache_tree.path_accesses": ("count", "lower"),
    "cache_tree.real_hit_share": ("ratio", "higher"),
    "cache_tree.stash_peak": ("count", "lower"),
    "cache_tree.evict_s": ("s", "lower"),
    "storage_layer.load_s": ("s", "lower"),
    "storage_layer.loads": ("count", "lower"),
    "storage_layer.prefetched_hits": ("count", "higher"),
    "storage_layer.dummy_pool_exhausted": ("count", "lower"),
    "storage_layer.shuffle_into_s": ("s", "lower"),
    "shuffle.periods": ("count", "lower"),
    "shuffle.wall_s": ("s", "lower"),
    "shuffle.max_stall_ms": ("ms", "lower"),
    "shuffle.sim_bytes_per_req": ("bytes/req", "lower"),
    "crypto.seal_s": ("s", "lower"),
    "crypto.open_s": ("s", "lower"),
    "crypto.records": ("count", "lower"),
    "crypto.ns_per_record": ("ns", "lower"),
    "crypto.engine_share": ("ratio", "lower"),
    "crypto.keystream_block_ns": ("ns", "lower"),
    "storage.io_calls": ("count", "lower"),
    "storage.io_s": ("s", "lower"),
    "storage.mem_calls": ("count", "lower"),
    "storage.mem_s": ("s", "lower"),
    "storage.sim_io_ops_per_req": ("ops/req", "lower"),
    "storage.sim_read_amp": ("ratio", "lower"),
    "storage.sim_write_amp": ("ratio", "lower"),
    "executor.step_s": ("s", "lower"),
    "executor.steps": ("count", "lower"),
    "executor.reqs_per_step": ("req/call", "higher"),
    "executor.shm_bytes_per_req": ("bytes/req", "lower"),
    "executor.inline_bytes": ("bytes", "lower"),
    "sharding.imbalance": ("ratio", "lower"),
    "supervisor.checkpoints": ("count", "lower"),
    "supervisor.checkpoint_s": ("s", "lower"),
    "checkpoint.save_ms": ("ms", "lower"),
    "checkpoint.restore_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.attributed_share": ("ratio", "higher"),
}

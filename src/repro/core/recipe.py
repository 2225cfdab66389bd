"""One stack recipe, one builder.

A stack -- one H-ORAM instance, a sharded fleet of them, or one of the
classic baselines (Path ORAM, the plain store) -- is fully set by a few
inputs: the geometry, the :class:`~repro.core.config.HORAMConfig` knobs,
the device models, a seed, the storage backing, and for a fleet its
shard count, executor and supervision knobs.  :class:`StackRecipe` holds
exactly those inputs, frozen and JSON-able, and :func:`build` is the
only code that turns one into a stack: it alone creates the record codec
and the :class:`~repro.storage.hierarchy.StorageHierarchy`.  Fresh
builds, checkpoint restores, a serial fleet's shard recovery and a
parallel worker's shard all go through it, and a checkpoint stores the
recipe verbatim.

A shard is ``(recipe, index)``: shard ``index`` of an ``n_shards``
fleet holds the striped addresses ``index, index + n_shards, ...``, an
even share of the memory budget, and a seed spawn-derived from the
recipe's, so a serial fleet and a parallel one built from the same
recipe hold bit-identical shards.  Slot counts and slot widths are not
inputs: :func:`build` derives them (H-ORAM states its storage footprint
through ``HybridORAM.required_storage_slots(config)``).
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields, replace

from repro.core.config import HORAMConfig
from repro.core.stages import StageSchedule
from repro.crypto.random import DeterministicRandom
from repro.oram.base import _make_codec
from repro.oram.insecure import PlainStore
from repro.oram.path_oram import PathORAM
from repro.oram.tree import TreeGeometry
from repro.storage.device import DeviceModel, ddr4_2133, hdd_paper, hdd_realistic, ssd_sata
from repro.storage.faults import degraded
from repro.storage.hierarchy import STORAGE_BACKENDS, StorageHierarchy
from repro.storage.shm import make_segment_name
from repro.storage.trace import TraceRecorder

#: Device models by name; a recipe names one of these or carries a
#: device by value.
DEVICES = {
    "hdd-paper": hdd_paper,
    "hdd-7200rpm": hdd_realistic,
    "ssd-sata": ssd_sata,
    "ddr4-2133": ddr4_2133,
    "hdd-degraded": lambda: degraded(hdd_paper(), 4.0),
    "ssd-degraded": lambda: degraded(ssd_sata(), 4.0),
}

#: The classic baselines the paper measures H-ORAM against.
CLASSIC_BASELINES = ("path", "plain")

#: Every protocol a recipe may name.
PROTOCOLS = ("horam", "sharded", *CLASSIC_BASELINES)

#: The :class:`HORAMConfig` knobs each classic baseline would drop; a
#: recipe that sets one away from its default is refused.
_KERNEL_KNOBS = (
    "stages",
    "prefetch_window",
    "shuffle_algorithm",
    "shuffle_period_ratio",
    "overlap_io",
)
_DROPPED_KNOBS = {"path": _KERNEL_KNOBS, "plain": (*_KERNEL_KNOBS, "bucket_size", "stash_limit")}

#: Fleet runtimes (see :mod:`repro.core.executor`).
EXECUTORS = ("serial", "parallel")

_PAPER_STAGES = tuple(tuple(stage) for stage in StageSchedule.paper_default().to_pairs())


def shard_block_counts(n_blocks: int, n_shards: int) -> "list[int]":
    """Blocks per shard under striped partitioning."""
    return [len(range(i, n_blocks, n_shards)) for i in range(n_shards)]


def _build_field(default):
    """A field the harness rarely sets: :meth:`StackRecipe.to_dict` writes
    it only when it differs from ``default``."""
    return field(default=default, metadata={"build": True})


def _canonical_device(value):
    """A device as a recipe keeps it: a :data:`DEVICES` name, or a plain
    :class:`DeviceModel` by value when no name builds an equal one."""
    if isinstance(value, dict):
        value = DeviceModel(**value)
    if isinstance(value, DeviceModel):
        plain = DeviceModel(**asdict(value))
        for name, make in DEVICES.items():
            if DeviceModel(**asdict(make())) == plain:
                return name
        return plain
    if value not in DEVICES:
        raise ValueError(f"unknown device {value!r} (valid: {', '.join(sorted(DEVICES))})")
    return value


def _make_device(value) -> DeviceModel:
    return DEVICES[value]() if isinstance(value, str) else value


@dataclass(frozen=True)
class StackRecipe:
    """Every input one stack is built from (frozen, JSON-able).

    ``device`` is the storage tier's device model, ``mem_blocks`` the
    memory tier's budget in blocks (the cache tree's for H-ORAM, the
    cached tree top's for Path ORAM).  ``storage_path`` is
    the slab file of a single ``file``-backed stack, the slab directory
    of a ``file``-backed fleet, or the segment name (prefix, for a fleet)
    of an ``shm`` one.  ``users`` and the supervision knobs are read by
    the harness that wraps the built stack
    (:func:`repro.testing.stacks.build_stack`).
    """

    protocol: str = "horam"
    n_blocks: int = 512
    mem_blocks: int = 128
    n_shards: int = 1
    users: int = 0  # 0 = no multi-user front end
    device: "str | DeviceModel" = "hdd-paper"
    seed: int = 0
    lockstep: bool = True
    #: fleet runtime: "serial" (in-process) or "parallel" (process per shard).
    executor: str = "serial"
    #: storage-tier backing: "memory", "file" (a durable slab) or "shm"
    #: (a POSIX shared-memory segment, unlinked when the stack closes).
    storage_backend: str = "memory"
    #: wrap the fleet in a :class:`~repro.core.supervisor.FleetSupervisor`.
    supervised: bool = False
    checkpoint_every_ops: int = 64
    max_restarts: int = 2
    keep_checkpoints: int = 3
    heartbeat_timeout_s: float = 30.0
    memory_device: "str | DeviceModel" = _build_field("ddr4-2133")
    storage_path: "str | None" = _build_field(None)
    payload_bytes: int = _build_field(16)
    modeled_block_bytes: int = _build_field(1024)
    #: MAC every record (H-ORAM only).
    integrity: bool = _build_field(False)
    trace: bool = _build_field(False)
    # The HORAMConfig knobs (``bucket_size`` and ``stash_limit`` also set
    # Path ORAM's tree and stash).
    bucket_size: int = _build_field(4)
    stages: "tuple[tuple[int, float], ...]" = _build_field(_PAPER_STAGES)
    prefetch_window: "int | None" = _build_field(None)
    shuffle_algorithm: str = _build_field("cache")
    shuffle_period_ratio: int = _build_field(1)
    overlap_io: bool = _build_field(True)
    stash_limit: "int | None" = _build_field(None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "device", _canonical_device(self.device))
        object.__setattr__(self, "memory_device", _canonical_device(self.memory_device))
        stages = self.stages
        if isinstance(stages, StageSchedule):
            stages = stages.to_pairs()
        object.__setattr__(self, "stages", tuple(tuple(stage) for stage in stages))
        if self.storage_path is not None:
            object.__setattr__(self, "storage_path", os.fspath(self.storage_path))

        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r} (valid: {', '.join(PROTOCOLS)})"
            )
        batched = self.protocol in ("horam", "sharded")
        if self.users and not batched:
            raise ValueError("the multi-user front end needs a batched back end")
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r} (valid: {', '.join(EXECUTORS)})"
            )
        if self.protocol != "sharded":
            if self.executor == "parallel":
                raise ValueError("the parallel executor runs sharded stacks only")
            if self.n_shards != 1:
                raise ValueError(f"n_shards={self.n_shards} applies to sharded stacks only")
            if self.supervised:
                raise ValueError("supervision wraps sharded stacks only")
        if self.storage_backend not in STORAGE_BACKENDS:
            raise ValueError(
                f"unknown storage backend {self.storage_backend!r} "
                f"(valid: {', '.join(STORAGE_BACKENDS)})"
            )
        if self.storage_backend != "memory" and not batched:
            raise ValueError(
                f"the {self.storage_backend} storage backend runs horam/sharded stacks only"
            )
        if self.supervised and self.users:
            raise ValueError("supervised stacks do not take the multi-user front end")
        if self.integrity and self.protocol != "horam":
            raise ValueError("integrity applies to horam stacks only")
        for spec in fields(self):
            if spec.name in _DROPPED_KNOBS.get(self.protocol, ()) and (
                getattr(self, spec.name) != spec.default
            ):
                raise ValueError(f"{spec.name} does not apply to the {self.protocol} baseline")
        if self.protocol == "sharded":
            self._check_fleet()

    def _check_fleet(self) -> None:
        if self.n_shards < 1:
            raise ValueError("a fleet needs at least one shard (n_shards >= 1)")
        smallest = min(shard_block_counts(self.n_blocks, self.n_shards))
        if smallest <= 0:
            raise ValueError(f"n_blocks ({self.n_blocks}) must cover all {self.n_shards} shards")
        mem_per_shard = self.mem_blocks // self.n_shards
        if mem_per_shard < 2 * self.bucket_size:
            raise ValueError(
                f"mem_tree_blocks ({self.mem_blocks}) split {self.n_shards} ways leaves "
                f"{mem_per_shard} blocks per shard; need at least {2 * self.bucket_size}"
            )
        if mem_per_shard >= smallest:
            raise ValueError(
                f"per-shard memory ({mem_per_shard} blocks) must be smaller than "
                f"the smallest shard's address space ({smallest} blocks); "
                "use fewer shards or a larger n_blocks"
            )

    # ------------------------------------------------------------ derived
    def kernel_config(self, index: "int | None" = None) -> HORAMConfig:
        """The H-ORAM configuration of a ``horam`` recipe, or of shard
        ``index`` of a fleet recipe (its stripe, memory share and seed)."""
        n_blocks, mem_blocks, seed = self.n_blocks, self.mem_blocks, self.seed
        if index is not None:
            n_blocks = shard_block_counts(self.n_blocks, self.n_shards)[index]
            mem_blocks //= self.n_shards
            seed = DeterministicRandom(seed).spawn(f"shard-{index}").next_word()
        knobs = {
            spec.name: getattr(self, spec.name)
            for spec in fields(HORAMConfig)
            if spec.name not in ("n_blocks", "mem_tree_blocks", "seed", "stages")
        }
        return HORAMConfig(
            n_blocks=n_blocks,
            mem_tree_blocks=mem_blocks,
            seed=seed,
            stages=StageSchedule(self.stages),
            **knobs,
        )

    def shard_storage_path(self, index: int) -> "str | None":
        """Where shard ``index`` of a fleet keeps its slab."""
        if self.storage_backend == "file":
            return os.path.join(self.storage_path, f"shard-{index}.slab")
        if self.storage_backend == "shm":
            return f"{self.storage_path}-s{index}"
        return None

    def label(self) -> str:
        name = self.protocol
        if self.protocol == "sharded":
            name += f"x{self.n_shards}"
        if self.executor == "parallel":
            name += "-par"
        if self.storage_backend == "file":
            name += "-durable"
        if self.storage_backend == "shm":
            name += "-shm"
        if self.supervised:
            name += "+sup"
        if self.users:
            name += f"+mu{self.users}"
        device = self.device if isinstance(self.device, str) else self.device.name
        return f"{name}@{device}"

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON form: every harness field, and each build field that
        differs from its default; :meth:`from_dict` inverts it exactly."""
        data = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.metadata.get("build") and value == spec.default:
                continue
            if isinstance(value, DeviceModel):
                value = asdict(value)
            elif spec.name == "stages":
                value = [list(stage) for stage in value]
            data[spec.name] = value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "StackRecipe":
        unknown = set(data) - {spec.name for spec in fields(cls)}
        if unknown:
            raise ValueError(f"unknown recipe field(s): {', '.join(sorted(unknown))}")
        return cls(**data)


# ---------------------------------------------------------------------------
# The builder
# ---------------------------------------------------------------------------
def build(recipe: StackRecipe, image=None):
    """The stack ``recipe`` describes: fresh, or straight from ``image``.

    ``image`` is a checkpoint payload -- one H-ORAM's ``(state, blobs)``,
    or a list of them, one per shard, for a fleet -- loaded in place of
    the initial image, so a restore seals nothing and draws no initial
    permutation.  The stack keeps what it was built from as
    ``stack.recipe`` (an ``shm`` stack's generated segment name filled
    in); that is what its checkpoint stores.  Classic baselines build
    fresh only (:mod:`repro.core.checkpoint` loads their state after).
    """
    if recipe.storage_path is None:
        if recipe.storage_backend == "file":
            raise ValueError("storage_backend='file' needs a storage_path")
        if recipe.storage_backend == "shm":
            # One collision-resistant name per stack: a fleet's shard
            # segments derive theirs from it, so the coordinator can reap
            # a killed worker's slab without asking the worker.
            label = "fleet" if recipe.protocol == "sharded" else "storage"
            recipe = replace(recipe, storage_path=make_segment_name(label))
    if recipe.protocol == "sharded":
        from repro.core.executor import ParallelExecutor, SerialExecutor
        from repro.core.sharding import ShardedHORAM

        runtime = ParallelExecutor if recipe.executor == "parallel" else SerialExecutor
        return ShardedHORAM(recipe, runtime(recipe, image))
    if recipe.protocol == "horam":
        stack = build_kernel(recipe, image=image)
    elif image is not None:
        raise ValueError(f"the {recipe.protocol} baseline is built fresh only")
    else:
        stack = _build_baseline(recipe)
    stack.recipe = recipe
    return stack


def build_kernel(recipe: StackRecipe, index: "int | None" = None, image=None):
    """The :class:`~repro.core.horam.HybridORAM` of a ``horam`` recipe, or
    shard ``index`` of a fleet recipe; ``image`` is a ``(state, blobs)``
    checkpoint payload."""
    # Local: repro.core.horam imports this module for build_horam.
    from repro.core.horam import HybridORAM

    if index is None:
        storage_path, stripe = recipe.storage_path, (1, 0)
    else:
        storage_path, stripe = recipe.shard_storage_path(index), (recipe.n_shards, index)

    config = recipe.kernel_config(index)
    codec = _make_codec(config.payload_bytes, config.seed, integrity=recipe.integrity)
    hierarchy = _hierarchy(
        recipe,
        codec,
        memory_slots=config.mem_tree_blocks,
        storage_slots=HybridORAM.required_storage_slots(config),
        storage_path=storage_path,
    )
    return HybridORAM(config, hierarchy, codec=codec, stripe=stripe, image=image)


def _hierarchy(recipe, codec, memory_slots, storage_slots, storage_path=None):
    return StorageHierarchy(
        memory_slots=memory_slots,
        storage_slots=storage_slots,
        slot_bytes=codec.slot_bytes,
        modeled_slot_bytes=recipe.modeled_block_bytes,
        memory_device=_make_device(recipe.memory_device),
        storage_device=_make_device(recipe.device),
        trace=TraceRecorder() if recipe.trace else TraceRecorder(capacity=0),
        storage_backend=recipe.storage_backend,
        storage_path=storage_path,
    )


def _build_baseline(recipe: StackRecipe):
    """One classic baseline on a hierarchy sized for it."""
    name, n_blocks, seed = recipe.protocol, recipe.n_blocks, recipe.seed
    codec = _make_codec(recipe.payload_bytes, seed)
    if name == "path":
        z = recipe.bucket_size
        geometry = TreeGeometry.for_real_blocks(n_blocks, z)
        mem_buckets = (1 << PathORAM._mem_levels_for_budget(geometry, recipe.mem_blocks)) - 1
        hierarchy = _hierarchy(
            recipe, codec, mem_buckets * z, max(1, (geometry.buckets - mem_buckets) * z)
        )
        stack = PathORAM(
            n_blocks=n_blocks,
            memory_blocks=recipe.mem_blocks,
            codec=codec,
            memory_store=hierarchy.memory,
            storage_store=hierarchy.storage,
            clock=hierarchy.clock,
            bucket_size=z,
            stash_limit=recipe.stash_limit,
            rng=DeterministicRandom(seed).spawn("path-oram"),
        )
    else:
        hierarchy = _hierarchy(recipe, codec, 1, n_blocks)
        stack = PlainStore(
            n_blocks=n_blocks, codec=codec, storage_store=hierarchy.storage, clock=hierarchy.clock
        )
    stack.hierarchy = hierarchy
    return stack


def recipe_from_kwargs(
    protocol: str,
    n_blocks: int,
    mem_blocks: "int | None" = None,
    storage_device=None,
    memory_device=None,
    **fields_,
) -> StackRecipe:
    """A recipe from the keyword surface the ``build_*`` wrappers share:
    devices as ``storage_device`` / ``memory_device`` objects, and None
    for any of the three optional arguments keeps the recipe default."""
    if mem_blocks is not None:
        fields_["mem_blocks"] = mem_blocks
    if storage_device is not None:
        fields_["device"] = storage_device
    if memory_device is not None:
        fields_["memory_device"] = memory_device
    return StackRecipe(protocol=protocol, n_blocks=n_blocks, **fields_)

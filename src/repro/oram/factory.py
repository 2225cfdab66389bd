"""Factories that pair each protocol with a correctly sized hierarchy.

Each ``build_*`` function computes the store geometry its protocol needs,
creates a :class:`~repro.storage.hierarchy.StorageHierarchy` on the chosen
device profiles, and returns the ready protocol instance.  They mirror
:func:`repro.core.horam.build_horam` so experiments construct every scheme
the same way; the shared codec/hierarchy/build-info boilerplate lives in
:func:`_build_common`.
"""

from __future__ import annotations

from repro.core.config import HORAMConfig
from repro.crypto.random import DeterministicRandom
from repro.oram.base import _make_codec
from repro.oram.bios import BiosORAM
from repro.oram.insecure import PlainStore
from repro.oram.partition import PartitionORAM
from repro.oram.path_oram import PathORAM
from repro.oram.square_root import SquareRootORAM
from repro.oram.succinct_hier import SuccinctHierORAM
from repro.oram.tree import TreeGeometry
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.trace import TraceRecorder


def _make_hierarchy(
    memory_slots: int,
    storage_slots: int,
    slot_bytes: int,
    modeled_block_bytes: int,
    memory_device,
    storage_device,
    trace: bool,
    storage_backend: str = "memory",
    storage_path=None,
) -> StorageHierarchy:
    return StorageHierarchy(
        memory_slots=memory_slots,
        storage_slots=storage_slots,
        slot_bytes=slot_bytes,
        modeled_slot_bytes=modeled_block_bytes,
        memory_device=memory_device,
        storage_device=storage_device,
        trace=TraceRecorder() if trace else TraceRecorder(capacity=0),
        storage_backend=storage_backend,
        storage_path=storage_path,
    )


def _build_common(
    memory_slots: int,
    storage_slots: int,
    *,
    payload_bytes: int,
    modeled_block_bytes: int,
    seed: int,
    memory_device,
    storage_device,
    trace: bool,
    storage_backend: str = "memory",
    storage_path=None,
):
    """The boilerplate every builder shares: ``(codec, hierarchy)``.

    The four legacy baselines also attach ``_build_info`` -- the recipe
    ``core.checkpoint`` rebuilds them from; kernel protocols checkpoint
    through their own config and need none.
    """
    codec = _make_codec(payload_bytes, seed)
    hierarchy = _make_hierarchy(
        memory_slots=memory_slots,
        storage_slots=storage_slots,
        slot_bytes=codec.slot_bytes,
        modeled_block_bytes=modeled_block_bytes,
        memory_device=memory_device,
        storage_device=storage_device,
        trace=trace,
        storage_backend=storage_backend,
        storage_path=storage_path,
    )
    return codec, hierarchy


def build_path_oram(
    n_blocks: int,
    memory_blocks: int,
    payload_bytes: int = 16,
    modeled_block_bytes: int = 1024,
    bucket_size: int = 4,
    seed: int = 0,
    memory_device=None,
    storage_device=None,
    trace: bool = False,
) -> PathORAM:
    """The tree-top-cached baseline on its own hierarchy."""
    geometry = TreeGeometry.for_real_blocks(n_blocks, bucket_size)
    mem_levels = PathORAM._mem_levels_for_budget(geometry, memory_blocks)
    mem_buckets = (1 << mem_levels) - 1
    codec, hierarchy = _build_common(
        memory_slots=mem_buckets * bucket_size,
        storage_slots=max(1, (geometry.buckets - mem_buckets) * bucket_size),
        payload_bytes=payload_bytes,
        modeled_block_bytes=modeled_block_bytes,
        seed=seed,
        memory_device=memory_device,
        storage_device=storage_device,
        trace=trace,
    )
    oram = PathORAM(
        n_blocks=n_blocks,
        memory_blocks=memory_blocks,
        codec=codec,
        memory_store=hierarchy.memory,
        storage_store=hierarchy.storage,
        clock=hierarchy.clock,
        bucket_size=bucket_size,
        rng=DeterministicRandom(seed).spawn("path-oram"),
    )
    oram.hierarchy = hierarchy
    oram._build_info = {
        "baseline": "path",
        "args": dict(
            n_blocks=n_blocks,
            memory_blocks=memory_blocks,
            payload_bytes=payload_bytes,
            modeled_block_bytes=modeled_block_bytes,
            bucket_size=bucket_size,
            seed=seed,
            memory_device=memory_device,
            storage_device=storage_device,
            trace=trace,
        ),
    }
    return oram


def build_square_root(
    n_blocks: int,
    payload_bytes: int = 16,
    modeled_block_bytes: int = 1024,
    seed: int = 0,
    memory_device=None,
    storage_device=None,
    trace: bool = False,
) -> SquareRootORAM:
    """The classic sqrt(N) scheme on its own hierarchy."""
    memory_slots, storage_slots = SquareRootORAM.required_slots(n_blocks)
    codec, hierarchy = _build_common(
        memory_slots=memory_slots,
        storage_slots=storage_slots,
        payload_bytes=payload_bytes,
        modeled_block_bytes=modeled_block_bytes,
        seed=seed,
        memory_device=memory_device,
        storage_device=storage_device,
        trace=trace,
    )
    oram = SquareRootORAM(
        n_blocks=n_blocks,
        codec=codec,
        memory_store=hierarchy.memory,
        storage_store=hierarchy.storage,
        clock=hierarchy.clock,
        rng=DeterministicRandom(seed).spawn("sqrt-oram"),
    )
    oram.hierarchy = hierarchy
    oram._build_info = {
        "baseline": "sqrt",
        "args": dict(
            n_blocks=n_blocks,
            payload_bytes=payload_bytes,
            modeled_block_bytes=modeled_block_bytes,
            seed=seed,
            memory_device=memory_device,
            storage_device=storage_device,
            trace=trace,
        ),
    }
    return oram


def build_plain(
    n_blocks: int,
    payload_bytes: int = 16,
    modeled_block_bytes: int = 1024,
    seed: int = 0,
    memory_device=None,
    storage_device=None,
    trace: bool = False,
) -> PlainStore:
    """The unprotected baseline (encrypted, pattern-leaking)."""
    codec, hierarchy = _build_common(
        memory_slots=1,
        storage_slots=n_blocks,
        payload_bytes=payload_bytes,
        modeled_block_bytes=modeled_block_bytes,
        seed=seed,
        memory_device=memory_device,
        storage_device=storage_device,
        trace=trace,
    )
    store = PlainStore(
        n_blocks=n_blocks,
        codec=codec,
        storage_store=hierarchy.storage,
        clock=hierarchy.clock,
    )
    store.hierarchy = hierarchy
    store._build_info = {
        "baseline": "plain",
        "args": dict(
            n_blocks=n_blocks,
            payload_bytes=payload_bytes,
            modeled_block_bytes=modeled_block_bytes,
            seed=seed,
            memory_device=memory_device,
            storage_device=storage_device,
            trace=trace,
        ),
    }
    return store


def build_partition(
    n_blocks: int,
    payload_bytes: int = 16,
    modeled_block_bytes: int = 1024,
    seed: int = 0,
    evict_rate: int | None = None,
    memory_device=None,
    storage_device=None,
    trace: bool = False,
) -> PartitionORAM:
    """The partition-ORAM baseline on its own hierarchy."""
    storage_slots = PartitionORAM.required_slots(n_blocks, evict_rate=evict_rate)
    codec, hierarchy = _build_common(
        memory_slots=max(1, storage_slots // max(1, n_blocks)),  # shuffle buffer only
        storage_slots=storage_slots,
        payload_bytes=payload_bytes,
        modeled_block_bytes=modeled_block_bytes,
        seed=seed,
        memory_device=memory_device,
        storage_device=storage_device,
        trace=trace,
    )
    oram = PartitionORAM(
        n_blocks=n_blocks,
        codec=codec,
        storage_store=hierarchy.storage,
        clock=hierarchy.clock,
        rng=DeterministicRandom(seed).spawn("partition-oram"),
        evict_rate=evict_rate,
        memory_store=hierarchy.memory,
    )
    oram.hierarchy = hierarchy
    oram._build_info = {
        "baseline": "partition",
        "args": dict(
            n_blocks=n_blocks,
            payload_bytes=payload_bytes,
            modeled_block_bytes=modeled_block_bytes,
            seed=seed,
            evict_rate=evict_rate,
            memory_device=memory_device,
            storage_device=storage_device,
            trace=trace,
        ),
    }
    return oram


def build_succinct_hier(
    n_blocks: int,
    memory_blocks: int,
    payload_bytes: int = 16,
    modeled_block_bytes: int = 1024,
    seed: int = 0,
    memory_device=None,
    storage_device=None,
    trace: bool = False,
    initial_addr_map=None,
    storage_backend: str = "memory",
    storage_path=None,
    image=None,
    **config_kwargs,
) -> SuccinctHierORAM:
    """Single-round-trip hierarchical ORAM on the engine kernel."""
    config = HORAMConfig(
        n_blocks=n_blocks,
        mem_tree_blocks=memory_blocks,
        payload_bytes=payload_bytes,
        modeled_block_bytes=modeled_block_bytes,
        seed=seed,
        **config_kwargs,
    )
    codec, hierarchy = _build_common(
        memory_slots=memory_blocks,
        storage_slots=SuccinctHierORAM.required_storage_slots(config),
        payload_bytes=payload_bytes,
        modeled_block_bytes=modeled_block_bytes,
        seed=seed,
        memory_device=memory_device,
        storage_device=storage_device,
        trace=trace,
        storage_backend=storage_backend,
        storage_path=storage_path,
    )
    return SuccinctHierORAM(
        config, hierarchy, codec=codec, initial_addr_map=initial_addr_map, image=image
    )


def build_bios(
    n_blocks: int,
    memory_blocks: int,
    payload_bytes: int = 16,
    modeled_block_bytes: int = 1024,
    seed: int = 0,
    bucket_slots: int = 4,
    ways: int = 2,
    memory_device=None,
    storage_device=None,
    trace: bool = False,
    initial_addr_map=None,
    storage_backend: str = "memory",
    storage_path=None,
    image=None,
    **config_kwargs,
) -> BiosORAM:
    """BIOS-style parameterized outsourced storage on the engine kernel."""
    config = HORAMConfig(
        n_blocks=n_blocks,
        mem_tree_blocks=memory_blocks,
        payload_bytes=payload_bytes,
        modeled_block_bytes=modeled_block_bytes,
        seed=seed,
        **config_kwargs,
    )
    codec, hierarchy = _build_common(
        memory_slots=memory_blocks,
        storage_slots=BiosORAM.required_storage_slots(
            config, bucket_slots=bucket_slots, ways=ways
        ),
        payload_bytes=payload_bytes,
        modeled_block_bytes=modeled_block_bytes,
        seed=seed,
        memory_device=memory_device,
        storage_device=storage_device,
        trace=trace,
        storage_backend=storage_backend,
        storage_path=storage_path,
    )
    return BiosORAM(
        config,
        hierarchy,
        codec=codec,
        initial_addr_map=initial_addr_map,
        image=image,
        bucket_slots=bucket_slots,
        ways=ways,
    )


#: Baseline protocols by short name (the conformance matrix iterates this).
BASELINES = {
    "path": build_path_oram,
    "sqrt": build_square_root,
    "partition": build_partition,
    "plain": build_plain,
    "succinct": build_succinct_hier,
    "bios": build_bios,
}

#: Names whose builder takes a ``memory_blocks`` budget.
_NEEDS_MEMORY = ("path", "succinct", "bios")

#: Kernel-backed protocols the sharded fleet can stripe across shards.
_KERNEL_BUILDERS = {
    "succinct": build_succinct_hier,
    "bios": build_bios,
}


def baseline_names() -> list[str]:
    """The valid :func:`build_baseline` names, sorted."""
    return sorted(BASELINES)


def shard_protocol_names() -> list[str]:
    """Protocols the sharded fleet can run per shard, sorted."""
    return sorted(["horam", *_KERNEL_BUILDERS])


def shard_builder(name: str):
    """A ``build_horam``-signature builder for one shard protocol.

    The sharded fleet (and the parallel executor's workers) build shards
    through this: same keyword surface as
    :func:`repro.core.horam.build_horam`, including ``mem_tree_blocks``
    and ``initial_addr_map`` striping.
    """
    if name == "horam":
        from repro.core.horam import build_horam

        return build_horam
    try:
        builder = _KERNEL_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown shard protocol {name!r} "
            f"(valid: {', '.join(shard_protocol_names())})"
        ) from None

    def build(n_blocks, mem_tree_blocks, **kwargs):
        return builder(n_blocks, memory_blocks=mem_tree_blocks, **kwargs)

    return build


def build_baseline(
    name: str,
    n_blocks: int,
    memory_blocks: int | None = None,
    **kwargs,
):
    """Build any baseline by name with one normalized signature.

    Only the schemes in ``_NEEDS_MEMORY`` take a memory budget; for the
    others ``memory_blocks`` is accepted and ignored so callers can sweep
    one geometry across every scheme.
    """
    try:
        builder = BASELINES[name]
    except KeyError:
        raise ValueError(
            f"unknown baseline {name!r} (valid: {', '.join(baseline_names())})"
        ) from None
    if name in _NEEDS_MEMORY:
        if memory_blocks is None:
            raise ValueError(f"{name} baseline needs memory_blocks")
        return builder(n_blocks, memory_blocks, **kwargs)
    return builder(n_blocks, **kwargs)

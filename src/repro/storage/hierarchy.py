"""The two-tier hierarchy of Figure 3-1: fast memory over slow storage.

:class:`StorageHierarchy` bundles a memory-tier :class:`BlockStore` and a
storage-tier :class:`BlockStore` over one :class:`~repro.sim.clock.SimClock`
and one :class:`~repro.storage.trace.TraceRecorder`, plus the two overlap
channels (memory bus, I/O bus) H-ORAM's scheduler uses.

The constructor takes tier geometry in *blocks* so protocol code reads like
the paper ("n blocks in memory, N in storage"); byte capacities derive from
the modeled block size.
"""

from __future__ import annotations

from repro.sim.clock import Channel, SimClock
from repro.storage.backend import BlockStore
from repro.storage.device import DeviceModel, ddr4_2133, hdd_paper
from repro.storage.trace import TraceRecorder

#: Storage-tier backings a hierarchy can mount.
STORAGE_BACKENDS = ("memory", "file", "shm")


class StorageHierarchy:
    """Memory tier + storage tier sharing a clock, trace and bus channels.

    ``storage_backend="file"`` mounts the storage tier on a durable
    memory-mapped slab at ``storage_path`` (see
    :class:`~repro.storage.durable.DurableBlockStore`);
    ``storage_backend="shm"`` mounts it on a POSIX shared-memory segment
    named by ``storage_path`` (auto-generated when omitted; see
    :class:`~repro.storage.shm.SharedMemoryBlockStore`), which other
    processes can attach zero-copy.  The memory tier models DRAM and
    always stays process-private.
    """

    def __init__(
        self,
        memory_slots: int,
        storage_slots: int,
        slot_bytes: int,
        modeled_slot_bytes: int | None = None,
        memory_device: DeviceModel | None = None,
        storage_device: DeviceModel | None = None,
        trace: TraceRecorder | None = None,
        storage_backend: str = "memory",
        storage_path=None,
    ):
        if storage_backend not in STORAGE_BACKENDS:
            raise ValueError(
                f"unknown storage backend {storage_backend!r} "
                f"(valid: {', '.join(STORAGE_BACKENDS)})"
            )
        if storage_backend == "file" and storage_path is None:
            raise ValueError("storage_backend='file' needs a storage_path")
        if storage_backend == "shm" and storage_path is None:
            from repro.storage.shm import make_segment_name

            storage_path = make_segment_name("storage")
        self.storage_backend = storage_backend
        self.storage_path = str(storage_path) if storage_path is not None else None
        self.clock = SimClock()
        self.trace = trace if trace is not None else TraceRecorder()
        self.memory = BlockStore(
            name="memory",
            tier="memory",
            slots=memory_slots,
            slot_bytes=slot_bytes,
            device=memory_device or ddr4_2133(),
            modeled_slot_bytes=modeled_slot_bytes,
            trace=self.trace,
            clock=self.clock,
        )
        storage_kwargs = dict(
            name="storage",
            tier="storage",
            slots=storage_slots,
            slot_bytes=slot_bytes,
            device=storage_device or hdd_paper(),
            modeled_slot_bytes=modeled_slot_bytes,
            trace=self.trace,
            clock=self.clock,
        )
        if storage_backend == "file":
            from repro.storage.durable import DurableBlockStore

            self.storage = DurableBlockStore(self.storage_path, **storage_kwargs)
        elif storage_backend == "shm":
            from repro.storage.shm import SharedMemoryBlockStore

            self.storage = SharedMemoryBlockStore(self.storage_path, **storage_kwargs)
        else:
            self.storage = BlockStore(**storage_kwargs)
        self.memory_channel = Channel("memory-bus")
        self.io_channel = Channel("io-bus")

    def close(self) -> None:
        """Close both tiers; idempotent.  Each drops its slot array (a
        ``file`` slab is flushed and unmapped first, an ``shm`` segment
        unmapped and unlinked); the clock, the trace and every store's
        counters stay readable."""
        self.memory.close()
        self.storage.close()

    @property
    def slot_bytes(self) -> int:
        return self.memory.slot_bytes

    @property
    def modeled_slot_bytes(self) -> int:
        return self.memory.modeled_slot_bytes

    def mark(self, label: str) -> None:
        """Emit a public period marker into the trace."""
        self.trace.mark(label, self.clock.now_us)

    def describe(self) -> dict:
        """Geometry/summary dict used in experiment headers (Table 5-2 style)."""
        return {
            "storage_backend": self.storage_backend,
            "memory_device": self.memory.device.name,
            "storage_device": self.storage.device.name,
            "memory_capacity_bytes": self.memory.capacity_bytes,
            "storage_capacity_bytes": self.storage.capacity_bytes,
            "modeled_block_bytes": self.modeled_slot_bytes,
            "storage_read_mb_s": self.storage.device.read_mb_per_s,
            "storage_write_mb_s": self.storage.device.write_mb_per_s,
        }

"""POSIX shared-memory block stores: the zero-copy cross-process slab.

:class:`SharedMemoryBlockStore` keeps its slot array in a
``multiprocessing.shared_memory`` segment instead of a process-private
``bytearray``, so a shard slab built inside a
:class:`~repro.core.executor.ParallelExecutor` worker is the *same
physical pages* in every process that attaches the segment -- workers
read and write blocks zero-copy and the coordinator can ship indexes and
lengths over IPC instead of whole pickled payloads.

Design constraints (mirroring :class:`~repro.storage.durable.DurableBlockStore`):

* **identical hot path** -- the segment's buffer supports the same
  slicing, ``memoryview`` and buffer-assignment operations as the
  ``bytearray`` it replaces, so every :class:`BlockStore` method
  (including the zero-copy ``read_run_view``/``peek_run`` companions)
  runs unchanged and a shm-backed store is bit-identical in behavior,
  timing and trace to an in-memory one built from the same seed;
* **simulated timing stays simulated** -- the device model still charges
  for the *modeled* device; shared memory is the transport mechanism,
  not the timing model;
* **no leaked segments** -- :meth:`close` unlinks the segment (a shm
  slab's lifetime is its store's lifetime; there is no durability claim
  to honor, checkpoint restore rebuilds stores and re-imports their
  contents), and :func:`unlink_segment` lets a coordinator reap the slab
  of a worker that was killed before it could close.  One shared
  ``resource_tracker`` serves the whole (forked) process tree, so the
  interpreter reaps anything that still slips through at exit.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory

from repro.storage.backend import BlockStore
from repro.storage.device import DeviceModel
from repro.storage.trace import TraceRecorder

#: Every segment this repository creates carries this prefix, so tests
#: (and operators) can enumerate leftovers without guessing.
SEGMENT_PREFIX = "horam-shm-"

#: Where the kernel exposes POSIX shared memory segments as files.
_SHM_DIR = "/dev/shm"


class SegmentError(Exception):
    """A shared-memory segment failed validation."""


def make_segment_name(label: str) -> str:
    """A collision-resistant segment name: prefix + pid + random token.

    Segment names are process-global on the host, so two concurrently
    running fleets must not guess each other's names; the pid plus a
    random token keeps independent builds apart while the fixed
    :data:`SEGMENT_PREFIX` keeps them enumerable.  The pid is padded to
    eight hex digits, so a name's length -- and the size of every
    checkpoint manifest that records it -- does not depend on the pid.
    """
    return f"{SEGMENT_PREFIX}{os.getpid():08x}-{os.urandom(4).hex()}-{label}"


def active_segments(prefix: str = SEGMENT_PREFIX) -> "list[str]":
    """Names of live shared-memory segments matching ``prefix``.

    Reads the kernel's ``/dev/shm`` listing (empty on platforms without
    one); the leak-regression tests diff this before/after every
    teardown path.
    """
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return []
    return sorted(name for name in names if name.startswith(prefix))


def unlink_segment(name: str) -> bool:
    """Force-unlink a segment by name; returns whether one existed.

    This is the coordinator's reaper for slabs owned by worker processes
    that died without running :meth:`SharedMemoryBlockStore.close`
    (killed on a heartbeat timeout, crashed by an injected fault, or
    torn down mid-drain).  Attaching first keeps the shared resource
    tracker's bookkeeping balanced: the attach re-registers the name,
    the unlink unregisters it, and the dead creator's stale registration
    collapses into the same set entry.
    """
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    segment.unlink()
    return True


class SharedMemoryBlockStore(BlockStore):
    """A :class:`BlockStore` whose slot array lives in a shm segment.

    Attaches the named segment if it already exists with the right size
    (a respawned worker re-entering its slab); otherwise creates it.  A
    stale same-named segment with the *wrong* size -- a leftover from a
    dead run with different geometry -- is unlinked and recreated rather
    than misinterpreted.
    """

    def __init__(
        self,
        segment: str,
        name: str,
        tier: str,
        slots: int,
        slot_bytes: int,
        device: DeviceModel,
        modeled_slot_bytes: int | None = None,
        trace: TraceRecorder | None = None,
        clock=None,
    ):
        if slots <= 0 or slot_bytes <= 0:
            # Base-class validation, repeated here because the segment is
            # opened before the base constructor runs.
            raise ValueError("slots and slot_bytes must be positive")
        if "/" in segment:
            raise SegmentError(f"segment name {segment!r} must not contain '/'")
        self.segment = segment
        size = slots * slot_bytes
        self._shm = self._open_segment(segment, size)
        try:
            super().__init__(
                name=name,
                tier=tier,
                slots=slots,
                slot_bytes=slot_bytes,
                device=device,
                modeled_slot_bytes=modeled_slot_bytes,
                trace=trace,
                clock=clock,
            )
        except Exception:
            self._shm.close()
            raise

    @staticmethod
    def _open_segment(segment: str, size: int) -> shared_memory.SharedMemory:
        try:
            return shared_memory.SharedMemory(name=segment, create=True, size=size)
        except FileExistsError:
            existing = shared_memory.SharedMemory(name=segment)
            if existing.size == size:
                return existing
            # Geometry changed: the segment is a stale leftover, not ours.
            existing.close()
            existing.unlink()
            return shared_memory.SharedMemory(name=segment, create=True, size=size)

    def _allocate_data(self, size: int):
        return self._shm.buf

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Drop pending regions unwritten (a shm slab outlives no close, so
        nobody could read them), release the mapping and unlink the
        segment; idempotent.

        The regions go first, with the views of the buffer they hold, so
        they never keep the mapping alive.  If other zero-copy views of
        the buffer are still alive the mapping cannot be released; the
        unlink still happens (the name disappears now, the pages when the
        last mapping goes) and the OS reclaims the rest at process exit.
        """
        if self.closed:
            return
        self.closed = True
        # Drop _data (and the pending regions) first so any post-close
        # access fails loudly instead of touching an unlinked segment.
        super().close()
        try:
            self._shm.close()
        except BufferError:  # exported memoryviews still alive; the OS
            pass             # reclaims the mapping at process exit
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass  # already reaped (coordinator force-unlink won the race)

    def delete(self) -> None:
        """Alias of :meth:`close` (shm slabs have no sidecar to remove)."""
        self.close()

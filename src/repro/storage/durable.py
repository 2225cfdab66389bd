"""Disk-backed block stores: the durable variant of :class:`BlockStore`.

:class:`DurableBlockStore` keeps its slot array in a memory-mapped file
(the *slab*) instead of a process-private ``bytearray``, so the storage
tier survives process death: a restarted process reopens the same slab
and finds every slot exactly where the last flush left it.  A sidecar
``<slab>.meta.json`` pins the geometry (slot count, slot size, format
version); reopening with a mismatched geometry raises :class:`SlabError`
instead of silently reinterpreting bytes.

Design constraints:

* **identical hot path** -- the mmap object supports the same slicing,
  ``memoryview`` and buffer-assignment operations as the ``bytearray``
  it replaces, so every :class:`BlockStore` method (including the
  zero-copy ``read_run_view``/``peek_run`` companions) runs unchanged,
  and a disk-backed store is bit-identical in behavior, timing and trace
  to an in-memory one built from the same seed;
* **simulated timing stays simulated** -- the device model still charges
  for the *modeled* device; the mmap is the persistence mechanism, not
  the timing model (real I/O cost of the slab is OS page cache traffic);
* **crash semantics** -- the slab is only as consistent as the last
  ``flush()``; recovery rolls the slab back to the most recent
  checkpoint (see :mod:`repro.core.checkpoint`), which is what makes a
  torn most-recent write harmless.
"""

from __future__ import annotations

import json
import mmap
import os
from pathlib import Path

from repro.storage.backend import BlockStore
from repro.storage.device import DeviceModel
from repro.storage.trace import TraceRecorder

#: On-disk slab format version; bumped on any layout change, and whenever
#: the record cipher changes the bytes the slots decrypt under (2: records
#: wider than 64 bytes moved to the SHAKE-256 keystream).
SLAB_VERSION = 2

_SLAB_MAGIC = "horam-slab"


class SlabError(Exception):
    """A slab file or its sidecar metadata failed validation."""


def slab_meta_path(path: str | os.PathLike) -> Path:
    return Path(str(path) + ".meta.json")


class DurableBlockStore(BlockStore):
    """A :class:`BlockStore` whose slot array lives in a memory-mapped file."""

    def __init__(
        self,
        path: str | os.PathLike,
        name: str,
        tier: str,
        slots: int,
        slot_bytes: int,
        device: DeviceModel,
        modeled_slot_bytes: int | None = None,
        trace: TraceRecorder | None = None,
        clock=None,
        reset: bool = False,
    ):
        if slots <= 0 or slot_bytes <= 0:
            # Base-class validation, repeated here because the slab file is
            # opened before the base constructor runs.
            raise ValueError("slots and slot_bytes must be positive")
        self.path = Path(path)
        self.closed = False
        size = slots * slot_bytes
        meta_path = slab_meta_path(self.path)
        existed = self.path.exists() and not reset
        if existed:
            self._validate_meta(meta_path, size, slots, slot_bytes)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "r+b" if existed else "w+b")
        try:
            if os.fstat(self._file.fileno()).st_size != size:
                if existed:
                    raise SlabError(
                        f"slab '{self.path}' is {os.fstat(self._file.fileno()).st_size} "
                        f"bytes, geometry needs {size}"
                    )
                self._file.truncate(size)
            # A fresh slab starts all-zero exactly like the bytearray would;
            # _allocate_data hands this map to the base constructor, so the
            # full-size throwaway buffer is never materialized.
            self._mmap = mmap.mmap(self._file.fileno(), size)
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
            self._file.close()
            raise
        if not existed:
            meta_path.write_text(
                json.dumps(
                    {
                        "magic": _SLAB_MAGIC,
                        "version": SLAB_VERSION,
                        "slots": slots,
                        "slot_bytes": slot_bytes,
                    },
                    sort_keys=True,
                ),
                encoding="utf-8",
            )

    def _allocate_data(self, size: int):
        return self._mmap

    def _validate_meta(self, meta_path: Path, size: int, slots: int, slot_bytes: int) -> None:
        if not meta_path.exists():
            raise SlabError(f"slab '{self.path}' has no sidecar metadata")
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except ValueError as error:
            raise SlabError(f"slab metadata '{meta_path}' is not valid JSON") from error
        if meta.get("magic") != _SLAB_MAGIC:
            raise SlabError(f"'{meta_path}' is not a slab metadata file")
        if meta.get("version") != SLAB_VERSION:
            raise SlabError(
                f"slab '{self.path}' is format version {meta.get('version')}, "
                f"this build reads version {SLAB_VERSION}"
            )
        if meta.get("slots") != slots or meta.get("slot_bytes") != slot_bytes:
            raise SlabError(
                f"slab '{self.path}' holds {meta.get('slots')}x"
                f"{meta.get('slot_bytes')}B slots, store expects "
                f"{slots}x{slot_bytes}B"
            )

    # ------------------------------------------------------------ durability
    def flush(self) -> None:
        """Push dirty pages to the file (the slab's durability point)."""
        if not self.closed:
            self._mmap.flush()

    def close(self) -> None:
        """Flush and release the mapping; idempotent.

        If zero-copy views of the map are still alive the mapping cannot
        be unmapped; the flush still happens and the OS reclaims the
        mapping at process exit.
        """
        if self.closed:
            return
        self.closed = True
        self._mmap.flush()
        try:
            self._mmap.close()
        except BufferError:  # exported memoryviews still alive; the OS
            pass             # reclaims the mapping at process exit
        # After close any access is a bug either way: poison _data so the
        # next use fails loudly instead of silently writing an unmapped
        # (or about-to-be-reclaimed) slab.
        self._data = None
        self._file.close()

    def delete(self) -> None:
        """Close and remove the slab and its metadata (tests, cleanup)."""
        self.close()
        for target in (self.path, slab_meta_path(self.path)):
            try:
                target.unlink()
            except FileNotFoundError:
                pass

"""Fixed-slot block stores mounted on device timing models.

:class:`BlockStore` is the physical layer every ORAM in this repository
reads and writes.  It provides:

* fixed-size slots backed by one flat ``bytearray`` (cheap even for the
  2^21 slots of the 1 GB experiment),
* simulated durations for every operation, with automatic
  random-vs-sequential detection (an access to ``last+1`` with the same
  operation kind continues a stream and skips the positioning cost),
* bulk ``read_run``/``write_run`` operations used by the shuffle stages --
  one positioning plus a streaming transfer, exactly how H-ORAM's
  sequential shuffle beats Path ORAM's scattered bucket I/O,
* zero-copy data-plane companions: ``read_run_view`` (same accounting as
  ``read_run``, returns one memoryview), ``peek_run``/``poke_run``
  (uncharged bulk peeks/pokes for initialization and survivor scans), and
  flat-buffer input to ``write_run``,
* write-behind runs: a :class:`DeferredRun` handed to ``write_run`` is
  charged (timing, counters, trace event) at once, but its bytes are made
  and stored later, as a *pending region* written back by
  :meth:`BlockStore.write_back` in idle time, or before any read, peek,
  overlapping write, ``export_data`` or flush touches it -- so nothing
  ever sees an unsettled slot,
* an optional :class:`~repro.storage.trace.TraceRecorder` hook so the
  security analyzers see what a bus adversary sees,
* decoupled *modeled* and *stored* slot sizes: simulations can store a
  24-byte record while charging the device model for the paper's 1 KB
  block, keeping functional fidelity and timing fidelity independent.

Durations are returned to the caller, never applied to a global clock --
the protocol layer decides what overlaps (see :mod:`repro.sim.clock`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

from repro.oram.base import Released
from repro.storage.device import MB, DeviceModel
from repro.storage.trace import TraceEvent, TraceRecorder


@dataclass
class StoreCounters:
    """Snapshot of a store's activity (deltas give per-phase accounting)."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_us: float = 0.0

    def delta(self, earlier: "StoreCounters") -> "StoreCounters":
        return StoreCounters(
            reads=self.reads - earlier.reads,
            writes=self.writes - earlier.writes,
            bytes_read=self.bytes_read - earlier.bytes_read,
            bytes_written=self.bytes_written - earlier.bytes_written,
            busy_us=self.busy_us - earlier.busy_us,
        )

    def copy(self) -> "StoreCounters":
        return StoreCounters(
            reads=self.reads,
            writes=self.writes,
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            busy_us=self.busy_us,
        )


class DeferredRun:
    """A :meth:`BlockStore.write_run` buffer whose bytes are made later.

    ``count`` records go to the run's slots; ``build()`` returns them as
    one flat buffer.  ``reads`` is the ``(start, stop)`` slot range whose
    current bytes ``build`` reads (through a view it holds), or ``None``.
    The store keeps the run pending over the smallest slot range holding
    both, so the bytes ``build`` reads are still there when it runs, and
    nothing reads the run's slots before it has.
    """

    __slots__ = ("count", "reads", "build")

    def __init__(self, count: int, build, reads: "tuple[int, int] | None" = None):
        self.count = count
        self.build = build
        self.reads = reads


class BlockStore:
    """A tier of fixed-size slots with simulated access timing."""

    #: set by :meth:`close`.
    closed = False

    def __init__(
        self,
        name: str,
        tier: str,
        slots: int,
        slot_bytes: int,
        device: DeviceModel,
        modeled_slot_bytes: int | None = None,
        trace: TraceRecorder | None = None,
        clock=None,
    ):
        if slots <= 0:
            raise ValueError("slots must be positive")
        if slot_bytes <= 0:
            raise ValueError("slot_bytes must be positive")
        self.name = name
        self.tier = tier
        self.slots = slots
        self.slot_bytes = slot_bytes
        self.modeled_slot_bytes = modeled_slot_bytes or slot_bytes
        self.device = device
        self.trace = trace
        self.clock = clock  # only used to timestamp trace events
        self._data = self._allocate_data(slots * slot_bytes)
        self._next_seq_slot = -1
        self._last_op = ""
        self.counters = StoreCounters()
        # Pending regions (see DeferredRun): first slot -> (stop, run
        # start, run), oldest first, and the first slots sorted.  Regions
        # never overlap: a run that would overlap one writes it back first.
        self._pending: "dict[int, tuple[int, int, DeferredRun]]" = {}
        self._pending_starts: list[int] = []
        # Cached device constants so the run hot path skips two call hops;
        # the arithmetic in _charge_run mirrors DeviceModel.run_us exactly
        # (same expression, same float results).  Subclasses that override
        # run_us/transfer_us keep their behavior: the inline form is used
        # only for the stock implementation.
        self._read_overhead_us = device.read_overhead_us
        self._write_overhead_us = device.write_overhead_us
        self._read_denominator = device.read_mb_per_s * MB
        self._write_denominator = device.write_mb_per_s * MB
        self._stock_run_us = (
            type(device).run_us is DeviceModel.run_us
            and type(device).transfer_us is DeviceModel.transfer_us
        )

    def _allocate_data(self, size: int) -> "bytearray":
        """Allocate the zero-filled slot array.

        Subclasses with their own backing (e.g. a memory-mapped slab)
        override this so the base constructor never materializes a
        throwaway buffer of the full store size.
        """
        return bytearray(size)

    def close(self) -> None:
        """Drop the slot array and every pending region (with the views
        they hold) unwritten; idempotent.  Counters stay readable, and any
        later slot access raises
        :class:`~repro.oram.base.StackClosedError`."""
        self.closed = True
        self._drop_pending()
        self._data = Released(f"{self.tier} store '{self.name}'")

    # --------------------------------------------------------- write-behind
    @property
    def pending_regions(self) -> int:
        """How many deferred runs are charged but not yet written back."""
        return len(self._pending)

    def write_back(self, limit: int | None = None) -> int:
        """Write back up to ``limit`` pending regions, oldest first (all
        of them when ``None``); returns how many are still pending."""
        pending = self._pending
        while pending and (limit is None or limit > 0):
            self._write_back_region(next(iter(pending)))
            if limit is not None:
                limit -= 1
        return len(pending)

    def _write_back_range(self, start: int, stop: int) -> None:
        """Write back every pending region overlapping slots [start, stop)."""
        starts = self._pending_starts
        index = max(0, bisect_right(starts, start) - 1)
        while index < len(starts) and starts[index] < stop:
            first = starts[index]
            if self._pending[first][0] > start:
                self._write_back_region(first)  # drops it from ``starts``
            else:
                index += 1

    def _write_back_region(self, first: int) -> None:
        _, run_start, run = self._pending.pop(first)
        del self._pending_starts[bisect_left(self._pending_starts, first)]
        data = memoryview(run.build())
        if data.nbytes != run.count * self.slot_bytes:
            raise ValueError(
                f"deferred run built {data.nbytes} bytes for {run.count} "
                f"{self.slot_bytes}-byte slots"
            )
        offset = run_start * self.slot_bytes
        self._data[offset : offset + data.nbytes] = data

    def _defer(self, start: int, run: DeferredRun) -> None:
        """Make ``run`` pending at ``start`` (already charged)."""
        first, stop = start, start + run.count
        if run.reads is not None:
            low, high = run.reads
            if not 0 <= low < high <= self.slots:
                raise IndexError(f"deferred run reads slots {run.reads} outside the store")
            first, stop = min(first, low), max(stop, high)
        if self._pending:
            self._write_back_range(first, stop)
        self._pending[first] = (stop, start, run)
        insort(self._pending_starts, first)

    def _drop_pending(self) -> None:
        self._pending.clear()
        self._pending_starts.clear()

    # --------------------------------------------------------------- sizing
    @property
    def capacity_bytes(self) -> int:
        """Modeled capacity (what the experiment tables report)."""
        return self.slots * self.modeled_slot_bytes

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.slots:
            raise IndexError(f"slot {slot} outside [0, {self.slots}) on store '{self.name}'")

    def _now(self) -> float:
        return self.clock.now_us if self.clock is not None else 0.0

    def _emit(self, op: str, slot: int, size: int, label: str = "") -> None:
        trace = self.trace
        if trace is None:
            return
        if not trace.accepting:
            # Skip constructing the event a full recorder would drop anyway
            # (capacity-0 recorders are the benchmarks' "tracing off" mode).
            trace.dropped += 1
            return
        trace.record(
            TraceEvent(op=op, tier=self.tier, slot=slot, size=size, time_us=self._now(), label=label)
        )

    def _sequential(self, op: str, slot: int) -> bool:
        return op == self._last_op and slot == self._next_seq_slot

    # ----------------------------------------------------------- single ops
    def _charge_slot(self, op: str, slot: int, write: bool) -> float:
        """Account one slot access: timing, counters, trace event."""
        self._check_slot(slot)
        sequential = self._sequential(op, slot)
        duration = self.device.access_us(self.modeled_slot_bytes, write=write, sequential=sequential)
        self._last_op, self._next_seq_slot = op, slot + 1
        if write:
            self.counters.writes += 1
            self.counters.bytes_written += self.modeled_slot_bytes
        else:
            self.counters.reads += 1
            self.counters.bytes_read += self.modeled_slot_bytes
        self.counters.busy_us += duration
        self._emit(op, slot, self.modeled_slot_bytes)
        return duration

    def read_slot(self, slot: int) -> tuple[bytes, float]:
        """Read one slot; returns (record bytes, simulated duration in us)."""
        if self._pending:
            self._write_back_range(slot, slot + 1)
        duration = self._charge_slot("read", slot, write=False)
        offset = slot * self.slot_bytes
        return bytes(self._data[offset : offset + self.slot_bytes]), duration

    def read_slot_view(self, slot: int) -> tuple[memoryview, float]:
        """Like :meth:`read_slot` but returns a zero-copy memoryview.

        Timing, counters, stream detection and the emitted trace event are
        identical to :meth:`read_slot`; only the ``bytes`` materialization
        is skipped.  The view aliases live storage -- consume it before any
        subsequent write to the slot.
        """
        if self._pending:
            self._write_back_range(slot, slot + 1)
        duration = self._charge_slot("read", slot, write=False)
        offset = slot * self.slot_bytes
        return memoryview(self._data)[offset : offset + self.slot_bytes], duration

    def write_slot(self, slot: int, record: bytes) -> float:
        """Write one slot; returns the simulated duration in us."""
        if len(record) != self.slot_bytes:
            raise ValueError(
                f"record is {len(record)} bytes, store '{self.name}' slots are {self.slot_bytes}"
            )
        if self._pending:
            self._write_back_range(slot, slot + 1)
        duration = self._charge_slot("write", slot, write=True)
        offset = slot * self.slot_bytes
        self._data[offset : offset + self.slot_bytes] = record
        return duration

    # ------------------------------------------------------------- bulk ops
    def _charge_run(self, op: str, start: int, count: int, write: bool) -> float:
        """Account one sequential run: timing, counters, trace event."""
        if count <= 0:
            raise ValueError("count must be positive")
        if start < 0 or start + count > self.slots:
            # Out of bounds: re-run the single-slot checks for their
            # exact error messages.
            self._check_slot(start)
            self._check_slot(start + count - 1)
        size = count * self.modeled_slot_bytes
        if not self._stock_run_us:
            duration = self.device.run_us(size, write=write)
        elif write:
            duration = self._write_overhead_us + size / self._write_denominator * 1_000_000.0
        else:
            duration = self._read_overhead_us + size / self._read_denominator * 1_000_000.0
        self._last_op, self._next_seq_slot = op, start + count
        counters = self.counters
        if write:
            counters.writes += count
            counters.bytes_written += size
        else:
            counters.reads += count
            counters.bytes_read += size
        counters.busy_us += duration
        # Inlined _emit: this runs for every bulk transfer, so the event
        # (and its run-length label) is only built when it will be kept.
        trace = self.trace
        if trace is not None:
            if trace.capacity is None or len(trace.events) < trace.capacity:
                trace.record(
                    TraceEvent(
                        op=op,
                        tier=self.tier,
                        slot=start,
                        size=size,
                        time_us=self._now(),
                        label=f"run:{count}",
                    )
                )
            else:
                trace.dropped += 1
        return duration

    def read_run(self, start: int, count: int) -> tuple[list[bytes], float]:
        """Stream ``count`` consecutive slots: one positioning + transfer."""
        if self._pending:
            self._write_back_range(start, start + count)
        duration = self._charge_run("read", start, count, write=False)
        slot_bytes = self.slot_bytes
        data = self._data
        base = start * slot_bytes
        records = [
            bytes(data[base + index * slot_bytes : base + (index + 1) * slot_bytes])
            for index in range(count)
        ]
        return records, duration

    def read_run_view(self, start: int, count: int) -> tuple[memoryview, float]:
        """Like :meth:`read_run` but returns one zero-copy memoryview.

        Timing, counters and the emitted trace event are identical to
        :meth:`read_run`; only the per-slot ``bytes`` materialization is
        skipped.  The view aliases live storage -- slice it before any
        subsequent write to the same slots.
        """
        if self._pending:
            self._write_back_range(start, start + count)
        duration = self._charge_run("read", start, count, write=False)
        slot_bytes = self.slot_bytes
        return (
            memoryview(self._data)[start * slot_bytes : (start + count) * slot_bytes],
            duration,
        )

    def write_run(
        self, start: int, records: "list[bytes] | bytes | bytearray | memoryview | DeferredRun"
    ) -> float:
        """Stream consecutive slots out: one positioning + transfer.

        ``records`` is a list of slot-sized records, one flat buffer
        holding a whole number of records (the output of
        :meth:`~repro.oram.base.BlockCodec.seal_columns`), or a
        :class:`DeferredRun`; all are charged identically, at once.  A
        deferred run's bytes land when the region is written back: by
        :meth:`write_back`, or first thing in whichever call reads or
        writes its slots next.
        """
        if type(records) is DeferredRun:
            duration = self._charge_run("write", start, records.count, write=True)
            self._defer(start, records)
            return duration
        if isinstance(records, (bytes, bytearray, memoryview)):
            view = memoryview(records)
            if view.nbytes == 0 or view.nbytes % self.slot_bytes:
                raise ValueError(
                    f"flat write_run buffer of {view.nbytes} bytes is not a "
                    f"positive multiple of the {self.slot_bytes}-byte slot size"
                )
            count = view.nbytes // self.slot_bytes
            if self._pending:
                self._write_back_range(start, start + count)
            duration = self._charge_run("write", start, count, write=True)
            offset = start * self.slot_bytes
            self._data[offset : offset + view.nbytes] = view
            return duration
        if self._pending:
            self._write_back_range(start, start + len(records))
        duration = self._charge_run("write", start, len(records), write=True)
        slot_bytes = self.slot_bytes
        data = self._data
        for index, record in enumerate(records):
            if len(record) != slot_bytes:
                raise ValueError("record size mismatch inside write_run")
            offset = (start + index) * slot_bytes
            data[offset : offset + slot_bytes] = record
        return duration

    # ------------------------------------------------------------- utility
    def peek_slot(self, slot: int) -> bytes:
        """Read without timing or trace (tests and debugging only)."""
        self._check_slot(slot)
        if self._pending:
            self._write_back_range(slot, slot + 1)
        offset = slot * self.slot_bytes
        return bytes(self._data[offset : offset + self.slot_bytes])

    def poke_slot(self, slot: int, record: bytes) -> None:
        """Write without timing or trace (initialization only)."""
        self._check_slot(slot)
        if self._pending:
            self._write_back_range(slot, slot + 1)
        if len(record) != self.slot_bytes:
            raise ValueError("record size mismatch in poke_slot")
        offset = slot * self.slot_bytes
        self._data[offset : offset + self.slot_bytes] = record

    def peek_run(self, start: int, count: int) -> memoryview:
        """Zero-copy view of ``count`` consecutive slots (no timing or trace).

        The view aliases the store's backing buffer: it is valid until the
        next write to those slots and must not be held across one.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        self._check_slot(start)
        self._check_slot(start + count - 1)
        if self._pending:
            self._write_back_range(start, start + count)
        slot_bytes = self.slot_bytes
        return memoryview(self._data)[start * slot_bytes : (start + count) * slot_bytes]

    def poke_run(self, start: int, data: bytes | bytearray | memoryview) -> None:
        """Bulk write of consecutive slots without timing or trace.

        ``data`` must hold a positive whole number of slot records
        (e.g. the buffer built by
        :meth:`~repro.oram.base.BlockCodec.seal_columns`); initialization only.
        """
        view = memoryview(data)
        if view.nbytes == 0 or view.nbytes % self.slot_bytes:
            raise ValueError(
                f"poke_run buffer of {view.nbytes} bytes is not a positive "
                f"multiple of the {self.slot_bytes}-byte slot size"
            )
        count = view.nbytes // self.slot_bytes
        self._check_slot(start)
        self._check_slot(start + count - 1)
        if self._pending:
            self._write_back_range(start, start + count)
        offset = start * self.slot_bytes
        self._data[offset : offset + view.nbytes] = view

    def reset_stream(self) -> None:
        """Force the next access to pay positioning (stream interrupted)."""
        self._next_seq_slot = -1
        self._last_op = ""

    def snapshot(self) -> StoreCounters:
        return self.counters.copy()

    # ----------------------------------------------------------- checkpoint
    def state_dict(self) -> dict:
        """JSON-able accounting state (slot *data* ships separately as a blob)."""
        from dataclasses import asdict

        return {
            "next_seq_slot": self._next_seq_slot,
            "last_op": self._last_op,
            "counters": asdict(self.counters),
        }

    def load_state(self, state: dict) -> None:
        self._next_seq_slot = state["next_seq_slot"]
        self._last_op = state["last_op"]
        self.counters = StoreCounters(**state["counters"])

    def export_data(self) -> bytes:
        """A copy of the full slot array (checkpoint blob), every pending
        region written back first."""
        self.write_back()
        return bytes(self._data)

    def import_data(self, data: bytes | bytearray | memoryview) -> None:
        """Overwrite the full slot array (checkpoint restore / slab
        rollback); pending regions belong to the image it replaces and
        are dropped unwritten."""
        view = memoryview(data)
        expected = self.slots * self.slot_bytes
        if view.nbytes != expected:
            raise ValueError(
                f"store '{self.name}' holds {expected} bytes, got {view.nbytes}"
            )
        self._drop_pending()
        self._data[:] = view

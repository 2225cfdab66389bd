"""Write-behind runs: a pending region is written back before anything
sees its slots.

A :class:`~repro.storage.backend.DeferredRun` handed to ``write_run`` is
charged at once and stored later.  These tests hold every store backend
to the invariant that makes that safe -- each reader of a pending region
(and each write over it, or over the slots its ``build`` reads) writes
it back first -- check what ``close()`` does with pending regions, and
check that a fault-injected store treats a deferred run exactly like the
eager buffer it stands for.  The stack-level twin at the bottom runs a
seeded H-ORAM that leaves its partition rewrites pending against one
that writes them back after every period.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.checkpoint import restore_stack, snapshot_stack
from repro.core.horam import build_horam
from repro.oram.base import Request
from repro.storage.backend import BlockStore, DeferredRun
from repro.storage.device import hdd_paper
from repro.storage.durable import DurableBlockStore
from repro.storage.faults import CrashFault, FaultInjector, FaultPlan
from repro.storage.shm import SharedMemoryBlockStore, active_segments, make_segment_name

SLOTS = 32
SLOT_BYTES = 8


def records(marker: int, count: int) -> bytes:
    return bytes([marker]) * (count * SLOT_BYTES)


def numbered(start: int, count: int) -> bytes:
    """``count`` records, record ``i`` filled with byte ``start + i``."""
    return b"".join(bytes([start + i]) * SLOT_BYTES for i in range(count))


def make_store(kind: str, tmp_path, name: str = "storage") -> BlockStore:
    kwargs = dict(
        name=name, tier="storage", slots=SLOTS, slot_bytes=SLOT_BYTES, device=hdd_paper()
    )
    if kind == "file":
        return DurableBlockStore(tmp_path / f"{name}.slab", **kwargs)
    if kind == "shm":
        return SharedMemoryBlockStore(make_segment_name("wb"), **kwargs)
    return BlockStore(**kwargs)


@pytest.fixture(params=["memory", "file", "shm"])
def kind(request):
    return request.param


@pytest.fixture
def store(kind, tmp_path):
    store = make_store(kind, tmp_path)
    store.poke_run(0, numbered(1, SLOTS))
    yield store
    store.close()


def copy_run(store: BlockStore, source: int, count: int, builds: list) -> DeferredRun:
    """A deferred run that copies ``count`` slots starting at ``source``,
    read through a view it holds (the way a partition rewrite reads its
    old image); each build appends to ``builds``.  The run is the only
    holder of the view."""
    view, _ = store.read_run_view(source, count)

    def build(view=view) -> bytes:
        builds.append(source)
        return bytes(view)

    return DeferredRun(count, build, reads=(source, source + count))


def pending_at(store: BlockStore, start: int = 4, count: int = 4, marker: int = 0xAA):
    """Make a pending region of ``count`` ``marker`` records at ``start``."""
    built = []

    def build():
        built.append(True)
        return records(marker, count)

    store.write_run(start, DeferredRun(count, build))
    assert store.pending_regions == 1 and not built
    return built


# ------------------------------------------------------------------ charging
def test_a_deferred_run_is_charged_at_once_like_the_eager_buffer(kind, tmp_path):
    deferred, eager = make_store(kind, tmp_path, "a"), make_store(kind, tmp_path, "b")
    try:
        built = []
        duration = deferred.write_run(
            3, DeferredRun(5, lambda: built.append(1) or records(9, 5))
        )
        assert duration == eager.write_run(3, records(9, 5))
        assert deferred.snapshot() == eager.snapshot()
        assert deferred.state_dict() == eager.state_dict()
        assert not built and deferred.pending_regions == 1
        assert deferred.export_data() == eager.export_data()
        assert built == [1] and deferred.pending_regions == 0
    finally:
        deferred.close()
        eager.close()


# ------------------------------------------------------------------ readers
READERS = {
    "read_slot": lambda store: store.read_slot(5)[0],
    "read_slot_view": lambda store: bytes(store.read_slot_view(5)[0]),
    "read_run": lambda store: b"".join(store.read_run(4, 4)[0]),
    "read_run_view": lambda store: bytes(store.read_run_view(4, 4)[0]),
    "peek_slot": lambda store: store.peek_slot(5),
    "peek_run": lambda store: bytes(store.peek_run(4, 4)),
    "export_data": lambda store: store.export_data()[4 * SLOT_BYTES : 8 * SLOT_BYTES],
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_writes_the_region_back_first(store, reader):
    built = pending_at(store)
    seen = READERS[reader](store)
    assert built == [True]
    assert store.pending_regions == 0
    assert set(seen) == {0xAA}


@pytest.mark.parametrize("reader", ["read_slot", "read_run_view", "peek_slot", "peek_run"])
def test_a_reader_elsewhere_leaves_the_region_pending(store, reader):
    built = pending_at(store, start=20)
    READERS[reader](store)
    assert not built and store.pending_regions == 1


def test_flush_writes_back_first(tmp_path):
    store = make_store("file", tmp_path)
    try:
        pending_at(store)
        store.flush()
        assert store.pending_regions == 0
        with open(store.path, "rb") as slab:
            assert slab.read()[4 * SLOT_BYTES : 8 * SLOT_BYTES] == records(0xAA, 4)
    finally:
        store.close()


@pytest.mark.parametrize(
    "write",
    [
        lambda store: store.write_run(6, records(0x33, 1)),
        lambda store: store.write_run(6, [records(0x33, 1)]),
        lambda store: store.write_slot(6, records(0x33, 1)),
        lambda store: store.poke_slot(6, records(0x33, 1)),
        lambda store: store.poke_run(6, records(0x33, 1)),
        lambda store: store.write_run(6, DeferredRun(1, lambda: records(0x33, 1))),
    ],
    ids=["write_run", "write_run-list", "write_slot", "poke_slot", "poke_run", "deferred"],
)
def test_an_overlapping_write_lands_over_the_written_back_region(store, write):
    built = pending_at(store)
    write(store)
    assert built == [True]
    image = store.export_data()
    assert image[4 * SLOT_BYTES : 8 * SLOT_BYTES] == (
        records(0xAA, 2) + records(0x33, 1) + records(0xAA, 1)
    )


def test_a_write_over_the_slots_a_run_reads_writes_it_back_first(store):
    builds = []
    store.write_run(0, copy_run(store, 8, 4, builds))
    store.write_run(10, records(0x55, 4))  # overwrites half of the source
    assert builds == [8]
    assert store.peek_run(0, 4).tobytes() == numbered(9, 4)  # the old source
    assert store.peek_run(8, 6).tobytes() == numbered(9, 2) + records(0x55, 4)


def test_write_back_takes_the_oldest_regions_first(store):
    builds = []
    for index in range(3):
        store.write_run(8 * index, copy_run(store, 8 * index + 2, 2, builds))
    assert store.write_back(1) == 2
    assert builds == [2]
    assert store.write_back(0) == 2
    assert store.write_back() == 0
    assert builds == [2, 10, 18]
    for index in range(3):
        assert store.peek_run(8 * index, 2).tobytes() == numbered(8 * index + 3, 2)


def test_import_data_drops_pending_regions(store):
    built = pending_at(store)
    store.import_data(numbered(1, SLOTS))
    assert store.pending_regions == 0 and not built
    assert store.peek_run(4, 4).tobytes() == numbered(5, 4)


# ------------------------------------------------------------------- close
@pytest.mark.parametrize("backing", ["memory", "shm"])
def test_close_drops_pending_regions_and_their_views(backing, tmp_path):
    store = make_store(backing, tmp_path)
    builds = []
    store.write_run(0, copy_run(store, 8, 4, builds))
    store.close()
    assert builds == []
    if backing == "shm":
        # The mapping was released (a view kept alive would have made the
        # segment's close raise BufferError) and the name is gone.
        assert store._shm.buf is None
        assert store.segment not in active_segments()


def test_close_writes_pending_regions_back_on_a_file_slab(tmp_path):
    store = make_store("file", tmp_path)
    store.poke_run(0, numbered(1, SLOTS))
    builds = []
    store.write_run(0, copy_run(store, 8, 4, builds))
    store.close()
    assert builds == [8]
    reopened = make_store("file", tmp_path)
    try:
        assert reopened.peek_run(0, 4).tobytes() == numbered(9, 4)
    finally:
        reopened.close()


# ------------------------------------------------------------ fault injection
def injected_pair(tmp_path, plan: FaultPlan):
    """Two identically filled stores under identical injectors."""
    pair = []
    for name in ("deferred", "eager"):
        store = make_store("memory", tmp_path, name)
        store.poke_run(0, numbered(1, SLOTS))
        injector = FaultInjector(plan)
        injector.attach(store)
        pair.append((store, injector))
    return pair


def rewrite(store: BlockStore, defer: bool):
    """Read slots 8..16 and write them, reversed by record, to 0..8: a
    partition rewrite in miniature (run read, then one run write)."""
    view, read_us = store.read_run_view(8, 8)

    def build() -> bytes:
        rows = [bytes(view[i * SLOT_BYTES : (i + 1) * SLOT_BYTES]) for i in range(8)]
        return b"".join(reversed(rows))

    buffer = DeferredRun(8, build, reads=(8, 16)) if defer else build()
    return read_us, store.write_run(0, buffer)


@pytest.mark.parametrize(
    "plan",
    [
        FaultPlan(seed=3, torn_write_rate=1.0),
        FaultPlan(seed=4, corrupt_read_rate=1.0),
        FaultPlan(seed=5, torn_write_rate=0.5, corrupt_read_rate=0.5, latency_spike_rate=0.5),
    ],
    ids=["torn", "corrupt", "mixed"],
)
def test_injected_faults_treat_a_deferred_run_like_the_eager_buffer(tmp_path, plan):
    (deferred, deferred_faults), (eager, eager_faults) = injected_pair(tmp_path, plan)
    for _ in range(3):
        assert rewrite(deferred, defer=True) == rewrite(eager, defer=False)
    assert deferred.pending_regions == 0  # written back as it arrived
    assert deferred_faults.stats == eager_faults.stats
    assert deferred.snapshot() == eager.snapshot()
    assert deferred.export_data() == eager.export_data()


def test_a_torn_crash_cuts_the_same_prefix_from_a_deferred_run(tmp_path):
    plan = FaultPlan(seed=6, crash_at_op=1, crash_op_kind="write_run", crash_torn=True)
    (deferred, deferred_faults), (eager, eager_faults) = injected_pair(tmp_path, plan)
    for store, defer in ((deferred, True), (eager, False)):
        with pytest.raises(CrashFault) as crash:
            rewrite(store, defer)
        assert crash.value.torn
    assert deferred_faults.stats == eager_faults.stats
    assert deferred.export_data() == eager.export_data()
    assert deferred.export_data() != numbered(1, SLOTS)  # a prefix landed


# --------------------------------------------------------------- stack twin
RNG_OWNERS = ("", "cache", "storage")


def rng_states(oram) -> list:
    return [
        (getattr(oram, owner) if owner else oram).rng.state_dict() for owner in RNG_OWNERS
    ]


def slab_digest(oram) -> str:
    oram.write_back()
    return hashlib.sha256(oram.hierarchy.storage.export_data()).hexdigest()


def written_back_each_period(oram):
    """``oram``, made to write back every partition rewrite as each of its
    shuffle periods ends (the step calls the period through ``self``)."""
    run_period = oram.run_shuffle_period

    def run_shuffle_period():
        run_period()
        oram.write_back()

    oram.run_shuffle_period = run_shuffle_period
    return oram


class WriteBehindTwin(RuleBasedStateMachine):
    """A lazily written-back stack against its eagerly written-back twin."""

    ratio = 1

    def __init__(self):
        super().__init__()
        self.kwargs = dict(
            n_blocks=128, mem_tree_blocks=32, seed=11, shuffle_period_ratio=self.ratio
        )
        self.lazy = build_horam(**self.kwargs)
        self.eager = written_back_each_period(build_horam(**self.kwargs))
        self.saved = None

    def both(self):
        return (self.lazy, self.eager)

    @rule(
        ops=st.lists(
            st.tuples(st.integers(0, 127), st.booleans(), st.binary(min_size=1, max_size=8)),
            min_size=1,
            max_size=40,
        )
    )
    def serve(self, ops):
        served = []
        for oram in self.both():
            entries = [
                oram.submit(Request.write(addr, data) if write else Request.read(addr))
                for addr, write, data in ops
            ]
            oram.drain()
            served.append([entry.result for entry in entries])
        assert served[0] == served[1]

    @rule(limit=st.sampled_from([0, 1, 3, None]))
    def idle(self, limit):
        left = self.lazy.write_back(limit)
        assert left == self.lazy.hierarchy.storage.pending_regions
        if limit is None:
            assert left == 0

    @rule()
    def force_shuffle(self):
        for oram in self.both():
            oram.force_shuffle()

    @rule()
    def checkpoint(self):
        lazy, eager = (snapshot_stack(oram) for oram in self.both())
        assert lazy.state == eager.state
        assert lazy.blobs == eager.blobs
        self.saved = (lazy, eager)

    @precondition(lambda self: self.saved is not None)
    @rule()
    def close_and_restore(self):
        for oram in self.both():
            oram.close()  # the lazy stack may hold pending regions: dropped
        lazy, eager = self.saved
        self.lazy = restore_stack(lazy)
        self.eager = written_back_each_period(restore_stack(eager))

    @invariant()
    def same_nonces_and_randomness(self):
        assert self.lazy.codec._nonce_counter == self.eager.codec._nonce_counter
        assert rng_states(self.lazy) == rng_states(self.eager)
        assert self.eager.hierarchy.storage.pending_regions == 0

    def teardown(self):
        try:
            assert slab_digest(self.lazy) == slab_digest(self.eager)
        finally:
            for oram in self.both():
                oram.close()


class WriteBehindTwinPartial(WriteBehindTwin):
    ratio = 4


TWIN_SETTINGS = settings(
    max_examples=15, stateful_step_count=12, derandomize=True, deadline=None
)


@pytest.mark.parametrize(
    "machine", [WriteBehindTwin, WriteBehindTwinPartial], ids=["ratio1", "ratio4"]
)
def test_a_lazy_stack_matches_its_eager_twin(machine, kernel_form):
    run_state_machine_as_test(machine, settings=TWIN_SETTINGS)


def test_the_twin_machine_leaves_regions_pending():
    """The twin above is only worth running if the lazy stack really holds
    pending regions across rules (a period writes back nothing itself)."""
    oram = build_horam(n_blocks=128, mem_tree_blocks=32, seed=11)
    try:
        oram.force_shuffle()
        assert oram.hierarchy.storage.pending_regions == oram.storage.partition_count
        oram.read(3)
        assert 0 < oram.hierarchy.storage.pending_regions < oram.storage.partition_count
    finally:
        oram.close()


def test_no_segment_leaks():
    """Nothing above left a write-behind test segment behind."""
    assert not [name for name in active_segments() if name.endswith("-wb")]

"""The contract both classic baselines keep: Path ORAM and the plain store.

The paper compares H-ORAM against tree-top Path ORAM, and every benchmark
reports cost relative to the unprotected plain store, so both must behave
as a block store (read-your-writes, bounds, fixed payload size) and charge
a storage cost that does not depend on which block is asked for.
"""

import pytest

from repro.crypto.random import DeterministicRandom
from repro.oram.base import ORAMError, initial_payload
from repro.oram.factory import build_baseline

N = 256


def make(name, seed=42, **kwargs):
    memory = 64 if name == "path" else None
    return build_baseline(name, N, memory_blocks=memory, seed=seed, **kwargs)


@pytest.fixture(params=["path", "plain"])
def baseline(request):
    return make(request.param, trace=True)


def storage_reads(oram, addr):
    """Storage slots one read of ``addr`` transfers."""
    before = oram.hierarchy.storage.snapshot()
    oram.read(addr)
    return oram.hierarchy.storage.snapshot().delta(before).reads


class TestCorrectness:
    def test_read_initial(self, baseline):
        for addr in (0, N // 2, N - 1):
            assert baseline.read(addr) == baseline.codec.pad(initial_payload(addr))

    def test_write_then_read(self, baseline):
        baseline.write(3, b"baseline")
        assert baseline.read(3).rstrip(b"\x00") == b"baseline"

    def test_overwrite_keeps_latest(self, baseline):
        for value in (b"first", b"second", b"third"):
            baseline.write(9, value)
        assert baseline.read(9).rstrip(b"\x00") == b"third"

    def test_write_leaves_other_blocks_alone(self, baseline):
        baseline.write(10, b"only-ten")
        for addr in (9, 11, 0, N - 1):
            assert baseline.read(addr) == baseline.codec.pad(initial_payload(addr))

    def test_write_returns_nothing_and_full_block_fits(self, baseline):
        full = bytes(range(baseline.codec.payload_bytes))
        assert baseline.write(4, full) is None
        assert baseline.read(4) == full

    def test_random_ops_match_dict(self, baseline):
        rng = DeterministicRandom(8)
        reference = {}
        for _ in range(400):
            addr = rng.randrange(N)
            if rng.random() < 0.4:
                data = b"b%07d" % rng.randrange(10**6)
                baseline.write(addr, data)
                reference[addr] = baseline.codec.pad(data)
            else:
                want = reference.get(addr, baseline.codec.pad(initial_payload(addr)))
                assert baseline.read(addr) == want

    def test_value_survives_many_other_accesses(self, baseline):
        baseline.write(0, b"keep-me")
        for i in range(300):
            baseline.read(1 + (i % 200))
        assert baseline.read(0).rstrip(b"\x00") == b"keep-me"


class TestBounds:
    @pytest.mark.parametrize("addr", [-1, N, 10_000])
    def test_read_out_of_range(self, baseline, addr):
        with pytest.raises(ORAMError):
            baseline.read(addr)

    def test_write_out_of_range(self, baseline):
        with pytest.raises(ORAMError):
            baseline.write(N, b"nope")

    def test_oversize_payload_rejected_and_block_kept(self, baseline):
        with pytest.raises(ValueError, match="exceeds block payload size"):
            baseline.write(5, b"x" * (baseline.codec.payload_bytes + 1))
        assert baseline.read(5) == baseline.codec.pad(initial_payload(5))


class TestAccounting:
    def test_metrics_count_reads_and_writes(self, baseline):
        for addr in range(5):
            baseline.read(addr)
        for addr in range(3):
            baseline.write(addr, b"w")
        assert baseline.metrics.read_requests == 5
        assert baseline.metrics.write_requests == 3
        assert baseline.metrics.requests_served == 8

    def test_clock_advances_per_access(self, baseline):
        before = baseline.clock.now_us
        baseline.read(0)
        middle = baseline.clock.now_us
        baseline.write(0, b"t")
        assert before < middle < baseline.clock.now_us

    def test_storage_reads_do_not_depend_on_the_address(self, baseline):
        # A repeat of one address costs what a fresh address costs.
        counts = {storage_reads(baseline, addr) for addr in (0, 0, 7, N - 1, 7)}
        assert len(counts) == 1

    def test_storage_reads_per_access(self, baseline):
        if baseline.recipe.protocol == "plain":
            assert storage_reads(baseline, 2) == 1
        else:
            z = baseline.geometry.bucket_size
            assert storage_reads(baseline, 2) == z * baseline.storage_levels

    def test_trace_covers_every_storage_slot_read(self, baseline):
        # A bucket is one ``run:Z`` event; a plain read is one slot event.
        before = len(baseline.hierarchy.trace.storage_reads())
        reads = storage_reads(baseline, 1)
        events = baseline.hierarchy.trace.storage_reads()[before:]
        slots = sum(
            int(e.label[4:]) if e.label.startswith("run:") else 1 for e in events
        )
        assert slots == reads


class TestSeeds:
    @pytest.mark.parametrize("name", ["path", "plain"])
    def test_same_seed_same_storage_image(self, name):
        a, b = make(name, seed=5), make(name, seed=5)
        for oram in (a, b):
            oram.write(1, b"same")
            oram.read(2)
        assert a.hierarchy.storage.export_data() == b.hierarchy.storage.export_data()
        assert a.clock.now_us == b.clock.now_us

    @pytest.mark.parametrize("name", ["path", "plain"])
    def test_different_seed_different_ciphertext(self, name):
        a, b = make(name, seed=5), make(name, seed=6)
        assert a.hierarchy.storage.export_data() != b.hierarchy.storage.export_data()
        assert a.read(3) == b.read(3)

"""Square-root ORAM tests."""

import pytest

from repro.crypto.random import DeterministicRandom
from repro.oram.base import ORAMError, initial_payload
from repro.oram.factory import build_square_root
from repro.oram.square_root import SquareRootORAM


class TestCorrectness:
    def test_read_initial(self, small_square_root):
        assert small_square_root.read(9) == small_square_root.codec.pad(
            initial_payload(9)
        )

    def test_write_then_read(self, small_square_root):
        small_square_root.write(3, b"sqrt-data")
        assert small_square_root.read(3).rstrip(b"\x00") == b"sqrt-data"

    def test_survives_rebuilds(self, small_square_root):
        # Write, then access enough other blocks to force >1 rebuild.
        small_square_root.write(5, b"persist")
        period = small_square_root.period_length
        for i in range(2 * period + 3):
            small_square_root.read(10 + (i % 100))
        assert small_square_root.metrics.shuffle_count >= 2
        assert small_square_root.read(5).rstrip(b"\x00") == b"persist"

    def test_random_ops_match_dict(self, small_square_root):
        rng = DeterministicRandom(8)
        reference = {}
        for _ in range(200):
            addr = rng.randrange(small_square_root.n_blocks)
            if rng.random() < 0.4:
                data = b"s%07d" % rng.randrange(10**6)
                small_square_root.write(addr, data)
                reference[addr] = small_square_root.codec.pad(data)
            else:
                want = reference.get(
                    addr, small_square_root.codec.pad(initial_payload(addr))
                )
                assert small_square_root.read(addr) == want

    def test_bounds(self, small_square_root):
        with pytest.raises(ORAMError):
            small_square_root.read(10_000)


class TestPeriodMechanics:
    def test_rebuild_after_shelter_fills(self, small_square_root):
        period = small_square_root.period_length
        for addr in range(period):
            small_square_root.read(addr)
        assert small_square_root.metrics.shuffle_count == 1
        assert len(small_square_root._shelter) == 0

    def test_shelter_hit_consumes_dummy(self, small_square_root):
        small_square_root.read(1)
        cursor_before = small_square_root._dummy_cursor
        small_square_root.read(1)  # now sheltered -> dummy fetch
        assert small_square_root._dummy_cursor == cursor_before + 1

    def test_exactly_one_storage_fetch_per_access(self, small_square_root):
        io_before = small_square_root.hierarchy.storage.snapshot()
        small_square_root.read(2)
        small_square_root.read(2)  # hit path
        delta = small_square_root.hierarchy.storage.snapshot().delta(io_before)
        assert delta.reads == 2  # one single-slot fetch per access

    def test_shuffle_time_accounted(self, small_square_root):
        for addr in range(small_square_root.period_length):
            small_square_root.read(addr)
        assert small_square_root.metrics.shuffle_time_us > 0


class TestConstruction:
    def test_requires_enough_dummies(self):
        from repro.crypto.ctr import StreamCipher
        from repro.oram.base import BlockCodec
        from repro.storage.hierarchy import StorageHierarchy

        codec = BlockCodec(16, StreamCipher(b"k"))
        h = StorageHierarchy(memory_slots=20, storage_slots=300, slot_bytes=codec.slot_bytes)
        with pytest.raises(ValueError):
            SquareRootORAM(
                n_blocks=256,
                codec=codec,
                memory_store=h.memory,
                storage_store=h.storage,
                clock=h.clock,
                dummies=2,  # fewer than the shelter size
            )

    def test_required_slots_helper(self):
        mem, storage = SquareRootORAM.required_slots(256)
        assert mem == 17  # isqrt(256)+1
        assert storage == 256 + 17

    def test_factory_builds_working_instance(self):
        oram = build_square_root(n_blocks=64, seed=9)
        oram.write(1, b"ok")
        assert oram.read(1).rstrip(b"\x00") == b"ok"

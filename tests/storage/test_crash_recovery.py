"""Crash-point sweep: snapshot + kill + restore at many points.

The durability tier's core guarantee: restoring a checkpoint makes the
stack bit-identical, *going forward*, to an uninterrupted run.  This
sweep drives the quick workload on a disk-backed H-ORAM, snapshots at
every period boundary and at random request indices, kills the instance
(after letting it run on so post-checkpoint state demonstrably diverges
from the checkpoint), recovers from the on-disk checkpoint, finishes the
workload, and asserts the served log, final logical state, metrics and
simulated clock all match the uninterrupted golden run.
"""

import pytest

from repro.core.checkpoint import (
    CheckpointError,
    load_checkpoint,
    recover,
    save_checkpoint,
)
from repro.core.horam import build_horam
from repro.crypto.random import DeterministicRandom
from repro.oram.base import OpKind
from repro.sim.engine import drive
from repro.storage.faults import CrashFault, FaultInjector, FaultPlan
from repro.workload.generators import hotspot

N_BLOCKS = 256
MEM_BLOCKS = 64
REQUESTS = 100
RANDOM_POINTS = 4


def quick_workload():
    rng = DeterministicRandom("crash-sweep")
    return list(hotspot(N_BLOCKS, REQUESTS, rng, hot_blocks=20, write_ratio=0.3))


def build(tmp_path, label):
    return build_horam(
        n_blocks=N_BLOCKS,
        mem_tree_blocks=MEM_BLOCKS,
        seed=17,
        storage_backend="file",
        storage_path=tmp_path / f"{label}.slab",
    )


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """Uninterrupted run + the period-boundary request indices."""
    tmp_path = tmp_path_factory.mktemp("golden")
    requests = quick_workload()
    oram = build(tmp_path, "golden")
    boundaries = []
    results = []
    for index, request in enumerate(requests):
        before = oram.period_index
        entry = oram.submit(request)
        oram.drain()
        results.append(entry.result)
        if oram.period_index != before:
            boundaries.append(index + 1)  # snapshot *after* this request
    reference = {}
    for request in requests:
        if request.op is OpKind.WRITE:
            reference[request.addr] = oram.codec.pad(request.data)
    state = {
        "results": results,
        "served_digest": oram.served_digest,
        "metrics": oram.metrics.to_dict(),
        "clock_us": oram.hierarchy.clock.now_us,
        "boundaries": boundaries,
        "final_state": {
            addr: oram.read(addr) for addr in sorted(reference)
        },
        "reference": reference,
    }
    oram.close()
    return requests, state


def snapshot_points(boundaries):
    rng = DeterministicRandom("sweep-points")
    points = set(b for b in boundaries if 0 < b < REQUESTS)
    while len(points) < len(boundaries) + RANDOM_POINTS:
        points.add(1 + rng.randrange(REQUESTS - 1))
    return sorted(points)


class TestCrashPointSweep:
    def test_golden_run_crosses_periods(self, golden):
        _, state = golden
        assert len(state["boundaries"]) >= 2, "workload must span several periods"

    def test_sweep_restores_bit_identical(self, golden, tmp_path):
        requests, state = golden
        points = snapshot_points(state["boundaries"])
        assert len(points) >= len(state["boundaries"]) + RANDOM_POINTS - 1
        for point in points:
            victim = build(tmp_path, f"victim-{point}")
            head = drive(victim, requests[:point])
            ckpt = tmp_path / f"ckpt-{point}"
            save_checkpoint(victim, ckpt)

            # Keep running past the checkpoint, then die on a CrashFault --
            # the recovery must roll all of this back.  (Short tails may
            # finish before op 25; rollback is asserted either way.)
            injector = FaultInjector(FaultPlan(crash_at_op=25))
            injector.attach(victim.hierarchy.storage)
            try:
                drive(victim, requests[point:])
            except CrashFault:
                pass
            victim.close()

            restored = recover(ckpt)
            tail = drive(restored, requests[point:])
            assert head + tail == state["results"], f"results diverge at {point}"
            assert restored.served_digest == state["served_digest"], point
            assert restored.metrics.to_dict() == state["metrics"], point
            assert restored.hierarchy.clock.now_us == state["clock_us"], point
            # Final logical state: every written address reads back the
            # golden value on the restored instance.
            for addr, want in state["final_state"].items():
                assert restored.read(addr) == want, (point, addr)
            restored.close()

    def test_corrupted_checkpoint_blob_is_rejected(self, golden, tmp_path):
        requests, _ = golden
        victim = build(tmp_path, "corrupt")
        drive(victim, requests[:20])
        ckpt = tmp_path / "ckpt-corrupt"
        save_checkpoint(victim, ckpt)
        victim.close()

        blob = next(ckpt.glob("*.bin"))
        raw = bytearray(blob.read_bytes())
        raw[0] ^= 0xFF
        blob.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="SHA-256"):
            load_checkpoint(ckpt)

    def test_checkpoint_validates_version(self, golden, tmp_path):
        import json

        requests, _ = golden
        victim = build(tmp_path, "version")
        drive(victim, requests[:10])
        ckpt = tmp_path / "ckpt-version"
        save_checkpoint(victim, ckpt)
        victim.close()

        manifest = ckpt / "checkpoint.json"
        data = json.loads(manifest.read_text())
        data["version"] = 999
        manifest.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(ckpt)

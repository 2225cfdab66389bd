"""Golden determinism guard for the batched hot-path engine.

The batched fast path (vectorized record crypto, bulk store I/O,
incremental shuffle bookkeeping) must be *observationally identical* to
the original single-record implementation: same seed -> same serve order,
same Metrics, same bus trace.  The GOLDEN fingerprints below were
captured on the pre-batching tree (the parent of the PR that introduced
the batch APIs), so matching them proves the old single-record path and
the new batch path produce bit-identical simulated behavior -- and pins
every future refactor to the same contract.

If one of these tests fails after an intentional behavioral change (a
protocol fix, a new timing model), re-derive the fingerprint with the
``fingerprint`` helper below and document why it moved.
"""

from __future__ import annotations

import hashlib

from repro.core.horam import HybridORAM, build_horam
from repro.core.sharding import ShardedHORAM, build_sharded_horam
from repro.crypto.random import DeterministicRandom
from repro.oram.factory import build_baseline
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import Metrics
from repro.workload.generators import hotspot

#: Captured on the pre-batching tree; see module docstring.
GOLDEN = {
    "full_shuffle": "c72c6471846deb7140404e1eb25bb451",
    "partial_shuffle": "11183473162ce57e9a4f9e3d07beb3d9",
}

#: Captured when the kernel protocols landed: pins the succinct
#: hierarchical and BIOS backends the way GOLDEN pins H-ORAM, so kernel
#: refactors cannot silently change what any registered protocol serves.
GOLDEN_KERNEL = {
    "succinct": "ae87bf512baf142580a454d42943ce29",
    "bios": "c188daeb78493dafc8d27127844bf313",
}

#: Captured on the tree that introduced the conformance harness (the
#: first point the shard layer exposed per-shard traces); pins the
#: sharded serving layer -- routing, lockstep padding, cross-shard
#: retirement -- the way GOLDEN pins the single-instance engine.
GOLDEN_SHARDED = {
    2: "34d7459da1ecde2bed7ed7d84e6fea1c",
    4: "fba55dfdaa07c4e4dd74147dc533b2b3",
}


class Recorder:
    """Passes a stack through, keeping every entry ``submit`` returned."""

    def __init__(self, stack):
        self.stack = stack
        self.entries = []

    def submit(self, request):
        entry = self.stack.submit(request)
        self.entries.append(entry)
        return entry

    def __getattr__(self, name):
        return getattr(self.stack, name)


def serve_order(entries) -> "list[tuple[int, int]]":
    """``(addr, served cycle)`` in the order the kernel served them.

    A stable sort by cycle is enough: within a cycle the scheduler takes
    hits in ROB order, which is submission order.
    """
    return [(e.addr, e.served_cycle) for e in sorted(entries, key=lambda e: e.served_cycle)]


def fleet_serve_order(entries, n_shards: int) -> "list[tuple[int, int, int]]":
    """``(shard, global addr, shard cycle)``: each shard's serve order, by shard."""
    return [
        (shard, addr, cycle)
        for shard in range(n_shards)
        for addr, cycle in serve_order(e for e in entries if e.addr % n_shards == shard)
    ]


def fingerprint(oram: HybridORAM, metrics: Metrics, entries) -> str:
    """Digest of everything observable: serve order, metrics, bus trace."""
    h = hashlib.blake2b(digest_size=16)
    for addr, cycle in serve_order(entries):
        h.update(f"s:{addr}:{cycle};".encode())
    md = metrics.to_dict()
    for key in sorted(md):
        if key == "extra":
            continue
        h.update(f"m:{key}={md[key]!r};".encode())
    for key in sorted(md["extra"]):
        h.update(f"x:{key}={md['extra'][key]!r};".encode())
    for e in oram.hierarchy.trace.events:
        h.update(f"t:{e.op}:{e.tier}:{e.slot}:{e.size}:{e.time_us!r}:{e.label};".encode())
    return h.hexdigest()


def run_case(n_blocks, mem_tree_blocks, requests, ratio=1, write_ratio=0.25):
    oram = build_horam(
        n_blocks=n_blocks,
        mem_tree_blocks=mem_tree_blocks,
        seed=42,
        trace=True,
        shuffle_period_ratio=ratio,
    )
    stream = list(
        hotspot(
            n_blocks,
            requests,
            DeterministicRandom(7),
            hot_blocks=max(16, oram.period_capacity // 3),
            write_ratio=write_ratio,
        )
    )
    recorder = Recorder(oram)
    metrics = SimulationEngine(recorder, verify=True).run(stream)
    return fingerprint(oram, metrics, recorder.entries)


def run_kernel_case(protocol, n_blocks=512, mem=128, requests=500, write_ratio=0.25):
    oram = build_baseline(
        protocol,
        n_blocks,
        memory_blocks=mem,
        seed=42,
        trace=True,
    )
    stream = list(
        hotspot(
            n_blocks,
            requests,
            DeterministicRandom(7),
            hot_blocks=max(16, oram.period_capacity // 3),
            write_ratio=write_ratio,
        )
    )
    recorder = Recorder(oram)
    metrics = SimulationEngine(recorder, verify=True).run(stream)
    return fingerprint(oram, metrics, recorder.entries)


def sharded_fingerprint(sharded: ShardedHORAM, metrics: Metrics, entries) -> str:
    """Digest of the fleet's observables: per-shard serve order, metrics, traces."""
    h = hashlib.blake2b(digest_size=16)
    for shard_index, addr, cycle in fleet_serve_order(entries, sharded.n_shards):
        h.update(f"s{shard_index}:{addr}:{cycle};".encode())
    md = metrics.to_dict()
    for key in sorted(md):
        if key == "extra":
            continue
        h.update(f"m:{key}={md[key]!r};".encode())
    for key in sorted(md["extra"]):
        h.update(f"x:{key}={md['extra'][key]!r};".encode())
    for shard_index, shard in enumerate(sharded.shards):
        for e in shard.hierarchy.trace.events:
            h.update(
                f"t{shard_index}:{e.op}:{e.tier}:{e.slot}:{e.size}:{e.time_us!r}:{e.label};".encode()
            )
    return h.hexdigest()


def run_sharded_case(n_shards, n_blocks=1024, mem=128, requests=400):
    sharded = build_sharded_horam(
        n_blocks=n_blocks,
        mem_tree_blocks=mem,
        n_shards=n_shards,
        seed=42,
        trace=True,
    )
    stream = list(
        hotspot(
            n_blocks,
            requests,
            DeterministicRandom(7),
            hot_blocks=48,
            write_ratio=0.25,
        )
    )
    recorder = Recorder(sharded)
    metrics = SimulationEngine(recorder, verify=True).run(stream)
    return sharded_fingerprint(sharded, metrics, recorder.entries)


class TestGoldenFingerprints:
    def test_full_shuffle_matches_prebatch_engine(self):
        """Seeded full-shuffle run is bit-identical to the single-record path."""
        assert run_case(512, 128, 600) == GOLDEN["full_shuffle"]

    def test_partial_shuffle_matches_prebatch_engine(self):
        """Ratio-4 partial shuffle (overflow appends) is bit-identical too."""
        assert run_case(1024, 128, 900, ratio=4) == GOLDEN["partial_shuffle"]

    def test_repeat_runs_are_identical(self):
        """Two fresh instances on the same seed produce the same fingerprint."""
        assert run_case(512, 128, 300) == run_case(512, 128, 300)


class TestGoldenKernelFingerprints:
    def test_succinct_matches_golden(self):
        """The single-round-trip hierarchy is pinned on the shared kernel."""
        assert run_kernel_case("succinct") == GOLDEN_KERNEL["succinct"]

    def test_bios_matches_golden(self):
        assert run_kernel_case("bios") == GOLDEN_KERNEL["bios"]

    def test_repeat_kernel_runs_are_identical(self):
        assert run_kernel_case("succinct", requests=200) == run_kernel_case(
            "succinct", requests=200
        )


class TestGoldenShardedFingerprints:
    def test_two_shards_match_golden(self):
        """Seeded 2-shard run is pinned: refactors of the shard layer must
        preserve routing, lockstep padding and retirement bit-for-bit."""
        assert run_sharded_case(2) == GOLDEN_SHARDED[2]

    def test_four_shards_match_golden(self):
        assert run_sharded_case(4) == GOLDEN_SHARDED[4]

    def test_repeat_sharded_runs_are_identical(self):
        assert run_sharded_case(2, requests=150) == run_sharded_case(2, requests=150)

"""Attack tests: succeed on the plain store, fail on the ORAMs."""

import pytest

from repro.core.horam import build_horam
from repro.crypto.random import DeterministicRandom
from repro.oram.factory import build_path_oram, build_plain
from repro.security.attacks import (
    burst_correlation_attack,
    frequency_attack,
    repeat_access_attack,
)
from repro.workload.generators import hotspot, sequential_scan

N = 512
HOT = 12


def run_plain(requests):
    store = build_plain(n_blocks=N, seed=1, trace=True)
    for request in requests:
        store.read(request.addr)
    return store


def run_horam(requests):
    return run_horam_entries(requests)[0]


def run_horam_entries(requests):
    """The stack after serving ``requests`` as one batch, and their entries."""
    oram = build_horam(n_blocks=N, mem_tree_blocks=128, seed=1, trace=True)
    entries = [oram.submit(request) for request in requests]
    oram.drain()
    return oram, entries


@pytest.fixture(scope="module")
def hot_workload():
    rng = DeterministicRandom(3)
    return list(hotspot(N, 1200, rng, hot_blocks=HOT, hot_probability=0.9))


class TestFrequencyAttack:
    def test_recovers_hot_set_from_plain_store(self, hot_workload):
        store = run_plain(hot_workload)
        outcome = frequency_attack(store.hierarchy.trace, set(range(HOT)))
        assert outcome.score > 0.9  # near-total recovery

    def test_fails_against_horam(self, hot_workload):
        oram = run_horam(hot_workload)
        outcome = frequency_attack(oram.hierarchy.trace, set(range(HOT)))
        # Chance level: HOT/total_slots ~ 2%.
        assert outcome.score < 0.35

    def test_empty_inputs(self):
        from repro.storage.trace import TraceRecorder

        assert frequency_attack(TraceRecorder(), set()).score == 0.0


class TestRepeatAccessAttack:
    def test_links_repeats_on_plain_store(self, hot_workload):
        store = run_plain(hot_workload)
        log = [r.addr for r in hot_workload]
        outcome = repeat_access_attack(store.hierarchy.trace, log)
        assert outcome.score == 1.0  # every repeat hits the same slot

    def test_unlinked_on_horam(self, hot_workload):
        oram, entries = run_horam_entries(hot_workload)
        # H-ORAM's loads do not align 1:1 with requests (that is the
        # cache's whole point), so feed the attack the load-aligned view:
        # repeated logical fetches across epochs, in serve order (a stable
        # sort by served cycle: within a cycle hits go in ROB order).
        log = [entry.addr for entry in sorted(entries, key=lambda e: e.served_cycle)]
        outcome = repeat_access_attack(oram.hierarchy.trace, log)
        assert outcome.score < 0.2


class TestBurstCorrelationAttack:
    def test_detects_sequential_scan_on_plain_store(self):
        rng = DeterministicRandom(5)
        requests = list(sequential_scan(N, 600, rng))
        store = run_plain(requests)
        outcome = burst_correlation_attack(store.hierarchy.trace, window=8)
        assert outcome.score > 0.9

    def test_no_locality_visible_through_horam(self):
        rng = DeterministicRandom(5)
        requests = list(sequential_scan(N, 600, rng))
        oram = run_horam(requests)
        outcome = burst_correlation_attack(oram.hierarchy.trace, window=8)
        # Chance level ~ 2*8/total_slots ~ 3%.
        assert outcome.score < 0.25

    def test_path_oram_also_hides_locality(self):
        rng = DeterministicRandom(5)
        requests = list(sequential_scan(N, 300, rng))
        oram = build_path_oram(n_blocks=N, memory_blocks=128, seed=1, trace=True)
        for request in requests:
            oram.read(request.addr)
        outcome = burst_correlation_attack(oram.hierarchy.trace, window=8)
        # Bucket runs within a path are spatially adjacent per level, but
        # the level-to-level jumps dominate; far below the plain store.
        assert outcome.score < 0.6

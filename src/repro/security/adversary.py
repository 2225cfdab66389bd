"""A pattern adversary over recorded traces.

:class:`PatternAnalyzer` implements the attacks an observer of the memory
and I/O buses could mount, and quantifies what they yield:

* *leaf uniformity* -- Path ORAM's guarantee is that path choices look
  uniform; a biased leaf histogram would let frequency analysis in.
* *load uniformity* -- H-ORAM's storage loads should spread uniformly
  over unconsumed slots; clustering would reveal hot logical regions.
* *repeat-access linkage* -- accessing the same logical block twice must
  not touch the same physical slot in two different epochs.
* *hit/miss distinguishability* -- with the secure scheduler every cycle
  has the same shape, so per-cycle bus counts carry zero information
  about the request mix.

The analyzer only consumes public observables (the trace); the secret-side
logs some methods accept (e.g. the served-request log) are used to compute
what a *correlation* attack would score, not as adversary knowledge.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

from repro.security.statistics import (
    UniformTestResult,
    binned_histogram,
    chi_square_uniform_test,
    fold_histogram,
)
from repro.storage.trace import TraceRecorder


class PatternAnalyzer:
    """Attack toolbox over one recorded trace."""

    def __init__(self, trace: TraceRecorder):
        self.trace = trace

    # ------------------------------------------------------------ uniformity
    def storage_load_slots(self) -> list[int]:
        """Slots of single-block storage loads (the access-period reads)."""
        return [
            event.slot
            for event in self.trace.events
            if event.tier == "storage"
            and event.op == "read"
            and not event.is_marker
            and not event.label.startswith("run:")
        ]

    def load_uniformity(self, total_slots: int, bins: int = 16) -> UniformTestResult:
        """Chi-square test: do storage loads spread uniformly over slots?"""
        slots = self.storage_load_slots()
        if not slots:
            raise ValueError("trace contains no storage loads")
        counts = binned_histogram(slots, total_slots, bins)
        return chi_square_uniform_test(counts)

    def leaf_uniformity(self, leaf_counts: list[int], bins: int = 16) -> UniformTestResult:
        """Chi-square test over the tree's per-leaf access counts."""
        if not any(leaf_counts):
            raise ValueError("no leaf accesses recorded")
        return chi_square_uniform_test(fold_histogram(leaf_counts, min(bins, len(leaf_counts))))

    # --------------------------------------------------------------- linkage
    def repeat_slot_linkage(self) -> float:
        """Fraction of slots read in more than one epoch at the same address.

        Within an epoch read-once holds by invariant; across epochs the
        shuffle re-permutes, so a slot being read again is coincidence.
        Returns the collision fraction (should be small and, crucially,
        carry no addr correlation -- see ``linkage_by_epoch_pairs``).
        """
        epochs = self.trace.split_by_marker("shuffle-end")
        seen_per_epoch = []
        for events in epochs:
            slots = {
                e.slot
                for e in events
                if e.tier == "storage" and e.op == "read" and not e.label.startswith("run:")
            }
            if slots:
                seen_per_epoch.append(slots)
        if len(seen_per_epoch) < 2:
            return 0.0
        collisions = 0
        total = 0
        for earlier, later in zip(seen_per_epoch, seen_per_epoch[1:]):
            total += len(later)
            collisions += len(earlier & later)
        return collisions / total if total else 0.0

    def slot_reuse_counter(self) -> Counter:
        """How often each storage slot was load-read across the whole trace."""
        return Counter(self.storage_load_slots())

    # --------------------------------------------------- correlation attack
    @staticmethod
    def address_slot_correlation(
        observations: list[tuple[int, int]],
    ) -> float:
        """Score a linkage attack on (logical addr, physical slot) pairs.

        Given the *secret* pairing (for evaluation only), computes the
        fraction of logical addresses that were observed at the same
        physical slot more than once across epochs.  A secure scheme keeps
        this at the birthday-collision floor; a broken permutation would
        push it toward 1.
        """
        slots_per_addr: dict[int, list[int]] = defaultdict(list)
        for addr, slot in observations:
            slots_per_addr[addr].append(slot)
        repeated = 0
        eligible = 0
        for slots in slots_per_addr.values():
            if len(slots) < 2:
                continue
            eligible += 1
            if len(set(slots)) < len(slots):
                repeated += 1
        return repeated / eligible if eligible else 0.0

    # ------------------------------------------------------------- shape
    def per_cycle_io_counts(self) -> list[int]:
        """Storage loads per scheduler cycle (needs cycle markers)."""
        counts: list[int] = []
        current = 0
        in_cycle = False
        for event in self.trace.events:
            if event.is_marker:
                if event.label == "cycle-start":
                    current = 0
                    in_cycle = True
                elif event.label == "cycle-end":
                    if in_cycle:
                        counts.append(current)
                    in_cycle = False
                continue
            if (
                in_cycle
                and event.tier == "storage"
                and event.op == "read"
                and not event.label.startswith("run:")
            ):
                current += 1
        return counts

    def shape_entropy(self) -> float:
        """Shannon entropy (bits) of the per-cycle I/O count distribution.

        Zero means every cycle looks identical on the storage bus -- the
        scheduler's obliviousness claim (Section 4.4.2).
        """
        counts = self.per_cycle_io_counts()
        if not counts:
            return 0.0
        frequency = Counter(counts)
        total = sum(frequency.values())
        entropy = 0.0
        for occurrences in frequency.values():
            p = occurrences / total
            entropy -= p * math.log2(p)
        return entropy

"""An explicit permutation over an integer domain.

The square-root ORAM baseline keeps blocks at *permuted* physical slots.
:class:`RandomPermutation` is that permutation as an explicit Fisher-Yates
array, the same form as H-ORAM's *permutation list* (the paper keeps the
list in the secure control layer, so O(N) secure memory for it is part of
the design).  It exposes ``forward``/``inverse`` and is validated to be a
bijection by property tests.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.crypto.random import DeterministicRandom


class RandomPermutation:
    """Explicit array permutation with O(1) forward and inverse lookups.

    This is the data structure behind H-ORAM's *permutation list*: the
    secure control layer records, for every logical block, which physical
    slot currently stores it.  ``refresh`` draws a completely new random
    permutation (the logical effect of a full shuffle).
    """

    def __init__(self, domain: int, rng: DeterministicRandom):
        if domain <= 0:
            raise ValueError("domain must be positive")
        self.domain = domain
        self._rng = rng
        self._forward = list(range(domain))
        self._inverse = list(range(domain))
        self.refresh()

    def refresh(self) -> None:
        """Draw a fresh uniform permutation (Fisher-Yates)."""
        self._rng.shuffle(self._forward)
        for slot_index, element in enumerate(self._forward):
            self._inverse[element] = slot_index
        # _forward[x] is the slot of element x after the rebuild below.
        rebuilt = [0] * self.domain
        for slot_index, element in enumerate(self._forward):
            rebuilt[element] = slot_index
        self._forward, self._inverse = rebuilt, self._forward

    def forward(self, x: int) -> int:
        return self._forward[x]

    def inverse(self, y: int) -> int:
        return self._inverse[y]

    def swap_slots(self, slot_a: int, slot_b: int) -> None:
        """Swap the contents of two physical slots, keeping lookups consistent."""
        element_a = self._inverse[slot_a]
        element_b = self._inverse[slot_b]
        self._inverse[slot_a], self._inverse[slot_b] = element_b, element_a
        self._forward[element_a], self._forward[element_b] = slot_b, slot_a

    def assign(self, assignments: Iterable[tuple[int, int]]) -> None:
        """Bulk-assign (element, slot) pairs; caller guarantees bijectivity."""
        for element, slot in assignments:
            self._forward[element] = slot
            self._inverse[slot] = element

    def as_sequence(self) -> Sequence[int]:
        """Read-only view: index = element, value = physical slot."""
        return tuple(self._forward)

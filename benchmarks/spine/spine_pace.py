"""Machine-speed compensation for host timings.

The sandbox this benchmark runs in does not run at one speed: the same
single-threaded loop takes 20-40 % longer for seconds at a time, several
times a minute, with no steal time reported (README.md has the trace).
Identical repetitions of one engine phase spread 24 % between their
quartiles there, which no bound of 10 % survives.

So every timed interval is bracketed by (or, in the open loop,
interleaved with) a fixed calibration kernel -- standard library only,
no code under test -- and reported in *paced* seconds: wall seconds
scaled by ``REFERENCE_UNIT_S / kernel duration observed around the
interval``.  The same repetitions then spread 7 %.  Raw wall-clock
values are kept beside every paced one in the result file.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from bisect import bisect_left, bisect_right

#: Duration of one kernel call on this sandbox when nothing disturbs it.
#: Only the scale of paced seconds depends on it: paced == wall on a
#: machine that runs the kernel in exactly this time.
REFERENCE_UNIT_S = 0.00135
#: Kernel calls per bracket; their median is what the bracket contributes.
BURST = 11
#: Samples this far outside an interval still describe it.
SLACK_S = 0.1

_HASHER = hashlib.blake2b(key=b"spine-pace-kernel", digest_size=64)
_MASK = (1 << 512) - 1


def kernel() -> None:
    """Keyed-hash, big-int XOR and buffer writes: what the stack's own
    hot paths are made of, in fixed amount, without calling the stack."""
    accumulator = 0
    buffer = bytearray(4096)
    for index in range(1500):
        h = _HASHER.copy()
        h.update(index.to_bytes(16, "little"))
        accumulator ^= int.from_bytes(h.digest(), "little")
        slot = (index % 64) * 64
        buffer[slot : slot + 64] = (accumulator & _MASK).to_bytes(64, "little")


class Pace:
    """A time series of kernel durations and the scaling they imply."""

    def __init__(self):
        self.times: list[float] = []
        self.units: list[float] = []

    def sample(self) -> None:
        began = time.perf_counter()
        kernel()
        ended = time.perf_counter()
        self.times.append(ended)
        self.units.append(ended - began)

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample()

    def factor(self, began: float, ended: float) -> float:
        """Paced seconds per wall second around [began, ended]."""
        low = bisect_left(self.times, began - SLACK_S)
        high = bisect_right(self.times, ended + SLACK_S)
        if high == low:  # nothing sampled that near: borrow the neighbours
            low, high = max(0, low - 1), min(len(self.times), high + 1)
        return REFERENCE_UNIT_S / statistics.median(self.units[low:high])

    def paced(self, began: float, ended: float) -> float:
        return (ended - began) * self.factor(began, ended)

    def summary(self) -> dict:
        q1, median, q3 = statistics.quantiles(self.units, n=4)
        return {
            "samples": len(self.units),
            "unit_ms": {"q1": q1 * 1e3, "median": median * 1e3, "q3": q3 * 1e3},
            "reference_unit_ms": REFERENCE_UNIT_S * 1e3,
        }

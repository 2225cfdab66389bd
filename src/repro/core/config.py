"""H-ORAM configuration.

One dataclass gathers every protocol knob the paper exposes, with defaults
matching the experimental setup of Section 5.2:

* bucket size Z = 4 ("a moderate Path ORAM parameter"),
* the three-stage c schedule {c1=1, c2=3, c3=5} with request fractions
  {0.2, 0.13, 0.67} (average c = 3.94),
* CacheShuffle as the in-memory shuffle,
* full shuffle every period (``shuffle_period_ratio = 1``; larger values
  enable the Section 5.3.1 partial shuffle).

``payload_bytes`` and ``modeled_block_bytes`` are decoupled so large
simulations can keep functional fidelity (every block stores and round-
trips real bytes) without paying wall-clock for kilobyte payloads; the
device models charge simulated time for ``modeled_block_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.stages import StageSchedule
from repro.shuffle import shuffle_names


@dataclass
class HORAMConfig:
    """Parameters of one H-ORAM instance."""

    #: N -- logical blocks protected.
    n_blocks: int
    #: n -- memory-tier slot budget for the cache tree, in blocks.
    mem_tree_blocks: int
    #: Z -- Path ORAM bucket size.
    bucket_size: int = 4
    #: bytes actually stored per block payload.
    payload_bytes: int = 16
    #: bytes the timing model charges per block.
    modeled_block_bytes: int = 1024
    #: the (c, request fraction) schedule of Section 4.2.
    stages: StageSchedule = field(default_factory=StageSchedule.paper_default)
    #: d -- ROB lookahead window; None means 3x the current c (the paper's
    #: example uses c=3, d=9).
    prefetch_window: int | None = None
    #: in-memory shuffle algorithm (see repro.shuffle.shuffle_names()).
    shuffle_algorithm: str = "cache"
    #: r -- each partition is shuffled every r periods (1 = full shuffle,
    #: the paper's default; >1 = Section 5.3.1 partial shuffle).
    shuffle_period_ratio: int = 1
    #: deterministic seed for all protocol randomness.
    seed: int = 0
    #: overlap the per-cycle I/O load with the c in-memory reads.
    overlap_io: bool = True
    #: hard bound on cache-tree stash entries (None = unbounded, tracked).
    stash_limit: int | None = None

    def __post_init__(self) -> None:
        if self.n_blocks <= 0:
            raise ValueError("n_blocks must be positive")
        if self.mem_tree_blocks < 2 * self.bucket_size:
            raise ValueError("mem_tree_blocks must hold at least two buckets")
        if self.mem_tree_blocks >= self.n_blocks:
            raise ValueError(
                "H-ORAM targets datasets larger than memory; "
                f"mem_tree_blocks ({self.mem_tree_blocks}) must be < n_blocks ({self.n_blocks})"
            )
        if self.bucket_size < 1:
            raise ValueError("bucket_size must be positive")
        if self.payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")
        if self.modeled_block_bytes <= 0:
            raise ValueError("modeled_block_bytes must be positive")
        if self.shuffle_algorithm not in shuffle_names():
            raise ValueError(
                f"unknown shuffle algorithm '{self.shuffle_algorithm}'; "
                f"choose from {shuffle_names()}"
            )
        if self.shuffle_period_ratio < 1:
            raise ValueError("shuffle_period_ratio must be >= 1")
        if self.prefetch_window is not None and self.prefetch_window < 2:
            raise ValueError("prefetch_window must leave room for one hit and one miss")

    def window_for(self, c: int) -> int:
        """Lookahead distance d for the current c (d > c, Section 4.2)."""
        if self.prefetch_window is not None:
            return max(self.prefetch_window, c + 1)
        return 3 * max(1, c)

    @property
    def average_c(self) -> float:
        """The paper's c-bar (equation 5-1)."""
        return self.stages.average_c()

"""System profiling: shuffle-ratio tuning (Section 5.3.1).

The paper: "Through this method, we can compute a proper shuffle ratio
with a system profiling, which balances the shuffle overhead and the I/O
overhead."  :func:`profile_shuffle_ratio` is that profiler: it replays a
sample of the target workload against candidate ratios on a throwaway
H-ORAM clone and returns the ratio with the lowest simulated total time,
together with the full sweep so callers can inspect the trade-off curve.

The profiling runs are cheap (the sample defaults to a few thousand
requests at the instance's own geometry) and fully deterministic, so the
recommendation is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import HORAMConfig
from repro.core.horam import build_horam
from repro.oram.base import Request
from repro.sim.engine import SimulationEngine


@dataclass(frozen=True)
class RatioProfile:
    """One candidate ratio's measured behaviour on the sample."""

    ratio: int
    total_time_us: float
    shuffle_time_us: float
    access_time_us: float
    shuffles: int
    appended_blocks: int


@dataclass(frozen=True)
class ProfileResult:
    """Outcome of a profiling sweep."""

    best_ratio: int
    profiles: tuple[RatioProfile, ...]

    def profile_for(self, ratio: int) -> RatioProfile:
        for profile in self.profiles:
            if profile.ratio == ratio:
                return profile
        raise KeyError(f"ratio {ratio} was not profiled")


def profile_shuffle_ratio(
    config: HORAMConfig,
    sample: list[Request],
    ratios: tuple[int, ...] = (1, 2, 4, 8),
    storage_device=None,
) -> ProfileResult:
    """Replay ``sample`` under each candidate ratio; pick the fastest.

    The sample should resemble the production workload (same skew and
    read/write mix) and be long enough to cross a few shuffle periods --
    a sample that never shuffles would trivially favour large ratios.
    """
    if not sample:
        raise ValueError("profiling needs a non-empty request sample")
    if not ratios:
        raise ValueError("need at least one candidate ratio")

    profiles = []
    for ratio in ratios:
        probe = build_horam(
            n_blocks=config.n_blocks,
            mem_tree_blocks=config.mem_tree_blocks,
            payload_bytes=config.payload_bytes,
            modeled_block_bytes=config.modeled_block_bytes,
            seed=config.seed,
            storage_device=storage_device,
            bucket_size=config.bucket_size,
            stages=config.stages,
            prefetch_window=config.prefetch_window,
            shuffle_algorithm=config.shuffle_algorithm,
            shuffle_period_ratio=ratio,
        )
        metrics = SimulationEngine(probe).run(
            [Request(op=r.op, addr=r.addr, data=r.data) for r in sample]
        )
        profiles.append(
            RatioProfile(
                ratio=ratio,
                total_time_us=metrics.total_time_us,
                shuffle_time_us=metrics.shuffle_time_us,
                access_time_us=metrics.access_time_us,
                shuffles=metrics.shuffle_count,
                appended_blocks=metrics.extra.get("blocks_appended", 0),
            )
        )

    best = min(profiles, key=lambda p: p.total_time_us)
    return ProfileResult(best_ratio=best.ratio, profiles=tuple(profiles))

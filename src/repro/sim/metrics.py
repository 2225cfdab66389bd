"""Experiment counters.

:class:`Metrics` is the single record every experiment reports from; the
fields mirror the rows of the paper's Tables 5-3 / 5-4 (number of I/O
accesses, average I/O latency, shuffle time, total time) plus the extra
diagnostics the ablations need (dummy ratios, stash peaks, channel
utilization).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a list of numbers."""
    if not values:
        raise ValueError("percentile of empty list")
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    if q == 0:
        return float(ordered[0])
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n*q/100)
    return float(ordered[int(rank) - 1])


class Histogram:
    """Counts of non-negative integer samples; mergeable, bounded in size.

    A value below ``2**PRECISION_BITS`` (4096) has a bucket of its own, so
    :meth:`percentiles` returns exactly what :func:`percentile` returns on
    the samples themselves.  A larger value shares a bucket with the
    values that agree with it on their top ``PRECISION_BITS`` bits and
    reads back as the bucket's smallest value (relative error under
    ``2**-(PRECISION_BITS - 1)``, 0.05 %).  The bucket count therefore
    depends on the range of the values, never on how many were recorded:
    at most 4096 plus 2048 per octave above it.  Two histograms merge by
    adding counts.
    """

    PRECISION_BITS = 12
    _EXACT_BELOW = 1 << PRECISION_BITS

    def __init__(self) -> None:
        #: bucket floor -> samples in the bucket
        self.counts: dict[int, int] = {}
        self.total = 0

    @classmethod
    def bucket(cls, value: int) -> int:
        """The floor of the bucket ``value`` is counted in."""
        if value < cls._EXACT_BELOW:
            if value < 0:
                raise ValueError(f"histogram samples must be >= 0, got {value}")
            return value
        shift = value.bit_length() - cls.PRECISION_BITS
        return value >> shift << shift

    def add(self, value: int) -> None:
        self.add_many((value,))

    def add_many(self, values) -> None:
        counts = self.counts
        exact_below = self._EXACT_BELOW
        added = 0
        for value in values:
            key = value if 0 <= value < exact_below else self.bucket(value)
            counts[key] = counts.get(key, 0) + 1
            added += 1
        self.total += added

    def merge(self, other: "Histogram") -> "Histogram":
        """Add ``other``'s counts into this histogram; returns ``self``."""
        counts = self.counts
        for key, count in other.counts.items():
            counts[key] = counts.get(key, 0) + count
        self.total += other.total
        return self

    def since(self, earlier: "Histogram") -> "Histogram":
        """The samples added after ``earlier`` (a :meth:`copy` of this one)."""
        delta = Histogram()
        if self.total == earlier.total:
            return delta
        before = earlier.counts
        delta.counts = {
            key: count - before.get(key, 0)
            for key, count in self.counts.items()
            if count != before.get(key, 0)
        }
        delta.total = self.total - earlier.total
        return delta

    def copy(self) -> "Histogram":
        clone = Histogram()
        clone.counts = dict(self.counts)
        clone.total = self.total
        return clone

    def __eq__(self, other) -> bool:
        return isinstance(other, Histogram) and self.counts == other.counts

    def percentiles(self, quantiles) -> "dict":
        """Nearest-rank percentiles, one ordered pass for all quantiles.

        Zero for every quantile while the histogram is empty.
        """
        if not self.total:
            return {q: 0.0 for q in quantiles}
        ranks = []
        for q in quantiles:
            if not 0 <= q <= 100:
                raise ValueError("q must be in [0, 100]")
            ranks.append((max(1, -(-self.total * q // 100)), q))  # ceil(n*q/100)
        ranks.sort()
        result = {}
        pending = iter(ranks)
        rank, q = next(pending)
        seen = 0
        for key in sorted(self.counts):
            seen += self.counts[key]
            while seen >= rank:
                result[q] = float(key)
                try:
                    rank, q = next(pending)
                except StopIteration:
                    return result
        raise AssertionError("histogram total disagrees with its counts")

    def to_list(self) -> "list[int]":
        """``[bucket, count, bucket, count, ...]`` in bucket order: the JSON
        form, one flat array, so saving and restoring build no object per
        bucket."""
        flat: list[int] = []
        for key in sorted(self.counts):
            flat += (key, self.counts[key])
        return flat

    @classmethod
    def from_list(cls, flat: "list[int]") -> "Histogram":
        histogram = cls()
        histogram.counts = dict(zip(flat[::2], flat[1::2]))
        histogram.total = sum(histogram.counts.values())
        return histogram


@dataclass
class TierTimes:
    """Durations split by tier, before the protocol decides what overlaps."""

    mem_us: float = 0.0
    io_us: float = 0.0

    def add(self, other: "TierTimes") -> "TierTimes":
        self.mem_us += other.mem_us
        self.io_us += other.io_us
        return self

    @property
    def serial_us(self) -> float:
        """Total when the two tiers do not overlap (Path ORAM baseline)."""
        return self.mem_us + self.io_us

    @property
    def overlapped_us(self) -> float:
        """Total when the tiers proceed in parallel (H-ORAM cycles)."""
        return max(self.mem_us, self.io_us)


@dataclass
class Metrics:
    """Counters accumulated over one simulated run."""

    # Request-level accounting.
    requests_submitted: int = 0
    requests_served: int = 0
    read_requests: int = 0
    write_requests: int = 0

    # Storage (I/O) tier.
    io_reads: int = 0
    io_writes: int = 0
    io_bytes_read: int = 0
    io_bytes_written: int = 0
    io_time_us: float = 0.0

    # Memory tier.
    mem_accesses: int = 0
    mem_bytes: int = 0
    mem_time_us: float = 0.0

    # Scheduler diagnostics (H-ORAM only).
    cycles: int = 0
    scheduled_hits: int = 0
    scheduled_misses: int = 0
    dummy_hits: int = 0
    dummy_misses: int = 0
    prefetched_hits: int = 0

    # Shuffle / maintenance.
    shuffle_count: int = 0
    shuffle_time_us: float = 0.0
    shuffle_bytes_read: int = 0
    shuffle_bytes_written: int = 0
    shuffle_io_reads: int = 0
    shuffle_io_writes: int = 0
    shuffle_io_time_us: float = 0.0
    shuffle_mem_time_us: float = 0.0
    evict_time_us: float = 0.0

    # Structure health.
    stash_peak: int = 0
    tree_real_blocks_peak: int = 0

    # Wall of simulated time (access period + shuffle period).
    total_time_us: float = 0.0

    extra: dict = field(default_factory=dict)

    # ------------------------------------------------------------- derived
    @property
    def io_accesses(self) -> int:
        """Number of storage-tier operations ("Number of I/O Access" row)."""
        return self.io_reads + self.io_writes

    @property
    def avg_io_latency_us(self) -> float:
        """Average latency of one storage access ("I/O Latency" row)."""
        if self.io_accesses == 0:
            return 0.0
        return self.io_time_us / self.io_accesses

    @property
    def total_time_ms(self) -> float:
        return self.total_time_us / 1000.0

    @property
    def shuffle_time_ms(self) -> float:
        return self.shuffle_time_us / 1000.0

    @property
    def access_time_us(self) -> float:
        """Simulated time excluding shuffle (the paper's non-shuffle case)."""
        return max(0.0, self.total_time_us - self.shuffle_time_us)

    @property
    def dummy_hit_ratio(self) -> float:
        total = self.scheduled_hits
        return self.dummy_hits / total if total else 0.0

    @property
    def dummy_miss_ratio(self) -> float:
        total = self.scheduled_misses
        return self.dummy_misses / total if total else 0.0

    # ------------------------------------------------------------- actions
    def record_stash(self, occupancy: int) -> None:
        if occupancy > self.stash_peak:
            self.stash_peak = occupancy

    def absorb_fault_stats(self, stats) -> None:
        """Fold a :class:`~repro.storage.faults.FaultStats` into ``extra``.

        Overwrites (rather than sums) the ``fault_*`` keys: the stats
        object is already cumulative for its injector, so absorbing a
        fresh snapshot must not double-count.  ``None`` is accepted so
        callers can pass an optional injector's stats straight through.
        """
        if stats is None:
            return
        self.extra.update(stats.to_extra())

    def merge(self, other: "Metrics") -> "Metrics":
        """Field-wise sum (peaks take max); numeric ``extra`` values sum.

        Non-numeric ``extra`` values keep last-wins union semantics; the
        numeric ones (all the protocol-emitted counters) add up so merging
        per-shard metrics does not silently drop counts.  ``bool`` extras
        are flags, not counters -- ``bool`` subclasses ``int``, so without
        the explicit exclusion a ``hardware_limited: True`` merged across
        two shards would read back as ``2``; flags keep last-wins instead.
        """
        merged = Metrics()
        for f in fields(Metrics):
            if f.name == "extra":
                continue
            a = getattr(self, f.name)
            b = getattr(other, f.name)
            if f.name in ("stash_peak", "tree_real_blocks_peak"):
                setattr(merged, f.name, max(a, b))
            else:
                setattr(merged, f.name, a + b)
        merged.extra = dict(self.extra)
        for key, value in other.extra.items():
            base = merged.extra.get(key)
            numeric = (
                isinstance(base, (int, float))
                and isinstance(value, (int, float))
                and not isinstance(base, bool)
                and not isinstance(value, bool)
            )
            if numeric:
                merged.extra[key] = base + value
            else:
                merged.extra[key] = value
        return merged

    def diff(self, earlier: "Metrics") -> "Metrics":
        """Field-wise delta since an earlier snapshot (peaks keep current)."""
        delta = Metrics()
        for f in fields(Metrics):
            if f.name == "extra":
                continue
            a = getattr(self, f.name)
            b = getattr(earlier, f.name)
            if f.name in ("stash_peak", "tree_real_blocks_peak"):
                setattr(delta, f.name, a)
            else:
                setattr(delta, f.name, a - b)
        delta.extra = dict(self.extra)
        return delta

    def copy(self) -> "Metrics":
        snapshot = Metrics()
        for f in fields(Metrics):
            if f.name == "extra":
                continue
            setattr(snapshot, f.name, getattr(self, f.name))
        snapshot.extra = dict(self.extra)
        return snapshot

    @classmethod
    def from_dict(cls, data: dict) -> "Metrics":
        """Rebuild from :meth:`to_dict` output (derived keys are ignored)."""
        metrics = cls()
        for f in fields(cls):
            if f.name == "extra":
                continue
            if f.name in data:
                setattr(metrics, f.name, data[f.name])
        metrics.extra = dict(data.get("extra", {}))
        return metrics

    def to_dict(self) -> dict:
        result = {f.name: getattr(self, f.name) for f in fields(Metrics) if f.name != "extra"}
        result.update(
            io_accesses=self.io_accesses,
            avg_io_latency_us=self.avg_io_latency_us,
            total_time_ms=self.total_time_ms,
            shuffle_time_ms=self.shuffle_time_ms,
        )
        result["extra"] = dict(self.extra)
        return result

    def summary_lines(self) -> list[str]:
        """Human-readable digest used by the examples and the CLI."""
        return [
            f"requests served      : {self.requests_served}",
            f"storage I/O accesses : {self.io_accesses} "
            f"({self.io_reads} reads / {self.io_writes} writes)",
            f"avg I/O latency      : {self.avg_io_latency_us:.1f} us",
            f"memory accesses      : {self.mem_accesses}",
            f"shuffles             : {self.shuffle_count} "
            f"({self.shuffle_time_ms:.1f} ms total)",
            f"total simulated time : {self.total_time_ms:.1f} ms",
        ]

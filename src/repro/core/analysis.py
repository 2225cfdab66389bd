"""Closed-form model of Section 5.1 (equations 5-1 through 5-6).

All quantities are in *blocks* unless a name says otherwise.  Notation
follows the paper: ``N`` total blocks, ``n`` memory-tree blocks, ``Z``
bucket size, ``c`` (or the stage-averaged c-bar) hits grouped per I/O
load.  ``write_weight`` expresses the read/write throughput asymmetry of
the device (the paper's HDD writes at roughly half its read speed, so the
evaluation uses weight ~2 for writes).

These functions regenerate Table 5-1 and the Figure 5-1 sweep, and give
the per-experiment theoretical expectations that :mod:`repro.bench`
prints beside the simulated results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.storage.device import DeviceModel


def average_c(stages: Iterable[tuple[int, float]]) -> float:
    """Equation 5-1: the request-weighted average c over the stage schedule.

    The paper's setup {c}={1,3,5} with fractions {0.2, 0.13, 0.67} gives
    3.94.
    """
    stages = list(stages)
    total = sum(fraction for _, fraction in stages)
    if total <= 0:
        raise ValueError("stage fractions must sum to a positive value")
    return sum(c * fraction for c, fraction in stages) / total


def storage_levels(n_total: int, n_mem: int) -> float:
    """Equation 5-2's right term: tree levels that spill to storage.

    ``log2(2N/n)`` -- the baseline stores 2N blocks total and the top
    levels holding n blocks stay in memory.
    """
    if n_total <= 0 or n_mem <= 0:
        raise ValueError("block counts must be positive")
    if n_mem >= 2 * n_total:
        return 0.0
    return math.log2(2 * n_total / n_mem)


def path_oram_io_blocks(n_total: int, n_mem: int, bucket_size: int) -> tuple[float, float]:
    """Equation 5-3: baseline blocks moved per access -- (reads, writes).

    Each access touches ``Z`` blocks per storage level, once for the path
    read and once for the write-back.
    """
    levels = storage_levels(n_total, n_mem)
    per_direction = bucket_size * levels
    return per_direction, per_direction


def horam_io_blocks(n_total: int, n_mem: int, c: float) -> tuple[float, float]:
    """Equation 5-4: H-ORAM blocks moved per request -- (reads, writes).

    One direct read per request plus the amortized shuffle: a period
    serves ``n*c/2`` requests and the shuffle streams ``N - n`` blocks in
    and ``N`` blocks out.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    requests_per_period = n_total and (n_mem * c / 2)
    if requests_per_period <= 0:
        raise ValueError("memory must hold at least one block")
    reads = 1 + 2 * (n_total - n_mem) / (n_mem * c)
    writes = 2 * n_total / (n_mem * c)
    return reads, writes


def requests_per_period(n_mem: int, c: float) -> int:
    """Equation 5-5: requests serviced per access period (n*c/2)."""
    return int(n_mem * c / 2)


def theoretical_gain(
    ratio: float,
    c: float,
    bucket_size: int = 4,
    write_weight: float = 1.0,
) -> float:
    """Figure 5-1's y-axis: overhead reduction factor at ``N/n = ratio``.

    Computed as the weighted block traffic of the baseline (eq. 5-3)
    divided by H-ORAM's (eq. 5-4); ``write_weight`` biases writes by the
    device's read/write asymmetry.
    """
    if ratio <= 1:
        raise ValueError("the model assumes storage larger than memory (ratio > 1)")
    # Work with n = 1, N = ratio.
    path_reads, path_writes = path_oram_io_blocks(int(ratio * 1024), 1024, bucket_size)
    horam_reads = 1 + 2 * (ratio - 1) / c
    horam_writes = 2 * ratio / c
    path_cost = path_reads + write_weight * path_writes
    horam_cost = horam_reads + write_weight * horam_writes
    return path_cost / horam_cost


def figure5_1_series(
    ratios: Sequence[float] = (2, 4, 8, 16, 32, 64),
    cs: Sequence[float] = (1, 2, 4, 8, 16),
    bucket_size: int = 4,
    write_weight: float = 2.0,
) -> dict[float, list[tuple[float, float]]]:
    """The Figure 5-1 sweep: {c: [(ratio, gain), ...]}.

    Default write weight 2.0 reflects the paper's measured HDD (reads
    twice as fast as writes, Section 5.2).
    """
    return {
        c: [(ratio, theoretical_gain(ratio, c, bucket_size, write_weight)) for ratio in ratios]
        for c in cs
    }


def ideal_gain_no_shuffle(n_total: int, n_mem: int, bucket_size: int = 4) -> float:
    """The Figure 5-2 discussion: gain when the shuffle is off the critical path.

    Without shuffle amortization H-ORAM moves 1 block per request while
    the baseline moves ``Z log2(2N/n)`` blocks each way -- the paper's
    "32 times faster" for the Table 5-1 configuration.
    """
    reads, writes = path_oram_io_blocks(n_total, n_mem, bucket_size)
    return reads + writes


@dataclass(frozen=True)
class PeriodOverheads:
    """One scheme's row set for Table 5-1."""

    scheme: str
    storage_bytes: int
    memory_bytes: int
    tree_levels_total: float
    tree_levels_memory: float
    requests_per_period: int
    access_read_kb: float
    access_write_kb: float
    shuffle_read_bytes: int
    shuffle_write_bytes: int
    avg_read_kb: float
    avg_write_kb: float


def table5_1(
    n_total: int = 1 << 20,
    n_mem: int = 1 << 17,
    block_bytes: int = 1024,
    bucket_size: int = 4,
    c: float = 4.0,
) -> tuple[PeriodOverheads, PeriodOverheads]:
    """Regenerate Table 5-1 for any configuration (defaults: the paper's).

    Returns (H-ORAM row set, Path ORAM row set).  Paper values at the
    defaults: 262,144 requests/period, 1 KB access read, 0.875 GB + 1 GB
    shuffle I/O, 4.5 KB / 4 KB average -- vs the baseline's fixed
    16 KB + 16 KB.
    """
    kb = block_bytes / 1024
    served = requests_per_period(n_mem, c)
    shuffle_read = (n_total - n_mem) * block_bytes
    shuffle_write = n_total * block_bytes
    horam = PeriodOverheads(
        scheme="H-ORAM",
        storage_bytes=n_total * block_bytes,
        memory_bytes=n_mem * block_bytes,
        tree_levels_total=math.log2(max(2, n_mem / bucket_size)),
        tree_levels_memory=math.log2(max(2, n_mem / bucket_size)),
        requests_per_period=served,
        access_read_kb=kb,
        access_write_kb=0.0,
        shuffle_read_bytes=shuffle_read,
        shuffle_write_bytes=shuffle_write,
        avg_read_kb=kb + shuffle_read / served / 1024,
        avg_write_kb=shuffle_write / served / 1024,
    )
    levels_mem = math.log2(max(2, n_mem / bucket_size))
    levels_io = storage_levels(n_total, n_mem)
    per_direction_kb = bucket_size * levels_io * kb
    path = PeriodOverheads(
        scheme="Path ORAM",
        storage_bytes=2 * n_total * block_bytes - n_mem * block_bytes,
        memory_bytes=n_mem * block_bytes,
        tree_levels_total=levels_mem + levels_io,
        tree_levels_memory=levels_mem,
        requests_per_period=n_mem // 2,
        access_read_kb=per_direction_kb,
        access_write_kb=per_direction_kb,
        shuffle_read_bytes=0,
        shuffle_write_bytes=0,
        avg_read_kb=per_direction_kb,
        avg_write_kb=per_direction_kb,
    )
    return horam, path


def predicted_speedup(
    n_total: int,
    n_mem: int,
    c: float,
    device: DeviceModel,
    block_bytes: int = 1024,
    bucket_size: int = 4,
    include_shuffle: bool = True,
) -> float:
    """Device-aware speedup prediction for the Table 5-3/5-4 shape check.

    Uses the device model's actual random/sequential and read/write
    timings rather than raw block counts: per request, the baseline pays
    ``log2(2N/n)`` scattered bucket reads + writes; H-ORAM pays ``1/c``
    random block reads plus its amortized *sequential* shuffle streams.
    """
    levels = storage_levels(n_total, n_mem)
    bucket_bytes = bucket_size * block_bytes
    path_us = levels * (
        device.access_us(bucket_bytes, write=False)
        + device.access_us(bucket_bytes, write=True)
    )

    horam_us = device.access_us(block_bytes, write=False) / c
    if include_shuffle:
        served = requests_per_period(n_mem, c)
        shuffle_us = device.run_us((n_total - n_mem) * block_bytes, write=False)
        shuffle_us += device.run_us(n_total * block_bytes, write=True)
        horam_us += shuffle_us / served
    return path_us / horam_us

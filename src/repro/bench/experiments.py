"""Experiment definitions: one function per table/figure + ablations.

Every experiment returns an :class:`ExperimentResult`: the CLI prints its
``table``, and its ``checks`` hold the run to the paper's shape -- each
:class:`Check` carries the measured value beside the published one, and a
failed check makes ``ok`` False, which exits ``horam-bench`` non-zero.

Scales
------
``quick``   seconds of wall-clock; what CI and tier-1 run.
``medium``  tens of seconds; the checked-in ``BENCH_*.json`` artifacts.
``full``    the paper's dataset sizes (64 MB / 1 GB modeled).

Workload note: the paper's stream sends 80% of requests to "a certain
area" of unspecified size.  Its measured I/O counts pin the area near 35%
of the memory tree's real capacity (``_hot_blocks`` has the derivation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.bench.tables import format_bytes, format_us, render_table
from repro.core import analysis
from repro.core.horam import HybridORAM, build_horam
from repro.core.multiuser import MultiUserFrontEnd
from repro.core.stages import StageSchedule
from repro.crypto.random import DeterministicRandom
from repro.oram.base import Request
from repro.oram.factory import (
    build_partition,
    build_path_oram,
    build_plain,
    build_square_root,
)
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import Metrics
from repro.storage.device import hdd_paper, hdd_realistic, ssd_sata
from repro.workload.generators import hotspot


@dataclass(frozen=True)
class Check:
    """One shape assertion: the measured value beside the published one."""

    claim: str
    measured: object
    passed: bool
    paper: str | None = None

    def render(self) -> str:
        line = f"[{'ok' if self.passed else 'FAIL'}] {self.claim}: {self.measured}"
        return line + (f" (paper: {self.paper})" if self.paper else "")


@dataclass
class ExperimentResult:
    """Output bundle of one experiment run."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list]
    table: str = ""
    notes: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    #: False exits the CLI non-zero: a gate the experiment computed itself
    #: (divergence from a twin, a non-conforming scenario) or a failed check.
    ok: bool = True

    def __post_init__(self) -> None:
        if not self.table:
            self.table = render_table(self.headers, self.rows)
        self.ok = self.ok and all(check.passed for check in self.checks)

    def render(self) -> str:
        lines = [self.title, ""]
        lines.append(self.table)
        if self.notes:
            lines.append("")
            lines.extend(f"* {note}" for note in self.notes)
        if self.checks:
            lines.append("")
            lines.extend(check.render() for check in self.checks)
        return "\n".join(lines)


# --------------------------------------------------------------------- scales
# Request counts are scaled so each run spans the paper's ~1.8 (Table 5-3)
# and ~2 (Table 5-4) access periods.
_TABLE53_SCALES = {
    # (N blocks, memory blocks, requests)  -- 1 KB modeled blocks.
    "quick": (8192, 1024, 2800),
    "medium": (16384, 2048, 5600),
    "full": (65536, 8192, 25000),  # the paper's 64 MB / 8 MB / 25k
}

_TABLE54_SCALES = {
    "quick": (16384, 2048, 7000),
    "medium": (65536, 8192, 40000),
    "full": (1 << 20, 1 << 17, 500000),  # the paper's 1 GB / 128 MB / 500k
}

_SMALL_SCALES = {
    "quick": (4096, 512, 1500),
    "medium": (8192, 1024, 3000),
    "full": (16384, 2048, 7000),
}


def _scale(table: dict, scale: str):
    try:
        return table[scale]
    except KeyError:
        raise ValueError(f"unknown scale '{scale}' (choose from {sorted(table)})") from None


def _hot_blocks(oram: HybridORAM) -> int:
    """Hot-area size implied by the paper's measured I/O counts.

    Table 5-3's 7,228 loads over 25,000 requests decompose into ~4,800
    cold misses (20% uniform tail) plus a per-period hot warm-up, which
    pins the hot area near 35% of the period capacity.
    """
    return max(16, int(0.35 * oram.period_capacity))


def _workload(
    n_blocks: int, count: int, hot_blocks: int, seed: int = 7, write_ratio: float = 0.0
) -> list[Request]:
    rng = DeterministicRandom(seed)
    return list(hotspot(n_blocks, count, rng, hot_blocks=hot_blocks, write_ratio=write_ratio))


def _speedup(path_metrics: Metrics, horam_metrics: Metrics) -> float:
    if horam_metrics.total_time_us <= 0:
        return float("inf")
    return path_metrics.total_time_us / horam_metrics.total_time_us


def _comparison_rows(
    horam: HybridORAM,
    metrics_h: Metrics,
    path,
    metrics_p: Metrics,
) -> list[list[str]]:
    """The row layout of Tables 5-3 / 5-4."""
    block = horam.hierarchy.modeled_slot_bytes
    h_storage = horam.storage.total_slots * block
    h_memory = horam.cache.slot_capacity * block
    p_storage = path.tree.storage_slots_needed * block
    p_memory = path.tree.memory_slots_needed * block
    return [
        [
            "Storage/Memory Size",
            f"{format_bytes(h_storage)} / {format_bytes(h_memory)}",
            f"{format_bytes(p_storage)} / {format_bytes(p_memory)}",
        ],
        # The paper counts one "I/O access" per storage visit: H-ORAM's
        # loads, and the baseline's per-request path access.
        ["Number of I/O Access", metrics_h.io_reads, metrics_p.requests_served],
        [
            "I/O Latency",
            f"{metrics_h.avg_io_latency_us:.0f} us",
            f"{metrics_p.io_time_us / max(1, metrics_p.requests_served):.0f} us",
        ],
        [
            "Shuffle Time",
            f"{format_us(metrics_h.shuffle_time_us / max(1, metrics_h.shuffle_count))}"
            f" * {metrics_h.shuffle_count}",
            "N/A",
        ],
        ["Total Time", format_us(metrics_h.total_time_us), format_us(metrics_p.total_time_us)],
    ]


def _run_pair(
    n_blocks: int,
    mem_blocks: int,
    request_count: int,
    storage_device=None,
    seed: int = 0,
) -> tuple[HybridORAM, Metrics, object, Metrics, list[Request]]:
    """Run H-ORAM and the Path ORAM baseline on one paired workload."""
    device = storage_device or hdd_paper()
    horam = build_horam(
        n_blocks=n_blocks,
        mem_tree_blocks=mem_blocks,
        seed=seed,
        storage_device=device,
    )
    requests = _workload(n_blocks, request_count, _hot_blocks(horam))
    metrics_h = SimulationEngine(horam).run(requests)

    path = build_path_oram(
        n_blocks=n_blocks,
        memory_blocks=mem_blocks,
        seed=seed,
        storage_device=device,
    )
    metrics_p = SimulationEngine(path).run(requests)
    return horam, metrics_h, path, metrics_p, requests


# ----------------------------------------------------------------- Table 5-1
def table5_1(scale: str = "full") -> ExperimentResult:
    """Analytical overhead comparison for one period (closed form)."""
    if scale == "full":
        n_total, n_mem = 1 << 20, 1 << 17  # 1 GB / 128 MB at 1 KB blocks
    else:
        n_total, n_mem = 1 << 16, 1 << 13  # 64 MB / 8 MB
    horam_row, path_row = analysis.table5_1(n_total=n_total, n_mem=n_mem)
    rows = [
        [
            "Storage/Memory Size",
            f"{format_bytes(horam_row.storage_bytes)} / {format_bytes(horam_row.memory_bytes)}",
            f"{format_bytes(path_row.storage_bytes)} / {format_bytes(path_row.memory_bytes)}",
        ],
        [
            "Path ORAM level",
            f"{horam_row.tree_levels_memory:.0f}",
            f"{path_row.tree_levels_memory:.0f} + {path_row.tree_levels_total - path_row.tree_levels_memory:.0f}",
        ],
        ["Requests Serviced", horam_row.requests_per_period, path_row.requests_per_period],
        [
            "Access Overhead",
            f"{horam_row.access_read_kb:.0f} KB (read)",
            f"{path_row.access_read_kb:.0f} KB (read) + {path_row.access_write_kb:.0f} KB (write)",
        ],
        [
            "Shuffle Overhead",
            f"{format_bytes(horam_row.shuffle_read_bytes)} (read) + "
            f"{format_bytes(horam_row.shuffle_write_bytes)} (write)",
            "N/A",
        ],
        [
            "Average Overhead",
            f"{horam_row.avg_read_kb:.1f} KB (read) + {horam_row.avg_write_kb:.1f} KB (write)",
            f"{path_row.avg_read_kb:.0f} KB (read) + {path_row.avg_write_kb:.0f} KB (write)",
        ],
    ]
    # The published averages hold for the 1 GB configuration only; the
    # closed form is instant, so check them there whatever the scale.
    paper_horam, paper_path = analysis.table5_1(n_total=1 << 20, n_mem=1 << 17)
    checks = [
        Check(
            f"{scheme} average {kind} overhead at 1 GB / 128 MB",
            f"{value:.2f} KB",
            math.isclose(value, published, rel_tol=1e-6),
            f"{published} KB",
        )
        for scheme, kind, value, published in (
            ("H-ORAM", "read", paper_horam.avg_read_kb, 4.5),
            ("H-ORAM", "write", paper_horam.avg_write_kb, 4.0),
            ("Path ORAM", "read", paper_path.avg_read_kb, 16.0),
            ("Path ORAM", "write", paper_path.avg_write_kb, 16.0),
        )
    ]
    return ExperimentResult(
        experiment_id="table5_1",
        title="Table 5-1: overhead comparison for one period (analytical)",
        headers=["", "H-ORAM", "Path ORAM"],
        rows=rows,
        data={
            "horam_avg_read_kb": horam_row.avg_read_kb,
            "horam_avg_write_kb": horam_row.avg_write_kb,
            "path_avg_read_kb": path_row.avg_read_kb,
            "path_avg_write_kb": path_row.avg_write_kb,
        },
        checks=checks,
    )


# ---------------------------------------------------------------- Figure 5-1
def figure5_1(scale: str = "full") -> ExperimentResult:
    """Theoretical gain over Path ORAM vs N/n ratio, per c (closed form)."""
    ratios = (2, 4, 8, 16, 32, 64)
    cs = (1, 2, 4, 8, 16)
    series = analysis.figure5_1_series(ratios=ratios, cs=cs)
    headers = ["N/n ratio"] + [f"c={c}" for c in cs]
    rows = []
    for index, ratio in enumerate(ratios):
        row: list[object] = [ratio]
        for c in cs:
            row.append(f"{series[c][index][1]:.2f}x")
        rows.append(row)
    peak = max(gain for c in cs for _, gain in series[c])
    curves = {c: dict(series[c]) for c in cs}
    peak_ratios = {c: max(curve, key=curve.get) for c, curve in curves.items()}
    tails = {c: [curve[ratio] for ratio in (8, 16, 32, 64)] for c, curve in curves.items()}
    checks = [
        Check(
            "gain grows with c at every N/n",
            "at N/n = 8: " + " < ".join(f"{curves[c][8]:.1f}x" for c in cs),
            all(
                [curves[c][ratio] for c in cs] == sorted(curves[c][ratio] for c in cs)
                for ratio in ratios
            ),
            "larger c, larger gain",
        ),
        Check(
            "every curve peaks at a small ratio (N/n <= 8)",
            f"peaks at N/n = {sorted(set(peak_ratios.values()))}",
            all(ratio <= 8 for ratio in peak_ratios.values()),
            "the advantage lives at small ratios",
        ),
        Check(
            "past N/n = 8 every curve only falls, ending below its peak",
            f"c=16: {tails[16][0]:.1f}x -> {tails[16][-1]:.1f}x over N/n = 8..64",
            all(
                tail == sorted(tail, reverse=True) and tail[-1] < curves[c][peak_ratios[c]]
                for c, tail in tails.items()
            ),
            "linear shuffle amortization overtakes the baseline's log growth",
        ),
        Check("peak gain in the sweep", f"{peak:.1f}x", 10 < peak < 20, "best 12x-16x"),
    ]
    return ExperimentResult(
        experiment_id="figure5_1",
        title="Figure 5-1: theoretical performance gain over Path ORAM (Z=4)",
        headers=headers,
        rows=rows,
        data={"series": series, "peak_gain": peak},
        checks=checks,
    )


# ---------------------------------------------------------------- Table 5-3/4
def _comparison_experiment(
    experiment_id: str,
    title: str,
    scales: dict,
    scale: str,
    paper_speedup: float,
    paper_io_reduction: float,
    paper_shuffles: int,
) -> ExperimentResult:
    n_blocks, mem_blocks, request_count = _scale(scales, scale)
    horam, metrics_h, path, metrics_p, requests = _run_pair(
        n_blocks, mem_blocks, request_count
    )
    speedup = _speedup(metrics_p, metrics_h)
    predicted = analysis.predicted_speedup(
        n_total=n_blocks,
        n_mem=horam.cache.slot_capacity,
        c=horam.config.average_c,
        device=horam.hierarchy.storage.device,
    )
    rows = _comparison_rows(horam, metrics_h, path, metrics_p)
    io_reduction = metrics_p.requests_served / max(1, metrics_h.io_reads)
    path_visit_us = metrics_p.io_time_us / max(1, metrics_p.requests_served)
    latency_gap = path_visit_us / metrics_h.avg_io_latency_us
    checks = [
        Check(
            "I/O access reduction in (2, 6)",
            f"{io_reduction:.2f}x",
            2.0 < io_reduction < 6.0,
            f"{paper_io_reduction}x",
        ),
        Check(
            "speedup over Path ORAM > 3, shuffle on the critical path",
            f"{speedup:.1f}x (closed form here: {predicted:.1f}x)",
            speedup > 3.0,
            f"{paper_speedup}x at full scale",
        ),
        Check(
            "per-visit I/O latency gap in (8, 20)",
            f"{latency_gap:.1f}x",
            8.0 < latency_gap < 20.0,
            "13.4x = 1032 us / 77 us in Table 5-3",
        ),
        Check(
            "H-ORAM I/O latency per load in (60, 130) us",
            f"{metrics_h.avg_io_latency_us:.0f} us",
            60 < metrics_h.avg_io_latency_us < 130,
            "77-107 us",
        ),
        Check(
            f"the run crosses >= {paper_shuffles} shuffle period(s)",
            metrics_h.shuffle_count,
            metrics_h.shuffle_count >= paper_shuffles,
            f"{paper_shuffles} in the paper's run",
        ),
        Check("Path ORAM never shuffles", metrics_p.shuffle_count, metrics_p.shuffle_count == 0),
    ]
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        headers=["", "H-ORAM", "Path ORAM"],
        rows=rows,
        notes=[
            f"scale '{scale}': N={n_blocks} blocks, memory={mem_blocks} blocks, "
            f"{request_count} requests, 1 KB modeled blocks",
        ],
        data={
            "speedup": speedup,
            "predicted_speedup": predicted,
            "io_reduction": io_reduction,
            "latency_gap": latency_gap,
            "horam": metrics_h.to_dict(),
            "path": metrics_p.to_dict(),
            "requests": len(requests),
        },
        checks=checks,
    )


def table5_3(scale: str = "quick") -> ExperimentResult:
    """64 MB dataset, 25,000 requests (paper speedup 19.8x)."""
    return _comparison_experiment(
        "table5_3",
        "Table 5-3: small dataset (64 MB class), H-ORAM vs Path ORAM",
        _TABLE53_SCALES,
        scale,
        paper_speedup=19.8,
        paper_io_reduction=3.46,
        paper_shuffles=1,
    )


def table5_4(scale: str = "quick") -> ExperimentResult:
    """1 GB dataset, 500,000 requests (paper speedup 22.9x)."""
    return _comparison_experiment(
        "table5_4",
        "Table 5-4: large dataset (1 GB class), H-ORAM vs Path ORAM",
        _TABLE54_SCALES,
        scale,
        paper_speedup=22.9,
        paper_io_reduction=3.8,
        paper_shuffles=2,
    )


# ---------------------------------------------------------------- Figure 5-2
def figure5_2(scale: str = "quick") -> ExperimentResult:
    """The non-shuffle (client/server) case: shuffle off the critical path."""
    n_blocks, mem_blocks, request_count = _scale(_TABLE53_SCALES, scale)
    horam, metrics_h, path, metrics_p, _ = _run_pair(n_blocks, mem_blocks, request_count)
    with_shuffle = _speedup(metrics_p, metrics_h)
    no_shuffle = (
        metrics_p.total_time_us / metrics_h.access_time_us
        if metrics_h.access_time_us > 0
        else float("inf")
    )
    ideal = analysis.ideal_gain_no_shuffle(n_blocks, horam.cache.slot_capacity)
    rows = [
        ["shuffle on critical path", f"{with_shuffle:.1f}x"],
        ["shuffle on server (free)", f"{no_shuffle:.1f}x"],
        ["paper's ideal bound", f"{ideal:.0f}x"],
    ]
    return ExperimentResult(
        experiment_id="figure5_2",
        title="Figure 5-2: speedup with the shuffle off the critical path",
        headers=["case", "speedup over Path ORAM"],
        rows=rows,
        notes=[
            "the paper argues a remote server can shuffle offline, making the "
            "access-period speedup the relevant number",
        ],
        data={
            "with_shuffle": with_shuffle,
            "no_shuffle": no_shuffle,
            "ideal": ideal,
        },
        checks=[
            Check(
                "H-ORAM wins either way, by more with the shuffle off the critical path",
                f"{no_shuffle:.1f}x > {with_shuffle:.1f}x > 1",
                no_shuffle > with_shuffle > 1.0,
            ),
            Check(
                "a free shuffle at least doubles the advantage",
                f"{no_shuffle / with_shuffle:.1f}x",
                no_shuffle > 2 * with_shuffle,
            ),
            Check(
                "analytic ideal 2*Z*log2(2N/n) for this ratio >= 24",
                f"{ideal:.0f}x",
                ideal >= 24,
                "32x for the Table 5-1 configuration",
            ),
        ],
    )


# ----------------------------------------------------------------- ablations
def _config_sweep(scale: str, variants: dict[object, dict], row) -> tuple[list[list], dict]:
    """One H-ORAM per variant (``build_horam`` overrides), all on the same
    paper workload; ``row(key, metrics)`` renders a variant's table row."""
    n_blocks, mem_blocks, request_count = _scale(_SMALL_SCALES, scale)
    rows = []
    data = {}
    for key, overrides in variants.items():
        horam = build_horam(n_blocks=n_blocks, mem_tree_blocks=mem_blocks, seed=0, **overrides)
        requests = _workload(n_blocks, request_count, _hot_blocks(horam))
        metrics = SimulationEngine(horam).run(requests)
        rows.append(row(key, metrics))
        data[key] = metrics.to_dict()
    return rows, data


def ablation_partial_shuffle(scale: str = "quick") -> ExperimentResult:
    """Section 5.3.1: shuffle 1/r of the partitions per period."""
    rows, data = _config_sweep(
        scale,
        {ratio: {"shuffle_period_ratio": ratio} for ratio in (1, 2, 4)},
        lambda ratio, metrics: [
            f"r={ratio}" + (" (full)" if ratio == 1 else ""),
            format_us(metrics.shuffle_time_us / max(1, metrics.shuffle_count)),
            format_us(metrics.shuffle_time_us),
            format_us(metrics.total_time_us),
            metrics.extra.get("blocks_appended", 0),
        ],
    )
    pause = {r: m["shuffle_time_us"] / max(1, m["shuffle_count"]) for r, m in data.items()}
    appended = {r: m["extra"].get("blocks_appended", 0) for r, m in data.items()}
    return ExperimentResult(
        experiment_id="ablation_partial_shuffle",
        title="Ablation A1: partial shuffle ratio (Section 5.3.1)",
        headers=["ratio", "time/shuffle", "shuffle total", "total time", "appended blocks"],
        rows=rows,
        notes=[
            "larger r shrinks each shuffle pause but appends unshuffled hot "
            "data to overflow regions (extra storage, later catch-up)",
        ],
        data=data,
        checks=[
            Check(
                "r=4 shrinks the per-period shuffle pause",
                f"{format_us(pause[4])} < {format_us(pause[1])}",
                pause[4] < pause[1],
            ),
            Check("r=4 defers work as overflow appends", appended[4], appended[4] > 0),
            Check("a full shuffle (r=1) appends nothing", appended[1], appended[1] == 0),
        ],
    )


def ablation_prefetch(scale: str = "quick") -> ExperimentResult:
    """Section 4.2: lookahead distance d vs dummy padding."""
    rows, data = _config_sweep(
        scale,
        {
            "d=c+1": {"prefetch_window": 6},
            "d=2c": {"prefetch_window": 10},
            "d=3c (paper)": {"prefetch_window": None},
            "d=6c": {"prefetch_window": 30},
        },
        lambda label, metrics: [
            label,
            f"{metrics.dummy_hit_ratio * 100:.1f}%",
            f"{metrics.dummy_miss_ratio * 100:.1f}%",
            metrics.cycles,
            format_us(metrics.total_time_us),
        ],
    )
    narrow, wide = data["d=c+1"], data["d=6c"]
    return ExperimentResult(
        experiment_id="ablation_prefetch",
        title="Ablation A2: ROB lookahead distance (Section 4.2)",
        headers=["window", "dummy hits", "dummy misses", "cycles", "total time"],
        rows=rows,
        data=data,
        checks=[
            Check(
                "a wider lookahead (d=6c vs d=c+1) pads no more dummy hits",
                f"{wide['dummy_hits']} <= {narrow['dummy_hits']}",
                wide["dummy_hits"] <= narrow["dummy_hits"],
            ),
            Check(
                "and needs no more cycles",
                f"{wide['cycles']} <= {narrow['cycles']}",
                wide["cycles"] <= narrow["cycles"],
            ),
        ],
    )


def ablation_stages(scale: str = "quick") -> ExperimentResult:
    """The staged c schedule vs fixed-c schedules."""
    schedules = {
        "paper {1,3,5}": StageSchedule.paper_default(),
        "fixed c=1": StageSchedule.fixed(1),
        "fixed c=3": StageSchedule.fixed(3),
        "fixed c=5": StageSchedule.fixed(5),
    }
    rows, data = _config_sweep(
        scale,
        {label: {"stages": schedule} for label, schedule in schedules.items()},
        lambda label, metrics: [
            label,
            f"{schedules[label].average_c():.2f}",
            metrics.cycles,
            f"{metrics.dummy_hit_ratio * 100:.1f}%",
            format_us(metrics.total_time_us),
        ],
    )
    staged, fixed1, fixed5 = data["paper {1,3,5}"], data["fixed c=1"], data["fixed c=5"]
    staged_dummy = staged["dummy_hits"] / staged["scheduled_hits"]
    fixed5_dummy = fixed5["dummy_hits"] / fixed5["scheduled_hits"]
    return ExperimentResult(
        experiment_id="ablation_stages",
        title="Ablation A3: stage schedule for c (Section 4.2 / 5.2)",
        headers=["schedule", "avg c", "cycles", "dummy hits", "total time"],
        rows=rows,
        notes=[
            "small fixed c wastes hit slots late in a period; large fixed c "
            "pads dummies early when the tree is still cold",
        ],
        data=data,
        checks=[
            Check(
                "cycles: fixed c=5 < staged {1,3,5} < fixed c=1",
                f"{fixed5['cycles']} < {staged['cycles']} < {fixed1['cycles']}",
                fixed5["cycles"] < staged["cycles"] < fixed1["cycles"],
                "{c1,c2,c3} = {1,3,5}",
            ),
            Check(
                "fixed c=5 pays for its cold start in dummy hits (>= 0.9x staged)",
                f"{fixed5_dummy * 100:.1f}% vs {staged_dummy * 100:.1f}%",
                fixed5_dummy >= staged_dummy * 0.9,
            ),
        ],
    )


def ablation_shuffle_alg(scale: str = "quick") -> ExperimentResult:
    """Section 4.3.2: choice of the in-memory shuffle algorithm."""
    rows, data = _config_sweep(
        scale,
        {
            name: {"shuffle_algorithm": name}
            for name in ("cache", "melbourne", "bitonic", "fisher-yates")
        },
        lambda name, metrics: [
            name,
            format_us(metrics.shuffle_time_us),
            format_us(metrics.shuffle_mem_time_us),
            format_us(metrics.total_time_us),
        ],
    )
    memory = {name: data[name]["shuffle_mem_time_us"] for name in data}
    totals = [metrics["total_time_us"] for metrics in data.values()]
    return ExperimentResult(
        experiment_id="ablation_shuffle_alg",
        title="Ablation A4: in-memory shuffle algorithm (Section 4.3.2)",
        headers=["algorithm", "shuffle total", "shuffle memory part", "total time"],
        rows=rows,
        data=data,
        checks=[
            Check(
                "bitonic's n log^2 n moves cost more memory time than CacheShuffle",
                f"{format_us(memory['bitonic'])} > {format_us(memory['cache'])}",
                memory["bitonic"] > memory["cache"],
                "picks CacheShuffle because memory is fast",
            ),
            Check(
                "Melbourne's padded buckets cost no less than CacheShuffle",
                f"{format_us(memory['melbourne'])} >= {format_us(memory['cache'])}",
                memory["melbourne"] >= memory["cache"],
            ),
            Check(
                "totals within 2x: sequential storage I/O dominates every variant",
                f"{max(totals) / min(totals):.2f}x",
                max(totals) < 2.0 * min(totals),
            ),
        ],
    )


def ablation_multiuser(scale: str = "quick") -> ExperimentResult:
    """Section 5.3.2: shared H-ORAM across users."""
    n_blocks, mem_blocks, request_count = _scale(_SMALL_SCALES, scale)
    rows = []
    data = {}
    for users in (1, 2, 4):
        horam = build_horam(n_blocks=n_blocks, mem_tree_blocks=mem_blocks, seed=0)
        front = MultiUserFrontEnd(horam)
        share = n_blocks // users
        rng = DeterministicRandom(11)
        per_user = request_count // users
        for user in range(users):
            front.register_user(user, allowed=range(user * share, (user + 1) * share))
            for request in hotspot(
                share, per_user, rng.spawn(f"user-{user}"), hot_blocks=max(8, share // 8)
            ):
                request.addr += user * share
                front.submit(user, request)
        front.pump()
        metrics = horam.metrics
        served = sum(front.stats(u).served for u in front.users())
        elapsed_s = horam.hierarchy.clock.now_s
        throughput = served / elapsed_s if elapsed_s > 0 else float("inf")
        latencies = [front.stats(u).mean_latency_cycles for u in front.users()]
        fairness = max(latencies) / min(latencies) if min(latencies) > 0 else 1.0
        rows.append(
            [
                users,
                served,
                f"{throughput:.0f} req/s",
                f"{fairness:.2f}",
                f"{metrics.dummy_hit_ratio * 100:.1f}%",
            ]
        )
        data[users] = {"throughput": throughput, "fairness": fairness}
    return ExperimentResult(
        experiment_id="ablation_multiuser",
        title="Ablation A5: multi-user sharing (Section 5.3.2)",
        headers=["users", "served", "throughput", "latency max/min", "dummy hits"],
        rows=rows,
        data=data,
        checks=[
            Check(
                "round-robin keeps per-user mean latency within 2.5x at every user count",
                "max/min " + ", ".join(f"{stats['fairness']:.2f}" for stats in data.values()),
                all(stats["fairness"] < 2.5 for stats in data.values()),
                "inherently supports multiple users",
            ),
            Check(
                "every user count serves at a positive simulated rate",
                f"{min(stats['throughput'] for stats in data.values()):.0f} req/s at worst",
                all(stats["throughput"] > 0 for stats in data.values()),
            ),
        ],
    )


def sharding(scale: str = "quick") -> ExperimentResult:
    """Sharded serving layer: throughput scaling across shard counts.

    Every cell runs through the engine's ``verify=True`` oracle (two
    sequential runs, so cross-run reads are checked too); simulated
    throughput treats shards as parallel devices (wall time = slowest
    shard).
    """
    from repro.core.sharding import build_sharded_horam
    from repro.workload.generators import uniform, zipfian

    n_blocks, mem_blocks, request_count = _scale(_SMALL_SCALES, scale)
    per_run = max(50, request_count // 2)
    streams = {
        "uniform": lambda rng: uniform(n_blocks, per_run, rng, write_ratio=0.3),
        "hotspot": lambda rng: hotspot(
            n_blocks, per_run, rng, hot_blocks=max(16, n_blocks // 16), write_ratio=0.3
        ),
        "zipf": lambda rng: zipfian(n_blocks, per_run, rng, write_ratio=0.3),
    }
    rows = []
    data = {}
    for kind, make in streams.items():
        base_throughput = None
        for shards in (1, 2, 4, 8):
            sharded = build_sharded_horam(
                n_blocks=n_blocks, mem_tree_blocks=mem_blocks, n_shards=shards, seed=0
            )
            engine = SimulationEngine(sharded, verify=True)
            first = engine.run(make(DeterministicRandom(100)))
            second = engine.run(make(DeterministicRandom(101)))
            served = first.requests_served + second.requests_served
            simulated_s = (first.total_time_us + second.total_time_us) / 1e6
            throughput = served / simulated_s if simulated_s else float("inf")
            if shards == 1:
                base_throughput = throughput
            balance = sharded.load_balance()
            rows.append(
                [
                    kind,
                    shards,
                    served,
                    f"{throughput:.0f} req/s",
                    f"{throughput / base_throughput:.2f}x",
                    f"{balance['imbalance']:.2f}",
                ]
            )
            data[(kind, shards)] = {
                "throughput": throughput,
                "speedup": throughput / base_throughput,
                "imbalance": balance["imbalance"],
            }
    return ExperimentResult(
        experiment_id="sharding",
        title="Sharded serving layer: shard-count scaling (verified)",
        headers=["workload", "shards", "served", "throughput", "speedup", "imbalance"],
        rows=rows,
        notes=[
            "striped address partitioning spreads hot regions across shards; "
            "lockstep cycles keep every shard's bus shape fixed, so scaling "
            "costs no obliviousness within a shard",
            "every cell passed the engine's verify=True oracle over two "
            "sequential runs (cross-run reads included)",
        ],
        data={f"{kind}/{shards}": value for (kind, shards), value in data.items()},
    )


_PARALLEL_SCALES = {
    # (N blocks, memory blocks, requests, shard counts, runs per cell,
    #  supervised drains per batch size)
    "quick": (1024, 256, 300, (1, 2), 1, 10),
    "medium": (8192, 1024, 4000, (1, 2, 4, 8), 2, 200),
    "full": (16384, 2048, 8000, (1, 2, 4, 8), 2, 200),
}


def parallel(scale: str = "quick") -> ExperimentResult:
    """Parallel shard runtime: wall-clock serial vs process-per-shard.

    Each cell builds the same sharded fleet on the in-process
    :class:`~repro.core.executor.SerialExecutor` and on the
    process-per-shard :class:`~repro.core.executor.ParallelExecutor`,
    runs the identical stream through both as one big batch (fastest of
    the scale's runs per cell) and reports wall-clock throughput beside
    the parallel executor's round accounting.  One big batch hides the
    per-step cost of the transport, so a second section times what a
    served fleet actually issues: the median wall time of one
    *supervised* submit + drain at 1, 8 and 32 requests on two shards
    (cadence checkpoints off: the drain alone), with the number of
    threads the coordinator runs once the fleet is built and stepping.

    ``ok`` is the lockstep-equivalence gate: retired results, served digests
    and merged metrics bit-identical between executors (and across
    repeated runs) in every cell, the small-batch drains included.
    Speedups are bounded by the host's core count and are not gated.
    """
    import os
    import statistics
    import tempfile
    import threading
    import time as _time

    from repro.core.sharding import build_sharded_horam
    from repro.core.supervisor import FleetSupervisor, SupervisorConfig

    n_blocks, mem_blocks, request_count, shard_counts, trials, drains = _scale(
        _PARALLEL_SCALES, scale
    )
    drain_shards, drain_sizes = 2, (1, 8, 32)
    cpus = os.cpu_count() or 1

    def stream(count: int) -> list[Request]:
        return _workload(n_blocks, count, max(16, n_blocks // 16), write_ratio=0.3)

    def build(executor: str, shards: int):
        return build_sharded_horam(
            n_blocks=n_blocks, mem_tree_blocks=mem_blocks, n_shards=shards, seed=0,
            executor=executor,
        )

    def best_run(executor: str, shards: int) -> dict:
        """Fastest of ``trials`` fresh-fleet runs; ``observed`` must repeat."""
        runs = []
        for _ in range(trials):
            fleet = build(executor, shards)
            try:
                engine = SimulationEngine(fleet, record_results=True)
                start = _time.perf_counter()
                metrics = engine.run(stream(request_count))
                wall = _time.perf_counter() - start
                ipc = None
                if executor == "parallel":
                    # One blocking IPC round per step is the contract; the
                    # padding round only counts when the next step had to
                    # wait for it.
                    ipc = fleet.executor.ipc_stats()
                    payload = ipc["shm_payload_bytes"] + ipc["inline_payload_bytes"]
                    steps = max(1, ipc["steps"])
                    ipc["payload_bytes_per_cycle"] = round(payload / max(1, metrics.cycles), 2)
                    ipc["rounds_per_step"] = round(ipc["blocking_rounds"] / steps, 2)
                    ipc["requests_per_step"] = round(ipc["requests"] / steps, 1)
                runs.append(
                    {
                        "wall_seconds": wall,
                        "throughput_rps": metrics.requests_served / wall if wall else 0.0,
                        "ipc": ipc,
                        "observed": (engine.results, fleet.served_digest, metrics.to_dict()),
                    }
                )
            finally:
                fleet.close()
        best = min(runs, key=lambda run: run["wall_seconds"])
        best["repeatable"] = all(run["observed"] == runs[0]["observed"] for run in runs)
        return best

    def supervised_drains(executor: str) -> tuple[dict, int, list]:
        """Median ms per supervised submit + drain at each batch size."""
        fleet = build(executor, drain_shards)
        with tempfile.TemporaryDirectory(prefix="horam-bench-parallel-") as ckpt_dir:
            supervisor = FleetSupervisor(
                fleet, ckpt_dir, SupervisorConfig(checkpoint_every_ops=0)
            )
            try:
                pending = iter(stream(drains * sum(drain_sizes)))
                drain_ms, results = {}, []
                for size in drain_sizes:
                    times = []
                    for _ in range(drains):
                        batch = [next(pending) for _ in range(size)]
                        start = _time.perf_counter()
                        entries = [supervisor.submit(request) for request in batch]
                        supervisor.drain()
                        times.append(_time.perf_counter() - start)
                        results.extend(entry.result for entry in entries)
                    drain_ms[size] = statistics.median(times) * 1e3
                return drain_ms, threading.active_count(), results
            finally:
                supervisor.close()

    rows = []
    data: dict = {"cpus": cpus, "requests": request_count, "runs_per_cell": trials}
    cells_identical = True
    for shards in shard_counts:
        serial_run, parallel_run = best_run("serial", shards), best_run("parallel", shards)
        identical = (
            serial_run["observed"] == parallel_run["observed"]
            and serial_run["repeatable"]
            and parallel_run["repeatable"]
        )
        cells_identical &= identical
        speedup = (
            parallel_run["throughput_rps"] / serial_run["throughput_rps"]
            if serial_run["throughput_rps"]
            else 0.0
        )
        ipc = parallel_run["ipc"]
        rows.append(
            [
                f"{shards} shard(s), one batch of {request_count}",
                f"{serial_run['throughput_rps']:.0f} req/s",
                f"{parallel_run['throughput_rps']:.0f} req/s",
                f"{speedup:.2f}x",
                f"{ipc['payload_bytes_per_cycle']} B/cycle, "
                f"{ipc['rounds_per_step']} round(s)/step",
                "identical" if identical else "DIVERGED",
            ]
        )
        data[shards] = {
            "serial_rps": serial_run["throughput_rps"],
            "parallel_rps": parallel_run["throughput_rps"],
            "speedup": speedup,
            "identical": identical,
            "ipc": ipc,
        }

    serial_ms, serial_threads, serial_results = supervised_drains("serial")
    parallel_ms, parallel_threads, parallel_results = supervised_drains("parallel")
    drains_identical = serial_results == parallel_results
    for size in drain_sizes:
        rows.append(
            [
                f"{drain_shards} shards, supervised drain of {size}",
                f"{serial_ms[size]:.3f} ms",
                f"{parallel_ms[size]:.3f} ms",
                f"{serial_ms[size] / parallel_ms[size]:.2f}x",
                "-",
                "identical" if drains_identical else "DIVERGED",
            ]
        )
    data["small_batches"] = {
        "shards": drain_shards,
        "drains_per_size": drains,
        "cells": {
            size: {
                "serial_drain_ms": serial_ms[size],
                "parallel_drain_ms": parallel_ms[size],
                "speedup": serial_ms[size] / parallel_ms[size],
            }
            for size in drain_sizes
        },
        "coordinator_threads": {"serial": serial_threads, "parallel": parallel_threads},
        "identical": drains_identical,
    }
    return ExperimentResult(
        experiment_id="parallel",
        title="Parallel shard runtime: wall-clock serial vs process-per-shard",
        headers=["cell", "serial", "parallel", "speedup", "parallel IPC", "equivalence"],
        rows=rows,
        notes=[
            f"{cpus} CPU(s) visible; the workers are CPU-bound Python processes, "
            "so speedups are bounded by the core count"
            + (" -- one core cannot show any parallel win" if cpus < 2 else ""),
            f"batch cells: fastest of {trials} run(s) on a fresh fleet each; drain "
            f"cells: median of {drains} supervised submit + drain rounds, checkpoint "
            "cadence off",
        ],
        data=data,
        checks=[
            Check(
                "serial and parallel retire bit-identical results, served digests and "
                "merged metrics at every shard count",
                "identical" if cells_identical else "DIVERGED",
                cells_identical,
            ),
            Check(
                "supervised 1/8/32-request drains serve the same bytes on both executors",
                "identical" if drains_identical else "DIVERGED",
                drains_identical,
            ),
            Check(
                "one pipe per worker: the parallel transport adds no coordinator thread",
                f"serial {serial_threads}, parallel {parallel_threads}",
                parallel_threads == serial_threads,
            ),
        ],
    )


def baselines(scale: str = "quick") -> ExperimentResult:
    """Figure 3-1's motivation: every scheme and the unprotected store,
    one workload -- what obliviousness costs, and how H-ORAM shrinks it."""
    n_blocks, mem_blocks, request_count = _scale(_SMALL_SCALES, scale)
    request_count = min(request_count, 2000)  # sqrt ORAM is O(sqrt N) per access
    horam = build_horam(n_blocks=n_blocks, mem_tree_blocks=mem_blocks, seed=0)
    requests = _workload(n_blocks, request_count, _hot_blocks(horam))

    schemes = {
        "H-ORAM": horam,
        "Path ORAM (tree-top)": build_path_oram(
            n_blocks=n_blocks, memory_blocks=mem_blocks, seed=0
        ),
        "Square-root ORAM": build_square_root(n_blocks=n_blocks, seed=0),
        "Partition ORAM": build_partition(n_blocks=n_blocks, seed=0),
        "plain store (no protection)": build_plain(n_blocks=n_blocks, seed=0),
    }
    runs = {name: SimulationEngine(oram).run(requests) for name, oram in schemes.items()}
    floor = runs["plain store (no protection)"].total_time_us

    rows = []
    data = {}
    for name, metrics in runs.items():
        # One "storage visit" is a single-block load for the flat schemes
        # and a whole path access for the tree baseline (the paper's
        # accounting in Tables 5-3/5-4).
        if name.startswith("Path ORAM"):
            visits = metrics.requests_served
            visit_latency = metrics.io_time_us / max(1, visits)
        else:
            visits = metrics.io_reads
            visit_latency = metrics.avg_io_latency_us
        rows.append(
            [
                name,
                visits,
                format_us(visit_latency),
                format_us(metrics.shuffle_time_us),
                format_us(metrics.total_time_us),
                f"{metrics.total_time_us / floor:.1f}x",
            ]
        )
        data[name] = {**metrics.to_dict(), "overhead_vs_plain": metrics.total_time_us / floor}

    over = {name: cell["overhead_vs_plain"] for name, cell in data.items()}
    read_sizes = {
        data[name]["io_bytes_read"] / data[name]["io_reads"]
        for name in ("H-ORAM", "Square-root ORAM", "Partition ORAM")
        if data[name]["io_reads"]
    }
    return ExperimentResult(
        experiment_id="baselines",
        title="Baseline sweep: the Section 3 motivation, measured",
        headers=[
            "scheme", "storage visits", "latency/visit", "shuffle", "total time", "vs plain",
        ],
        rows=rows,
        notes=[
            f"{request_count} hotspot requests over {n_blocks} blocks "
            f"(1 KB modeled); same request stream for every scheme",
        ],
        data=data,
        checks=[
            Check(
                "obliviousness costs, and H-ORAM shrinks the multiplier",
                f"1 < {over['H-ORAM']:.1f}x < {over['Path ORAM (tree-top)']:.1f}x over plain",
                1.0 < over["H-ORAM"] < over["Path ORAM (tree-top)"],
                "ORAM's 'huge degradation on the performance'",
            ),
            Check(
                "tree-top Path ORAM pays > 5x the plain store at this out-of-memory ratio",
                f"{over['Path ORAM (tree-top)']:.1f}x",
                over["Path ORAM (tree-top)"] > 5.0,
            ),
            Check(
                "the whole-dataset square-root shuffle outweighs partition ORAM's",
                f"{format_us(data['Square-root ORAM']['shuffle_time_us'])} > "
                f"{format_us(data['Partition ORAM']['shuffle_time_us'])}",
                data["Square-root ORAM"]["shuffle_time_us"]
                > data["Partition ORAM"]["shuffle_time_us"],
            ),
            Check(
                "flat schemes move one 1 KB block per access-period storage read",
                f"{sorted(read_sizes)} B/read",
                read_sizes == {1024},
            ),
        ],
    )


def device_sensitivity(scale: str = "quick") -> ExperimentResult:
    """How the H-ORAM advantage changes with the storage device."""
    n_blocks, mem_blocks, request_count = _scale(_SMALL_SCALES, scale)
    rows = []
    data = {}
    for device in (hdd_paper(), hdd_realistic(), ssd_sata()):
        _, metrics_h, _, metrics_p, _ = _run_pair(
            n_blocks, mem_blocks, request_count, storage_device=device
        )
        speedup = _speedup(metrics_p, metrics_h)
        rows.append(
            [
                device.name,
                format_us(metrics_h.total_time_us),
                format_us(metrics_p.total_time_us),
                f"{speedup:.1f}x",
            ]
        )
        data[device.name] = speedup
    return ExperimentResult(
        experiment_id="device_sensitivity",
        title="Device sensitivity: the speedup across storage profiles",
        headers=["storage device", "H-ORAM total", "Path ORAM total", "speedup"],
        rows=rows,
        notes=[
            "seek-dominated devices amplify H-ORAM's advantage (1 random "
            "read vs 2*log2(2N/n) scattered bucket accesses per request)",
        ],
        data=data,
        checks=[
            Check(
                "the gain tracks positioning cost: 8 ms-seek HDD > paper-calibrated HDD",
                f"{data['hdd-7200rpm']:.1f}x > {data['hdd-paper']:.1f}x",
                data["hdd-7200rpm"] > data["hdd-paper"],
            ),
            Check(
                "H-ORAM wins on the paper's device",
                f"{data['hdd-paper']:.1f}x",
                data["hdd-paper"] > 1.0,
            ),
            Check("and still wins on an SSD", f"{data['ssd-sata']:.1f}x", data["ssd-sata"] > 1.0),
        ],
    )


def recursive_posmap(scale: str = "quick") -> ExperimentResult:
    """Recursive vs flat position map (Section 5.3): controller state
    against lookup cost.  The paper runs "the naive setting (no
    recursive)"; the component is tiny, so every scale runs the same sweep.
    """
    from repro.oram.recursive import RecursivePositionMap
    from repro.sim.metrics import TierTimes

    n_entries, lookups = 16384, 50
    flat_bytes = 4 * n_entries
    rows = []
    data = {}
    for label, entries_per_block, threshold in (
        ("flat (naive, the paper's setting)", 64, 1 << 20),
        ("recursive, 64 entries/block", 64, 256),
        ("recursive, 16 entries/block", 16, 64),
    ):
        posmap = RecursivePositionMap(
            n_entries=n_entries,
            leaves=1024,
            rng=DeterministicRandom(1),
            entries_per_block=entries_per_block,
            threshold=threshold,
        )
        times = TierTimes()
        rng = DeterministicRandom(2)
        for _ in range(lookups):
            posmap.get(rng.randrange(n_entries), times)
        per_lookup_us = times.mem_us / lookups
        rows.append(
            [label, posmap.levels, f"{posmap.secure_bytes()} B", f"{per_lookup_us:.2f} us"]
        )
        data[label] = {
            "levels": posmap.levels,
            "controller_bytes": posmap.secure_bytes(),
            "lookup_us": per_lookup_us,
        }
    flat = data["flat (naive, the paper's setting)"]
    deep = data["recursive, 16 entries/block"]
    return ExperimentResult(
        experiment_id="recursive_posmap",
        title="Recursive position map: controller state vs lookup cost (Section 5.3)",
        headers=["configuration", "levels", "controller state", "memory time/lookup"],
        rows=rows,
        data=data,
        checks=[
            Check(
                "the flat map is the naive setting: no levels, 4 B per entry in the controller",
                f"{flat['levels']} levels, {flat['controller_bytes']} B",
                flat["levels"] == 0 and flat["controller_bytes"] == flat_bytes,
                "the naive setting (no recursive)",
            ),
            Check("16 entries/block recurses at least twice", deep["levels"], deep["levels"] >= 2),
            Check(
                "recursion collapses controller state by > 100x",
                f"{deep['controller_bytes']} B vs {flat_bytes} B",
                deep["controller_bytes"] < flat_bytes / 100,
            ),
            Check(
                "and every lookup pays for it in memory-tree accesses",
                f"{deep['lookup_us']:.2f} us > {flat['lookup_us']:.2f} us",
                deep["lookup_us"] > flat["lookup_us"],
            ),
        ],
    )


def _drive(protocol, requests: list[Request]) -> list:
    """Serve ``requests`` one submit + drain at a time; the served results."""
    served = []
    for request in requests:
        entry = protocol.submit(request)
        protocol.drain()
        served.append(entry.result)
    return served


def conformance(scale: str = "quick") -> ExperimentResult:
    """Differential conformance matrix + seeded fault shrink demo.

    Replays deterministic workloads through every stack (H-ORAM, the
    baselines, the sharded fleet at 1/2/4/8 shards, the multi-user front
    end) on multiple device models, with recoverable fault injection, and
    diffs every served result and the final logical state against the
    insecure reference oracle.  Then seeds an *unrecoverable* fault
    (silent read corruption), shrinks the failing stream with ddmin and
    replays the minimized spec from its JSON round-trip.
    """
    from repro.testing.conformance import (
        default_matrix,
        matrix_summary,
        run_matrix,
        seeded_fault_demo,
    )

    results = run_matrix(default_matrix(scale))
    rows = []
    data: dict = {"scenarios": {}}
    for result in results:
        spec = result.spec
        faults = spec.faults.describe() if spec.faults else "none"
        if spec.crash is not None:
            faults = (
                f"crash@{spec.crash.crash_op_kind}:{spec.crash.crash_at_op}"
                + ("+torn" if spec.crash.crash_torn else "")
                + f" ckpt@{spec.crash.snapshot_at}"
            )
        status = "PASS" if result.ok != spec.expect_failure else "FAIL"
        rows.append(
            [
                spec.name,
                spec.stack.label(),
                spec.workload.kind,
                result.requests,
                faults,
                result.mismatches,
                result.final_state_checked,
                status,
            ]
        )
        data["scenarios"][spec.name] = {
            "ok": result.ok,
            "mismatches": result.mismatches,
            "failures": result.failures,
            "fault_stats": result.fault_stats.to_dict() if result.fault_stats else None,
        }
    summary = matrix_summary(results)
    data["summary"] = summary

    original, shrunk, replay = seeded_fault_demo(scale)
    demo_ok = (not original.ok) and (not replay.ok)
    data["shrink_demo"] = {
        "reproduced": not original.ok,
        "original_requests": shrunk.original_requests,
        "shrunk_requests": shrunk.shrunk_requests,
        "attempts": shrunk.attempts,
        "replay_failed_again": not replay.ok,
        "spec_json": shrunk.spec.to_json(),
    }
    notes = [
        f"{summary['passed']}/{summary['scenarios']} scenarios conform to the "
        "insecure reference oracle",
        "seeded corruption demo: "
        + (
            f"reproduced, shrunk {shrunk.original_requests} -> "
            f"{shrunk.shrunk_requests} requests in {shrunk.attempts} candidate "
            f"runs, JSON replay {'fails again (replayable)' if not replay.ok else 'LOST the failure'}"
            if demo_ok
            else "DID NOT reproduce"
        ),
        "replay any saved spec with: python -m repro.testing.replay spec.json",
    ]
    if summary["failed"]:
        notes.append(f"NON-CONFORMING: {', '.join(summary['unexpected'])}")
    return ExperimentResult(
        experiment_id="conformance",
        title="Conformance matrix: differential equality vs the insecure oracle",
        headers=[
            "scenario", "stack", "workload", "requests", "faults",
            "mismatches", "final checked", "status",
        ],
        rows=rows,
        notes=notes,
        data=data,
        ok=summary["failed"] == 0 and demo_ok,
    )


def durability(scale: str = "quick") -> ExperimentResult:
    """Snapshot/restore cost and restart warmth of the durable backend.

    Runs H-ORAM and a sharded fleet on disk-backed slabs, checkpoints
    mid-workload, crashes (checkpoint + kill), recovers from disk and
    finishes the workload -- measuring snapshot/restore wall-clock, the
    checkpoint's on-disk size, and *restart warmth*: how much cheaper
    resuming from the checkpoint is than replaying the whole workload
    from a cold start.  The recovered run must be bit-identical (served
    results, served-order digest, metrics, simulated clock) to an
    uninterrupted twin; any divergence fails the experiment.
    """
    import os
    import shutil
    import tempfile
    import time as _time

    from repro.core.checkpoint import recover, save_checkpoint
    from repro.core.horam import build_horam as _build_horam
    from repro.core.sharding import build_sharded_horam as _build_sharded

    n_blocks, mem_blocks, request_count = _scale(_SMALL_SCALES, scale)
    request_count = min(request_count, 1200)
    cut = request_count // 2

    def checkpoint_size(directory) -> int:
        total = 0
        for root, _dirs, files in os.walk(directory):
            total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
        return total

    configs = [
        ("horam-durable", lambda d: _build_horam(
            n_blocks=n_blocks, mem_tree_blocks=mem_blocks, seed=0,
            storage_backend="file", storage_path=os.path.join(d, "main.slab"),
        )),
        ("sharded2-durable", lambda d: _build_sharded(
            n_blocks=n_blocks, mem_tree_blocks=mem_blocks, n_shards=2, seed=0,
            storage_backend="file", storage_dir=d,
        )),
    ]

    rows = []
    data: dict = {"n_blocks": n_blocks, "requests": request_count, "stacks": {}}
    ok = True
    requests = None
    for name, build in configs:
        work_dir = tempfile.mkdtemp(prefix="horam-durability-")
        try:
            ckpt_dir = os.path.join(work_dir, "ckpt")
            # Uninterrupted twin (in its own slab directory).
            twin = build(os.path.join(work_dir, "twin"))
            if requests is None:
                # Hot-area sizing from the first stack (the single-instance
                # H-ORAM config); every config serves the same stream.
                requests = _workload(n_blocks, request_count, _hot_blocks(twin), seed=29)
            twin_results = _drive(twin, requests)
            twin_digest = twin.served_digest
            twin_metrics = twin.metrics.to_dict()
            twin_clock = twin.hierarchy.clock.now_us
            twin.close()

            # Crashed + recovered run.
            victim = build(os.path.join(work_dir, "victim"))
            results = _drive(victim, requests[:cut])
            started = _time.perf_counter()
            save_checkpoint(victim, ckpt_dir)
            snapshot_s = _time.perf_counter() - started
            victim.close()  # the crash
            started = _time.perf_counter()
            restored = recover(ckpt_dir)
            restore_s = _time.perf_counter() - started
            started = _time.perf_counter()
            results.extend(_drive(restored, requests[cut:]))
            warm_tail_s = _time.perf_counter() - started

            identical = (
                results == twin_results
                and restored.served_digest == twin_digest
                and restored.metrics.to_dict() == twin_metrics
                and restored.hierarchy.clock.now_us == twin_clock
            )
            restored.close()

            # Cold restart: rebuild from zero and replay everything.
            started = _time.perf_counter()
            cold = build(os.path.join(work_dir, "cold"))
            _drive(cold, requests)
            cold_replay_s = _time.perf_counter() - started
            cold.close()

            size = checkpoint_size(ckpt_dir)
            warm_restart_s = restore_s + warm_tail_s
            warmth = cold_replay_s / warm_restart_s if warm_restart_s > 0 else float("inf")
            ok = ok and identical
            rows.append(
                [
                    name,
                    f"{snapshot_s * 1000:.1f} ms",
                    format_bytes(size),
                    f"{restore_s * 1000:.1f} ms",
                    f"{warm_restart_s * 1000:.1f} ms",
                    f"{cold_replay_s * 1000:.1f} ms",
                    f"{warmth:.2f}x",
                    "yes" if identical else "NO",
                ]
            )
            data["stacks"][name] = {
                "snapshot_seconds": snapshot_s,
                "checkpoint_bytes": size,
                "restore_seconds": restore_s,
                "warm_restart_seconds": warm_restart_s,
                "cold_replay_seconds": cold_replay_s,
                "restart_warmth": warmth,
                "bit_identical": identical,
            }
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)

    return ExperimentResult(
        experiment_id="durability",
        title="Durability: checkpoint cost and restart warmth on disk slabs",
        headers=[
            "stack", "snapshot", "ckpt size", "restore",
            "warm restart", "cold replay", "warmth", "bit-identical",
        ],
        rows=rows,
        notes=[
            f"{request_count} hotspot requests, checkpoint at request {cut}; "
            "warm restart = restore + finish, cold replay = rebuild + full run",
            "bit-identical compares served results, served-order digest, metrics and "
            "simulated clock of the recovered run against an uninterrupted twin",
        ],
        data=data,
        ok=ok,
    )


#: requests in the resilience experiment's long-horizon row, per scale.
_SOAK_REQUESTS = {"quick": 20_000, "medium": 100_000, "full": 1_000_000}
#: the long-horizon row's checkpoint cadence (ops per shard), the storm
#: row's: it also bounds each recovery's replay, and with it the replayed
#: requests' latencies.
_SOAK_CADENCE = 64
#: drains sampled before each long-horizon point (over one access period
#: of every shard at every scale).
_SOAK_WINDOW = 32


def _rss_mb() -> float:
    """This process's resident set now (its peak where /proc is absent)."""
    import os

    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, AttributeError):
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _long_horizon(build, n_blocks: int, hot_blocks: int, request_count: int) -> dict:
    """The supervised fleet through a crash storm spread over a long run.

    Requests go in 32-request drains (a server's queue depth), every read
    is checked against the block's initial payload, and a crash is
    scheduled every ``request_count // 6`` storage ops (the first one
    early) -- about a dozen over the run.  The last ``_SOAK_WINDOW``
    drains before 10 % and before 100 % of the run each end with a
    checkpoint of every shard; a window spans more than one access period
    of every shard, so its mean control-state bytes do not depend on where
    in a period the run stopped (the cache's position map fills as a period
    goes).  A shard checkpoint's control state is its manifest plus its
    ``control.*`` tables: everything but the fixed-size store slabs.  Each
    point records that mean, the mean save time per shard, MTTR so far and
    the process's RSS.  The stream is generated lazily,
    so memory is the fleet's own.
    """
    import shutil
    import statistics
    import tempfile
    import time as _time

    from repro.core.supervisor import FleetSupervisor, SupervisorConfig
    from repro.oram.base import initial_payload
    from repro.storage.faults import FaultPlan

    stride = max(2, request_count // 6)
    crash_schedule = list(range(stride // 3, 2 * request_count, stride))
    drain = 32
    ckpt_dir = tempfile.mkdtemp(prefix="horam-soak-")
    points = {}
    wrong = 0
    try:
        fleet = build()
        supervisor = FleetSupervisor(
            fleet, ckpt_dir,
            SupervisorConfig(checkpoint_every_ops=_SOAK_CADENCE, max_restarts=2),
        )
        try:
            supervisor.install_fault_plan(
                FaultPlan(seed=0, crash_schedule=crash_schedule, crash_op_kind="any")
            )
            pad = fleet.codec.pad
            requests = hotspot(
                n_blocks, request_count, DeterministicRandom(31), hot_blocks=hot_blocks
            )
            served = 0
            for label, mark in (("10%", request_count // 10), ("100%", request_count)):
                control_bytes, save_ms = [], []
                while served < mark:
                    batch = [next(requests) for _ in range(min(drain, mark - served))]
                    entries = [supervisor.submit(request) for request in batch]
                    supervisor.drain()
                    wrong += sum(
                        entry.result != pad(initial_payload(entry.addr)) for entry in entries
                    )
                    served += len(batch)
                    if mark - served < drain * _SOAK_WINDOW:
                        started = _time.perf_counter()
                        saved = supervisor.checkpoint_now()
                        save_ms.append((_time.perf_counter() - started) * 1000 / saved)
                        control_bytes.append(
                            sum(
                                sum(
                                    path.stat().st_size
                                    for pattern in ("checkpoint.json", "control.*.bin")
                                    for path in store.paths()[-1].glob(pattern)
                                )
                                for store in supervisor.stores
                            )
                        )
                report = supervisor.recovery_report()
                points[label] = {
                    "requests": served,
                    "control_bytes": round(statistics.mean(control_bytes)),
                    "control_bytes_range": [min(control_bytes), max(control_bytes)],
                    "save_ms": statistics.mean(save_ms),
                    "crashes_detected": report["crashes_detected"],
                    "restores": report["restores"],
                    "fences": report["fences"],
                    "mttr_seconds": report["mttr_s"],
                    "availability": report["availability"],
                    "rss_mb": _rss_mb(),
                }
        finally:
            supervisor.close()
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)
    return {
        "requests": request_count,
        "cadence": _SOAK_CADENCE,
        "crash_stride_ops": stride,
        "wrong_results": wrong,
        "points": points,
    }


def resilience(scale: str = "quick") -> ExperimentResult:
    """Self-healing fleet: MTTR, availability, checkpoint-cadence cost.

    Drives a supervised shard fleet through a scheduled crash storm and
    measures what the supervisor promises: every crash detected and
    repaired without manual intervention (MTTR / availability from the
    supervisor's event log), served bytes identical to an uninterrupted
    unsupervised twin, and a bit-identical recovery trace across two
    runs of the same seed + schedule (the determinism criterion).  A
    second sweep reruns the same workload fault-free at several
    checkpoint cadences to price the supervision overhead against the
    bare fleet.  A long-horizon row runs the same supervised fleet through
    a crash storm for 20k (quick) to 1M (full) requests and checks that
    the shards' checkpoint manifests at the end of the run are within 2 %
    of their size at 10 % of it.  Any divergence, unexpected fence, unrepaired crash or
    growing manifest fails the experiment (``ok=False``), which the CI
    resilience job gates on.
    """
    import shutil
    import tempfile
    import time as _time

    from repro.core.sharding import build_sharded_horam as _build_sharded
    from repro.core.supervisor import FleetSupervisor, SupervisorConfig
    from repro.storage.faults import FaultPlan

    n_blocks, mem_blocks, request_count = _scale(_SMALL_SCALES, scale)
    request_count = min(request_count, 900)
    n_shards = 4
    crash_ops = [max(2, request_count // 4), max(3, (2 * request_count) // 3)]

    def build():
        return _build_sharded(
            n_blocks=n_blocks, mem_tree_blocks=mem_blocks,
            n_shards=n_shards, seed=0,
        )

    def supervised_run(requests, cadence, plan=None):
        """One supervised pass; returns (results, report, trace, wall_s)."""
        ckpt_dir = tempfile.mkdtemp(prefix="horam-resilience-")
        try:
            supervisor = FleetSupervisor(
                build(), ckpt_dir,
                SupervisorConfig(checkpoint_every_ops=cadence, max_restarts=2),
            )
            if plan is not None:
                supervisor.install_fault_plan(plan)
            started = _time.perf_counter()
            results = _drive(supervisor, requests)
            wall_s = _time.perf_counter() - started
            return results, supervisor.recovery_report(), supervisor.event_trace(), wall_s
        finally:
            shutil.rmtree(ckpt_dir, ignore_errors=True)

    # Uninterrupted, unsupervised twin: the value oracle for the storm
    # runs and the wall-clock baseline for the cadence sweep.
    twin = build()
    requests = _workload(
        n_blocks, request_count, _hot_blocks(twin.shards[0]) * n_shards, seed=31
    )
    started = _time.perf_counter()
    twin_results = _drive(twin, requests)
    bare_wall_s = _time.perf_counter() - started

    rows = []
    data: dict = {
        "n_blocks": n_blocks,
        "n_shards": n_shards,
        "requests": request_count,
        "crash_ops": crash_ops,
        "bare_wall_seconds": bare_wall_s,
    }
    ok = True

    # -- the crash storm, twice (the second run pins determinism)
    plan = FaultPlan(seed=0, crash_schedule=list(crash_ops), crash_op_kind="any")
    storm_results, report, trace, storm_wall_s = supervised_run(requests, 64, plan)
    _results2, _report2, trace2, _wall2 = supervised_run(requests, 64, plan)
    identical = storm_results == twin_results
    deterministic = trace == trace2
    repaired = (
        report["crashes_detected"] == len(crash_ops)
        and report["restores"] == report["crashes_detected"]
        and report["fences"] == 0
        and all(i["outcome"] == "restored" for i in report["incidents"])
    )
    ok = ok and identical and deterministic and repaired
    rows.append(
        [
            f"storm x{len(crash_ops)} (cadence=64)",
            report["crashes_detected"],
            report["restores"],
            report["fences"],
            f"{report['mttr_s'] * 1000:.1f} ms",
            f"{report['availability'] * 100:.2f}%",
            "yes" if deterministic else "NO",
            "yes" if identical else "NO",
        ]
    )
    data["storm"] = {
        "crashes_detected": report["crashes_detected"],
        "restores": report["restores"],
        "fences": report["fences"],
        "checkpoints": report["checkpoints"],
        "mttr_seconds": report["mttr_s"],
        "recovery_wall_seconds": report["recovery_wall_s"],
        "availability": report["availability"],
        "wall_seconds": storm_wall_s,
        "bit_identical": identical,
        "deterministic_trace": deterministic,
        "trace": [list(t) for t in trace],
    }

    # -- checkpoint-cadence overhead (fault-free) against the bare fleet
    data["cadence"] = {}
    for cadence in (0, 32, 128):
        results, cad_report, _trace, wall_s = supervised_run(requests, cadence)
        cad_identical = results == twin_results
        overhead = (wall_s / bare_wall_s - 1.0) if bare_wall_s > 0 else float("inf")
        ok = ok and cad_identical and cad_report["crashes_detected"] == 0
        label = "initial only" if cadence == 0 else f"every {cadence} ops"
        rows.append(
            [
                f"cadence {label}",
                0,
                0,
                0,
                "-",
                f"{cad_report['availability'] * 100:.2f}%",
                f"{overhead * 100:+.1f}% wall",
                "yes" if cad_identical else "NO",
            ]
        )
        data["cadence"][str(cadence)] = {
            "wall_seconds": wall_s,
            "overhead_vs_bare": overhead,
            "checkpoints": cad_report["checkpoints"],
            "bit_identical": cad_identical,
        }

    # -- long horizon: the same fleet, a storm spread over a long run
    soak = _long_horizon(
        build, n_blocks, _hot_blocks(twin.shards[0]) * n_shards, _SOAK_REQUESTS[scale]
    )
    data["long_horizon"] = soak
    early, late = soak["points"]["10%"], soak["points"]["100%"]
    for label, point in (("10%", early), ("100%", late)):
        rows.append(
            [
                f"long horizon @{label} ({point['requests']} req)",
                point["crashes_detected"],
                point["restores"],
                point["fences"],
                f"{point['mttr_seconds'] * 1000:.1f} ms",
                f"{point['availability'] * 100:.2f}%",
                f"control {format_bytes(point['control_bytes'])}, "
                f"save {point['save_ms']:.1f} ms, RSS {point['rss_mb']:.0f} MB",
                "yes" if soak["wrong_results"] == 0 else "NO",
            ]
        )
    soak_repaired = (
        late["crashes_detected"] > early["crashes_detected"] > 0
        and late["restores"] == late["crashes_detected"]
        and late["fences"] == 0
        and soak["wrong_results"] == 0
    )
    growth = late["control_bytes"] / early["control_bytes"] - 1.0
    checks = [
        Check(
            "long horizon: every storm crash restored, every read correct",
            f"{late['crashes_detected']} crashes, {late['restores']} restores, "
            f"{soak['wrong_results']} wrong reads",
            soak_repaired,
        ),
        Check(
            "long horizon: shard control state at 100% of the run within 2% of 10%",
            f"{early['control_bytes']} -> {late['control_bytes']} B ({growth:+.2%})",
            abs(growth) <= 0.02,
        ),
    ]

    return ExperimentResult(
        experiment_id="resilience",
        title="Resilience: supervised fleet MTTR, availability, cadence cost",
        headers=[
            "run", "crashes", "restores", "fences",
            "MTTR", "availability", "determinism / overhead", "identical",
        ],
        rows=rows,
        notes=[
            f"{request_count} hotspot requests over {n_shards} serial shards; "
            f"storm crashes shard ops {crash_ops} (auto-recovered from checkpoints)",
            "identical compares every served payload against an uninterrupted "
            "unsupervised twin; determinism compares (kind, shard, attempt) "
            "recovery traces across two runs of the same seed + schedule",
            "cadence rows rerun fault-free at each checkpoint cadence; overhead "
            "is supervised wall-clock over the bare fleet's",
            "parallel (process-per-shard) storms are exercised by the "
            "conformance matrix and tests/core/test_supervisor.py",
            f"long horizon: {soak['requests']} requests in 32-request drains, cadence "
            f"{soak['cadence']} ops, a crash every {soak['crash_stride_ops']} storage ops; "
            f"control-state bytes (manifest + control.* tables; gated) and save time "
            f"are means over the last {_SOAK_WINDOW} drains before 10% and 100%; "
            f"MTTR and RSS (reported) at each",
        ],
        data=data,
        checks=checks,
        ok=ok,
    )


def protocols(scale: str = "quick") -> ExperimentResult:
    """Cross-protocol grid: every engine-kernel protocol, one workload.

    All registered :class:`~repro.core.kernel.EngineKernel` protocols
    (H-ORAM, the succinct hierarchical ORAM, BIOS) run the same seeded
    hotspot stream through the same kernel pipeline; the grid compares
    what only the backend changes -- bandwidth overhead (storage bytes
    moved per logical byte served), storage round trips per request
    (each kernel cycle batches its probes into one trip), and stash /
    cache occupancy peaks -- each normalized against H-ORAM.

    The experiment then replays the kernel-protocol slice of the
    conformance matrix (plain, sharded and crash/restore scenarios for
    the non-H-ORAM protocols); any divergence flips ``ok`` False, which
    exits the CLI non-zero.
    """
    from repro.oram.factory import shard_builder, shard_protocol_names
    from repro.testing.conformance import default_matrix, matrix_summary, run_matrix

    n_blocks, mem_blocks, request_count = _scale(_SMALL_SCALES, scale)
    request_count = min(request_count, 2500)
    names = shard_protocol_names()
    labels = {"horam": "H-ORAM", "succinct": "Succinct-hier", "bios": "BIOS"}

    runs: dict[str, Metrics] = {}
    block_bytes = None
    for name in names:
        oram = shard_builder(name)(
            n_blocks=n_blocks, mem_tree_blocks=mem_blocks, seed=0
        )
        if block_bytes is None:
            block_bytes = oram.hierarchy.modeled_slot_bytes
            requests = _workload(n_blocks, request_count, _hot_blocks(oram))
        runs[name] = SimulationEngine(oram).run(requests)

    def grid_row(name: str, metrics: Metrics) -> dict:
        logical = max(1, metrics.requests_served) * block_bytes
        return {
            "bandwidth_overhead": (
                (metrics.io_bytes_read + metrics.io_bytes_written) / logical
            ),
            "round_trips_per_request": metrics.cycles / max(1, metrics.requests_served),
            "stash_peak": metrics.stash_peak,
            "cache_occupancy_peak": metrics.tree_real_blocks_peak,
            "total_time_us": metrics.total_time_us,
            "metrics": metrics.to_dict(),
        }

    data: dict = {"grid": {name: grid_row(name, m) for name, m in runs.items()}}
    base = data["grid"]["horam"]
    rows = []
    for name in names:
        cell = data["grid"][name]
        cell["bandwidth_vs_horam"] = cell["bandwidth_overhead"] / max(
            1e-9, base["bandwidth_overhead"]
        )
        cell["time_vs_horam"] = cell["total_time_us"] / max(1e-9, base["total_time_us"])
        rows.append(
            [
                labels.get(name, name),
                f"{cell['bandwidth_overhead']:.2f}x",
                f"{cell['round_trips_per_request']:.2f}",
                cell["stash_peak"],
                cell["cache_occupancy_peak"],
                format_us(cell["total_time_us"]),
                f"{cell['time_vs_horam']:.2f}x",
            ]
        )

    kernel_specs = [
        spec
        for spec in default_matrix(scale)
        if spec.stack.protocol in ("succinct", "bios")
        or spec.stack.shard_protocol in ("succinct", "bios")
    ]
    summary = matrix_summary(run_matrix(kernel_specs))
    data["conformance"] = summary
    ok = summary["failed"] == 0

    notes = [
        f"{request_count} hotspot requests over {n_blocks} blocks "
        f"({block_bytes} B modeled); same request stream for every protocol",
        "bandwidth overhead = storage bytes moved / logical bytes served; "
        "round trips = kernel cycles per request (one batched trip each)",
        f"conformance slice: {summary['passed']}/{summary['scenarios']} "
        "kernel-protocol scenarios conform (plain + sharded + crash/restore)",
    ]
    if not ok:
        notes.append(f"NON-CONFORMING: {', '.join(summary['unexpected'])}")
    return ExperimentResult(
        experiment_id="protocols",
        title="Protocol grid: one engine kernel, N ORAM backends",
        headers=[
            "protocol", "bandwidth overhead", "round trips/req",
            "stash peak", "cache peak", "total time", "vs H-ORAM",
        ],
        rows=rows,
        notes=notes,
        data=data,
        ok=ok,
    )


def serving(scale: str = "quick") -> ExperimentResult:
    """Online serving front door: SLO percentiles + twin fidelity.

    Drives the asyncio :class:`~repro.serve.ORAMServer` over an
    in-process socketpair with the open-loop load generator at every
    (arrival process, tenant count) cell -- Poisson and diurnal
    arrivals, each at two tenant counts -- and reports wall-clock
    p50/p99/p999 per cell.  Every cell's served bytes are then replayed
    one-at-a-time through a fresh identical stack (the direct-submit
    twin); any divergence, unserved journal entry, transport error or
    missing percentile / SLO-verdict field flips ``ok`` False, which the
    CI serving job exits non-zero on.  SLO misses are reported, not
    gated: wall-clock latency on shared CI hosts is advisory.
    """
    import asyncio
    import socket as socket_mod

    from repro.serve import (
        LoadSpec,
        ORAMServer,
        ServeClient,
        ServeConfig,
        diff_served,
        generate_load,
        replay_direct,
        run_load,
        tenants_used,
    )

    params = {
        "quick": (512, 128, 150.0, 0.4, 50.0),
        "medium": (1024, 256, 300.0, 1.0, 25.0),
        "full": (2048, 512, 400.0, 2.0, 10.0),
    }
    n_blocks, mem_blocks, rate, duration, time_scale = _scale(params, scale)
    slo_targets_ms = {"p50_ms": 250.0, "p99_ms": 1000.0, "p999_ms": 2000.0}
    arrivals = ("poisson", "diurnal")
    tenant_counts = (1, 3)

    def make_stack(seed):
        return build_horam(n_blocks=n_blocks, mem_tree_blocks=mem_blocks, seed=seed)

    async def serve_cell(spec, seed):
        stack = make_stack(seed)
        # The load generator is open-loop (no client-side throttle), so
        # give admission control headroom: this experiment prices
        # latency, not the overload path (tests cover that).
        server = ORAMServer(stack, ServeConfig(max_inflight=4096))
        server_end, client_end = socket_mod.socketpair()
        await server.attach(server_end)
        client = await ServeClient.from_socket(client_end)
        try:
            for tenant in tenants_used(spec):
                server.add_tenant(tenant)
            report = await run_load(client, spec, time_scale=time_scale)
        finally:
            await client.close()
            await server.close()
        return server, report

    rows = []
    data: dict = {
        "scale": scale,
        "arrivals": list(arrivals),
        "tenant_counts": list(tenant_counts),
        "slo_targets_ms": slo_targets_ms,
        "cells": {},
    }
    ok = True
    for arrival in arrivals:
        for tenants in tenant_counts:
            spec = LoadSpec(
                arrival=arrival,
                rate_per_s=rate,
                duration_s=duration,
                tenants=tenants,
                n_blocks=n_blocks,
                write_ratio=0.25,
                seed=17 + tenants,
            )
            seed = 23 + tenants
            server, report = asyncio.run(serve_cell(spec, seed))
            twin = replay_direct(server.journal, make_stack(seed))
            diff = diff_served(server.journal, server.served_by_seq, twin)
            percentiles = report.percentiles()
            slo = report.slo(**slo_targets_ms)
            # Consumers of the artifact read every percentile and verdict.
            slo_fields = "met" in slo and all(
                key in percentiles and key in slo.get("measured", {})
                for key in ("p50", "p99", "p999")
            )
            cell_ok = (
                diff.identical
                and not diff.unserved
                and diff.compared == len(server.journal)
                and report.errored == 0
                and slo_fields
            )
            ok = ok and cell_ok
            throughput = (
                report.served / report.wall_seconds if report.wall_seconds else 0.0
            )
            name = f"{arrival}/t{tenants}"
            rows.append(
                [
                    arrival,
                    tenants,
                    report.offered,
                    report.served,
                    sum(report.rejected.values()),
                    f"{percentiles['p50']:.1f} ms",
                    f"{percentiles['p99']:.1f} ms",
                    f"{percentiles['p999']:.1f} ms",
                    "identical" if cell_ok else "DIVERGED",
                ]
            )
            data["cells"][name] = {
                "spec": spec.to_dict(),
                "offered": report.offered,
                "served": report.served,
                "rejected": dict(report.rejected),
                "errored": report.errored,
                "percentiles_ms": percentiles,
                "slo": slo,
                "twin": diff.to_dict(),
                "twin_identical": cell_ok,
                "throughput_rps": throughput,
                "wall_seconds": report.wall_seconds,
            }
    return ExperimentResult(
        experiment_id="serving",
        title="Serving front door: open-loop SLO percentiles, twin-checked",
        headers=[
            "arrival", "tenants", "offered", "served", "rejected",
            "p50", "p99", "p999", "twin",
        ],
        rows=rows,
        notes=[
            f"scale '{scale}': {rate:.0f} req/s offered for {duration} s "
            f"(time compressed {time_scale:.0f}x), {n_blocks}-block H-ORAM, "
            "25% writes, served over an in-process socketpair",
            "twin = the same journal replayed one-at-a-time through a fresh "
            "identical stack; served bytes must match per sequence number",
            "percentiles are wall-clock arrival-to-response; SLO verdicts "
            "are advisory (host-dependent), divergence is the gate",
        ],
        data=data,
        ok=ok,
    )


def chaos(scale: str = "quick") -> ExperimentResult:
    """Chaos soak grid: served correctness under wire faults + crashes.

    Five cells, each a full serve soak through
    :func:`~repro.serve.chaos.drive_through_chaos` -- retrying clients
    with idempotency keys, closed-loop, against the asyncio front door:

    * ``clean``              -- no faults; the goodput/latency baseline.
    * ``wire-faults``        -- seeded resets, mid-frame cuts and stalls.
    * ``blackholes``         -- dropped frames; client timeouts + server
      deadlines armed (sized far above any real retirement, so the
      deadline machinery runs without wall-clock-sensitive outcomes).
    * ``storm-supervised``   -- wire chaos over a supervised 2-shard
      fleet with a backend crash schedule firing mid-soak.
    * ``drain-midstream``    -- a graceful ``drain()`` fired halfway.

    Every cell runs **twice with identical seeds** and its deterministic
    subset -- outcome counts, retry/fault counters, journal size,
    duplicate executions, twin verdict -- must be bit-identical across
    the two runs.  ``ok`` is False on any duplicate idempotent execution,
    twin divergence, unexpected outcome code, determinism mismatch or
    missing headline field.
    Goodput, availability, retry amplification and p99 latency are
    reported, not gated: wall-clock on shared CI hosts is advisory.
    """
    import asyncio
    from dataclasses import asdict as dc_asdict
    from dataclasses import replace as dc_replace

    from repro.serve import (
        ChaosSpec,
        ORAMServer,
        RetryPolicy,
        ServeConfig,
        TenantPolicy,
        diff_served,
        drive_through_chaos,
        replay_direct,
    )
    from repro.sim.metrics import percentile
    from repro.storage.faults import FaultPlan
    from repro.testing.stacks import StackSpec, build_stack
    from repro.workload.generators import WorkloadSpec, make_workload

    count = _scale({"quick": 120, "medium": 300, "full": 700}, scale)

    horam_stack = StackSpec(protocol="horam", n_blocks=512, mem_blocks=128, seed=23)
    cells = [
        {
            "name": "clean",
            "stack": horam_stack,
            "chaos": None,
        },
        {
            "name": "wire-faults",
            "stack": horam_stack,
            "chaos": ChaosSpec(
                seed=31, reset_rate=0.05, cut_rate=0.04,
                stall_rate=0.05, stall_s=0.001,
            ),
        },
        {
            "name": "blackholes",
            "stack": horam_stack,
            "chaos": ChaosSpec(seed=37, drop_rate=0.03),
            "deadline_ms": 30_000.0,
            "request_timeout_s": 0.2,
        },
        {
            "name": "storm-supervised",
            "stack": dc_replace(
                horam_stack, protocol="sharded", n_blocks=1024, n_shards=2,
                supervised=True, checkpoint_every_ops=48,
            ),
            "chaos": ChaosSpec(seed=41, reset_rate=0.04, cut_rate=0.03),
            "crash_ops": [90, 450],
        },
        {
            "name": "drain-midstream",
            "stack": horam_stack,
            "chaos": ChaosSpec(seed=43, reset_rate=0.04, stall_rate=0.04, stall_s=0.001),
            "drain_after": count // 2,
        },
    ]

    def make_messages(cell):
        workload = WorkloadSpec(
            kind="hotspot",
            n_blocks=cell["stack"].n_blocks,
            count=count,
            seed=29,
            write_ratio=0.25,
        )
        messages = []
        for index, request in enumerate(make_workload(workload)):
            message = {"op": request.op.value, "addr": request.addr, "tenant": index % 2}
            if request.data is not None:
                message["data"] = request.data.hex()
            if cell.get("deadline_ms") is not None:
                message["deadline_ms"] = cell["deadline_ms"]
            messages.append(message)
        return messages

    async def soak(cell, stack, messages):
        server = ORAMServer(stack.driver, ServeConfig(max_inflight=64))
        for tenant in range(2):
            server.add_tenant(tenant, TenantPolicy())
        policy = RetryPolicy(
            max_attempts=5,
            base_backoff_s=0.001,
            max_backoff_s=0.02,
            request_timeout_s=cell.get("request_timeout_s", 0.4),
        )
        try:
            report = await drive_through_chaos(
                server,
                messages,
                clients=3,
                chaos=cell["chaos"],
                policy=policy,
                label=cell["name"],
                drain_after=cell.get("drain_after"),
            )
        finally:
            await server.close()
        return server, report

    def run_cell(cell):
        """One soak run: returns (deterministic subset, measured dict)."""
        stack = build_stack(cell["stack"])
        try:
            if cell.get("crash_ops"):
                stack.install_faults(
                    FaultPlan(
                        seed=cell["stack"].seed,
                        crash_schedule=list(cell["crash_ops"]),
                    )
                )
            messages = make_messages(cell)
            server, report = asyncio.run(soak(cell, stack, messages))
            twin = build_stack(dc_replace(cell["stack"], supervised=False))
            try:
                twin_served = replay_direct(server.journal, twin.driver)
                diff = diff_served(server.journal, server.served_by_seq, twin_served)
            finally:
                twin.cleanup()
            keys = [
                (record.tenant, record.idem)
                for record in server.journal
                if record.idem is not None
            ]
            outcomes = report.outcome_counts()
            expected = {"ok", "give_up"} | (
                {"draining"} if cell.get("drain_after") else set()
            ) | ({"deadline_exceeded"} if cell.get("deadline_ms") else set())
            supervision = None
            if cell.get("crash_ops"):
                recovery = stack.supervisor.recovery_report()
                supervision = {
                    "crashes": recovery["crashes_detected"],
                    "restores": recovery["restores"],
                    "fenced": sorted(stack.supervisor.fenced),
                }
            deterministic = {
                "duplicate_executions": len(keys) - len(set(keys)),
                "twin_identical": diff.identical and not diff.unserved,
                "responses_total": sum(outcomes.values()),
                "only_expected_codes": not (set(outcomes) - expected),
                "supervision": supervision,
            }
            if not cell.get("drain_after"):
                # A drain's cut point races in-flight admissions, so its
                # exact served/refused split is excluded from the
                # bit-identity gate; everything else is closed-loop
                # deterministic per connection.
                deterministic.update(
                    outcomes=outcomes,
                    retry=dc_asdict(report.retry),
                    chaos=report.chaos.to_dict(),
                    journal=len(server.journal),
                )
            ok_latencies = sorted(
                latency
                for latency, response in zip(report.latencies_ms, report.responses)
                if response and response.get("ok")
            )
            served = outcomes.get("ok", 0)
            measured = {
                "outcomes": outcomes,
                "retry": dc_asdict(report.retry),
                "chaos": report.chaos.to_dict(),
                "journal": len(server.journal),
                "drain": report.drain_report,
                "wall_seconds": report.wall_seconds,
                "goodput_rps": (
                    served / report.wall_seconds if report.wall_seconds else 0.0
                ),
                "availability": served / len(messages) if messages else 0.0,
                "retry_amplification": report.retry.amplification,
                "p99_ms": percentile(ok_latencies, 99) if ok_latencies else 0.0,
            }
            return deterministic, measured
        finally:
            stack.cleanup()

    rows = []
    data: dict = {"scale": scale, "requests": count, "cells": {}}
    ok = True
    for cell in cells:
        first_det, measured = run_cell(cell)
        second_det, _ = run_cell(cell)
        deterministic = first_det == second_det
        cell_ok = (
            deterministic
            and first_det["duplicate_executions"] == 0
            and first_det["twin_identical"]
            and first_det["only_expected_codes"]
            and all(
                key in measured
                for key in ("goodput_rps", "availability", "retry_amplification", "p99_ms")
            )
        )
        ok = ok and cell_ok
        rows.append(
            [
                cell["name"],
                measured["outcomes"].get("ok", 0),
                sum(v for k, v in measured["outcomes"].items() if k != "ok"),
                f"{measured['retry_amplification']:.2f}x",
                f"{measured['availability'] * 100:.1f}%",
                f"{measured['goodput_rps']:.0f}/s",
                f"{measured['p99_ms']:.1f} ms",
                first_det["duplicate_executions"],
                "yes" if deterministic else "NO",
                "identical" if first_det["twin_identical"] else "DIVERGED",
            ]
        )
        data["cells"][cell["name"]] = {
            "chaos_spec": cell["chaos"].to_dict() if cell["chaos"] else None,
            "crash_ops": cell.get("crash_ops", []),
            "drain_after": cell.get("drain_after"),
            "deterministic_subset": first_det,
            "repeat_matches": deterministic,
            "measured": measured,
            "ok": cell_ok,
        }

    notes = [
        f"scale '{scale}': {count} hotspot requests, 3 retrying clients "
        "(idempotency keys on), 2 tenants, closed-loop through the seeded "
        "chaos proxy; every cell soaked twice with identical seeds",
        "gates: zero duplicate (tenant, idem) journal entries, served bytes "
        "identical to the direct-submit twin, only expected outcome codes, "
        "and a bit-identical deterministic subset across the two runs",
        "goodput/availability/amplification/p99 are wall-clock measurements "
        "and advisory; divergence and duplicates are the gate",
    ]
    bad = [name for name, cell in data["cells"].items() if not cell["ok"]]
    if bad:
        notes.append(f"GATE FAILED: {', '.join(bad)}")
    return ExperimentResult(
        experiment_id="chaos",
        title="Chaos soak: exactly-once serving under wire faults and crashes",
        headers=[
            "cell", "served", "refused", "retry amp", "availability",
            "goodput", "p99", "dup exec", "repeatable", "twin",
        ],
        rows=rows,
        notes=notes,
        data=data,
        ok=ok,
    )


EXPERIMENTS = {
    "table5_1": table5_1,
    "figure5_1": figure5_1,
    "table5_3": table5_3,
    "table5_4": table5_4,
    "figure5_2": figure5_2,
    "ablation_partial_shuffle": ablation_partial_shuffle,
    "ablation_prefetch": ablation_prefetch,
    "ablation_stages": ablation_stages,
    "ablation_shuffle_alg": ablation_shuffle_alg,
    "ablation_multiuser": ablation_multiuser,
    "sharding": sharding,
    "parallel": parallel,
    "baselines": baselines,
    "device_sensitivity": device_sensitivity,
    "recursive_posmap": recursive_posmap,
    "conformance": conformance,
    "durability": durability,
    "resilience": resilience,
    "protocols": protocols,
    "serving": serving,
    "chaos": chaos,
}


def get_experiment(name: str):
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment '{name}' (known: {', '.join(sorted(EXPERIMENTS))})"
        ) from None

"""Wall-clock scaling study for the parallel shard runtime.

Where ``bench_sharding.py`` reports *simulated* throughput (shards modeled
as parallel devices), this benchmark measures what the tentpole actually
changes: **real elapsed time**.  Each cell builds the same sharded fleet
twice -- on the in-process :class:`~repro.core.executor.SerialExecutor`
and on the process-per-shard
:class:`~repro.core.executor.ParallelExecutor` -- runs the identical
request stream through both, then

* cross-checks the runs (retired results, fleet served log, merged
  metrics must be bit-identical -- any divergence fails the benchmark
  with a non-zero exit, which is what the CI smoke job gates on), and
* reports wall-clock throughput and the parallel-over-serial speedup.

The speedup is bounded by the host's core count: the workers are
CPU-bound Python processes, so a 1-CPU container shows ~1.0x, and on two
vCPUs the coordinator and two workers already share the cores.  The
visible CPU count is recorded in the JSON so the trajectory stays
interpretable across machines, and each parallel cell carries the
executor's round accounting (``rounds_per_step``, ``requests_per_step``)
beside ``payload_bytes_per_cycle``.

The result is persisted to ``BENCH_parallel.json`` at the repo root,
mirroring ``BENCH_wallclock.json`` / ``BENCH_sharding.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py            # full sweep + JSON
    PYTHONPATH=src python benchmarks/bench_parallel.py --smoke    # tiny CI sanity run
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - convenience for direct invocation
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.sharding import build_sharded_horam
from repro.crypto.random import DeterministicRandom
from repro.sim.engine import SimulationEngine
from repro.workload.generators import hotspot

FULL_SHARDS = (1, 2, 4, 8)
SMOKE_SHARDS = (1, 2)

FULL_CONFIG = {"n_blocks": 8192, "mem_tree_blocks": 1024, "requests": 4000}
SMOKE_CONFIG = {"n_blocks": 1024, "mem_tree_blocks": 256, "requests": 300}


def _stream(n_blocks: int, count: int):
    return list(
        hotspot(
            n_blocks,
            count,
            DeterministicRandom(7),
            hot_blocks=max(16, n_blocks // 16),
            write_ratio=0.3,
        )
    )


def run_executor(
    executor: str, n_shards: int, n_blocks: int, mem_tree_blocks: int, requests: int
) -> dict:
    """One (executor, shard count) run; returns wall numbers + observables."""
    build_start = time.perf_counter()
    fleet = build_sharded_horam(
        n_blocks=n_blocks,
        mem_tree_blocks=mem_tree_blocks,
        n_shards=n_shards,
        seed=0,
        executor=executor,
    )
    build_seconds = time.perf_counter() - build_start
    try:
        stream = _stream(n_blocks, requests)
        engine = SimulationEngine(fleet, record_results=True)
        start = time.perf_counter()
        metrics = engine.run(stream)
        run_seconds = time.perf_counter() - start
        ipc = None
        ipc_stats = getattr(fleet.executor, "ipc_stats", None)
        if ipc_stats is not None:
            ipc = ipc_stats()
            payload_total = ipc["shm_payload_bytes"] + ipc["inline_payload_bytes"]
            ipc["payload_bytes_total"] = payload_total
            ipc["payload_bytes_per_cycle"] = (
                round(payload_total / metrics.cycles, 2) if metrics.cycles else 0.0
            )
            # One blocking IPC round per step is the contract; the padding
            # round only counts when the next step had to wait for it.
            steps = ipc["steps"]
            ipc["rounds_per_step"] = (
                round(ipc["blocking_rounds"] / steps, 2) if steps else 0.0
            )
            ipc["requests_per_step"] = (
                round(ipc["requests"] / steps, 1) if steps else 0.0
            )
        return {
            "build_seconds": round(build_seconds, 4),
            "run_seconds": round(run_seconds, 4),
            "throughput_rps": round(metrics.requests_served / run_seconds, 1)
            if run_seconds
            else None,
            "served": metrics.requests_served,
            # IPC accounting (parallel executor only): how many
            # request/result bytes crossed process boundaries, the
            # per-cycle average after the shared-memory scratch took
            # payloads out of the pickled envelopes, and how many rounds
            # and requests each step put on the critical path.
            "ipc": ipc,
            # observables for the serial/parallel cross-check
            "results": engine.results,
            "served_log": fleet.served_log,
            "metrics": metrics.to_dict(),
        }
    finally:
        fleet.close()


def _best_of(trials: int, executor: str, n_shards: int, config: dict) -> dict:
    """Fastest of ``trials`` runs (fresh fleet each; observables must agree)."""
    runs = [run_executor(executor, n_shards, **config) for _ in range(trials)]
    for other in runs[1:]:
        for key in ("results", "served_log", "metrics"):
            assert other[key] == runs[0][key], "non-deterministic replay"
    return min(runs, key=lambda run: run["run_seconds"])


def run_cell(n_shards: int, config: dict, trials: int = 1) -> dict:
    serial = _best_of(trials, "serial", n_shards, config)
    parallel = _best_of(trials, "parallel", n_shards, config)
    divergences = [
        key
        for key in ("results", "served_log", "metrics")
        if serial[key] != parallel[key]
    ]
    speedup = (
        round(parallel["throughput_rps"] / serial["throughput_rps"], 2)
        if serial["throughput_rps"]
        else None
    )
    strip = lambda run: {k: v for k, v in run.items() if k not in ("results", "served_log")}
    return {
        "shards": n_shards,
        "serial": strip(serial),
        "parallel": strip(parallel),
        "speedup_parallel_vs_serial": speedup,
        "identical": not divergences,
        "divergences": divergences,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny configuration for CI sanity (no JSON written by default)",
    )
    parser.add_argument(
        "--trials", type=int, default=2, help="runs per cell; best is reported"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="result JSON path (default: BENCH_parallel.json at the repo root; "
        "smoke runs write nothing unless this is given)",
    )
    args = parser.parse_args(argv)

    config = SMOKE_CONFIG if args.smoke else FULL_CONFIG
    shard_counts = SMOKE_SHARDS if args.smoke else FULL_SHARDS
    trials = 1 if args.smoke else max(1, args.trials)
    cpus = os.cpu_count() or 1

    cells = []
    diverged = False
    for n_shards in shard_counts:
        cell = run_cell(n_shards, config, trials=trials)
        cells.append(cell)
        diverged |= not cell["identical"]
        ipc = cell["parallel"].get("ipc") or {}
        per_cycle = ipc.get("payload_bytes_per_cycle")
        print(
            f"{n_shards} shard(s): serial {cell['serial']['throughput_rps']:.0f} req/s, "
            f"parallel {cell['parallel']['throughput_rps']:.0f} req/s "
            f"({cell['speedup_parallel_vs_serial']}x), "
            + (
                f"envelope payload {per_cycle} B/cycle, "
                f"{ipc['rounds_per_step']} blocking round(s)/step, "
                if per_cycle is not None
                else ""
            )
            + ("bit-identical" if cell["identical"] else f"DIVERGED: {cell['divergences']}")
        )

    report = {
        "benchmark": "bench_parallel",
        "mode": "smoke" if args.smoke else "full",
        "trials": trials,
        "config": dict(config),
        "shard_counts": list(shard_counts),
        "lockstep": True,
        "machine": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpus": cpus,
        },
        # A single visible core cannot demonstrate any parallel win; two
        # or more can (even if fewer than the largest shard count), so
        # the flag clears as soon as the host is genuinely multicore.
        "hardware_limited": cpus < 2,
        "cells": cells,
        "all_identical": not diverged,
    }

    if diverged:
        print("FAIL: serial and parallel executors diverged", file=sys.stderr)

    out = args.out
    if out is None and not args.smoke:
        out = REPO_ROOT / "BENCH_parallel.json"
    if out is not None:
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")
    return 1 if diverged else 0


if __name__ == "__main__":
    raise SystemExit(main())

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

One big batch hides the per-step cost of the transport, so a second
section (``small_batches``) times what a served fleet actually issues:
the median wall time of one *supervised* submit + drain at 1, 8 and 32
requests on two shards, serial vs parallel, with the number of threads
the coordinator runs once the fleet is built and stepping (the parallel
transport is one pipe per worker and must add none).

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
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - convenience for direct invocation
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.sharding import build_sharded_horam
from repro.core.supervisor import FleetSupervisor, SupervisorConfig
from repro.crypto.random import DeterministicRandom
from repro.sim.engine import SimulationEngine
from repro.workload.generators import hotspot

FULL_SHARDS = (1, 2, 4, 8)
SMOKE_SHARDS = (1, 2)

FULL_CONFIG = {"n_blocks": 8192, "mem_tree_blocks": 1024, "requests": 4000}
SMOKE_CONFIG = {"n_blocks": 1024, "mem_tree_blocks": 256, "requests": 300}

#: the small-batch cells: fleet width, requests per supervised drain, and
#: how many drains of each size a run times.
DRAIN_SHARDS = 2
DRAIN_SIZES = (1, 8, 32)
FULL_DRAINS = 200
SMOKE_DRAINS = 10


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


def run_small_batches(executor: str, config: dict, drains: int) -> dict:
    """Median ms per supervised submit + drain at each of ``DRAIN_SIZES``
    on a ``DRAIN_SHARDS``-wide fleet (cadence checkpoints off: the drain
    alone)."""
    fleet = build_sharded_horam(
        n_blocks=config["n_blocks"],
        mem_tree_blocks=config["mem_tree_blocks"],
        n_shards=DRAIN_SHARDS,
        seed=0,
        executor=executor,
    )
    with tempfile.TemporaryDirectory(prefix="horam-bench-parallel-") as ckpt_dir:
        supervisor = FleetSupervisor(
            fleet, ckpt_dir, SupervisorConfig(checkpoint_every_ops=0)
        )
        try:
            stream = iter(_stream(config["n_blocks"], drains * sum(DRAIN_SIZES)))
            drain_ms, results = {}, []
            for size in DRAIN_SIZES:
                times = []
                for _ in range(drains):
                    batch = [next(stream) for _ in range(size)]
                    start = time.perf_counter()
                    entries = [supervisor.submit(request) for request in batch]
                    supervisor.drain()
                    times.append(time.perf_counter() - start)
                    results.extend(entry.result for entry in entries)
                drain_ms[size] = round(statistics.median(times) * 1e3, 3)
            return {
                "drain_ms": drain_ms,
                "coordinator_threads": threading.active_count(),
                "results": results,
            }
        finally:
            supervisor.close()


def small_batch_section(config: dict, drains: int) -> dict:
    serial = run_small_batches("serial", config, drains)
    parallel = run_small_batches("parallel", config, drains)
    return {
        "shards": DRAIN_SHARDS,
        "supervised": True,
        "checkpoint_every_ops": 0,
        "drains_per_size": drains,
        "cells": [
            {
                "requests_per_drain": size,
                "serial_drain_ms": serial["drain_ms"][size],
                "parallel_drain_ms": parallel["drain_ms"][size],
                "speedup_parallel_vs_serial": round(
                    serial["drain_ms"][size] / parallel["drain_ms"][size], 2
                ),
            }
            for size in DRAIN_SIZES
        ],
        "coordinator_threads": {
            "serial": serial["coordinator_threads"],
            "parallel": parallel["coordinator_threads"],
        },
        "identical": serial["results"] == parallel["results"],
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

    small = small_batch_section(config, SMOKE_DRAINS if args.smoke else FULL_DRAINS)
    diverged |= not small["identical"]
    for cell in small["cells"]:
        print(
            f"supervised drain of {cell['requests_per_drain']:>2} request(s), {small['shards']} shards: "
            f"serial {cell['serial_drain_ms']} ms, parallel {cell['parallel_drain_ms']} ms "
            f"({cell['speedup_parallel_vs_serial']}x)"
        )
    print(
        f"coordinator threads: serial {small['coordinator_threads']['serial']}, "
        f"parallel {small['coordinator_threads']['parallel']}; "
        + ("same served bytes" if small["identical"] else "DIVERGED: small-batch results")
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
        "small_batches": small,
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

"""The ``horam-bench`` command-line runner.

Usage::

    horam-bench --list
    horam-bench table5_3 --scale quick
    horam-bench table5_3 figure5_1 baselines --scale quick
    horam-bench all --scale quick
    horam-bench table5_4 --scale full      # paper-size run (slow)
    horam-bench chaos serving --scale medium --out results/

Each experiment prints its paper-style table and one ``[ok]``/``[FAIL]``
line per check, the measured value beside the published one.  The exit
code is 1 if any experiment's gate or check failed.  With ``--out DIR``
each result is also written to ``DIR/BENCH_<id>.json``; without it
nothing is written anywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy

from repro.bench.experiments import EXPERIMENTS, ExperimentResult, get_experiment
from repro.bench.tables import render_kv
from repro.storage.device import hdd_paper


def _print_header() -> None:
    device = hdd_paper()
    print(
        render_kv(
            "Simulated machine (Table 5-2 calibration)",
            [
                ("storage device", device.name),
                ("storage read throughput", f"{device.read_mb_per_s} MB/s"),
                ("storage write throughput", f"{device.write_mb_per_s} MB/s"),
                ("effective positioning", f"{device.read_overhead_us} us"),
                ("memory device", "ddr4-2133 (17 GB/s, 0.1 us)"),
            ],
        )
    )
    print()


def machine() -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def git_commit() -> str:
    """HEAD of the checkout this module runs from, ``-dirty`` if it has
    uncommitted changes to tracked files; ``unknown`` outside a checkout."""

    def git(*args: str) -> str:
        done = subprocess.run(
            ["git", *args],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return done.stdout.strip()

    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head + ("-dirty" if dirty else "")


def artifact(
    name: str, scale: str, result: ExperimentResult, wall_seconds: float, provenance: dict
) -> dict:
    """The one ``BENCH_<id>.json`` shape; ``provenance`` is commit + machine."""
    return {
        "benchmark": name,
        "scale": scale,
        "ok": result.ok,
        "checks": [asdict(check) for check in result.checks],
        "data": result.data,
        **provenance,
        "wall_seconds": wall_seconds,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="horam-bench",
        description="Regenerate the H-ORAM paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        metavar="experiment",
        help="experiment ids, run in the order given, or 'all' (default)",
    )
    parser.add_argument(
        "--scale",
        choices=("quick", "medium", "full"),
        default="quick",
        help="dataset scale (full = the paper's sizes; slow in pure Python)",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="also write each result to DIR/BENCH_<id>.json (default: write nothing)",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    names = sorted(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    try:
        experiments = [(name, get_experiment(name)) for name in names]
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    _print_header()
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        provenance = {"commit": git_commit(), "machine": machine()}
    exit_code = 0
    for name, experiment in experiments:
        started = time.perf_counter()
        result = experiment(scale=args.scale)
        elapsed = time.perf_counter() - started
        print(result.render())
        print(f"\n[{name} completed in {elapsed:.1f} s wall-clock]\n")
        if args.out is not None:
            path = args.out / f"BENCH_{name}.json"
            report = artifact(name, args.scale, result, elapsed, provenance)
            path.write_text(json.dumps(report, indent=2) + "\n")
            print(f"wrote {path}\n")
        if not result.ok:
            print(f"FAILED: {name} (a gate or check above did not hold)", file=sys.stderr)
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())

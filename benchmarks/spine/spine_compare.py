"""``run.py compare A B``: did B get worse than A, metric by metric?

A and B are ``--out`` directories of untraced runs (any number of seeds
and repeats each).  One row per workload x end-to-end metric: each side's
median with its quartiles, B's change in the worse direction as a share
of A's median, and a flag when that exceeds the metric's bound.  Exact
metrics (simulated or counted) are compared seed by seed and flag on any
difference at all.  Exit code 1 when anything is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from spine_phases import quartiles
from spine_workloads import END_TO_END, WORKLOADS


def load(directory: str) -> dict:
    """workload -> metric -> [(seed, value)] from a directory's untraced runs."""
    table: dict = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*.trace0.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        for name, cell in result["end_to_end"].items():
            table[result["workload"]][name].append((result["seed"], cell["value"]))
    return table


def worsening(name: str, before: float, after: float) -> float:
    """B's change in the worse direction, as a share of A's median."""
    if before == 0:
        return 0.0 if after == 0 else float("inf")
    change = (after - before) / abs(before)
    return change if END_TO_END[name][1] == "lower" else -change


def exact_verdict(a: list, b: list) -> str:
    """'' when every common seed agrees exactly, else what is wrong."""
    by_seed_a, by_seed_b = defaultdict(set), defaultdict(set)
    for seed, value in a:
        by_seed_a[seed].add(value)
    for seed, value in b:
        by_seed_b[seed].add(value)
    common = sorted(set(by_seed_a) & set(by_seed_b))
    if not common:
        return "no common seed"
    differing = [
        seed
        for seed in common
        if len(by_seed_a[seed] | by_seed_b[seed]) != 1
    ]
    return f"differs at seed {differing[0]}" if differing else ""


def compare(dir_a: str, dir_b: str, out=sys.stdout) -> int:
    table_a, table_b = load(dir_a), load(dir_b)
    flagged = 0
    header = (
        f"{'workload':<18}{'metric':<22}{'unit':<11}"
        f"{'A median [q1, q3] n':<46}{'B median [q1, q3] n':<46}{'worse by':>9}  {'bound':>6}"
    )
    print(header, file=out)
    for workload in WORKLOADS:
        for name, (unit, _better, bound) in END_TO_END.items():
            a, b = table_a[workload][name], table_b[workload][name]
            if not a or not b:
                print(f"{workload:<18}{name:<22}{unit:<11}missing on one side  FLAG", file=out)
                flagged += 1
                continue
            cells = []
            for side in (a, b):
                values = [value for _seed, value in side]
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}] {len(values)}")
            worse = worsening(
                name,
                statistics.median(value for _seed, value in a),
                statistics.median(value for _seed, value in b),
            )
            if bound is None:
                verdict = exact_verdict(a, b)
                limit = "exact"
            else:
                verdict = "beyond bound" if worse > bound else ""
                limit = f"{bound:.0%}"
            if verdict:
                flagged += 1
            print(
                f"{workload:<18}{name:<22}{unit:<11}{cells[0]:<45} {cells[1]:<45} "
                f"{worse:>+9.2%}  {limit:>6}" + (f"  FLAG {verdict}" if verdict else ""),
                file=out,
            )
    print(f"{flagged} flagged", file=out)
    return 1 if flagged else 0


def main(argv: "list[str]") -> int:
    if len(argv) != 2:
        print("usage: run.py compare A B", file=sys.stderr)
        return 2
    return compare(argv[0], argv[1])

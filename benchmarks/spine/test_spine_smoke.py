"""Smoke test of the bench spine: tiny counts, every metric name, the
determinism and self-time contracts, no shared-memory leak.

Timings at these sizes mean nothing and are not asserted on.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import run as spine
from repro.storage.shm import active_segments
from spine_trace import Tracer
from spine_workloads import (
    END_TO_END,
    EXACT_BOUND_ACROSS_SEEDS,
    PER_LAYER,
    REFERENCE_SECONDS,
    WORKLOADS,
)

EXACT = [name for name, (_unit, _better, bound) in END_TO_END.items() if bound is None]

TINY = {
    "hot_fit": dict(
        engine_count=600, closed_count=200, open_count=60, open_rate=400.0, repetitions=2
    ),
    "fleet_supervised": dict(
        engine_count=600, closed_count=120, open_count=40, open_rate=200.0, repetitions=1
    ),
}
#: rounds of engine + closed32 per run: one warm-up plus the repetitions
HOT_FIT_ROUNDS = 3


def run_tiny(name: str, seed: int, trace: bool, tmp_path, out_dir=None) -> dict:
    workload = replace(WORKLOADS[name], **TINY[name])
    return spine.run_workload(workload, seed, trace, tmp_path / "work", out_dir)


@pytest.fixture(autouse=True)
def no_leaked_segments():
    before = set(active_segments())
    yield
    assert set(active_segments()) == before


def assert_table(table: dict, schema: dict) -> None:
    assert list(table) == list(schema)
    for name, cell in table.items():
        assert cell["unit"] == schema[name][0], name
        assert isinstance(cell["value"], (int, float)), name


def test_benchmark_json_matches_the_tables():
    declared = json.loads((spine.ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert declared["command"] == ["python3", "benchmarks/spine/run.py"]
    assert declared["paths"] == ["benchmarks/spine"]
    assert declared["run_seconds"] == REFERENCE_SECONDS
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]] == [
        (name, unit, better, EXACT_BOUND_ACROSS_SEEDS if bound is None else bound)
        for name, (unit, better, bound) in END_TO_END.items()
        if name != "failed_share"  # always 0: the result line's failed/attempted
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in PER_LAYER.items()
    ]


def test_hot_fit_metrics_and_determinism(tmp_path):
    first = run_tiny("hot_fit", 1, False, tmp_path)
    again = run_tiny("hot_fit", 1, False, tmp_path)
    other = run_tiny("hot_fit", 2, False, tmp_path)
    for result in (first, again, other):
        assert result["correct"], result["failures"]
        assert result["failed"] == 0
        assert result["attempted"] == HOT_FIT_ROUNDS * (600 + 200) + 60
        assert_table(result["end_to_end"], END_TO_END)
        assert set(result["machine"]) == {"cpus", "python", "numpy", "platform"}
    exact = lambda result: {name: result["end_to_end"][name]["value"] for name in EXACT}  # noqa: E731
    assert exact(first) == exact(again)
    # Another seed is another stream: the simulated cost moves with it,
    # the failure share (no stream dependence) does not.
    assert exact(other)["sim_us_per_req"] != exact(first)["sim_us_per_req"]
    assert exact(other)["failed_share"] == exact(first)["failed_share"] == 0
    # The driver's line carries every end-to-end metric that is never 0.
    line = json.loads(spine.driver_line(first))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(END_TO_END) - {"failed_share"}


def test_hot_fit_traced_layers(tmp_path):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    result = run_tiny("hot_fit", 1, True, tmp_path, out_dir)
    assert result["correct"], result["failures"]
    assert "end_to_end" not in result
    assert_table(result["per_layer"], PER_LAYER)
    assert len(PER_LAYER) == 60
    layer = {name: cell["value"] for name, cell in result["per_layer"].items()}
    assert layer["kernel.cycles"] > 0 and layer["crypto.records"] > 0
    assert layer["serve.rejected"] == 0 and layer["executor.steps"] == 0
    # Self time = span - children: in the engine phase every span sits
    # under a kernel.step or kernel.submit root, so the self times of all
    # spans add up to those roots' durations.
    spans = result["spans"]["engine"]
    roots = spans["kernel.step"]["total_s"] + spans["kernel.submit"]["total_s"]
    assert sum(span["self_s"] for span in spans.values()) == pytest.approx(roots, rel=1e-6)
    assert 0.5 < layer["trace.attributed_share"] <= 1.0
    # Raw spans: children lie inside their parents.
    lines = (out_dir / "hot_fit.seed1.engine.spans.jsonl").read_text().splitlines()
    raw = {record["span"]: record for record in map(json.loads, lines)}
    assert raw and all(record["cycle"] <= 2000 for record in raw.values())
    for record in raw.values():
        if record["parent"] >= 0:
            parent = raw[record["parent"]]
            assert parent["start_us"] <= record["start_us"] <= record["end_us"] <= parent["end_us"]


def test_fleet_supervised(tmp_path):
    untraced = run_tiny("fleet_supervised", 1, False, tmp_path)
    traced = run_tiny("fleet_supervised", 1, True, tmp_path)
    for result in (untraced, traced):
        assert result["correct"], result["failures"]
    assert_table(untraced["end_to_end"], END_TO_END)
    assert_table(traced["per_layer"], PER_LAYER)
    layer = {name: cell["value"] for name, cell in traced["per_layer"].items()}
    assert layer["executor.steps"] > 0 and layer["executor.step_s"] > 0
    assert layer["supervisor.checkpoints"] >= 2  # one initial checkpoint per shard
    assert layer["sharding.imbalance"] >= 1.0
    assert layer["kernel.cycles"] > 0 and layer["cache_tree.hit_s"] == 0  # shards are out of process


def test_tracer_self_time_is_span_minus_children():
    class Toy:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return sum(range(2000))

    toy = Toy()
    tracer = Tracer(cycle_span="outer")
    tracer.wrap(toy, "outer", "outer")
    tracer.wrap(toy, "inner", "inner", items=lambda args, result: 1)
    for _ in range(3):
        toy.outer()
    report = tracer.report()
    assert report["outer"]["calls"] == 3 and report["inner"]["calls"] == 6
    assert report["inner"]["items"] == 6
    assert report["inner"]["self_s"] == pytest.approx(report["inner"]["total_s"])
    assert report["outer"]["self_s"] == pytest.approx(
        report["outer"]["total_s"] - report["inner"]["total_s"]
    )
    assert tracer.cycle == 3 and len(tracer.raw) == 9
    assert [span[3] for span in tracer.raw[:3]] == [-1, 0, 0]  # parents by raw index

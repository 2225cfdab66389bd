"""Experiment harness tests (analytic experiments + registry plumbing).

Every experiment runs at quick scale in CI through ``horam-bench``; here
we cover the closed-form ones fully, the cheap paper gate and the
harness plumbing.
"""

import pytest

from repro.bench.experiments import (
    EXPERIMENTS,
    Check,
    ExperimentResult,
    figure5_1,
    get_experiment,
    table5_1,
)


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        for required in ("table5_1", "table5_3", "table5_4", "figure5_1", "figure5_2"):
            assert required in EXPERIMENTS

    def test_get_experiment(self):
        assert get_experiment("table5_1") is table5_1
        with pytest.raises(ValueError):
            get_experiment("table9_9")

    def test_ablations_present(self):
        ablations = [name for name in EXPERIMENTS if name.startswith("ablation_")]
        assert len(ablations) >= 5

    def test_conformance_present(self):
        assert "conformance" in EXPERIMENTS

    def test_perf_tooling_present(self):
        assert "parallel" in EXPERIMENTS

    def test_serving_present(self):
        assert "serving" in EXPERIMENTS


class TestPaperGate:
    """The paper's shape assertions gate tier 1 (the cheap ones; CI runs
    the whole paper/ablation/baseline group through ``horam-bench``)."""

    @pytest.mark.parametrize("name", ["table5_1", "figure5_1", "table5_3"])
    def test_quick_scale_holds_the_paper_shape(self, name):
        result = get_experiment(name)(scale="quick")
        assert result.checks
        assert [check.claim for check in result.checks if not check.passed] == []
        assert result.ok

    def test_table5_1_checks_the_paper_configuration_at_every_scale(self):
        # The published 4.5/4 KB vs 16/16 KB hold for the 1 GB shape only.
        for scale in ("quick", "full"):
            checks = table5_1(scale=scale).checks
            assert [check.paper for check in checks] == [
                "4.5 KB", "4.0 KB", "16.0 KB", "16.0 KB",
            ]
            assert all(check.passed for check in checks)


class TestSweepParity:
    """The table-driven config sweeps reproduce the numbers the four
    hand-written copies produced (deterministic simulated counters)."""

    def test_stages(self):
        data = get_experiment("ablation_stages")(scale="quick").data
        cycles = [data[key]["cycles"] for key in ("fixed c=5", "paper {1,3,5}", "fixed c=1")]
        assert cycles == [475, 486, 1506]

    def test_partial_shuffle(self):
        data = get_experiment("ablation_partial_shuffle")(scale="quick").data
        assert data[4]["extra"]["blocks_appended"] == 189
        assert data[1]["extra"].get("blocks_appended", 0) == 0

    def test_prefetch(self):
        data = get_experiment("ablation_prefetch")(scale="quick").data
        assert (data["d=6c"]["cycles"], data["d=c+1"]["cycles"]) == (463, 520)


class TestConformanceExperiment:
    def test_result_plumbing_on_matrix_slice(self, monkeypatch):
        """Experiment-level wiring (rows, ok flag, shrink-demo payload) on a
        3-scenario slice; the full matrix runs scenario-by-scenario in
        tests/testing/test_conformance.py, no need to pay for it twice."""
        import repro.testing.conformance as conf

        full = conf.default_matrix
        monkeypatch.setattr(conf, "default_matrix", lambda scale="quick": full(scale)[:3])
        result = get_experiment("conformance")(scale="quick")
        assert result.ok
        assert len(result.rows) == 3
        summary = result.data["summary"]
        assert summary["scenarios"] == 3
        assert summary["failed"] == 0
        demo = result.data["shrink_demo"]
        assert demo["reproduced"] and demo["replay_failed_again"]
        assert demo["shrunk_requests"] <= demo["original_requests"]
        # the shrunk spec ships as replayable JSON inside the result
        from repro.testing import ScenarioSpec

        spec = ScenarioSpec.from_json(demo["spec_json"])
        assert spec.workload.kind == "explicit"


class TestTable51:
    def test_matches_paper_numbers(self):
        result = table5_1(scale="full")
        assert result.data["horam_avg_read_kb"] == pytest.approx(4.5)
        assert result.data["horam_avg_write_kb"] == pytest.approx(4.0)
        assert result.data["path_avg_read_kb"] == pytest.approx(16.0)
        assert result.data["path_avg_write_kb"] == pytest.approx(16.0)

    def test_renders(self):
        result = table5_1()
        text = result.render()
        assert "H-ORAM" in text and "Path ORAM" in text
        assert "262144" in text  # requests per period

    def test_small_scale_variant(self):
        result = table5_1(scale="quick")
        # 64 MB / 8 MB keeps the same per-access baseline cost (same ratio).
        assert result.data["path_avg_read_kb"] == pytest.approx(16.0)


class TestFigure51:
    def test_series_shape(self):
        result = figure5_1()
        series = result.data["series"]
        assert set(series) == {1, 2, 4, 8, 16}
        for c, points in series.items():
            ratios = [r for r, _ in points]
            assert ratios == sorted(ratios)

    def test_gain_monotone_in_c(self):
        series = figure5_1().data["series"]
        at_ratio_8 = {c: dict(points)[8] for c, points in series.items()}
        assert at_ratio_8[1] < at_ratio_8[4] < at_ratio_8[16]

    def test_peak_in_paper_band(self):
        assert 10 < figure5_1().data["peak_gain"] < 20


class TestResultType:
    def test_auto_renders_table(self):
        result = ExperimentResult(
            experiment_id="x",
            title="T",
            headers=["a", "b"],
            rows=[[1, 2]],
        )
        assert "a" in result.table

    def test_failed_check_fails_the_result_and_renders(self):
        result = ExperimentResult(
            experiment_id="x",
            title="T",
            headers=["a"],
            rows=[[1]],
            checks=[
                Check("gain in band", "7.0x", True, paper="12x-16x"),
                Check("never shuffles", 3, False),
            ],
        )
        assert not result.ok
        text = result.render()
        assert "[ok] gain in band: 7.0x (paper: 12x-16x)" in text
        assert "[FAIL] never shuffles: 3" in text

    def test_notes_rendered(self):
        result = ExperimentResult(
            experiment_id="x",
            title="T",
            headers=["a"],
            rows=[[1]],
            notes=["something important"],
        )
        assert "something important" in result.render()

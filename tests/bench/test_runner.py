"""CLI runner tests (the ``horam-bench`` entry point)."""

import json

import pytest

from repro.bench.experiments import EXPERIMENTS, Check, ExperimentResult
from repro.bench.runner import main


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table5_3" in out and "figure5_1" in out

    def test_unknown_experiment(self, capsys):
        assert main(["table9_9"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_analytic_experiment_runs(self, capsys):
        assert main(["table5_1", "--scale", "full"]) == 0
        out = capsys.readouterr().out
        assert "Table 5-1" in out
        assert "Simulated machine" in out  # Table 5-2 header
        assert "102.7" in out  # the calibrated read throughput

    def test_figure_runs(self, capsys):
        assert main(["figure5_1"]) == 0
        out = capsys.readouterr().out
        assert "c=4" in out

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["table5_1", "--scale", "gigantic"])


def _stub(name, passed=True):
    def experiment(scale="quick"):
        return ExperimentResult(
            experiment_id=name,
            title=f"stub {name}",
            headers=["k"],
            rows=[[scale]],
            data={"scale_seen": scale, 4: "int keys serialise as strings"},
            checks=[Check("in band", "1.0x", passed, paper="1x")],
        )

    return experiment


class TestGateAndArtifacts:
    @pytest.fixture
    def stubs(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "stub_good", _stub("stub_good"))
        monkeypatch.setitem(EXPERIMENTS, "stub_bad", _stub("stub_bad", passed=False))

    def test_failed_check_exits_one(self, stubs, capsys):
        assert main(["stub_good"]) == 0
        assert "[ok] in band: 1.0x (paper: 1x)" in capsys.readouterr().out
        assert main(["stub_good", "stub_bad"]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] in band" in captured.out
        assert "stub_bad" in captured.err

    def test_ids_run_in_the_order_given(self, stubs, capsys):
        main(["stub_bad", "table5_1", "stub_good"])
        out = capsys.readouterr().out
        assert out.index("stub stub_bad") < out.index("Table 5-1") < out.index("stub stub_good")

    def test_out_writes_the_one_artifact_shape(self, stubs, tmp_path, capsys):
        out = tmp_path / "nested" / "dir"
        assert main(["stub_good", "stub_bad", "--scale", "medium", "--out", str(out)]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["BENCH_stub_bad.json", "BENCH_stub_good.json"]
        good = json.loads((out / "BENCH_stub_good.json").read_text())
        assert sorted(good) == sorted(
            ["benchmark", "scale", "ok", "checks", "data", "commit", "machine", "wall_seconds"]
        )
        assert sorted(good["machine"]) == ["cpus", "numpy", "platform", "python"]
        assert good["machine"]["cpus"] >= 1
        assert good["commit"]
        assert (good["benchmark"], good["scale"], good["ok"]) == ("stub_good", "medium", True)
        assert good["checks"] == [
            {"claim": "in band", "measured": "1.0x", "passed": True, "paper": "1x"}
        ]
        assert good["data"] == {"scale_seen": "medium", "4": "int keys serialise as strings"}
        assert json.loads((out / "BENCH_stub_bad.json").read_text())["ok"] is False

    def test_without_out_nothing_is_written(self, stubs, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["stub_good"]) == 0
        assert list(tmp_path.iterdir()) == []
        assert "wrote" not in capsys.readouterr().out

"""Tests for the experiment harness (smoke-scale runs of every entry)."""

import pathlib

import pytest

from repro.exceptions import ExperimentError
from repro.harness import EXPERIMENTS, get_experiment, run_experiment
from repro.harness.__main__ import main as cli_main


class TestRegistry:
    def test_registry_complete(self):
        expected = {
            "recon-T1", "recon-T2", "recon-F1", "recon-F2", "recon-F3",
            "recon-F4", "recon-F5", "recon-F6", "recon-F7", "recon-S1",
            "recon-S2", "abl-A1", "abl-A2", "abl-A3", "abl-A4", "abl-A5",
        }
        assert set(EXPERIMENTS) == expected

    def test_lookup_unknown(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            get_experiment("recon-F99")

    def test_entries_have_metadata(self):
        for exp in EXPERIMENTS.values():
            assert exp.title
            assert exp.description
            assert callable(exp.func)


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_experiment_smoke(exp_id, tmp_path):
    result = run_experiment(exp_id, "smoke", out_dir=tmp_path, verbose=False)
    assert result.exp_id == exp_id
    assert result.rows, f"{exp_id} produced no rows"
    assert all(len(row) == len(result.headers) for row in result.rows)
    rendered = result.render()
    assert exp_id in rendered
    csv_path = pathlib.Path(tmp_path) / f"{exp_id}.csv"
    assert csv_path.exists()
    assert csv_path.read_text().splitlines()[0] == ",".join(result.headers)


class TestResultHelpers:
    def test_column(self):
        result = run_experiment("recon-T2", "smoke", verbose=False)
        methods = result.column("method")
        assert "ard_factor" in methods
        with pytest.raises(ValueError):
            result.column("nonexistent")


class TestHeadlineClaims:
    """The reconstructed figures must show the paper's qualitative shape
    even at smoke scale."""

    def test_f1_speedup_grows_with_r(self):
        result = run_experiment("recon-F1", "smoke", verbose=False)
        speedups = result.column("speedup")
        rs = result.column("R")
        assert speedups[-1] > speedups[0]
        assert rs[-1] > rs[0]
        assert speedups[-1] > 2.0

    def test_t1_predictions_accurate(self):
        result = run_experiment("recon-T1", "smoke", verbose=False)
        for ratio in result.column("ratio"):
            assert 0.85 < ratio < 1.15

    def test_s1_errors_within_growth_bound(self):
        result = run_experiment("recon-S1", "smoke", verbose=False)
        assert all(result.column("within_1e3x"))

    def test_a1_scans_agree(self):
        result = run_experiment("abl-A1", "smoke", verbose=False)
        assert all(result.column("matches_ks"))

    def test_a1_pipeline_slower_at_scale(self):
        result = run_experiment("abl-A1", "smoke", verbose=False)
        rows = {(p, s): vt for p, s, vt, *_ in result.rows}
        assert rows[(8, "pipeline")] > rows[(8, "kogge_stone")]


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "recon-F1" in out

    def test_run(self, capsys, tmp_path):
        assert cli_main(["run", "recon-T2", "--scale", "smoke",
                         "--out", str(tmp_path)]) == 0
        assert (tmp_path / "recon-T2.csv").exists()

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "bogus"])

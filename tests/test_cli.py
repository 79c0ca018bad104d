"""End-to-end tests for the repro-fcc command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core.dataset import Dataset3D
from repro.datasets import paper_example


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "paper.npz"
    paper_example().save_npz(path)
    return str(path)


class TestGenerate:
    def test_random(self, tmp_path, capsys):
        out = str(tmp_path / "random.npz")
        code = main([
            "generate", "--kind", "random", "--shape", "3", "4", "5",
            "--density", "0.4", "--seed", "9", "--out", out,
        ])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        assert Dataset3D.load_npz(out).shape == (3, 4, 5)

    def test_planted(self, tmp_path):
        out = str(tmp_path / "planted.npz")
        assert main([
            "generate", "--kind", "planted", "--shape", "4", "6", "12",
            "--blocks", "2", "--out", out,
        ]) == 0
        assert Dataset3D.load_npz(out).shape == (4, 6, 12)

    def test_elutriation(self, tmp_path):
        out = str(tmp_path / "elu.npz")
        assert main([
            "generate", "--kind", "elutriation", "--genes", "40", "--out", out,
        ]) == 0
        assert Dataset3D.load_npz(out).shape == (14, 9, 40)

    def test_cdc15(self, tmp_path):
        out = str(tmp_path / "cdc.npz")
        assert main([
            "generate", "--kind", "cdc15", "--genes", "30", "--out", out,
        ]) == 0
        assert Dataset3D.load_npz(out).shape == (19, 9, 30)


class TestStats:
    def test_stats_output(self, dataset_file, capsys):
        assert main(["stats", "--input", dataset_file]) == 0
        out = capsys.readouterr().out
        assert "3 x 4 x 5" in out
        assert "cutters    : 10" in out

    def test_missing_file(self):
        with pytest.raises(SystemExit, match="not found"):
            main(["stats", "--input", "/nonexistent/ds.npz"])


class TestMine:
    def test_default_cubeminer(self, dataset_file, capsys):
        assert main([
            "mine", "--input", dataset_file,
            "--min-h", "2", "--min-r", "2", "--min-c", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "5 FCCs" in out
        assert "h1h2h3 : r1r3 : c1c2c3" in out

    @pytest.mark.parametrize(
        "algorithm", ["cubeminer", "rsm", "reference", "parallel-cubeminer", "parallel-rsm"]
    )
    def test_every_algorithm(self, dataset_file, capsys, algorithm):
        assert main([
            "mine", "--input", dataset_file, "--algorithm", algorithm,
            "--min-h", "2", "--min-r", "2", "--min-c", "2", "--workers", "2",
        ]) == 0
        assert "5 FCCs" in capsys.readouterr().out

    def test_show_limits_output(self, dataset_file, capsys):
        assert main([
            "mine", "--input", dataset_file, "--min-h", "2", "--min-r", "2",
            "--min-c", "2", "--show", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "and 3 more" in out

    def test_show_zero_prints_no_cubes(self, dataset_file, capsys):
        assert main([
            "mine", "--input", dataset_file, "--min-h", "2", "--min-r", "2",
            "--min-c", "2", "--show", "0",
        ]) == 0
        assert " : r" not in capsys.readouterr().out.split("coverage")[1]

    def test_empty_result_is_success(self, dataset_file, capsys):
        assert main([
            "mine", "--input", dataset_file, "--min-h", "3", "--min-r", "4",
            "--min-c", "5",
        ]) == 0
        assert "0 FCCs" in capsys.readouterr().out

    def test_rsm_options(self, dataset_file, capsys):
        assert main([
            "mine", "--input", dataset_file, "--algorithm", "rsm",
            "--base-axis", "row", "--fcp-miner", "charm",
            "--min-h", "2", "--min-r", "2", "--min-c", "2",
        ]) == 0
        assert "rsm-r[charm]" in capsys.readouterr().out


class TestRules:
    def test_rules_output(self, dataset_file, capsys):
        assert main([
            "rules", "--input", dataset_file, "--min-h", "2", "--min-r", "2",
            "--min-c", "2", "--min-confidence", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "rule(s)" in out
        assert "=>" in out


class TestConvert:
    def test_npz_to_triples_and_back(self, dataset_file, tmp_path, capsys):
        triples = str(tmp_path / "paper.triples")
        assert main(["convert", "--input", dataset_file, "--out", triples]) == 0
        back = str(tmp_path / "back.npz")
        assert main(["convert", "--input", triples, "--out", back]) == 0
        import numpy as np

        assert np.array_equal(
            Dataset3D.load_npz(back).data, paper_example().data
        )

    def test_npz_to_dense_text(self, dataset_file, tmp_path):
        dense = str(tmp_path / "paper.txt")
        assert main(["convert", "--input", dataset_file, "--out", dense]) == 0
        with open(dense) as handle:
            assert Dataset3D.from_text(handle.read()).shape == (3, 4, 5)

    def test_dense_text_to_npz(self, tmp_path):
        dense = tmp_path / "in.txt"
        dense.write_text(paper_example().to_text())
        out = str(tmp_path / "out.npz")
        assert main(["convert", "--input", str(dense), "--out", out]) == 0
        assert Dataset3D.load_npz(out).shape == (3, 4, 5)

    def test_missing_input(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["convert", "--input", "/nope.triples",
                  "--out", str(tmp_path / "x.npz")])


class TestTrace:
    def test_tree(self, dataset_file, capsys):
        assert main(["trace", "--input", dataset_file, "--kind", "tree"]) == 0
        out = capsys.readouterr().out
        assert out.count("[FCC]") == 5

    def test_rsm_table(self, dataset_file, capsys):
        assert main(["trace", "--input", dataset_file, "--kind", "rsm"]) == 0
        assert "Height Set" in capsys.readouterr().out

    def test_too_large_dataset_errors_cleanly(self, tmp_path):
        from repro.datasets import random_tensor

        big = tmp_path / "big.npz"
        random_tensor((20, 20, 20), 0.5, seed=0).save_npz(big)
        with pytest.raises(SystemExit, match="guard"):
            main(["trace", "--input", str(big)])


class TestMineExports:
    def test_out_json(self, dataset_file, tmp_path, capsys):
        out = str(tmp_path / "result.json")
        assert main([
            "mine", "--input", dataset_file, "--min-h", "2", "--min-r", "2",
            "--min-c", "2", "--out-json", out,
        ]) == 0
        from repro.io import result_from_json

        with open(out) as handle:
            assert len(result_from_json(handle.read())) == 5

    def test_out_csv(self, dataset_file, tmp_path):
        out = str(tmp_path / "result.csv")
        assert main([
            "mine", "--input", dataset_file, "--min-h", "2", "--min-r", "2",
            "--min-c", "2", "--out-csv", out,
        ]) == 0
        with open(out) as handle:
            assert len(handle.read().strip().splitlines()) == 6


class TestVerify:
    @pytest.fixture
    def result_file(self, dataset_file, tmp_path):
        out = str(tmp_path / "result.json")
        main([
            "mine", "--input", dataset_file, "--min-h", "2", "--min-r", "2",
            "--min-c", "2", "--out-json", out,
        ])
        return out

    def test_clean_result_exits_zero(self, dataset_file, result_file, capsys):
        code = main(["verify", "--input", dataset_file, "--result", result_file])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_completeness_flag(self, dataset_file, result_file, capsys):
        code = main([
            "verify", "--input", dataset_file, "--result", result_file,
            "--complete",
        ])
        assert code == 0
        assert "complete" in capsys.readouterr().out

    def test_wrong_dataset_exits_nonzero(self, result_file, tmp_path, capsys):
        from repro.datasets import random_tensor

        other = tmp_path / "other.npz"
        random_tensor((3, 4, 5), 0.5, seed=99).save_npz(other)
        code = main(["verify", "--input", str(other), "--result", result_file])
        assert code == 1
        assert "violation" in capsys.readouterr().out

    def test_missing_result_file(self, dataset_file):
        with pytest.raises(SystemExit, match="result file not found"):
            main(["verify", "--input", dataset_file, "--result", "/nope.json"])


class TestExplore:
    def test_budget_found(self, dataset_file, capsys):
        code = main([
            "explore", "--input", dataset_file, "--min-h", "2", "--min-r", "2",
            "--max-cubes", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "minC=" in out and "budget 3" in out

    def test_generous_budget_keeps_lower_bound(self, dataset_file, capsys):
        assert main([
            "explore", "--input", dataset_file, "--min-h", "2", "--min-r", "2",
            "--min-c", "2", "--max-cubes", "100",
        ]) == 0
        assert "minC=2" in capsys.readouterr().out


class TestTopK:
    def test_topk_output(self, dataset_file, capsys):
        assert main(["topk", "--input", dataset_file, "-k", "3",
                     "--min-h", "2", "--min-r", "2", "--min-c", "2"]) == 0
        out = capsys.readouterr().out
        assert "top 3 cube(s)" in out
        assert out.count("cells]") == 3

    def test_topk_defaults(self, dataset_file, capsys):
        assert main(["topk", "--input", dataset_file]) == 0
        assert "by volume" in capsys.readouterr().out


class TestMineVolumeFlag:
    def test_min_volume_filters(self, dataset_file, capsys):
        assert main([
            "mine", "--input", dataset_file, "--min-h", "2", "--min-r", "2",
            "--min-c", "2", "--min-volume", "13",
        ]) == 0
        out = capsys.readouterr().out
        assert "3 FCCs" in out
        assert "minVolume=13" not in out  # summary shows counts, not flags


class TestExample:
    def test_example_reproduces_tables(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Figure 1" in out
        assert out.count("[FCC]") == 5
        assert "h1h2h3 : r1r2r3 : c2c3, 3:3:2" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_mine_requires_input(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mine"])


class TestRobustnessFlags:
    def test_fault_tolerance_flags_wired_into_options(self, tmp_path):
        from repro.cli import _options_from_args

        checkpoint = str(tmp_path / "run.jsonl")
        args = build_parser().parse_args([
            "mine", "--input", "x.npz", "--algorithm", "parallel-rsm",
            "--retries", "5", "--task-timeout", "7.5", "--backoff", "0.25",
            "--checkpoint", checkpoint, "--resume",
        ])
        options = _options_from_args(args)
        assert options.retries == 5
        assert options.task_timeout == 7.5
        assert options.backoff == 0.25
        assert options.checkpoint_path == checkpoint
        assert options.resume is True
        kwargs = options.to_kwargs("parallel-rsm")
        assert kwargs["retries"] == 5 and kwargs["resume"] is True

    def test_checkpoint_then_resume_flow(self, dataset_file, tmp_path, capsys):
        checkpoint = str(tmp_path / "run.jsonl")
        base = [
            "mine", "--input", dataset_file, "--algorithm", "parallel-rsm",
            "--workers", "2", "--checkpoint", checkpoint,
        ]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert main(base + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "5 FCCs" in first and "5 FCCs" in second

    def test_malformed_triples_exit_65(self, tmp_path, capsys):
        bad = tmp_path / "bad.triples"
        bad.write_text("2 2 2\n0 0 9\n")
        with pytest.raises(SystemExit) as excinfo:
            main([
                "convert", "--input", str(bad),
                "--out", str(tmp_path / "out.npz"),
            ])
        assert excinfo.value.code == 65
        err = capsys.readouterr().err
        assert "line 2" in err and "outside" in err

    def test_duplicate_cell_exit_65(self, tmp_path, capsys):
        bad = tmp_path / "dup.triples"
        bad.write_text("2 2 2\n0 0 1\n0 0 1\n")
        with pytest.raises(SystemExit) as excinfo:
            main([
                "convert", "--input", str(bad),
                "--out", str(tmp_path / "out.npz"),
            ])
        assert excinfo.value.code == 65
        assert "duplicate" in capsys.readouterr().err

    def test_unreadable_npz_exit_65(self, tmp_path, capsys):
        bad = tmp_path / "not-really.npz"
        bad.write_text("this is not a zip archive")
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", "--input", str(bad)])
        assert excinfo.value.code == 65
        assert "not a readable .npz" in capsys.readouterr().err


class TestDeclaredDependencies:
    def test_cli_runs_without_networkx(self):
        """The CLI and the analysis package need only the declared deps."""
        code = (
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            "import repro.cli, repro.analysis\n"
            "sys.exit(repro.cli.main(['example']))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "[FCC]" in proc.stdout

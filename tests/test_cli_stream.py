"""CLI surface of the streaming subsystem: ``update`` and ``serve`` flags."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import mine
from repro.cli import EXIT_DATA, build_parser, main
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.io import result_from_json


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(17)
    data = rng.random((3, 6, 8)) < 0.45
    data[:2, 1:4, 2:6] = True
    dataset = Dataset3D(data)
    ds_path = tmp_path / "base.npz"
    dataset.save_npz(ds_path)
    thresholds = Thresholds(2, 2, 2)
    assert main([
        "mine", "--input", str(ds_path), "--algorithm", "rsm",
        "--min-h", "2", "--min-r", "2", "--min-c", "2",
        "--out-json", str(tmp_path / "result.json"),
    ]) == 0
    updates = [
        {"op": "set-cell", "height": 0, "row": 0, "column": 0},
        {"op": "drop-slice", "axis": "row", "index": 5},
    ]
    (tmp_path / "updates.json").write_text(json.dumps({"deltas": updates}))
    return tmp_path, dataset, thresholds


class TestHelp:
    @pytest.mark.parametrize("command", ["update", "serve"])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert "--updates" in capsys.readouterr().out or command == "serve"


class TestServeFlags:
    @pytest.mark.parametrize("flag", ["--mmap", "--in-memory"])
    def test_dataset_mode_flags_are_rejected(self, flag, capsys):
        base = ["serve", "--data-dir", "/tmp/x"]
        assert not hasattr(build_parser().parse_args(base), "mmap")
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args([*base, flag])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestUpdateLocal:
    def test_local_update_matches_fresh_mine(self, workspace, capsys):
        tmp_path, dataset, thresholds = workspace
        out_npz = tmp_path / "new.npz"
        out_json = tmp_path / "maintained.json"
        assert main([
            "update",
            "--updates", str(tmp_path / "updates.json"),
            "--input", str(tmp_path / "base.npz"),
            "--result", str(tmp_path / "result.json"),
            "--out", str(out_npz),
            "--out-json", str(out_json),
        ]) == 0
        out = capsys.readouterr().out
        assert "2 delta(s) applied" in out

        edited = np.array(dataset.data, dtype=bool)
        edited[0, 0, 0] = True
        edited = np.delete(edited, 5, axis=1)
        new_dataset = Dataset3D.load_npz(out_npz)
        assert np.array_equal(
            np.asarray(new_dataset.data, dtype=bool), edited
        )
        maintained = result_from_json(out_json.read_text())
        fresh = mine(Dataset3D(edited), thresholds, algorithm="rsm")
        assert [
            (c.heights, c.rows, c.columns) for c in maintained.cubes
        ] == [(c.heights, c.rows, c.columns) for c in fresh.cubes]

    def test_missing_modes_is_usage_error(self, workspace, capsys):
        tmp_path, _, _ = workspace
        assert main(["update", "--updates", str(tmp_path / "updates.json")]) == 2
        assert "needs either" in capsys.readouterr().err

    def test_missing_updates_file(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["update", "--updates", str(tmp_path / "absent.json")])


class TestUpdateMinVolume:
    def test_update_keeps_the_mined_min_volume(self, tmp_path, capsys):
        from repro.datasets.synthetic import random_tensor
        from repro.stream.delta import SetCell, apply_deltas

        dataset = random_tensor((5, 6, 8), 0.7, seed=3)
        dataset.save_npz(tmp_path / "base.npz")
        assert main([
            "mine", "--input", str(tmp_path / "base.npz"),
            "--min-h", "1", "--min-r", "1", "--min-c", "1",
            "--min-volume", "20",
            "--out-json", str(tmp_path / "result.json"),
        ]) == 0
        (tmp_path / "updates.json").write_text(json.dumps({"deltas": [
            {"op": "set-cell", "height": 0, "row": 0, "column": 0},
        ]}))
        assert main([
            "update", "--updates", str(tmp_path / "updates.json"),
            "--input", str(tmp_path / "base.npz"),
            "--result", str(tmp_path / "result.json"),
            "--out-json", str(tmp_path / "maintained.json"),
        ]) == 0
        maintained = result_from_json((tmp_path / "maintained.json").read_text())
        thresholds = Thresholds(1, 1, 1, min_volume=20)
        assert maintained.thresholds == thresholds
        edited = apply_deltas(dataset, [SetCell(0, 0, 0)]).dataset
        assert maintained.cubes == mine(edited, thresholds).cubes


class TestUpdateBadInput:
    @pytest.mark.parametrize(
        "content",
        [
            "{not json",
            json.dumps({"deltas": []}),
            json.dumps({"deltas": [{"op": "warp"}]}),
            json.dumps("just a string"),
        ],
    )
    def test_malformed_updates_exit_data(self, tmp_path, content, capsys):
        path = tmp_path / "bad.json"
        path.write_text(content)
        with pytest.raises(SystemExit) as excinfo:
            main(["update", "--updates", str(path), "--dataset", "0" * 64])
        assert excinfo.value.code == EXIT_DATA
        assert "error:" in capsys.readouterr().err

    def test_out_of_range_delta_exits_data(self, workspace, capsys):
        tmp_path, _, _ = workspace
        bad = tmp_path / "oob.json"
        bad.write_text(json.dumps({"deltas": [
            {"op": "set-cell", "height": 99, "row": 0, "column": 0},
        ]}))
        with pytest.raises(SystemExit) as excinfo:
            main([
                "update", "--updates", str(bad),
                "--input", str(tmp_path / "base.npz"),
                "--result", str(tmp_path / "result.json"),
            ])
        assert excinfo.value.code == EXIT_DATA

    def test_bare_list_payload_is_accepted(self, workspace, capsys):
        tmp_path, _, _ = workspace
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps([
            {"op": "clear-cell", "height": 0, "row": 1, "column": 2},
        ]))
        assert main([
            "update", "--updates", str(flat),
            "--input", str(tmp_path / "base.npz"),
            "--result", str(tmp_path / "result.json"),
        ]) == 0
        assert "1 delta(s) applied" in capsys.readouterr().out

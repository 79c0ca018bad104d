"""Kernel registry, selection precedence, and threading plumbing."""

from __future__ import annotations

import pickle

import pytest

from repro.api import mine
from repro.cli import build_parser
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.core.kernels import (
    DEFAULT_KERNEL,
    KERNEL_ENV_VAR,
    Kernel,
    NumpyKernel,
    PythonIntKernel,
    available_kernels,
    default_kernel_name,
    get_kernel,
    register_kernel,
    resolve_kernel,
)
from repro.datasets import paper_example
from repro.fcp.matrix import BinaryMatrix
from repro.rsm.slices import representative_slice


class TestRegistry:
    def test_builtin_kernels_registered(self):
        assert available_kernels() == ("numpy", "python-int")

    def test_get_kernel_returns_shared_instance(self):
        assert get_kernel("numpy") is get_kernel("numpy")

    def test_get_kernel_unknown_name(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            get_kernel("gpu-quantum")

    def test_register_requires_name(self):
        class Nameless(PythonIntKernel):
            name = ""

        with pytest.raises(ValueError, match="non-empty string name"):
            register_kernel(Nameless)

    def test_register_custom_kernel(self):
        class Custom(PythonIntKernel):
            name = "custom-test-kernel"

        try:
            register_kernel(Custom)
            assert "custom-test-kernel" in available_kernels()
            assert isinstance(get_kernel("custom-test-kernel"), Custom)
        finally:
            from repro.core import kernels

            kernels._REGISTRY.pop("custom-test-kernel", None)
            kernels._INSTANCES.pop("custom-test-kernel", None)


class TestSelectionPrecedence:
    def test_default_is_python_int(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        assert default_kernel_name() == DEFAULT_KERNEL == "python-int"
        assert resolve_kernel(None).name == "python-int"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "numpy")
        assert resolve_kernel(None).name == "numpy"

    def test_argument_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "numpy")
        assert resolve_kernel("python-int").name == "python-int"

    def test_instance_passes_through(self):
        instance = NumpyKernel()
        assert resolve_kernel(instance) is instance

    def test_invalid_env_var_mentions_variable(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "no-such-backend")
        with pytest.raises(ValueError, match=KERNEL_ENV_VAR):
            resolve_kernel(None)

    def test_empty_env_var_falls_back(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "")
        assert resolve_kernel(None).name == DEFAULT_KERNEL


class TestDatasetThreading:
    def test_dataset_resolves_lazily_from_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "numpy")
        dataset = paper_example()
        assert dataset.kernel.name == "numpy"

    def test_with_kernel_shares_data(self):
        dataset = paper_example()
        other = dataset.with_kernel("numpy")
        assert other.kernel.name == "numpy"
        assert other.data is dataset.data
        assert other == dataset  # kernel is not part of identity

    def test_with_kernel_same_backend_returns_self(self):
        dataset = paper_example().with_kernel("numpy")
        assert dataset.with_kernel("numpy") is dataset

    def test_transpose_preserves_kernel(self):
        dataset = paper_example().with_kernel("numpy")
        assert dataset.transpose((1, 0, 2)).kernel.name == "numpy"
        assert dataset.canonical_transpose().kernel.name == "numpy"

    def test_reorder_heights_preserves_kernel(self):
        dataset = paper_example().with_kernel("numpy")
        assert dataset.reorder_heights([2, 1, 0]).kernel.name == "numpy"

    def test_pickle_round_trips_kernel_by_name(self):
        dataset = paper_example().with_kernel("numpy")
        clone = pickle.loads(pickle.dumps(dataset))
        assert clone == dataset
        assert clone.kernel.name == "numpy"

    def test_pickle_keeps_default_selection_dynamic(self, monkeypatch):
        dataset = paper_example()
        payload = pickle.dumps(dataset)
        monkeypatch.setenv(KERNEL_ENV_VAR, "numpy")
        assert pickle.loads(payload).kernel.name == "numpy"

    def test_kernel_instance_pickles_by_name(self):
        dataset = paper_example().with_kernel(NumpyKernel())
        clone = pickle.loads(pickle.dumps(dataset))
        assert clone.kernel.name == "numpy"


class TestMatrixThreading:
    def test_representative_slice_inherits_dataset_kernel(self):
        dataset = paper_example().with_kernel("numpy")
        rs = representative_slice(dataset, 0b011)
        assert rs.kernel.name == "numpy"

    def test_matrix_pickle_drops_native_cache(self):
        matrix = BinaryMatrix([0b101, 0b111], 3, kernel="numpy")
        matrix.packed_rows()
        clone = pickle.loads(pickle.dumps(matrix))
        assert clone == matrix
        assert clone.kernel.name == "numpy"

    def test_matrix_equality_ignores_kernel(self):
        a = BinaryMatrix([0b1], 1, kernel="numpy")
        b = BinaryMatrix([0b1], 1, kernel="python-int")
        assert a == b and hash(a) == hash(b)


class TestApiAndCli:
    def test_mine_kernel_argument(self):
        dataset = paper_example()
        result = mine(dataset, Thresholds(2, 2, 2), kernel="numpy")
        baseline = mine(dataset, Thresholds(2, 2, 2))
        assert result.cubes == baseline.cubes

    def test_mine_rejects_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            mine(paper_example(), Thresholds(2, 2, 2), kernel="bogus")

    def test_mine_rejects_native_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel") as info:
            mine(paper_example(), Thresholds(2, 2, 2), kernel="native")
        assert "'numpy', 'python-int'" in str(info.value)

    def test_env_native_kernel_is_unknown(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "native")
        with pytest.raises(ValueError, match="does not name a registered") as info:
            mine(paper_example(), Thresholds(2, 2, 2))
        assert "'numpy', 'python-int'" in str(info.value)

    def test_cli_accepts_kernel_flag(self):
        parser = build_parser()
        args = parser.parse_args(
            ["mine", "--input", "x.npz", "--kernel", "numpy"]
        )
        assert args.kernel == "numpy"

    def test_cli_rejects_unknown_kernel(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["mine", "--input", "x.npz", "--kernel", "bogus"])

    def test_cli_native_kernel_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(
                ["mine", "--input", "x.npz", "--kernel", "native"]
            )
        assert info.value.code == 2
        assert "invalid choice: 'native'" in capsys.readouterr().err

    def test_cli_mine_with_kernel_end_to_end(self, tmp_path):
        from repro.cli import main
        from repro.datasets import random_tensor

        path = tmp_path / "ds.npz"
        random_tensor((3, 4, 6), 0.6, seed=7).save_npz(path)
        assert main(
            ["mine", "--input", str(path), "--min-h", "2", "--min-r", "2",
             "--min-c", "2", "--kernel", "numpy"]
        ) == 0

"""The one compute kernel, its perfbench shims and the retired selection knobs.

Every batch bitset operation runs on :data:`repro.core.kernels.KERNEL`.
``resolve_kernel`` and ``Dataset3D.with_kernel`` remain only as shims
for the perfbench harness and accept nothing but the one kernel's name.
The former selection knobs are gone: ``mine(kernel=)`` and
``repro-fcc mine --kernel`` are rejected, and the ``REPRO_KERNEL``
environment variable is not read.  Pickles whose state still names a
kernel load, and datasets stored as packed words rearrange, pickle and
slice like tensor-built ones.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import mine
from repro.cli import build_parser
from repro.core import reference_mine
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.core.kernels import KERNEL, PythonIntKernel, resolve_kernel
from repro.datasets import paper_example
from repro.fcp.matrix import BinaryMatrix
from repro.rsm.slices import representative_slice
from tests.conftest import grid_dataset, in_storage

#: The selection variable earlier releases read; nothing reads it now.
RETIRED_ENV_VAR = "REPRO_KERNEL"


class TestRegistry:
    def test_builtin_kernels_registered(self):
        # python-int is the one built-in kernel; no other name resolves.
        assert isinstance(KERNEL, PythonIntKernel)
        assert KERNEL.name == "python-int"
        assert resolve_kernel("python-int") is KERNEL
        for name in ("numpy", "native"):
            with pytest.raises(ValueError, match="unknown kernel"):
                resolve_kernel(name)

    def test_get_kernel_returns_shared_instance(self):
        assert resolve_kernel("python-int") is resolve_kernel("python-int")
        assert resolve_kernel(None) is resolve_kernel("python-int")

    def test_get_kernel_unknown_name(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("gpu-quantum")


class TestSelectionPrecedence:
    def test_default_is_python_int(self, monkeypatch):
        monkeypatch.delenv(RETIRED_ENV_VAR, raising=False)
        assert resolve_kernel(None).name == "python-int"

    def test_argument_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(RETIRED_ENV_VAR, "numpy")
        assert resolve_kernel("python-int").name == "python-int"
        assert resolve_kernel(None) is KERNEL

    def test_empty_env_var_falls_back(self, monkeypatch):
        monkeypatch.setenv(RETIRED_ENV_VAR, "")
        assert resolve_kernel(None) is KERNEL


class TestDatasetThreading:
    def test_with_kernel_shares_data(self):
        dataset = paper_example()
        other = dataset.with_kernel("python-int")
        assert other is dataset
        assert other.data is dataset.data

    def test_with_kernel_same_backend_returns_self(self):
        dataset = in_storage(paper_example(), "numpy")
        assert dataset.with_kernel(None) is dataset
        assert dataset.with_kernel("python-int") is dataset
        assert "with_kernel" in Dataset3D.__dict__  # perfbench reads the class body
        for name in ("numpy", "native"):
            with pytest.raises(ValueError, match="unknown kernel"):
                dataset.with_kernel(name)

    def test_transpose_preserves_kernel(self):
        source = paper_example()
        stored = in_storage(source, "numpy")
        for got, want in (
            (stored.transpose((1, 0, 2)), source.transpose((1, 0, 2))),
            (stored.canonical_transpose(), source.canonical_transpose()),
        ):
            assert got.with_kernel("python-int") is got
            assert got == want
            assert got.ones_masks() == want.ones_masks()

    def test_reorder_heights_preserves_kernel(self):
        source = paper_example()
        got = in_storage(source, "numpy").reorder_heights([2, 1, 0])
        want = source.reorder_heights([2, 1, 0])
        assert got.with_kernel("python-int") is got
        assert got == want
        assert got.ones_masks() == want.ones_masks()

    def test_pickle_round_trips_kernel_by_name(self):
        # Word storage pickles as a plain dataset ...
        source = paper_example()
        clone = pickle.loads(pickle.dumps(in_storage(source, "numpy")))
        assert clone == source
        assert clone.ones_masks() == source.ones_masks()
        # ... and a state that still names a kernel loads on the one kernel.
        state = source.__getstate__()
        for name in ("numpy", "python-int"):
            legacy = Dataset3D.__new__(Dataset3D)
            legacy.__setstate__({**state, "kernel": name})
            assert legacy == source
            assert legacy.with_kernel("python-int") is legacy


class TestMatrixThreading:
    def test_representative_slice_inherits_dataset_kernel(self):
        source = paper_example()
        stored = in_storage(source, "numpy")
        for heights in (0b001, 0b011, 0b111):
            rs = representative_slice(stored, heights)
            assert rs == representative_slice(source, heights)

    def test_matrix_pickle_drops_native_cache(self):
        words = in_storage(grid_dataset([[0b101, 0b111]], 3), "numpy").packed_grid()[0]
        matrix = BinaryMatrix.from_packed(words, 3)
        # The word array is not kept: the state is the int rows alone.
        assert set(matrix.__getstate__()) == {"row_masks", "n_columns"}
        clone = pickle.loads(pickle.dumps(matrix))
        assert clone == matrix
        assert clone.row_masks() == [0b101, 0b111]

    def test_matrix_equality_ignores_kernel(self):
        # Equality and hashing see the cells, not how the rows arrived.
        masks = [1 << 69 | 0b1, 1 << 64, 0]
        words = in_storage(grid_dataset([masks], 70), "numpy").packed_grid()[0]
        a = BinaryMatrix.from_packed(words, 70)
        b = BinaryMatrix.from_row_masks(masks, 70)
        assert a == b and hash(a) == hash(b)


class TestApiAndCli:
    def test_mine_kernel_argument(self):
        dataset = paper_example()
        with pytest.raises(TypeError, match="kernel"):
            mine(dataset, Thresholds(2, 2, 2), kernel="numpy")
        result = mine(dataset, Thresholds(2, 2, 2))
        assert result.same_cubes(reference_mine(dataset, Thresholds(2, 2, 2)))

    def test_mine_rejects_unknown_kernel(self):
        with pytest.raises(TypeError, match="kernel"):
            mine(paper_example(), Thresholds(2, 2, 2), kernel="bogus")

    def test_mine_rejects_native_kernel(self):
        with pytest.raises(TypeError, match="kernel"):
            mine(paper_example(), Thresholds(2, 2, 2), kernel="native")

    def test_env_native_kernel_is_unknown(self, monkeypatch):
        monkeypatch.setenv(RETIRED_ENV_VAR, "native")
        dataset = paper_example()
        result = mine(dataset, Thresholds(2, 2, 2))
        assert result.same_cubes(reference_mine(dataset, Thresholds(2, 2, 2)))

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
        assert "unrecognized arguments: --kernel native" in capsys.readouterr().err

    def test_cli_mine_with_kernel_end_to_end(self, tmp_path, capsys):
        from repro.cli import main
        from repro.datasets import random_tensor

        path = tmp_path / "ds.npz"
        random_tensor((3, 4, 6), 0.6, seed=7).save_npz(path)
        args = ["mine", "--input", str(path), "--min-h", "2", "--min-r", "2",
                "--min-c", "2"]
        assert main(args) == 0
        with pytest.raises(SystemExit) as info:
            main(args + ["--kernel", "numpy"])
        assert info.value.code == 2

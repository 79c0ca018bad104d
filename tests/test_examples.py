"""Integration tests: every shipped example must run to completion.

The examples double as end-to-end tests of the public API — each one
builds data, mines, and post-processes through a different subset of
the library, with internal assertions (algorithm agreement, classifier
accuracy, incremental == re-mine) that fail loudly on regression.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
GOLDEN_DIR = Path(__file__).parent / "golden"


def _load_module(name: str):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name",
    [
        "quickstart",
        "mining_tree",
        "market_basket",
        "hypercube_4d",
        "gene_classification",
        "streaming_updates",
    ],
)
def test_example_runs(name, capsys):
    module = _load_module(name)
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"example {name} produced no output"


def test_microarray_example_scaled_down(capsys):
    module = _load_module("microarray_analysis")
    module.main(120)  # fewer genes than the script's default
    out = capsys.readouterr().out
    assert "FCCs" in out


def test_parallel_example(capsys):
    module = _load_module("parallel_mining")
    module.main()
    out = capsys.readouterr().out
    assert "best processor count" in out


def test_mining_tree_output_is_golden():
    """Table 2 and Figure 1 print byte for byte as checked in.

    ``golden/mining_tree.txt`` is the script's standard output; the
    split tree in it is the paper's, whatever prunes the live miner
    applies.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "mining_tree.py")],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN_DIR / "mining_tree.txt").read_bytes()

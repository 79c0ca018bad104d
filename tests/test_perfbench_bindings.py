"""perfbench's span bindings resolve against the package.

``perfbench/spans.py`` times each layer by swapping the function bound
at the name its caller resolves (``owner.__dict__[name]``).  A rename
or a moved import inside ``src/`` would make the traced run fail with
a ``KeyError`` — or, for a name that stays bound but is no longer
called, silently report an empty layer.  These tests resolve every
binding the way :func:`spans.install` does, and check that a traced
CubeMiner, RSM and maintenance run reaches the closure layers.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from repro.core.constraints import Thresholds
from repro.core.kernels import KERNEL
from repro.cubeminer import cubeminer_mine
from repro.datasets import paper_example
from repro.rsm import rsm_mine
from repro.service.app import ServiceApp
from repro.stream import ClearCell


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()

BINDINGS = [
    (layer, module, attribute, kind)
    for layer, bindings in spans.LAYERS.items()
    for module, attribute, kind in bindings
]


@pytest.mark.parametrize(
    "layer,module,attribute,kind",
    BINDINGS,
    ids=[f"{module}.{attribute}" for _, module, attribute, _ in BINDINGS],
)
def test_layer_binding_resolves(layer, module, attribute, kind):
    owner = importlib.import_module(module)
    *classes, leaf = attribute.split(".")
    for class_name in classes:
        owner = getattr(owner, class_name)
    raw = owner.__dict__[leaf]
    if kind == "classmethod":
        assert isinstance(raw, classmethod)
    elif kind == "generator":
        assert inspect.isgeneratorfunction(raw)
    else:
        assert callable(raw)


def test_service_handle_resolves():
    assert callable(ServiceApp.__dict__["handle"])


def test_traced_runs_reach_the_closure_layers():
    """An installed tracer sees the leaf checks, Lemma 1 and ``close``;
    undoing it restores every binding."""
    import repro.cubeminer.algorithm as cubeminer_algorithm

    # ``repro.stream.maintain`` is also the function's name in the package.
    maintain_module = importlib.import_module("repro.stream.maintain")
    original = cubeminer_algorithm.__dict__["height_set_closed"]
    tracer = spans.Tracer()
    installation = spans.install(tracer, KERNEL)
    try:
        dataset = paper_example()
        thresholds = Thresholds(2, 2, 2)
        result = cubeminer_mine(dataset, thresholds)
        rsm_mine(dataset, thresholds)
        maintain_module.maintain(dataset, result, [ClearCell(0, 0, 0)])
    finally:
        installation.undo()
    totals = tracer.layer_totals()
    for layer in ("cubeminer.checks", "rsm.postprune", "core.closure", "stream.maintain"):
        assert totals[layer][0] > 0, layer
    assert cubeminer_algorithm.__dict__["height_set_closed"] is original

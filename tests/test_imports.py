"""What ``import repro`` and the lazily exported subpackages load.

Each check runs in a fresh interpreter, since this process has imported
everything already.  Nothing here is timed.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

LAZY_PACKAGES = ("repro.parallel", "repro.chaos", "repro.stream", "repro.service")

#: Modules that a client, or a process that only edits datasets, never runs.
NOT_LOADED = (
    "repro.parallel.executor",
    "repro.parallel.supervisor",
    "concurrent.futures",
    "http.server",
    "repro.chaos.fsck",
)


def run_fresh(code: str):
    """Run ``code`` in a new interpreter; the JSON it prints last."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_light_imports_load_no_pool_server_or_fsck():
    loaded = run_fresh(
        f"""
        import json, sys
        import repro
        import repro.service
        from repro.stream import SetCell
        print(json.dumps([m for m in {NOT_LOADED!r} if m in sys.modules]))
        """
    )
    assert loaded == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert name in listed
        assert getattr(module, name) is not None


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_no_public_name_turns_into_a_submodule(package):
    """A public name that is also a submodule's name (``maintain``) must
    keep its value once every submodule has been imported."""
    clashes = run_fresh(
        f"""
        import importlib, json, pkgutil, types
        package = importlib.import_module({package!r})
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{{package.__name__}}.{{info.name}}")
        print(json.dumps([
            name for name in package.__all__
            if isinstance(getattr(package, name), types.ModuleType)
        ]))
        """
    )
    assert clashes == []


def test_maintain_is_the_function_after_its_module_loads():
    kind = run_fresh(
        """
        import json
        import repro.stream.maintain
        from repro.stream import maintain
        print(json.dumps(type(maintain).__name__))
        """
    )
    assert kind == "function"


def test_unknown_name_is_an_attribute_error():
    import repro.service

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.service.no_such_name  # noqa: B018

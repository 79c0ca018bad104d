"""PEP 562 lazy exports for the subpackages.

A subpackage maps each public name to the module that defines it;
importing the subpackage imports none of them, and the first access of
a name imports its module and caches the value in the subpackage's
namespace.  So ``from repro.service import ServiceClient`` loads the
client, not the daemon's job runner or HTTP server.

A name that is also a submodule's name (``repro.stream.maintain``) must
stay an eager import: once anything imports the submodule, the import
system binds the submodule to that attribute, and the lazy hook would
never run.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable


def lazy_exports(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps a public name to the module defining it, relative
    to ``package`` (``".delta"``, ``"..core.dice"``).
    """

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__

"""Package re-exports that load on first use (PEP 562).

A package ``__init__`` that imports every module it re-exports makes
each of its submodules pay for all of them: ``import repro.sweep`` used
to load the tool facade, the viewers and the emitters before any sweep
code ran.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(package: str, modules: dict[str, tuple[str, ...]]
                 ) -> tuple[list[str], Callable[[str], Any],
                            Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``, which
    re-exports the names each module in ``modules`` lists; a module is
    imported when one of its names is first read."""
    source = {name: module for module, names in modules.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = source[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(source))

    return list(source), __getattr__, __dir__

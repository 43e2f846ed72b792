"""Every exported name resolves, and no module exports one twice.

A name left in ``__all__`` after its definition is gone breaks
``from gridlang import *`` and misleads readers of the public API.
"""

import importlib
import pkgutil

import pytest

import gridlang

MODULES = [module for module in [gridlang] + [
    importlib.import_module(f"gridlang.{info.name}")
    for info in pkgutil.iter_modules(gridlang.__path__)
] if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve_without_duplicates(module):
    names = module.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []

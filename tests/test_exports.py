"""Every name a module exports must exist.

``from bsmx import *`` and ``from bsmx.<module> import *`` fail on a name
listed in ``__all__`` that the module no longer defines, so a deleted
function or class must leave the export lists with it.
"""

import importlib
import pkgutil

import bsmx


def test_every_exported_name_resolves():
    modules = [bsmx] + [
        importlib.import_module(f"bsmx.{info.name}")
        for info in pkgutil.iter_modules(bsmx.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
    assert len(modules) > 1

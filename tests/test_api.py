"""The public API: every exported name resolves to an object."""

from __future__ import annotations

import importlib
import pkgutil

import pratcert


def test_every_exported_name_resolves() -> None:
    names = [info.name for info in pkgutil.iter_modules(pratcert.__path__)]
    modules = [pratcert] + [importlib.import_module(f"pratcert.{name}") for name in names]
    exporting = [mod for mod in modules if hasattr(mod, "__all__")]
    assert {mod.__name__ for mod in exporting} >= {
        "pratcert",
        "pratcert.arith",
        "pratcert.classno",
        "pratcert.criteria",
        "pratcert.localfield",
        "pratcert.quadratic",
        "pratcert.scan",
    }
    for mod in exporting:
        assert len(set(mod.__all__)) == len(mod.__all__), mod.__name__
        for name in mod.__all__:
            assert hasattr(mod, name), f"{mod.__name__}.{name}"


"""The public API: every exported name resolves to an object, and src/
ships only what a verdict or a command runs."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pratcert

SRC = Path(pratcert.__file__).resolve().parent
ORACLES = Path(__file__).resolve().parent / "_oracles.py"

# exported, yet reached only from tests and from bench/spans.py, which wraps
# them by name; they leave src/ together with their spans
SPAN_HELD = {
    ("arith", "primes_up_to"),
    ("classno", "reduced_indefinite_forms"),
    ("quadratic", "unit_norm_sign"),
}

# public methods that no code in src/ calls, held as API: from_dict is the
# documented inverse of to_dict
METHOD_HELD = {("criteria", "FreenessReport", "from_dict")}


def _submodules() -> list:
    names = [info.name for info in pkgutil.iter_modules(pratcert.__path__)]
    return [importlib.import_module(f"pratcert.{name}") for name in names]


def _nodes(path: Path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def test_every_exported_name_resolves() -> None:
    modules = [pratcert] + _submodules()
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


def test_every_exported_name_is_reached_from_src(bench_spans) -> None:
    # reached: read by code in src/, or exported by the package itself; a
    # public method of a class in src/ is reached only through an attribute
    # access, since a bare name of the same spelling is some other object
    reached = set(pratcert.__all__)
    attributes = set()
    methods = set()
    for path in SRC.glob("*.py"):
        for node in _nodes(path):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                methods |= {
                    (path.stem, node.name, item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                }
    reached |= attributes
    unreached = {
        (mod.__name__.rpartition(".")[2], name)
        for mod in _submodules()
        for name in getattr(mod, "__all__", ())
        if name not in reached
    }
    assert unreached == SPAN_HELD
    targets = {(module, func) for module, func, _, _ in bench_spans.TARGETS}
    assert SPAN_HELD <= targets
    assert {method for method in methods if method[2] not in attributes} == METHOD_HELD


def test_import_loads_no_process_pool() -> None:
    # only a scan with jobs > 1 needs the pool; site may preload modules, so
    # a fresh interpreter compares sys.modules around its own import
    probe = f"""
import sys
sys.path.insert(0, {str(SRC.parent)!r})
before = set(sys.modules)
import pratcert, pratcert.cli
added = set(sys.modules) - before
print(sorted(m for m in added if m.split(".")[0] in ("concurrent", "multiprocessing")))
from pratcert.scan import scan_q
print(scan_q(7, 2, 2000, jobs=2) == scan_q(7, 2, 2000, jobs=1))
"""
    child = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["[]", "True"]


def test_oracles_import_nothing_from_pratcert() -> None:
    for node in _nodes(ORACLES):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        assert not any(m.split(".")[0] == "pratcert" for m in modules), ast.unparse(node)


# no verdict adds, multiplies or inverts elements: units are read through
# coordinates, norm and trace, and tests build unit powers with
# _oracles.unit_power; QuadElem.__mul__ stays while a benchmark test,
# bench/tests/test_bench.py, squares a unit with it
OPERATOR_HELD = {("quadratic", "QuadElem", "__mul__")}
OPERATOR_METHODS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__floordiv__", "__mod__", "__pow__", "__neg__", "__pos__",
    "__abs__", "__invert__",
}


def _member_names(node: ast.ClassDef) -> set[str]:
    # methods, and aliases such as __rmul__ = __mul__
    names = set()
    for item in node.body:
        if isinstance(item, ast.FunctionDef):
            names.add(item.name)
        elif isinstance(item, ast.Assign):
            names |= {target.id for target in item.targets if isinstance(target, ast.Name)}
    return names


def test_no_class_in_src_defines_arithmetic_operators() -> None:
    # the reach check above skips names that start with "_", so an operator
    # that only tests call would escape it
    defined = {
        (path.stem, node.name, name)
        for path in SRC.glob("*.py")
        for node in _nodes(path)
        if isinstance(node, ast.ClassDef)
        for name in _member_names(node) & OPERATOR_METHODS
    }
    assert defined == OPERATOR_HELD


def test_src_has_no_floating_point() -> None:
    for path in SRC.glob("*.py"):
        for node in _nodes(path):
            if isinstance(node, ast.Constant):
                assert not isinstance(node.value, (float, complex)), (path.name, node.value)
            elif isinstance(node, ast.Import):
                assert "math" not in [alias.name for alias in node.names], path.name
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                names = {alias.name for alias in node.names}
                assert names <= {"gcd", "isqrt"}, (path.name, names)

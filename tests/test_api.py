"""The public API: every exported name resolves to an object, and src/
ships only what a verdict or a command runs."""

from __future__ import annotations

import ast
import importlib
import pickle
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pratcert
from pratcert import classno
from pratcert.arith import factor
from pratcert.classno import h_imaginary
from pratcert.criteria import FreenessReport, certify_freeness, prat_imag
from pratcert.localfield import classify_splitting
from pratcert.quadratic import QuadElem, fundamental_unit, make_field
from pratcert.scan import TableRow

SRC = Path(pratcert.__file__).resolve().parent
ORACLES = Path(__file__).resolve().parent / "_oracles.py"
ROOT = SRC.parent.parent

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


def test_private_names_in_the_docs_exist() -> None:
    # a backticked private name, alone or called, as in `_half_period` or
    # `_RootTable(disc, top)`, names a helper of a pratcert module or of
    # the root table, so the docs cannot go on citing a deleted one
    holders = [pratcert, *_submodules(), classno._RootTable]
    docs = [*sorted((ROOT / "docs").glob("*.md")), ROOT / "README.md"]
    cited = {
        (path.name, name)
        for path in docs
        for name in re.findall(r"`(_\w+)[`(]", path.read_text(encoding="utf-8"))
    }
    assert {"_half_period", "_RootTable", "__version__"} <= {name for _, name in cited}
    missing = {
        (doc, name) for doc, name in cited if not any(hasattr(h, name) for h in holders)
    }
    assert missing == set()


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


def test_import_loads_no_process_pool(tmp_path) -> None:
    # only a scan with fresh records to compute and jobs > 1 needs the pool,
    # so neither the import nor a fully cached resume loads it; the record
    # classes are written by hand, so the import loads no code generator
    # either; site may preload modules, so a fresh interpreter compares
    # sys.modules around its own import
    cache = str(tmp_path / "scan.jsonl")
    probe = f"""
import sys
sys.path.insert(0, {str(SRC.parent)!r})
before = set(sys.modules)
def pool_modules():
    added = set(sys.modules) - before
    return sorted(m for m in added if m.split(".")[0] in ("concurrent", "multiprocessing"))
import pratcert, pratcert.cli
print(pool_modules())
generators = ("dataclasses", "inspect", "ast", "dis", "tokenize")
print(sorted(set(generators) & (set(sys.modules) - before)))
from pratcert.scan import scan_q
serial = scan_q(7, 2, 2000, cache={cache!r}, jobs=1)
print(scan_q(7, 2, 2000, cache={cache!r}, jobs=2) == serial, pool_modules())
print(scan_q(7, 2, 2000, jobs=2) == serial)
"""
    child = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["[]", "[]", "True []", "True"]


def _records() -> list:
    report = prat_imag(2, 5)
    return [
        factor(360),
        h_imaginary(-23),
        make_field(5),
        QuadElem(make_field(5), 1, 1, 2),
        fundamental_unit(make_field(5)),
        classify_splitting(make_field(-1), 5),
        report.checks[0],
        report,
        certify_freeness(7, 11, 2),
        TableRow(p=5, certified=(79, 109)),
    ]


# each record's repr as the dataclasses that the records were first
# written as printed it
RECORD_REPRS = [
    "Factorization(n=360, sign=1, factors=((2, 3), (3, 2), (5, 1)))",
    "ClassNumberResult(disc=-23, h=3, h_plus=None, method='reduced-form count')",
    "QuadField(m=5, disc=5, is_real=True)",
    "QuadElem(field=QuadField(m=5, disc=5, is_real=True), x=1, y=1, den=2)",
    "FundUnit(elem=QuadElem(field=QuadField(m=5, disc=5, is_real=True), x=1, y=1, den=2),"
    " unit_norm=-1)",
    "LocalContext(p=5, field=QuadField(m=-1, disc=-4, is_real=False), kind='split',"
    " sqrt_lifts=(7, 18))",
    "Check(name='class_number_prime_to_p', value=1, passed=True)",
    "PRationalityReport(field_desc='Q(sqrt(-2))', radicands=(-2,), p=5,"
    " checks=(Check(name='class_number_prime_to_p', value=1, passed=True),), verdict=True)",
    "FreenessReport(p=7, q=11, d=2, verdict='not_certified', rank=None, mode='exact',"
    " facts={}, reasons=('parameters are outside the certified family',),"
    " invalid=('q must be congruent to -1 modulo p',"
    " '-d must be a quadratic non-residue modulo q'))",
    "TableRow(p=5, certified=(79, 109))",
]

# records with a dict field, unhashable as before
UNHASHABLE = {"FreenessReport"}


def _stored(cls, values):
    # the slots' member descriptors store past __init__'s checks, so one
    # field can take a value no constructor would accept
    rec = object.__new__(cls)
    for name, value in zip(cls.__slots__, values, strict=True):
        getattr(cls, name).__set__(rec, value)
    return rec


def test_records_are_frozen_slotted_values() -> None:
    records = _records()
    assert [type(rec).__name__ for rec in records] == [
        "Factorization", "ClassNumberResult", "QuadField", "QuadElem", "FundUnit",
        "LocalContext", "Check", "PRationalityReport", "FreenessReport", "TableRow",
    ]
    for rec, text in zip(records, RECORD_REPRS, strict=True):
        cls = type(rec)
        assert repr(rec) == text
        values = tuple(getattr(rec, name) for name in cls.__slots__)
        same = cls(*values)
        assert same == rec and cls(**dict(zip(cls.__slots__, values))) == rec
        assert rec != values
        for i in range(len(values)):
            other = values[:i] + (object(),) + values[i + 1 :]
            assert _stored(cls, other) != rec
        if cls.__name__ in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(rec)
        else:
            assert hash(same) == hash(rec)
        assert pickle.loads(pickle.dumps(rec)) == rec
        for name in cls.__slots__ + ("extra",):
            with pytest.raises(AttributeError):
                setattr(rec, name, 0)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert not hasattr(rec, "__dict__")
        assert values == tuple(getattr(rec, name) for name in cls.__slots__)
    # the defaults: den=1, and a report's facts a dict of its own
    assert QuadElem(make_field(5), 1, 1) == QuadElem(make_field(5), 1, 1, 1)
    first, second = (FreenessReport(5, 149, 2, "not_certified", None, "fast") for _ in "ab")
    assert (first.facts, first.reasons, first.invalid) == ({}, (), ())
    assert first.facts is not second.facts


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

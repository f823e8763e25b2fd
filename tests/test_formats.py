"""On-disk formats: artifact round trips, vertex-ID files, module layering,
and the construction rule of the package's dataclasses."""

from __future__ import annotations

import ast
import os
import tracemalloc
from pathlib import Path

import pytest

from cchroute import (ConsistencyError, ParseError, build_cch, customize, import_order,
                      load_cch, load_customized, load_dimacs_co, load_dimacs_gr, save_cch,
                      save_customized)
from cchroute.formats import read_id_lines, read_pairs, serialize_cch, serialize_customized
from helpers import REPO, SAMPLE, perfbench_instance

PACKAGE = REPO / "src" / "cchroute"


class TestArtifactRoundTrip:
    """Both codecs write the same bytes to a file as to memory, and a loaded
    artifact saves back to the bytes it was read from."""

    @pytest.fixture(scope="class", params=["sample", "perfbench-seed-1"])
    def instance(self, request, tmp_path_factory):
        if request.param == "sample":
            gr, co = str(SAMPLE / "grid.gr"), str(SAMPLE / "grid.co")
        else:
            paths = perfbench_instance(tmp_path_factory.mktemp("grid"))  # seed 1, side 30
            gr, co = paths["grid.gr"], paths["grid.co"]
        g = load_dimacs_gr(gr)
        return g, build_cch(g, load_dimacs_co(co, g.vertex_count))

    def test_cchp(self, tmp_path, instance):
        _, cch = instance
        first, again = tmp_path / "a.cchp", tmp_path / "b.cchp"
        save_cch(cch, str(first))
        assert first.read_bytes() == serialize_cch(cch)
        save_cch(load_cch(str(first)), str(again))
        assert again.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("perfect", [True, False], ids=["perfect", "no-perfect"])
    def test_cchm(self, tmp_path, instance, perfect):
        g, cch = instance
        c = customize(cch, list(g.weight), use_perfect=perfect)
        first, again = tmp_path / "a.cchm", tmp_path / "b.cchm"
        save_customized(c, str(first))
        assert first.read_bytes() == serialize_customized(c)
        save_customized(load_customized(str(first)), str(again))
        assert again.read_bytes() == first.read_bytes()


def test_cchm_loader_lets_go_of_the_file(tmp_path):
    """``load_customized`` copies every column out of the file's bytes and
    lets go of them before it checks the witnesses and builds the search
    graphs, so its tracemalloc peak beyond what it returns stays below
    half the file's size. Bytes held to the end would add the whole file."""
    g = load_dimacs_gr(str(SAMPLE / "grid.gr"))
    cch = build_cch(g, load_dimacs_co(str(SAMPLE / "grid.co"), g.vertex_count))
    path = str(tmp_path / "sample.cchm")
    save_customized(customize(cch, list(g.weight)), path)
    load_customized(path)  # the imports and caches of a first call are not the loader's
    tracemalloc.start()
    try:
        c = load_customized(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert c.cch.ug.arc_count and peak - kept < os.path.getsize(path) / 2


class TestVertexIdFiles:
    """ID files are checked against the vertex count as they are read, so
    the first bad line decides the error and names its line."""

    def _write(self, tmp_path, text):
        path = tmp_path / "ids.txt"
        path.write_text(text)
        return str(path)

    def test_ids_in_range(self, tmp_path):
        assert read_id_lines(self._write(tmp_path, "c ids\n2\n\n0\n"), 3) == [2, 0]
        assert read_pairs(self._write(tmp_path, "0 2\n2 1\n"), 3) == [(0, 2), (2, 1)]

    @pytest.mark.parametrize("text, line, v", [("0\n\n3\n", 3, 3), ("-1\n", 1, -1)])
    def test_id_out_of_range_names_its_line(self, tmp_path, text, line, v):
        with pytest.raises(ConsistencyError, match=rf"^line {line}: vertex ID {v} out of \[0, 3\)$"):
            read_id_lines(self._write(tmp_path, text), 3)

    @pytest.mark.parametrize("text, line, v", [("0 1\n1 3\n", 2, 3), ("-1 0\n", 1, -1)])
    def test_pair_out_of_range_names_its_line(self, tmp_path, text, line, v):
        with pytest.raises(ConsistencyError, match=rf"^line {line}: vertex ID {v} out of \[0, 3\)$"):
            read_pairs(self._write(tmp_path, text), 3)

    def test_first_bad_line_decides(self, tmp_path):
        with pytest.raises(ConsistencyError, match="line 1"):
            read_id_lines(self._write(tmp_path, "7\nx\n"), 3)
        with pytest.raises(ParseError, match="line 1"):
            read_id_lines(self._write(tmp_path, "x\n7\n"), 3)
        with pytest.raises(ConsistencyError, match="line 1"):
            read_pairs(self._write(tmp_path, "0 7\n0\n"), 3)

    def test_order_id_out_of_range_before_line_count(self, tmp_path):
        with pytest.raises(ConsistencyError, match="line 2: vertex ID 5"):
            import_order(self._write(tmp_path, "0\n5\n"), 3)


ALGORITHM_MODULES = {"graph", "order", "turns", "preprocess", "kernels", "customize", "query"}
"""Modules that hold the algorithms; none of them reads or writes a file
format, so each imports only its peers and ``errors``."""


def package_imports(path: Path):
    """``(module, name)`` for every import of a package module in ``path``,
    at any depth, with ``name`` None for an import of the module itself."""
    modules = {p.stem for p in path.parent.glob("*.py")}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or
                                                 (node.module or "").startswith("cchroute")):
            module = (node.module or "").removeprefix("cchroute").lstrip(".") or "__init__"
            for alias in node.names:
                if module == "__init__" and alias.name in modules:
                    yield alias.name, None
                else:
                    yield module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("cchroute."):
                    yield alias.name.split(".")[1], None


def opens_files(path: Path) -> bool:
    """Whether ``path`` calls ``open`` or any ``.open`` attribute."""
    return any(isinstance(node, ast.Call) and
               (isinstance(node.func, ast.Name) and node.func.id == "open" or
                isinstance(node.func, ast.Attribute) and node.func.attr == "open")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))


def layering_faults(package: Path) -> list[str]:
    """Every import in ``package`` that breaks the layering rules, and
    every module but ``formats`` that opens a file."""
    faults = []
    for path in sorted(package.glob("*.py")):
        for module, name in package_imports(path):
            if module == path.stem:
                continue
            if name and name.startswith("_") and not name.startswith("__"):
                faults.append(f"{path.name} uses {module}.{name}, a private name")
            if path.stem in ALGORITHM_MODULES and module not in ALGORITHM_MODULES | {"errors"}:
                faults.append(f"{path.name} imports {module}")
        if path.stem != "formats" and opens_files(path):
            faults.append(f"{path.name} opens a file")
    return faults


def test_package_layering():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(
        ALGORITHM_MODULES | {"__init__", "cli", "errors", "formats"})
    assert layering_faults(PACKAGE) == []


def _named(node: ast.expr, name: str) -> bool:
    """Whether ``node`` is ``name``, or an attribute of that name."""
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def _init_fields(cls: ast.ClassDef) -> dict[str, bool]:
    """Whether each annotated field of a dataclass body is an ``__init__``
    parameter, that is not declared ``field(..., init=False)``."""
    fields = {}
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            value = node.value
            fields[node.target.id] = not (
                isinstance(value, ast.Call) and _named(value.func, "field")
                and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                        and k.value.value is False for k in value.keywords))
    return fields


def _self_attributes_assigned(function: ast.FunctionDef):
    """Every ``self.<name>`` that ``function`` assigns, in tuples too."""
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for t in ast.walk(target):
                if isinstance(t, ast.Attribute) and _named(t.value, "self"):
                    yield t.attr


def construction_faults(package: Path) -> list[str]:
    """Every dataclass field in ``package`` that breaks the construction
    rule: a class takes only what it stores. A field named ``_...`` is a
    cache or a workspace, so it must be ``init=False``; a field that
    ``__post_init__`` assigns is derived, so it must be ``init=False`` too."""
    faults = []
    for path in sorted(package.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(cls, ast.ClassDef) and any(
                    _named(d.func if isinstance(d, ast.Call) else d, "dataclass")
                    for d in cls.decorator_list)):
                continue
            init = _init_fields(cls)
            derived = {name for f in cls.body if isinstance(f, ast.FunctionDef)
                       and f.name == "__post_init__" for name in _self_attributes_assigned(f)}
            for name, is_parameter in init.items():
                if is_parameter and name.startswith("_"):
                    faults.append(f"{path.name}: {cls.name}.{name} is private but a parameter")
                if is_parameter and name in derived:
                    faults.append(f"{path.name}: {cls.name}.{name} is a parameter "
                                  f"that __post_init__ assigns")
    return faults


def test_dataclasses_take_only_what_they_store():
    assert construction_faults(PACKAGE) == []


def test_construction_check_sees_every_form(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass, field\n"
        "import dataclasses\n"
        "@dataclass\n"
        "class Cache:\n"
        "    size: int\n"
        "    _memo: dict = field(default_factory=dict, repr=False)\n"
        "    _kept: dict = field(default_factory=dict, init=False)\n"
        "@dataclasses.dataclass(eq=False)\n"
        "class Work:\n"
        "    n: int\n"
        "    dist: list = field(default_factory=list)\n"
        "    lo: int = 0\n"
        "    hi: int = 0\n"
        "    count: int = field(default=0, init=True)\n"
        "    seen: list = field(init=False)\n"
        "    def __post_init__(self):\n"
        "        self.dist = self.seen = [0] * self.n\n"
        "        (self.lo, [self.hi, _]) = (0, [self.n, 0])\n"
        "        self.count += 1\n"
        "    def reset(self):\n"
        "        self.dist = []\n"
        "class Plain:\n"
        "    _x: int\n"
        "    def __post_init__(self):\n"
        "        self._x = 1\n")
    assert construction_faults(tmp_path) == [
        "a.py: Cache._memo is private but a parameter",
        "a.py: Work.dist is a parameter that __post_init__ assigns",
        "a.py: Work.lo is a parameter that __post_init__ assigns",
        "a.py: Work.hi is a parameter that __post_init__ assigns",
        "a.py: Work.count is a parameter that __post_init__ assigns",
    ]


def test_layering_check_sees_every_import_form(tmp_path):
    for name, text in [("__init__", ""), ("formats", "def f(p):\n    return open(p)\n"),
                       ("order", "def f():\n    from .formats import load\n"),
                       ("turns", "from . import formats\n"),
                       ("query", "import cchroute.formats\nfrom cchroute.customize import _hidden\n"),
                       ("cli", "def f(p):\n    with open(p) as a, p.open() as b:\n        pass\n"),
                       ("graph", "def f(p):\n    return p.open('rb')\n")]:
        (tmp_path / f"{name}.py").write_text(text)
    assert layering_faults(tmp_path) == [
        "cli.py opens a file",
        "graph.py opens a file",
        "order.py imports formats",
        "query.py imports formats",
        "query.py uses customize._hidden, a private name",
        "turns.py imports formats",
    ]

"""Every name a module of the package or of the test suite imports is used
in it (an AST scan; the package ``__init__`` re-exports and is exempt), a
module of the package imports inside a function only to break an import
cycle of the package, and every function, class and method the package
defines is referenced from the package, the tests, the benchmark or the
scripts.  numpy loads ``numpy.random`` lazily, and only the report, which
samples, imports it: importing gkw and building every catalog case leaves
it unloaded."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in (ROOT / "src" / "gkw", ROOT / "tests") for p in d.glob("*.py")
                 if p.name != "__init__.py")
SOURCES = sorted(p for d in ("src", "tests", "perfbench", "scripts") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source):
    """The names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c as d, e\nprint(e)\n") == [(1, "os"),
                                                                                 (2, "d")]


def local_imports(source):
    """The (line, module) of each import inside a function of ``source``
    that is not a relative package import.  A relative import there may
    break an import cycle of the package (``calculus`` imports ``frames``
    that way); any other import belongs at module level."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    found.update((node.lineno, alias.name) for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    found.add((node.lineno, node.module))
    return sorted(found)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "gkw").glob("*.py")),
                         ids=lambda p: p.name)
def test_function_local_imports_only_break_cycles(path):
    assert local_imports(path.read_text()) == []


def test_scan_sees_a_function_local_import():
    source = ("import os\n"
              "def f():\n    from math import floor\n    return floor(os.sep)\n"
              "def g():\n    from .frames import h   # frames imports this module\n"
              "    def k():\n        import json, re\n")
    assert local_imports(source) == [(3, "math"), (8, "json"), (8, "re")]


def unreferenced_definitions(package, sources):
    """The "module:name" of each function, class and method defined in
    ``package`` ({module: source}) that no source in ``sources`` reads: a
    method only through attribute access, anything else by name or as an
    attribute.  Dunder methods are called implicitly and exempt."""
    names, attrs = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for module, source in package.items():
        tree = ast.parse(source)
        owners = {id(item): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for item in cls.body if isinstance(item, defs[:2])}
        for node in ast.walk(tree):
            if not isinstance(node, defs):
                continue
            owner = owners.get(id(node))
            if owner is None:
                if node.name not in names and node.name not in attrs:
                    out.append(f"{module}:{node.name}")
            elif not (node.name.startswith("__") and node.name.endswith("__")) \
                    and node.name not in attrs:
                out.append(f"{module}:{owner}.{node.name}")
    return sorted(out)


def test_every_definition_is_referenced():
    package = {p.name: p.read_text() for p in sorted((ROOT / "src" / "gkw").glob("*.py"))}
    assert unreferenced_definitions(package, [p.read_text() for p in SOURCES]) == []


def test_scan_sees_an_unreferenced_definition():
    package = {"m.py": "def f(): pass\ndef g(): pass\nclass C:\n"
                       "    def __init__(self): pass\n    def h(self): pass\n"
                       "    def k(self): pass\n"}
    user = "f()\nC().k()\nh = 1\n"
    assert unreferenced_definitions(package, [user]) == ["m.py:C.h", "m.py:g"]


def test_numpy_random_loads_with_the_report_only():
    script = ("import sys\n"
              "import gkw\n"
              "from gkw.catalog import build_case, catalog_names\n"
              "for name in catalog_names():\n"
              "    build_case(name)\n"
              "print('numpy.random' in sys.modules)\n"
              "import gkw.report\n"
              "print('numpy.random' in sys.modules)\n")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]

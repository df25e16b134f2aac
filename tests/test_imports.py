"""Every name a module of the package or of the test suite imports is used
in it (an AST scan; the package ``__init__`` re-exports and is exempt)."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in (ROOT / "src" / "gkw", ROOT / "tests") for p in d.glob("*.py")
                 if p.name != "__init__.py")


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

"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "equideg").glob("*.py"))


def unread_imports(source):
    """Names a module imports and never reads, in order of import."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_unread_imports_finds_an_unread_name():
    assert unread_imports("import os\nimport numpy as np\nfrom a.b import c, d\n"
                          "os.sep\nd = c\n") == ["np", "d"]


# __init__ imports the public names for its readers
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []

"""Static checks over the package source."""

import ast
import sys
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "equideg").glob("*.py"))
ORACLES = Path(__file__).resolve().parent / "oracles.py"


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


def unread_privates(sources):
    """Private (_name) functions, methods and classes the sources define and
    never read, as a name or as an attribute, sorted.  The bare ``_`` (a
    row registered by its decorator) is not counted."""
    trees = [ast.parse(source) for source in sources]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    defined = {node.name for node in nodes
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")
               and node.name != "_"}
    read = {node.id for node in nodes
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for node in nodes
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(defined - read)


def test_unread_privates_finds_an_unread_definition():
    sources = ["def _used(): pass\ndef _left(): pass\nclass _Kept:\n"
               "    def _m(self): pass\n    def __init__(self): pass\n"
               "def _(): pass\n",
               "from a import _used\n_used()\nx = _Kept()\nx._m\n"]
    assert unread_privates(sources) == ["_left"]


def test_every_private_definition_is_read():
    assert unread_privates([path.read_text() for path in MODULES]) == []


def unfrozen_dataclasses(source):
    """Classes whose ``@dataclass`` decorator does not pass frozen=True."""
    def frozen(deco):
        return isinstance(deco, ast.Call) and any(
            kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
            for kw in deco.keywords)

    def name(deco):
        target = deco.func if isinstance(deco, ast.Call) else deco
        return getattr(target, "id", getattr(target, "attr", None))

    return [node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
            for deco in node.decorator_list if name(deco) == "dataclass" and not frozen(deco)]


def test_unfrozen_dataclasses_finds_a_mutable_one():
    assert unfrozen_dataclasses("@dataclass\nclass A: pass\n"
                                "@dataclasses.dataclass(eq=False)\nclass B: pass\n"
                                "@dataclass(frozen=False)\nclass C: pass\n"
                                "@dataclass(frozen=True, eq=False)\nclass D: pass\n") \
        == ["A", "B", "C"]


# one immutability idiom: every dataclass of the package is frozen
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_dataclass_is_frozen(path):
    assert unfrozen_dataclasses(path.read_text()) == []


def absolute_imports(source):
    """Modules the source imports by absolute name, at any depth of the
    file (function bodies too), in order; relative imports are left out."""
    nodes = list(ast.walk(ast.parse(source)))
    names = [alias.name for node in nodes if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in nodes
              if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module]
    return names


def imports_of(source, package):
    """Modules of ``package`` that the source imports, as absolute_imports."""
    return [name for name in absolute_imports(source)
            if name == package or name.startswith(package + ".")]


def dependencies(source):
    """Modules the source imports from outside the standard library,
    numpy included, as absolute_imports."""
    return [name for name in absolute_imports(source)
            if name.split(".")[0] not in sys.stdlib_module_names]


def test_imports_of_finds_a_nested_import():
    assert imports_of("import numpy\nimport equideg.spectral as s\nimport equidegx\n"
                      "def f():\n    from equideg import cli\n"
                      "    from .equideg import x\n", "equideg") \
        == ["equideg.spectral", "equideg"]


# the oracles stay independent of the code they check
def test_oracles_import_nothing_from_the_package():
    assert imports_of(ORACLES.read_text(), "equideg") == []


def test_dependencies_finds_a_third_party_import():
    assert dependencies("import os.path\nimport numpy as np\nimport scipy\n"
                        "from . import spectral\nfrom numpy.linalg import svd\n"
                        "def f():\n    from scipy.linalg import eigh\n") \
        == ["numpy", "scipy", "numpy.linalg", "scipy.linalg"]


# numpy is the package's only dependency
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_numpy_is_the_only_dependency(path):
    assert {name.split(".")[0] for name in dependencies(path.read_text())} <= {"numpy"}

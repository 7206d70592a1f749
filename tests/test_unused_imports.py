"""Every name a ``dftlab`` module imports, or privately defines, is used there.

A deletion that leaves its imports behind fails here, and so does one
that leaves behind a module-level ``_name`` function, class or
assignment that nothing in its module reads. ``__init__.py`` imports
names to re-export them, so it is exempt. Only the stdlib ``ast`` module
is needed.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dftlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _read_names(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}


def unused_imports(source: str) -> list:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return sorted(imported - _read_names(tree))


def unused_private_definitions(source: str) -> list:
    """Module-level ``_name`` functions, classes and assignments that no expression reads."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(name.id for target in targets for name in ast.walk(target)
                           if isinstance(name, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    return sorted(private - _read_names(tree))


def test_the_guard_finds_an_unused_import():
    source = "import os.path\nimport numpy as np\nfrom x import a, b as c\nc(np.pi)\n"
    assert unused_imports(source) == ["a", "os"]


def test_the_guard_finds_an_unused_private_definition():
    source = ("__all__ = []\n_A, _B = 1, 2\n_C: int = 3\nPUBLIC = 4\n"
              "def _f(): return _A\nclass _K: pass\ndef _g(): pass\n"
              "def h():\n    _local = 5\n    return _g\n")
    assert unused_private_definitions(source) == ["_B", "_C", "_K", "_f"]


def test_there_are_modules_to_check():
    assert {"cli.py", "losses.py", "theory.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == [], path.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_definition_is_read(path):
    assert unused_private_definitions(path.read_text()) == [], path.name

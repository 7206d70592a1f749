"""Every name a ``dftlab`` module imports is used in that module.

A deletion that leaves its imports behind fails here. ``__init__.py``
imports names to re-export them, so it is exempt. Only the stdlib
``ast`` module is needed.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dftlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_guard_finds_an_unused_import():
    source = "import os.path\nimport numpy as np\nfrom x import a, b as c\nc(np.pi)\n"
    assert unused_imports(source) == ["a", "os"]


def test_there_are_modules_to_check():
    assert {"cli.py", "losses.py", "theory.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == [], path.name

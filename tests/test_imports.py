"""No module of vexpf imports a name it never reads, checked by `ast`
alone: an import left behind when code moves out fails here."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vexpf"


def unused_imports(source: str) -> set:
    """The names a module binds by an import and never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_finds_a_name_left_behind():
    source = "import math\nimport os.path\nfrom .polycore import Polynomial, exponent\n\nexponent(os.sep)\n"
    assert unused_imports(source) == {"math", "Polynomial"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_every_import_is_read(path):
    assert not unused_imports(path.read_text())

"""The package's imports: the standard library and numpy only, and each one used."""

import ast
import sys
from pathlib import Path

import tinyembed

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "tinyembed"}
MODULES = sorted(Path(tinyembed.__file__).parent.rglob("*.py"))


def test_every_module_imports_only_the_standard_library_numpy_and_tinyembed():
    assert len(MODULES) > 5
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in ALLOWED, f"{path.name} imports {name}"


def test_every_imported_name_is_used():
    # __init__.py imports names to re-export them.
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} imports unused {sorted(imported - used)}"

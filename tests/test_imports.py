"""The package's runtime dependencies: the standard library and numpy only."""

import ast
import sys
from pathlib import Path

import tinyembed

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "tinyembed"}


def test_every_module_imports_only_the_standard_library_numpy_and_tinyembed():
    modules = sorted(Path(tinyembed.__file__).parent.rglob("*.py"))
    assert len(modules) > 5
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in ALLOWED, f"{path.name} imports {name}"

"""Lines and independently settable values of src/, per module and in total.

    python3 tools/src_budget.py [ROOT]

ROOT is a checkout (default: the one holding this script). For every module
under ROOT/src it prints its line count and its settable values: the named
parameters of every function, method and lambda other than self and cls
(positional and keyword-only; a *args or **kwargs catch-all is not counted),
plus the annotated fields of every class body (dataclass fields). The last
row is the total. The line count is what ``wc -l`` reports, so blank lines,
comments and docstrings count.
"""

import ast
import sys
from pathlib import Path


def settable_values(tree: ast.AST) -> int:
    """Function parameters other than self/cls, plus annotated class fields."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            count += sum(p.arg not in ("self", "cls") for p in a.posonlyargs + a.args + a.kwonlyargs)
        elif isinstance(node, ast.ClassDef):
            count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return count


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    rows = []
    for path in sorted((root / "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        rows.append((str(path.relative_to(root / "src")), text.count("\n"), settable_values(ast.parse(text))))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'settable':>8}")
    for name, lines, values in rows:
        print(f"{name:<{width}}  {lines:>6}  {values:>8}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>6}  {sum(r[2] for r in rows):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

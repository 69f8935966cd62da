"""Every imported name in src/ and tests/ is read somewhere in its module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list:
    """(line, name) of each name that ``path`` imports and never reads.

    ``__future__`` imports are exempt; ``__init__.py`` files, whose imports
    are re-exports, are not passed in.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    modules = sorted(
        path
        for folder in ("src", "tests")
        for path in (ROOT / folder).rglob("*.py")
        if path.name != "__init__.py"
    )
    assert modules
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in modules
        for line, name in unused_imports(path)
    ]
    assert not unused, unused

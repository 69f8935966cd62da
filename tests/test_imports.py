"""Every imported name in src/ and tests/ is read somewhere in its module, and
importing the package starts no thread and loads no thread-pool machinery."""

import ast
import subprocess
import sys
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


def test_import_starts_no_thread():
    """A fresh import of the CLI and the simulator starts no Python thread
    and imports neither concurrent.futures nor logging (which it would pull
    in, ~10 ms)."""
    code = (
        "import sys, threading\n"
        "import squintsense.cli, squintsense.simkit\n"
        "print(threading.active_count(), *sorted(\n"
        "    m for m in ('concurrent.futures', 'logging') if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["1"]

"""Every imported name is read: a stdlib-``ast`` scan of the package, the
tests and the demos, since the repository runs no linter.

A name counts as read when the module loads it anywhere.  An import
marked ``# noqa: F401`` on any of its lines is kept on purpose, and
``lclab/__init__`` imports only to re-export.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/lclab", "tests", "demos")
REEXPORTS = ROOT / "src" / "lclab" / "__init__.py"


def unread_imports(path):
    """The names ``path`` imports and never loads, as (line, name)."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            # ``import a.b`` binds ``a``
            name = alias.asname or alias.name.split(".")[0]
            imported.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in imported if name not in read]


def test_unread_import_is_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os\nimport numpy as np\nimport scipy.io\n"
                    "from math import pi, tau  # noqa: F401\n"
                    "from json import (dumps,\n"
                    "                  loads)\n"
                    "print(np.pi, scipy.io, loads)\n")
    assert unread_imports(path) == [(1, "os"), (5, "dumps")]


def test_every_import_is_read():
    paths = [path for folder in SCANNED
             for path in sorted((ROOT / folder).glob("*.py"))
             if path != REEXPORTS]
    assert len(paths) > 20
    unread = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path in paths for line, name in unread_imports(path)]
    assert unread == []

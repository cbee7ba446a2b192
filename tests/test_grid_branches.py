"""Where the package branches on the geometry: a stdlib-``ast`` scan of
every module but ``grids``, in the style of ``test_params``.

A grid owns its interface layout in block coordinates (``ext_rows``,
``gamma_rows``, ``row_measure``, ``mode_multiplicity``), so a consumer
needs no branch on which grid it holds.  A branch is a comparison that
reads a ``.dim`` attribute or an ``isinstance`` call naming ``Grid1D`` or
``PolarGrid``.  Two are left, pinned here: the interface operators
(exact 2x2 matrices against circle multipliers) and the default test
fields.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lclab"
GRID_CLASSES = {"Grid1D", "PolarGrid"}
PINNED = ["coupling._interface_blocks", "coupling.green_test_fields"]


def _is_branch(node):
    if isinstance(node, ast.Compare):
        return any(isinstance(side, ast.Attribute) and side.attr == "dim"
                   for side in [node.left, *node.comparators])
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "isinstance" and len(node.args) == 2:
        return any(isinstance(sub, ast.Name) and sub.id in GRID_CLASSES
                   or isinstance(sub, ast.Attribute)
                   and sub.attr in GRID_CLASSES
                   for sub in ast.walk(node.args[1]))
    return False


def geometry_branches(path):
    """``module.function`` of every geometry branch in ``path``, in source
    order; a branch outside any function reports the module alone."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if _is_branch(child):
                found.append(owner)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{path.stem}.{child.name}")
            else:
                visit(child, owner)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def test_geometry_branch_is_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def f(grid):\n"
        "    if grid.dim == 1:\n        return 1\n"
        "    return 2 if 2 != grid.dim else 3\n"
        "def g(grid, n):\n"
        "    ok = isinstance(grid, PolarGrid) or isinstance(n, int)\n"
        "    return isinstance(grid, (grids.Grid1D, float)), n.dim, ok\n"
        "X = isinstance(None, Grid1D | PolarGrid)\n")
    assert geometry_branches(path) == ["mod.f", "mod.f", "mod.g", "mod.g",
                                       "mod"]


def test_only_the_pinned_functions_branch_on_the_geometry():
    found = [branch for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "grids.py"
             for branch in geometry_branches(path)]
    assert sorted(found) == PINNED

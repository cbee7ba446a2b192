"""Only the build helpers construct grids: a stdlib-``ast`` scan of
``runner.py``.

Each experiment's row in ``runner._TABLE`` pairs a build function with a
run function, and ``parse_config`` checks a config by calling the builds.
A ``_run_*`` function that constructed a grid or domain itself would
build an object that the config check never saw.
"""

import ast
from pathlib import Path

RUNNER = Path(__file__).resolve().parent.parent / "src" / "lclab" / "runner.py"
CONSTRUCTORS = {"Grid1D", "PolarGrid", "TorusGrid", "Domain1D", "Domain2D"}


def constructor_calls(path):
    """``function: constructor`` for every call of a grid or domain
    constructor, by name or module attribute, inside a ``_run_*``
    function of the module at ``path``."""
    tree = ast.parse(Path(path).read_text())
    found = []
    for node in tree.body:
        if not (isinstance(node, ast.FunctionDef)
                and node.name.startswith("_run_")):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name in CONSTRUCTORS:
                found.append(f"{node.name}: {name}")
    return found


def test_constructor_call_in_a_run_is_found(tmp_path):
    sample = tmp_path / "runner.py"
    sample.write_text(
        "def _interval(config):\n"
        "    return (Domain1D(1.0, 0.25, 0.75),)\n"
        "def _run_a(config, art, domain):\n"
        "    return Grid1D(domain, 8)\n"
        "def _run_b(config, art):\n"
        "    grid = tr.TorusGrid(16)\n"
        "    return [PolarGrid][0]\n")
    assert constructor_calls(sample) == ["_run_a: Grid1D",
                                         "_run_b: TorusGrid"]


def test_no_run_constructs_a_grid():
    assert constructor_calls(RUNNER) == []

"""Every parameter with a default is set by some call: a stdlib-``ast``
scan of the package against the calls in the package, the tests, the
demos and the benchmark.  A default that no caller overrides is a
constant in disguise, and the option it pretends to offer is untested.

A parameter counts as set when some call passes a keyword of its name,
to any callee, or passes enough positional arguments to a callee of the
function's name (a method's ``self`` not counted; a class call reaches
``__init__``).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/lclab"
CALLERS = ("src/lclab", "tests", "demos", "bench")


def defaulted_parameters(tree):
    """(callee name, parameter, positional index or None) for every
    parameter with a default; the callee name of ``__init__`` is its
    class's."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend(_defaults(child, owner))
                visit(child, None)
            else:
                visit(child, owner)

    visit(tree, None)
    return found


def _defaults(func, owner):
    args = func.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in func.decorator_list)
    skip = 1 if owner is not None and not static else 0
    name = owner.name if owner is not None and func.name == "__init__" \
        else func.name
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(name, arg.arg, index - skip)
           for index, arg in enumerate(positional) if index >= first]
    out += [(name, arg.arg, None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None]
    return out


def call_sites(tree):
    """(callee name, positional count, keyword names) for every call."""
    sites = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        sites.append((name, len(node.args),
                      {kw.arg for kw in node.keywords if kw.arg}))
    return sites


def unset_parameters(package, callers):
    """``callee.parameter`` for every defaulted parameter of the modules
    under ``package`` that no call under ``callers`` sets."""
    sites = [site for folder in callers
             for path in sorted(Path(folder).rglob("*.py"))
             for site in call_sites(ast.parse(path.read_text()))]
    keywords = set().union(*(kws for _, _, kws in sites))
    unset = []
    for path in sorted(Path(package).glob("*.py")):
        for name, param, index in defaulted_parameters(
                ast.parse(path.read_text())):
            if param in keywords:
                continue
            if index is not None and any(
                    callee == name and count > index
                    for callee, count, _ in sites):
                continue
            unset.append(f"{name}.{param}")
    return unset


def test_unset_parameter_is_found(tmp_path):
    package, callers = tmp_path / "pkg", tmp_path / "callers"
    package.mkdir()
    callers.mkdir()
    (package / "mod.py").write_text(
        "def f(a, b=1, c=2, d=3):\n    return a\n"
        "class K:\n"
        "    def __init__(self, x=0):\n        self.x = x\n"
        "    def m(self, y=0, z=1):\n        return y\n")
    (callers / "use.py").write_text(
        "f(0, 1)\nf(0, d=4)\nK()\nK().m(5)\n")
    assert unset_parameters(package, [callers]) == ["f.c", "K.x", "m.z"]


def test_every_default_is_set_by_a_caller():
    roots = [ROOT / folder for folder in CALLERS]
    assert unset_parameters(ROOT / PACKAGE, roots) == []

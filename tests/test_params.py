"""Every parameter with a default is set by some call: a stdlib-``ast``
scan of the package against the calls in the package, the tests, the
demos and the benchmark.  A default that no caller overrides is a
constant in disguise, and the option it pretends to offer is untested.

A parameter counts as set by a call to its own function, by callee name
(a class call reaches ``__init__``), that passes a keyword of its name
or enough positional arguments (a method's ``self`` not counted).  A
keyword that forwards the caller's own parameter of that name, as
``tol=tol`` inside a function with a parameter ``tol`` does, sets
nothing: it passes the caller's default on.  A local of the same name
passed the same way does set it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/lclab"
CALLERS = ("src/lclab", "tests", "demos", "bench")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


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


def _parameter_names(func):
    args = func.args
    return {arg.arg for arg in (*args.posonlyargs, *args.args,
                                *args.kwonlyargs)}


def call_sites(tree):
    """(callee name, positional count, keyword names) for every call,
    leaving out each keyword that forwards a parameter of its name of an
    enclosing function."""
    sites = []

    def visit(node, params):
        if isinstance(node, FUNCTIONS):
            params = params | _parameter_names(node)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            sites.append((name, len(node.args), {
                kw.arg for kw in node.keywords
                if kw.arg and not (isinstance(kw.value, ast.Name)
                                   and kw.value.id == kw.arg
                                   and kw.arg in params)}))
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    visit(tree, frozenset())
    return sites


def unset_parameters(package, callers):
    """``callee.parameter`` for every defaulted parameter of the modules
    under ``package`` that no call under ``callers`` sets."""
    sites = [site for folder in callers
             for path in sorted(Path(folder).rglob("*.py"))
             for site in call_sites(ast.parse(path.read_text()))]
    unset = []
    for path in sorted(Path(package).glob("*.py")):
        for name, param, index in defaulted_parameters(
                ast.parse(path.read_text())):
            if not any(callee == name and (
                    param in keywords or index is not None and count > index)
                    for callee, count, keywords in sites):
                unset.append(f"{name}.{param}")
    return unset


def test_unset_parameter_is_found(tmp_path):
    package, callers = tmp_path / "pkg", tmp_path / "callers"
    package.mkdir()
    callers.mkdir()
    (package / "mod.py").write_text(
        "def f(a, b=1, c=2, d=3):\n    return a\n"
        "def g(a, c=0, tol=1e-8, seed=0):\n"
        "    return f(a, d=a, c=c), h(tol=tol)\n"
        "def h(tol=1e-8, matrix=None, seed=0):\n    return tol\n"
        "class K:\n"
        "    def __init__(self, x=0):\n        self.x = x\n"
        "    def m(self, y=0, z=1):\n        return y\n")
    (callers / "use.py").write_text(
        "f(0, 1)\nK()\nK().m(5)\n"
        "matrix = None\nh(matrix=matrix)\n"
        "def run(seed=0):\n    return (lambda tol: g(0, tol=tol))(seed)\n"
        "other(seed=1)\n")
    # f.c is only forwarded by g and h.tol only by g: neither is set, and
    # f.d, which g sets, is; g.seed's keyword goes to another callee
    assert unset_parameters(package, [package, callers]) == [
        "f.c", "g.c", "g.tol", "g.seed", "h.tol", "h.seed", "K.x", "m.z"]


def test_every_default_is_set_by_a_caller():
    roots = [ROOT / folder for folder in CALLERS]
    assert unset_parameters(ROOT / PACKAGE, roots) == []

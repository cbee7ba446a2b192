"""Each shared rule is stated once: a stdlib-``ast`` scan of ``src/lclab``.

The range of the sparse oracle's solve tolerance, (0, 1e-6], is stated
by ``kernels.check_tol``, which that solve calls, what makes a
coupling sweep by ``kernels.check_sweep``, which every sweep check calls,
and what makes a single coupling, 1 <= lam < inf, by
``kernels.check_coupling``.  A comparison with the literal ``1e-6``
anywhere else, the sweep message anywhere else, or a comparison of a
``lam`` with the literal 1 anywhere else, is a second copy of the rule
that could drift from the first.

The interface operators are stated by the module ``interface``: the
flat ones through the decay rate sqrt(xi^2 + lam).  A ``sqrt`` of a sum
with a square term outside it restates one of them; ``torus`` is exempt,
since compose's test symbols are not interface operators.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lclab"
SWEEP_MESSAGE = "sweep must be >= 3"


def _compares_with_tol_bound(node):
    return isinstance(node, ast.Compare) and any(
        isinstance(side, ast.Constant) and type(side.value) is float
        and side.value == 1e-6 for side in (node.left, *node.comparators))


def _states_sweep_message(node):
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and SWEEP_MESSAGE in node.value)


def _names_lam(node):
    """``lam``, as a name or a key, anywhere in ``node``."""
    return any(isinstance(n, ast.Name) and n.id == "lam"
               or isinstance(n, ast.Constant) and n.value == "lam"
               for n in ast.walk(node))


def _compares_lam_with_one(node):
    if not isinstance(node, ast.Compare):
        return False
    sides = (node.left, *node.comparators)
    return any(isinstance(side, ast.Constant)
               and type(side.value) in (int, float) and side.value == 1
               for side in sides) and any(map(_names_lam, sides))


def _is_square(node):
    """``x * x`` or ``x ** 2``."""
    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.Mult):
        return ast.dump(node.left) == ast.dump(node.right)
    return (isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Constant) and node.right.value == 2)


def _takes_decay_rate(node):
    """A ``sqrt`` call whose argument adds a square to another term."""
    if not (isinstance(node, ast.Call) and len(node.args) == 1):
        return False
    func, arg = node.func, node.args[0]
    name = func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)
    return (name == "sqrt" and isinstance(arg, ast.BinOp)
            and isinstance(arg.op, ast.Add)
            and (_is_square(arg.left) or _is_square(arg.right)))


# the homes of each rule (a module, or ``module.function``), what a copy
# is called and how it looks
RULES = (
    (("kernels.check_tol",), "a comparison with 1e-6",
     _compares_with_tol_bound),
    (("kernels.check_sweep",), "the sweep message", _states_sweep_message),
    (("kernels.check_coupling",), "a comparison of lam with 1",
     _compares_lam_with_one),
    (("interface", "torus"), "a decay rate sqrt(x^2 + y)", _takes_decay_rate),
)


def _at_home(where, homes):
    return any(where == home or where.startswith(f"{home}.")
               for home in homes)


def _nodes(node, function=None):
    """(name of the innermost enclosing function or None, node) for every
    node below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = child.name
        else:
            inner = function
        yield inner, child
        yield from _nodes(child, inner)


def restated_rules(package):
    """``module.function: rule`` (``module: rule`` at module level) for
    every statement of a rule of ``RULES`` outside its home, over the
    modules of the directory ``package``."""
    found = []
    for path in sorted(Path(package).glob("*.py")):
        for function, node in _nodes(ast.parse(path.read_text())):
            where = f"{path.stem}.{function}" if function else path.stem
            found += [f"{where}: {what}" for homes, what, states in RULES
                      if not _at_home(where, homes) and states(node)]
    return found


def test_restated_rule_is_found(tmp_path):
    (tmp_path / "kernels.py").write_text(
        "def check_tol(tol):\n"
        "    if not 0.0 < tol <= 1e-6:\n"
        "        raise ValueError(tol)\n"
        "def check_sweep(lambdas):\n"
        '    raise ValueError("sweep must be >= 3 positive points")\n'
        "def solve(tol):\n"
        "    return tol > 1e-6, tol * 1e-6\n")
    (tmp_path / "runner.py").write_text(
        'LIMIT = 1e-6 >= 0 or "sweep must be >= 3 points"\n'
        "def parse(values):\n"
        "    def sweep(lambdas):\n"
        '        raise KeyError(f"{lambdas}: sweep must be >= 3 points")\n'
        '    return values["tol"] <= 1e-6, values["bound"] == 1e-06\n')
    assert restated_rules(tmp_path) == [
        "kernels.solve: a comparison with 1e-6",
        "runner: a comparison with 1e-6",
        "runner: the sweep message",
        "runner.sweep: the sweep message",
        "runner.parse: a comparison with 1e-6",
        "runner.parse: a comparison with 1e-6",
    ]


def test_restated_coupling_rule_is_found(tmp_path):
    (tmp_path / "kernels.py").write_text(
        "def check_coupling(lam):\n"
        "    if not 1.0 <= lam < np.inf:\n"
        "        raise DomainError(lam)\n")
    (tmp_path / "runner.py").write_text(
        "def _validate(values, violations):\n"
        '    if not 1 <= values["sweep"]["lam"] < np.inf:\n'
        '        violations.append("sweep.lam")\n'
        "    return k >= 1, lam >= 2, lam == 1.5\n")
    (tmp_path / "grids.py").write_text(
        "class Grid:\n"
        "    def assemble(self, lam):\n"
        "        if lam < 1:\n"
        "            raise DomainError(lam)\n")
    assert restated_rules(tmp_path) == [
        "grids.assemble: a comparison of lam with 1",
        "runner._validate: a comparison of lam with 1",
    ]


def test_restated_decay_rate_is_found(tmp_path):
    (tmp_path / "interface.py").write_text(
        "def _decay_rate(xi, lam):\n"
        "    return np.sqrt(xi * xi + lam)\n")
    (tmp_path / "torus.py").write_text(
        "B = lambda xp, xip, lam: -1.0 / np.sqrt(xip * xip + lam)\n")
    (tmp_path / "counting.py").write_text(
        "def w(k, radius, lam):\n"
        "    xi = abs(k) / radius\n"
        "    return 1.0 / (xi + math.sqrt(lam + xi ** 2))\n"
        "def roots(ann, q, cross, x, y):\n"
        "    return np.sqrt(ann * q - cross * cross), np.sqrt(x * y + q)\n")
    (tmp_path / "symbols.py").write_text(
        "def flat():\n"
        "    return lambda xp, xip, lam: sqrt(xip * xip + lam)\n")
    assert restated_rules(tmp_path) == [
        "counting.w: a decay rate sqrt(x^2 + y)",
        "symbols.flat: a decay rate sqrt(x^2 + y)",
    ]


def test_each_rule_is_stated_once():
    assert restated_rules(PACKAGE) == []

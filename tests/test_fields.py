"""Every dataclass field is read: a stdlib-``ast`` scan of the package's
dataclasses against the attribute reads in the package, the tests, the
demos and the benchmark.  A field that nothing reads is a value each
constructor must still supply, for no reader.

A field counts as read when some attribute load anywhere under the
callers takes its name, as ``report.passed`` reads ``passed``.  A write
(``self.x = ...``) is not a read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/lclab"
CALLERS = ("src/lclab", "tests", "demos", "bench")


def _decorator_name(node):
    """``dataclass`` for ``@dataclass``, ``@dataclasses.dataclass`` and
    either called."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.id if isinstance(node, ast.Name) else \
        getattr(node, "attr", None)


def dataclass_fields(tree):
    """(class name, field name) for every annotated field of every
    ``@dataclass`` class."""
    return [(node.name, item.target.id)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and "dataclass" in map(_decorator_name, node.decorator_list)
            for item in node.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)]


def attribute_reads(tree):
    """The names of every attribute load."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def unread_fields(package, callers):
    """``class.field`` for every dataclass field of the modules under
    ``package`` that no attribute load under ``callers`` reads."""
    reads = set().union(*(attribute_reads(ast.parse(path.read_text()))
                          for folder in callers
                          for path in sorted(Path(folder).rglob("*.py"))))
    return [f"{cls}.{name}"
            for path in sorted(Path(package).glob("*.py"))
            for cls, name in dataclass_fields(ast.parse(path.read_text()))
            if name not in reads]


def test_unread_field_is_found(tmp_path):
    package, callers = tmp_path / "pkg", tmp_path / "callers"
    package.mkdir()
    callers.mkdir()
    (package / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "import dataclasses\n"
        "@dataclass\n"
        "class Report:\n"
        "    value: float\n    scale: float\n    note: str = ''\n"
        "    def halved(self):\n        return self.value / 2\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Pair:\n    left: int\n    right: int\n"
        "class Plain:\n    width: int\n")
    (callers / "use.py").write_text(
        "r = Report(1.0, 2.0)\nr.note = 'written, not read'\n"
        "print(Pair(1, 2).left)\n")
    # Plain is no dataclass
    assert unread_fields(package, [package, callers]) == [
        "Report.scale", "Report.note", "Pair.right"]


def test_every_field_is_read():
    roots = [ROOT / folder for folder in CALLERS]
    assert unread_fields(ROOT / PACKAGE, roots) == []

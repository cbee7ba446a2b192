"""Every config key is read: a stdlib-``ast`` scan of ``runner.py``.

A key of ``_SCHEMA`` counts as read when some subscript outside
``_SCHEMA`` loads it by its ``"section.key"`` literal, as
``config["grid.angular"]`` does.  A key that no code reads is a setting
with no effect: a config file could set it and change nothing but the
config hash.
"""

import ast
from pathlib import Path

RUNNER = Path(__file__).resolve().parent.parent / "src" / "lclab" / "runner.py"


def _is_schema(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "_SCHEMA"
        for target in node.targets)


def unread_keys(path):
    """``section.key`` for every ``_SCHEMA`` key of the module at
    ``path`` that no subscript outside ``_SCHEMA`` loads by its literal."""
    tree = ast.parse(Path(path).read_text())
    keys, reads = [], set()
    for node in tree.body:
        if _is_schema(node):
            keys += [f"{section.value}.{key.value}"
                     for section, body in zip(node.value.keys,
                                              node.value.values)
                     for key in body.keys]
            continue
        reads |= {sub.slice.value for sub in ast.walk(node)
                  if isinstance(sub, ast.Subscript)
                  and isinstance(sub.ctx, ast.Load)
                  and isinstance(sub.slice, ast.Constant)}
    return [key for key in keys if key not in reads]


def test_unread_key_is_found(tmp_path):
    sample = tmp_path / "runner.py"
    sample.write_text(
        '_SCHEMA = {"a": {"x": ("int", 1), "y": ("int", 2)},\n'
        '           "b": {"z": ("str", "a.y")}}\n'
        "def run(config, values):\n"
        '    overrides = {"b.z": "set, not read"}\n'
        '    return config["a.x"], values["a"]["y"], overrides\n')
    assert unread_keys(sample) == ["a.y", "b.z"]


def test_every_config_key_is_read():
    assert unread_keys(RUNNER) == []

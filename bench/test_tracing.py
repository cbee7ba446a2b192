"""Self-checks of the benchmark's tracer: every binding site of a traced
function is wrapped while tracing, and everything is restored after.

Run with ``python -m pytest bench`` from the repository root.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import lclab  # noqa: E402  (imports every lclab module)
from lclab import counting, grids, kernels  # noqa: E402
from tracing import TRACED_FUNCTIONS, Tracer  # noqa: E402


def _snapshot():
    """Every module attribute and class attribute of the lclab namespaces."""
    snap = {}
    for name, mod in sys.modules.items():
        if mod is None or not (name == "lclab" or name.startswith("lclab.")):
            continue
        for attr, value in vars(mod).items():
            snap[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    snap[(name, attr, cattr)] = cvalue
    return snap


@pytest.fixture
def tracer():
    tr = Tracer()
    before = _snapshot()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()
    after = _snapshot()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert not changed, f"not restored: {changed}"


def test_every_binding_site_is_wrapped(tracer):
    assert tracer.unwrapped_bindings() == []
    # the re-exports made by ``from .kernels import solve_spd`` are wrapped
    for mod in (lclab, grids, counting):
        assert mod.solve_spd is kernels.solve_spd
        assert hasattr(mod.solve_spd, "__wrapped__")
    for mod_name, attr, _, _ in TRACED_FUNCTIONS:
        assert hasattr(getattr(sys.modules[mod_name], attr), "__wrapped__")


def test_escaped_original_is_reported(tracer):
    original = kernels.solve_spd.__wrapped__
    counting._escaped_binding = original
    counting._escaped_table = {"solver": original}
    try:
        leaks = tracer.unwrapped_bindings()
    finally:
        del counting._escaped_binding, counting._escaped_table
    assert sorted(leaks) == ["lclab.counting._escaped_binding",
                             "lclab.counting._escaped_table['solver']"]


def test_spans_nest_and_count(tracer):
    import numpy as np
    from lclab.geometry import Domain1D

    grid = tracer.call("runner.rate1d", grids.Grid1D,
                       Domain1D(1.0, 0.25, 0.75), 16)
    op = grid.assemble_exterior()
    op.solve(np.ones(op.dim))
    op.solve(np.ones(op.dim))
    m = tracer.layer_metrics(wall=1.0)
    assert m["grids.build.calls"] == 1
    assert m["grids.assemble.calls"] == 1
    assert m["kernels.factorize.calls"] == 1
    assert m["kernels.solve_spd.calls"] == 2
    assert m["kernels.backsolve.calls"] >= 2
    assert m["kernels.refine_ratio"] >= 1.0
    assert m["kernels.solve_spd.self_s"] >= 0.0
    assert m["runner.rate1d.s"] > 0.0
    assert m["kernels.dense_eigen.calls"] == 0

"""In-memory span tracing of the ``lclab`` layers, installed from outside.

The program is not edited: ``Tracer.install`` replaces the public
functions and methods listed in ``TRACED_FUNCTIONS`` / ``TRACED_METHODS``
with recording wrappers, at every place an ``lclab`` module binds them
(``from .kernels import solve_spd`` makes ``grids.solve_spd`` a second
binding of the same function), and ``uninstall`` puts the originals back.
``unwrapped_bindings`` is the self-check that no binding escaped.

Each span records its name, start, end and parent span, so a layer's
self time is its duration minus the durations of its direct children.
"""

import functools
import sys
import time
from collections import Counter

# (module, attribute, metric name, record a span?)  With a span the name is
# the prefix of the layer's metrics; without one (hot scalar calls, kept
# cheap so the traced run stays close to the untraced one) it is the
# counter itself.
TRACED_FUNCTIONS = (
    ("lclab.kernels", "solve_spd", "kernels.solve_spd", True),
    ("lclab.kernels", "dense_eigen", "kernels.dense_eigen", True),
    ("lclab.kernels", "power_iteration_sym", "kernels.power_iteration", True),
    ("lclab.counting", "eigen_spectrum", "counting.eigen_spectrum", True),
    ("lclab.counting", "trace_map_norm", "counting.trace_map_norm", True),
    ("lclab.symbols", "class_membership_estimate", "symbols.membership", True),
    ("lclab.torus", "psdo_matrix", "torus.psdo_matrix", True),
    ("lclab.torus", "apply_multiplier", "torus.multiplier", True),
    ("lclab.geometry", "metric_matrix", "geometry.metric_matrix.calls",
     False),
)

# (module, class, method name or "assemble_*", metric name, span?)
TRACED_METHODS = (
    ("lclab.grids", "Grid1D", "__init__", "grids.build", True),
    ("lclab.grids", "PolarGrid", "__init__", "grids.build", True),
    ("lclab.grids", "Grid1D", "assemble_*", "grids.assemble", True),
    ("lclab.grids", "PolarGrid", "assemble_*", "grids.assemble", True),
    ("lclab.kernels", "_Factorization", "__init__", "kernels.factorize", True),
    ("lclab.kernels", "_Factorization", "solve", "kernels.backsolve", True),
    ("lclab.coupling", "DifferencePipeline", "apply", "coupling.apply", True),
    ("lclab.symbols", "ParamSymbol", "__call__", "symbols.evals", False),
)

EXPERIMENTS = ("rate1d", "rate2d", "green", "symbols", "bounds", "nbound",
               "compose", "weyl", "birman", "threshold")

# nonzero eigenvalues of E_lam are those above this share of the largest
RANK_CUTOFF = 1e-10


def _lclab_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "lclab" or name.startswith("lclab."))]


def _resolve_methods():
    """Yield (class, attribute name, prefix, span?) for every traced method."""
    for mod_name, cls_name, attr, prefix, span in TRACED_METHODS:
        cls = getattr(sys.modules[mod_name], cls_name)
        if attr.endswith("*"):
            names = sorted(n for n in vars(cls) if n.startswith(attr[:-1]))
        else:
            names = [attr]
        for name in names:
            yield cls, name, prefix, span


class Tracer:
    """Spans and counters of one traced iteration, kept in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = Counter()
        self.max_dense_dim = 0
        self.rank_useful = 0
        self.rank_dim = 0
        self._stack = []
        self._patches = []       # (namespace owner, attribute, original)
        self._originals = {}     # id(original) -> original

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.max_dense_dim = self.rank_useful = self.rank_dim = 0

    # -- recording ----------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack
        rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def _span_wrapper(self, prefix, fn):
        hook = {"kernels.power_iteration": self._count_actions,
                "kernels.dense_eigen": self._note_dense_dim,
                "counting.eigen_spectrum": self._note_rank}.get(prefix)
        if hook is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.call(prefix, fn, *args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return hook(prefix, fn, args, kwargs)
        return wrapper

    def _count_wrapper(self, prefix, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[prefix] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count_actions(self, prefix, fn, args, kwargs):
        counts = self.counts
        action = args[0] if args else kwargs.pop("action")

        def counted_action(v):
            counts["kernels.power_iteration.actions"] += 1
            return action(v)
        return self.call(prefix, fn, counted_action, *args[1:], **kwargs)

    def _note_dense_dim(self, prefix, fn, args, kwargs):
        vals = self.call(prefix, fn, *args, **kwargs)
        self.max_dense_dim = max(self.max_dense_dim, len(vals))
        return vals

    def _note_rank(self, prefix, fn, args, kwargs):
        vals = self.call(prefix, fn, *args, **kwargs)
        mags = [abs(float(v)) for v in vals]
        top = max(mags, default=0.0)
        self.rank_useful += sum(m > RANK_CUTOFF * top for m in mags)
        self.rank_dim += len(mags)
        return vals

    # -- installing ---------------------------------------------------------

    def install(self):
        """Wrap every traced function and method at every binding site."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _lclab_modules()
        for mod_name, attr, prefix, span in TRACED_FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = (self._span_wrapper if span else self._count_wrapper)(
                prefix, original)
            self._originals[id(original)] = original
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        for cls, name, prefix, span in _resolve_methods():
            original = vars(cls)[name]
            wrapper = (self._span_wrapper if span else self._count_wrapper)(
                prefix, original)
            self._originals[id(original)] = original
            self._patch(cls, name, wrapper)

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def uninstall(self):
        """Put every original back, in reverse order of patching."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self._originals.clear()

    def unwrapped_bindings(self):
        """Places in ``lclab`` namespaces that still hold a traced original.

        Looks at module attributes, the dicts, lists and tuples a module
        holds at top level, and class attributes.  An empty list means
        every call to a traced function goes through its wrapper.
        """
        if not self._originals:
            raise RuntimeError("tracer not installed")
        leaks = []

        def scan(where, value):
            if id(value) in self._originals and \
                    self._originals[id(value)] is value:
                leaks.append(where)

        for mod in _lclab_modules():
            for name, value in vars(mod).items():
                where = f"{mod.__name__}.{name}"
                scan(where, value)
                if isinstance(value, dict):
                    for key, item in value.items():
                        scan(f"{where}[{key!r}]", item)
                elif isinstance(value, (list, tuple)):
                    for pos, item in enumerate(value):
                        scan(f"{where}[{pos}]", item)
                elif isinstance(value, type) and \
                        value.__module__ == mod.__name__:
                    for attr, item in vars(value).items():
                        scan(f"{where}.{attr}", item)
        return leaks

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self, wall):
        """Per-layer metrics of the spans recorded since the last reset.

        ``wall`` is the wall time of the traced iteration; the top-level
        spans (one per experiment) should cover nearly all of it.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, self_s = Counter(), Counter(), Counter()
        covered = 0.0
        for idx, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - child[idx]
            total[name] += dur
            if parent < 0:
                covered += dur
        c = self.counts
        m = {f"runner.{exp}.s": total[f"runner.{exp}"] for exp in EXPERIMENTS}
        for layer in ("grids.build", "grids.assemble", "kernels.factorize",
                      "kernels.backsolve", "kernels.dense_eigen",
                      "torus.psdo_matrix", "torus.multiplier"):
            m[f"{layer}.calls"] = calls[layer]
            m[f"{layer}.s"] = total[layer]
        m["kernels.solve_spd.calls"] = calls["kernels.solve_spd"]
        m["kernels.solve_spd.self_s"] = self_s["kernels.solve_spd"]
        m["kernels.refine_ratio"] = (calls["kernels.backsolve"]
                                     / calls["kernels.solve_spd"]
                                     if calls["kernels.solve_spd"] else 0.0)
        m["kernels.dense_eigen.max_dim"] = self.max_dense_dim
        m["kernels.power_iteration.calls"] = calls["kernels.power_iteration"]
        m["kernels.power_iteration.actions"] = \
            c["kernels.power_iteration.actions"]
        m["kernels.power_iteration.self_s"] = \
            self_s["kernels.power_iteration"]
        m["coupling.apply.calls"] = calls["coupling.apply"]
        m["coupling.apply.self_s"] = self_s["coupling.apply"]
        m["counting.eigen_spectrum.s"] = total["counting.eigen_spectrum"]
        m["counting.eigen_spectrum.self_s"] = \
            self_s["counting.eigen_spectrum"]
        m["counting.rank_ratio"] = (self.rank_useful / self.rank_dim
                                    if self.rank_dim else 0.0)
        m["counting.trace_map_norm.s"] = total["counting.trace_map_norm"]
        m["symbols.membership.s"] = total["symbols.membership"]
        m["symbols.evals"] = c["symbols.evals"]
        m["geometry.metric_matrix.calls"] = c["geometry.metric_matrix.calls"]
        m["trace.coverage"] = covered / wall if wall > 0 else 0.0
        return m


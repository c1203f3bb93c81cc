"""Outside-in tracing: spans around public functions at module boundaries.

The benchmark wraps each listed function at every module attribute bound to
the same object (``weight.build_constant_pack`` is also ``solver.``'s), so
the program itself is unchanged.  Spans (name, start, end, parent, item)
stay in memory until the run ends; counters are read from the objects the
wrapped functions return, never from program internals.
"""

import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the parent span, -1 for an item root
    item: int


def _count_path(tr, report):
    """mu steps and Newton iterations of a report's continuation path."""
    path = report.continuation_path
    tr.count("solver.mu_steps", len(path))
    tr.count("solver.newton_iters", sum(int(it) for _, it in path))


def _on_solution(tr, sol):
    _count_path(tr, sol.report)


def _on_shoot(tr, res):
    tr.count("oracle.shoot_iters", res.iters)
    tr.count("oracle.rk_steps", len(res.dense.ts) - 1)


def _on_connection(tr, sol):
    tr.count("connection.descent_iters", sol.descent_iters)
    tr.count("connection.newton_iters", sol.newton_iters)


def _on_grid(tr, grid):
    tr.maximum("assembly.dofs_max", grid.ndof)


# (module, attribute, span name, hook on the returned object)
TARGETS = [
    ("multibump.weight", "build_constant_pack",
     "weight.build_constant_pack", None),
    ("multibump.localfield", "pinned_zero_detail",
     "localfield.pinned_zero_detail", None),
    ("multibump.localfield", "ground_state", "localfield.ground_state", None),
    ("multibump.localfield", "principal_eigenvalue",
     "localfield.principal_eigenvalue", None),
    ("multibump.assembly", "gradient", "assembly.gradient", None),
    ("multibump.assembly", "jacobian_matrix", "assembly.jacobian_matrix",
     None),
    ("multibump.assembly", "span_grid", "assembly.span_grid", _on_grid),
    ("multibump.assembly", "segment_grid", "assembly.segment_grid", None),
    ("multibump.solver", "solve_multibump", "solver.solve_multibump",
     _on_solution),
    ("multibump.solver", "continuation_states",
     "solver.continuation_states", None),
    ("multibump.solver", "check_membership", "solver.check_membership", None),
    ("scipy.sparse.linalg", "splu", "solver.splu", None),
    ("multibump.verify", "oracle_residual", "verify.oracle_residual", None),
    ("multibump.verify", "limit_distance", "verify.limit_distance", None),
    ("multibump.verify", "nehari_identities", "verify.nehari_identities",
     None),
    ("multibump.verify", "run_sweep", "verify.run_sweep", None),
    ("multibump.verify", "interior_maxima", "verify.interior_maxima", None),
    ("multibump.oracle", "shoot_dirichlet", "oracle.shoot_dirichlet",
     _on_shoot),
    ("multibump.connection", "solve_connection",
     "connection.solve_connection", _on_connection),
    ("multibump.connection", "energy_derivatives",
     "connection.energy_derivatives", None),
    ("multibump.cli", "write_csv", "cli.write_csv", None),
    ("multibump.cli", "write_json", "cli.write_json", None),
]

GENERATORS = {"solver.continuation_states"}


def resolve(module, attr):
    """The public function ``module.attr``; raises if it is missing."""
    mod = importlib.import_module(module)
    if attr.startswith("_"):
        raise LookupError(f"{module}.{attr} is not public")
    fn = getattr(mod, attr, None)
    if not callable(fn):
        raise LookupError(f"{module}.{attr} is missing; the benchmark's "
                          "trace targets must follow the rename")
    return fn


class Tracer:
    """Span recorder.  ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.item = -1
        self.root = -1
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name):
        st = self._stack()
        parent = st[-1] if st else self.root
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                                   self.item))
        st.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx].end = time.perf_counter()
        self._stack().pop()

    def count(self, name, value):
        with self._lock:
            self.counters[name] += value

    def maximum(self, name, value):
        with self._lock:
            self.counters[name] = max(self.counters[name], value)

    def begin_item(self, item, name):
        """Open the root span of one CLI item in the calling thread."""
        self.item = item
        self.root = -1
        self.root = self.open(name)
        self.enabled = True

    def end_item(self):
        self.enabled = False
        self.close(self.root)
        self.root = -1

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, name, hook):
        tracer = self

        if name in GENERATORS:
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    yield from fn(*args, **kwargs)
                    return
                gen = fn(*args, **kwargs)
                last = None
                try:
                    while True:
                        idx = tracer.open(name)
                        try:
                            value = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer.close(idx)
                        last = value
                        yield value
                finally:
                    gen.close()
                    if last is not None:    # the path is cumulative
                        _count_path(tracer, last[2])
        else:
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                idx = tracer.open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                if hook is not None:
                    hook(tracer, out)
                return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Wrap every target at each module attribute bound to it."""
        for module, attr, name, hook in TARGETS:
            fn = resolve(module, attr)
            wrapper = self._wrap(fn, name, hook)
            homes = [m for key, m in list(sys.modules.items())
                     if m is not None and (key == module
                                           or key.startswith("multibump"))]
            bound = 0
            for mod in homes:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, fn))
                        bound += 1
            if not bound:
                raise LookupError(f"{module}.{attr} is bound nowhere")

    def uninstall(self):
        for mod, key, fn in reversed(self._patches):
            setattr(mod, key, fn)
        self._patches = []

    def write(self, path):
        """One JSON object per span, in the order the spans opened."""
        with open(path, "w") as f:
            for i, sp in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": sp.name,
                                    "start": sp.start, "end": sp.end,
                                    "parent": sp.parent, "item": sp.item})
                        + "\n")

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the union of child spans."""
        children = defaultdict(list)
        for i, sp in enumerate(self.spans):
            if sp.parent >= 0:
                children[sp.parent].append(i)
        out = []
        for i, sp in enumerate(self.spans):
            covered = 0.0
            cur = sp.start
            for s, e in sorted((self.spans[j].start, self.spans[j].end)
                               for j in children.get(i, ())):
                s, e = max(s, cur), min(e, sp.end)
                if e > s:
                    covered += e - s
                    cur = e
            out.append(max(sp.end - sp.start - covered, 0.0))
        return out

    def has_ancestor(self, i, names):
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name in names:
                return True
            p = self.spans[p].parent
        return False

"""Span tracer installed around atomcur's public functions.

The tracer replaces each traced function at every binding that refers to
it (module globals, class attributes, the suite registry lists) with a
wrapper that records a span, and puts every original object back on
``uninstall``.  Nothing in ``src/atomcur`` knows about it.

Accounting, per thread (``--jobs 2`` runs suites on pool threads):

* a span's self time is its duration minus the time its child spans cover;
* inclusive time is counted only at the outermost span of each key, so a
  recursive function (``nabla_word_jets``, ``higher_gamma_jets``) or a group
  of functions that call each other (the boundary family) is not counted
  twice;
* every span also notes whether it had a child span and whether an
  ``eval_jet`` call happened beneath it, which gives the cache hit ratios.

Hot leaf spans (jet products, ``eval_jet``) are only aggregated; coarser
spans are also kept as records (id, parent id, name, start, end, thread)
and written out with the aggregates when the traced run ends.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# (module, attribute path, span name, extra inclusive-time keys)
TARGETS = [
    ("jets", "Jet.__mul__", "jets.mul", ()),
    ("jets", "Jet.reciprocal", "jets.reciprocal", ()),
    ("jets", "Jet.compose_series", "jets.compose_series", ()),
    ("expr", "eval_jet", "expr.eval_jet", ()),
    ("connection", "ChartConnection.gamma1_jet", "connection.gamma1_jet", ()),
    ("connection", "ChartConnection.higher_gamma_jets", "connection.higher_gamma_jets", ()),
    ("connection", "ChartConnection.from_metric", "connection.from_metric", ()),
    ("connection", "curvature", "connection.curvature", ()),
    ("covderiv", "Field.comp_jet", "covderiv.comp_jet", ()),
    ("covderiv", "nabla_word_jets", "covderiv.nabla_word_jets", ()),
    ("covderiv", "covariant_step", "covderiv.covariant_step", ()),
    ("covderiv", "covariant_product", "covderiv.covariant_product", ()),
    ("atomic", "phi_apply", "atomic.phi_apply", ()),
    ("atomic", "to_pbw", "atomic.to_pbw", ()),
    ("atomic", "kernel_basis", "atomic.kernel_basis", ()),
    ("operators", "sharp", "operators.sharp", ()),
    ("operators", "op_Edag", "operators.op_Edag", ("operators.adjoint",)),
    ("operators", "op_Ddag", "operators.op_Ddag", ("operators.adjoint",)),
    ("operators", "adjoint_of_Edag", "operators.adjoint_of_Edag", ("operators.adjoint",)),
    ("operators", "boundary", "operators.boundary", ("operators.boundary_all",)),
    ("operators", "boundary_via_trace", "operators.boundary_via_trace",
     ("operators.boundary_all",)),
    ("operators", "resolve_functional", "operators.resolve_functional",
     ("operators.boundary_all",)),
    ("suites", "run_suite", "suites.run_suite", ()),
    ("cli", "run", "cli.run", ()),
    ("cli", "load_spec", "cli.load_spec", ()),
    ("cli", "build_chart", "cli.build_chart", ()),
    ("cli", "resolve_probes", "cli.resolve_probes", ()),
    ("cli", "_run_parallel", "cli.run_parallel", ()),
    ("cli", "make_report", "cli.make_report", ()),
    ("cli", "to_csv", "cli.to_csv", ()),
]

# multialg is traced as one layer: its public module-level functions and
# the methods of its element type.  The per-term validators and the sort
# key are left bare (over 100k calls a run, each shorter than a span's own
# cost); their time counts toward whichever span calls them.
MULTIALG_METHODS = ("add_term", "items", "scale", "__add__", "__sub__", "max_order",
                    "degrees", "max_abs", "to_json")
MULTIALG_BARE = ("check_word", "check_anti_index", "gradlex_key")

# spans only aggregated, never kept as records (millions of calls)
HOT_PREFIXES = ("jets.", "expr.", "multialg.", "connection.gamma1_jet",
                "covderiv.comp_jet", "covderiv.covariant_step", "covderiv.nabla_word_jets")

CALLS, INCL, SELF, NO_CHILD, NO_EVAL = range(5)


class _ThreadState:
    __slots__ = ("stack", "depth", "stats", "evals", "madds", "records")

    def __init__(self):
        self.stack = []      # open frames, see Tracer._enter
        self.depth = {}      # inclusive key -> number of open spans with that key
        self.stats = {}      # span name or inclusive key -> [calls, incl, self, no_child, no_eval]
        self.evals = 0       # eval_jet calls seen on this thread
        self.madds = 0       # multiply-adds of the jet products seen on this thread
        self.records = []


class Tracer:
    """Collects spans from wrapped functions; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._ids = iter(range(1, 1 << 62))
        self.eval_keys = set()
        self._expr_strings = {}
        self.bindings = []   # (owner, key, original) per replaced binding

    # -- per-thread state ---------------------------------------------------
    def _state(self):
        try:
            return self._local.st
        except AttributeError:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
            return st

    def _enter(self, st, name, keys):
        parent_rec = None
        if st.stack:
            parent = st.stack[-1]
            parent[4] = True
            parent_rec = parent[5]
        recorded = not name.startswith(HOT_PREFIXES)
        rec_id = next(self._ids) if recorded else parent_rec
        outer = []
        depth = st.depth
        for key in keys:
            d = depth.get(key, 0)
            depth[key] = d + 1
            if d == 0:
                outer.append(key)
        # name, start, time covered by children, eval_jet count at entry, had a
        # child span, id of the nearest recorded span (this one if recorded),
        # id of its recorded parent, inclusive keys, keys outermost here, recorded
        frame = [name, 0.0, 0.0, st.evals, False, rec_id, parent_rec, keys, outer, recorded]
        st.stack.append(frame)
        frame[1] = self.clock()
        return frame

    def _exit(self, st, frame):
        end = self.clock()
        st.stack.pop()
        name, start, child_s, evals0, had_child, rec_id, parent_rec, keys, outer, recorded = frame
        dur = end - start
        stats = st.stats
        row = stats.get(name)
        if row is None:
            row = stats[name] = [0, 0.0, 0.0, 0, 0]
        row[CALLS] += 1
        row[SELF] += dur - child_s
        if not had_child:
            row[NO_CHILD] += 1
        if st.evals == evals0:
            row[NO_EVAL] += 1
        depth = st.depth
        for key in keys:
            depth[key] -= 1
        for key in outer:
            krow = stats.get(key)
            if krow is None:
                krow = stats[key] = [0, 0.0, 0.0, 0, 0]
            krow[INCL] += dur
        if st.stack:
            st.stack[-1][2] += dur
        if recorded:
            st.records.append((rec_id, parent_rec, name, start, end, threading.get_ident()))

    # -- wrappers -------------------------------------------------------------
    def wrap(self, fn, name, keys=()):
        keys = (name,) + tuple(keys)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            frame = tracer._enter(st, name, keys)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(st, frame)

        return traced

    def wrap_mul(self, fn, jet_type):
        """Jet products; a product with a scalar is a scale, not traced."""
        keys = ("jets.mul",)
        tracer = self

        @functools.wraps(fn)
        def traced(a, b):
            if not isinstance(b, jet_type):
                return fn(a, b)
            st = tracer._state()
            st.madds += len(a.space.mul_oi)
            frame = tracer._enter(st, "jets.mul", keys)
            try:
                return fn(a, b)
            finally:
                tracer._exit(st, frame)

        return traced

    def wrap_eval_jet(self, fn, to_string, default_mode):
        """eval_jet calls, with the (expression, point, mode) keys they evaluate."""
        keys = ("expr.eval_jet",)
        tracer = self
        strings = self._expr_strings

        @functools.wraps(fn)
        def traced(e, point, *args, **kwargs):
            st = tracer._state()
            st.evals += 1
            ent = strings.get(id(e))
            if ent is None or ent[0] is not e:
                ent = strings[id(e)] = (e, to_string(e))
            mode = args[1] if len(args) > 1 else kwargs.get("mode", default_mode)
            tracer.eval_keys.add((ent[1], tuple(point), mode))
            frame = tracer._enter(st, "expr.eval_jet", keys)
            try:
                return fn(e, point, *args, **kwargs)
            finally:
                tracer._exit(st, frame)

        return traced

    # -- install / uninstall ----------------------------------------------------
    def _replace_everywhere(self, original, replacement, modules):
        """Point every module-global binding of ``original`` at ``replacement``."""
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._bind(mod, key, replacement)

    def _bind(self, owner, key, replacement):
        original = vars(owner)[key]
        setattr(owner, key, replacement)
        self.bindings.append((owner, key, original))

    def install(self):
        """Wrap every target at every binding in the loaded atomcur modules."""
        if self.bindings:
            raise RuntimeError("tracer already installed")
        import atomcur.cli  # noqa: F401  (loads every traced module)
        from atomcur import expr, jets, multialg, suites

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "atomcur" or n.startswith("atomcur."))]
        for modname, path, name, keys in TARGETS:
            mod = sys.modules[f"atomcur.{modname}"]
            if "." in path:
                clsname, attr = path.split(".")
                cls = getattr(mod, clsname)
                raw = vars(cls)[attr]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                if path == "Jet.__mul__":
                    wrapped = self.wrap_mul(fn, jets.Jet)
                else:
                    wrapped = self.wrap(fn, name, keys)
                if is_static:
                    wrapped = staticmethod(wrapped)
                for key, value in list(vars(cls).items()):
                    if value is raw:
                        self._bind(cls, key, wrapped)
            else:
                fn = getattr(mod, path)
                if path == "eval_jet":
                    wrapped = self.wrap_eval_jet(fn, expr.to_string, jets.FLOAT)
                else:
                    wrapped = self.wrap(fn, name, keys)
                self._replace_everywhere(fn, wrapped, modules)
        for key, value in sorted(vars(multialg).items()):
            if (callable(value) and not isinstance(value, type)
                    and getattr(value, "__module__", None) == "atomcur.multialg"
                    and not key.startswith("_") and key not in MULTIALG_BARE):
                self._replace_everywhere(value, self.wrap(value, f"multialg.{key}",
                                                          ("multialg",)), modules)
        for key in MULTIALG_METHODS:
            fn = vars(multialg.TensorExtElement)[key]
            self._bind(multialg.TensorExtElement, key,
                       self.wrap(fn, f"multialg.TensorExtElement.{key}", ("multialg",)))
        # suites run their checks from the registry lists, not by name
        wrappers = {fn: self.wrap(fn, f"suites.{suite}")
                    for suite, fns in suites.CHECKS.items() for fn in fns}
        for lst in list(suites.CHECKS.values()) + [suites.SUITES["all"]]:
            for i, fn in enumerate(list(lst)):
                if fn in wrappers:
                    self.bindings.append((lst, i, fn))
                    lst[i] = wrappers[fn]

    def uninstall(self):
        """Put every original object back, then check each binding by identity."""
        for owner, key, original in reversed(self.bindings):
            if isinstance(owner, list):
                owner[key] = original
            else:
                setattr(owner, key, original)
        for owner, key, original in self.bindings:
            current = owner[key] if isinstance(owner, list) else vars(owner)[key]
            if current is not original:
                raise RuntimeError(f"binding {key!r} of {owner!r} was not restored")
        restored = len(self.bindings)
        self.bindings = []
        return restored

    # -- results ---------------------------------------------------------------
    def totals(self):
        """Aggregates merged over threads: {name: [calls, incl, self, no_child, no_eval]}."""
        merged = {}
        madds = 0
        for st in self._states:
            if st.stack:
                raise RuntimeError("spans still open")
            madds += st.madds
            for name, row in st.stats.items():
                acc = merged.setdefault(name, [0, 0.0, 0.0, 0, 0])
                for i, v in enumerate(row):
                    acc[i] += v
        return merged, madds

    def records(self):
        out = []
        for st in self._states:
            out.extend(st.records)
        out.sort(key=lambda r: r[3])
        return out

"""Spans around the library's public functions, recorded from outside.

A ``Tracer`` wraps every public module-level function of the library's
modules, plus the public methods listed in ``METHODS``; ``install`` binds
each wrapper wherever the package binds the original (for example
``fan.groebner_wrt_weight`` and ``charvar.initial_ideal_weight`` as well
as their home modules) and ``uninstall`` puts the originals back.  Private functions are left alone, so
their time counts toward the nearest public caller.  Nothing under
``src/`` changes.

Every span records its name, start, end and parent in flat arrays kept in
memory until the run ends; a layer's self time is its spans' time minus
the time of their child spans.
"""

import gzip
import importlib
import inspect
from array import array
from time import perf_counter

# Library modules by layer; the layer of a wrapped function is the layer
# of the module that defines it.
LAYER_MODULES = {
    "kernel": "skewgb.kernel",
    "ring": "skewgb.ring",
    "orders": "skewgb.orders",
    "weights": "skewgb.weights",
    "rees": "skewgb.rees",
    "groebner": "skewgb.groebner",
    "polyhedra": "skewgb.polyhedra",
    "fan": "skewgb.fan",
    "charvar": "skewgb.charvar",
    "parsing": "skewgb.parsing",
}

# Public methods that are a layer's entry points.  Cheap accessors called
# from inside other layers' loops (WeightVector.dot, SkewPoly.is_zero, ...)
# are not wrapped: their time stays with the caller, which is where an
# optimisation of that caller would show.
METHODS = {
    "kernel": {"MulKernel": ("multiply", "lmul_mono", "mono_mul", "normalize_word")},
    "ring": {
        "SkewPoly": ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__", "scale"),
        "RingPresentation": ("kernel", "graded"),
    },
    "orders": {"MonomialOrder": ("key", "less", "leading_monomial", "leading_term", "sort_terms")},
    "weights": {"HalfspaceSystem": ("contains",)},
    "fan": {"GroebnerCone": ("contains",), "GroebnerFan": ("cone_containing",)},
}


class Tracer:
    def __init__(self):
        self.names = []  # span name by id
        self.layers = []  # layer by span name id
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.normal_form_zero = 0
        self.find_point_forms = 0
        modules = {layer: importlib.import_module(name) for layer, name in LAYER_MODULES.items()}
        self._modules = [importlib.import_module("skewgb"), importlib.import_module("skewgb.cli")]
        self._modules += modules.values()
        self._wrappers = {}  # original function -> wrapper
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._wrappers[fn] = self._wrap(layer, name, fn)
        self._methods = []  # (class, method name, wrapper)
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for meth in methods:
                    wrapper = self._wrap(layer, f"{cls_name}.{meth}", cls.__dict__[meth])
                    self._methods.append((cls, meth, wrapper))
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, layer, name, fn):
        nid = len(self.names)
        self.names.append(f"{layer}.{name}")
        self.layers.append(layer)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        tracer = self
        if name == "normal_form":

            def observe(args, kwargs, result):
                if result.is_zero():
                    tracer.normal_form_zero += 1

        elif name == "find_point":

            def observe(args, kwargs, result):
                # find_point(dim, equalities, nonneg, positive); every caller passes sized forms
                tracer.find_point_forms += sum(len(x) for x in args[1:]) + sum(
                    len(x) for x in kwargs.values()
                )

        else:
            observe = None

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Bind every wrapper wherever the package binds its original."""
        for mod in self._modules:
            for attr, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for cls, meth, wrapper in self._methods:
            self._patches.append((cls, meth, cls.__dict__[meth]))
            setattr(cls, meth, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- analysis --------------------------------------------------------

    def mark(self):
        return len(self.span_name)

    def summary(self, lo, hi):
        """Per-layer self time, call counts and parent relations of spans [lo, hi)."""
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = {}
        for i in range(lo, hi):
            p = parents[i]
            if p >= lo:
                child[p] = child.get(p, 0.0) + (ends[i] - starts[i])
        self_s = {}
        calls = {}
        for i in range(lo, hi):
            nid = names[i]
            layer = self.layers[nid]
            self_s[layer] = self_s.get(layer, 0.0) + (ends[i] - starts[i]) - child.get(i, 0.0)
            calls[nid] = calls.get(nid, 0) + 1
        by_name = {self.names[nid]: count for nid, count in calls.items()}
        return self_s, by_name

    def count_under(self, lo, hi, name, ancestor, direct=False):
        """Spans called ``name`` with an ``ancestor`` span above them (the parent when ``direct``)."""
        names, parents = self.span_name, self.span_parent
        target = self.names.index(name) if name in self.names else -1
        anc = self.names.index(ancestor) if ancestor in self.names else -1
        under = {}
        total = 0
        for i in range(lo, hi):
            p = parents[i]
            flag = p >= lo and (names[p] == anc or (not direct and under.get(p, False)))
            under[i] = flag
            if flag and names[i] == target:
                total += 1
        return total

    def write(self, path):
        """Write every span as gzip TSV: index, name, parent, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("index\tname\tparent\tstart_s\tend_s\n")
            for i in range(self.mark()):
                out.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )

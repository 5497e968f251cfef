"""Per-layer tracing of homlie from outside the package.

`Tracer.install()` wraps the public functions and methods of every
homlie module and rebinds each wrapper wherever the original was bound:
in the defining module, in every module that copied the name with
`from .x import name`, and in `homlie.kernels`, through which
`polyring` reaches the term-map kernels.  Nothing in `src/homlie`
changes; `uninstall()` puts every original back.

Each wrapped call is a span with a name, a start, an end and a parent
(the span below it on the stack).  Spans are folded into per-layer
self times as they run instead of being stored, because a sweep opens
tens of millions of them: the clock is read whenever the running layer
changes, and the interval since the last read goes to the layer that
was running.  That is each layer's span time minus the time its child
spans in other layers cover.  A call into the layer already running is
counted but not timed, since it cannot change any layer's self time.
Every wrapper counts its calls.

Self times of all layers plus the root's own time add up to the root
span, up to float rounding.  The layer of a function is the module that
defines it; the kernels, defined in `_kernels_py` (or the compiled
twin), form the `kernels` layer.
"""

from __future__ import annotations

import importlib
import inspect
import time

ROOT = "root"
LAYERS = (
    ROOT,
    "kernels",
    "polyring",
    "exterior",
    "homalg",
    "calculus",
    "classical",
    "poisson",
    "nijenhuis",
    "courant",
    "dirac",
    "fixtures",
    "scenario",
    "cli",
    "report",
)
KERNELS = ("poly_add", "poly_neg", "poly_scale", "poly_mul", "poly_partial", "poly_substitute")
# Poly arithmetic dunders; `polyring.ops` counts their calls
ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__")
# private bindings wrapped under their own counter name: the Gram
# inverse that `courant.script_D` rebuilds on every call
PRIVATE = {("courant", "_mat_inverse"): "courant.gram_inverse"}
# spans whose inclusive time is reported as well as their self time
INCLUSIVE = {"scenario.load_scenario"}


def _named(wrapper, fn, name):
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper.__wrapped__ = fn
    return wrapper


class Tracer:
    def __init__(self):
        self._index = {name: i for i, name in enumerate(LAYERS)}
        self._self = [0.0] * len(LAYERS)
        # the running layer and when it started running; the layers it
        # interrupted wait on the stack
        self._state = [0, 0.0]
        self._stack = []
        self._counters = {}  # name -> [calls]
        self._inclusive = {}  # name -> seconds, for the spans timed whole
        self._kernel = {"terms_out": 0, "max_terms": 0, "mul_empty": 0}
        self._patches = []  # (owner, attribute, original) to restore
        self._root_s = 0.0
        self._root_start = None

    # -- wrappers -------------------------------------------------------

    def _counter(self, name):
        return self._counters.setdefault(name, [0])

    def _wrap(self, fn, layer, name):
        """A span around fn.  A call into the layer that is already
        running only counts: it cannot change any layer's self time, so
        it skips the two clock reads."""
        counter = self._counter(name)
        idx = self._index[layer]
        acc, state = self._self, self._state
        push, pop = self._stack.append, self._stack.pop
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counter[0] += 1
            if state[0] == idx:
                return fn(*args, **kwargs)
            now = clock()
            acc[state[0]] += now - state[1]
            push(state[0])
            state[0] = idx
            state[1] = now
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                acc[idx] += now - state[1]
                state[0] = pop()
                state[1] = now

        return _named(wrapper, fn, name)

    def _wrap_kernel(self, fn, name):
        counter = self._counter("kernels." + name)
        idx = self._index["kernels"]
        acc, state = self._self, self._state
        push, pop = self._stack.append, self._stack.pop
        clock = time.perf_counter
        stats = self._kernel
        is_mul = name == "poly_mul"

        def kernel(*args):
            counter[0] += 1
            if is_mul and (not args[0] or not args[1]):
                stats["mul_empty"] += 1
            now = clock()
            acc[state[0]] += now - state[1]
            push(state[0])
            state[0] = idx
            state[1] = now
            try:
                out = fn(*args)
            finally:
                now = clock()
                acc[idx] += now - state[1]
                state[0] = pop()
                state[1] = now
            size = len(out)
            stats["terms_out"] += size
            if size > stats["max_terms"]:
                stats["max_terms"] = size
            return out

        return _named(kernel, fn, name)

    def _wrap_inclusive(self, fn, layer, name):
        """A span whose whole duration, children included, is also kept."""
        inner = self._wrap(fn, layer, name)
        self._inclusive[name] = 0.0
        inclusive = self._inclusive
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                inclusive[name] += clock() - t0

        return _named(timed, fn, name)

    def _patch(self, owner, attr, value):
        # a class keeps its raw descriptor, so classmethods come back intact
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    # -- install / uninstall ----------------------------------------------

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {}
        for layer in LAYERS[1:]:
            mods[layer] = importlib.import_module("homlie." + layer)
        kernels = mods["kernels"]
        every = [importlib.import_module("homlie"), *mods.values()]

        replace = {}  # id(original function) -> (original, wrapper)
        for name in KERNELS:
            fn = getattr(kernels, name)
            replace[id(fn)] = (fn, self._wrap_kernel(fn, name))
        for layer, mod in mods.items():
            if layer == "kernels":
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    full = f"{layer}.{name}"
                    wrap = self._wrap_inclusive if full in INCLUSIVE else self._wrap
                    replace[id(obj)] = (obj, wrap(obj, layer, full))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)

        # rebind every copy of a wrapped function, in every homlie module
        for mod in every:
            for name, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])
        for (layer, name), counter_name in PRIVATE.items():
            mod = mods[layer]
            fn = getattr(mod, name)
            self._patch(mod, name, self._wrap(fn, fn.__module__.rsplit(".", 1)[-1], counter_name))
        return self

    def _wrap_class(self, cls, layer):
        if issubclass(cls, BaseException):
            return
        for attr, obj in list(vars(cls).items()):
            if cls.__name__ == "Poly":
                # Poly's constructors and accessors (is_zero, const, ...)
                # take about as long as a wrapper; wrapped, they would
                # triple in cost, so only its arithmetic is a span
                wrap = attr in ARITH or attr == "partial"
            else:
                wrap = not attr.startswith("_") or attr == "__init__"
            if not wrap:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                wrapped = type(obj)(self._wrap(obj.__func__, layer, name))
            elif inspect.isfunction(obj):
                wrapped = self._wrap(obj, layer, name)
            else:
                continue
            self._patch(cls, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the root span ----------------------------------------------------

    def __enter__(self):
        if self._stack or self._state[0] != 0:
            raise RuntimeError("root span opened inside a traced call")
        self._root_start = self._state[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        now = time.perf_counter()
        self._self[0] += now - self._state[1]
        self._state[1] = now
        self._root_s += now - self._root_start
        return False

    # -- results ------------------------------------------------------------

    def calls(self, *names) -> int:
        return sum(self._counters.get(n, (0,))[0] for n in names)

    def calls_matching(self, prefix, suffixes=None) -> int:
        total = 0
        for name, (count,) in self._counters.items():
            if name.startswith(prefix) and (suffixes is None or name.rsplit(".", 1)[-1] in suffixes):
                total += count
        return total

    def summary(self) -> dict:
        """Everything the trace measured, for the run record."""
        return {
            "root_s": self._root_s,
            "self_s": dict(zip(LAYERS, self._self)),
            "inclusive_s": dict(self._inclusive),
            "calls": {n: c for n, (c,) in sorted(self._counters.items()) if c},
            "kernel": dict(self._kernel),
        }

    def metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json (without the
        check counts and the overhead, which the worker and the harness
        add)."""
        s = dict(zip(LAYERS, self._self))
        mul = self.calls("kernels.poly_mul")
        empty = self._kernel["mul_empty"]
        other = sum(s[m] for m in ("classical", "fixtures", "scenario", "cli", "report"))
        return {
            "kernels.self_s": s["kernels"],
            "kernels.self_share": s["kernels"] / self._root_s if self._root_s else 0.0,
            "kernels.calls": self.calls_matching("kernels."),
            "kernels.terms_out": self._kernel["terms_out"],
            "kernels.max_terms": self._kernel["max_terms"],
            "kernels.mul.calls": mul,
            "kernels.substitute.calls": self.calls("kernels.poly_substitute"),
            "kernels.mul.empty_operand": empty,
            "kernels.mul.useful_ratio": (mul - empty) / mul if mul else 1.0,
            "polyring.self_s": s["polyring"],
            "polyring.ops": self.calls_matching("polyring.Poly.", ARITH),
            "polyring.pullback.calls": self.calls(
                "polyring.AffineTwist.pullback", "polyring.AffineTwist.inverse_pullback"
            ),
            "exterior.self_s": s["exterior"],
            "exterior.graded_init.calls": self.calls("exterior.GradedElement.__init__"),
            "exterior.mat_det.calls": self.calls("exterior.poly_mat_det"),
            "exterior.twist_apply.calls": self.calls("exterior.SectionTwist.apply_graded"),
            "homalg.self_s": s["homalg"],
            "homalg.anchor_field.calls": self.calls("homalg.HomAlgebroid.anchor_field"),
            "calculus.self_s": s["calculus"],
            "calculus.differential.calls": self.calls("calculus.differential"),
            "calculus.schouten.calls": self.calls("calculus.schouten"),
            "courant.self_s": s["courant"],
            "courant.gram_inverse.calls": self.calls("courant.gram_inverse"),
            "courant.script_D.calls": self.calls("courant.CourantDouble.script_D"),
            "courant.jacobiator.calls": self.calls("courant.jacobiator"),
            "poisson.self_s": s["poisson"],
            "nijenhuis.self_s": s["nijenhuis"],
            "dirac.self_s": s["dirac"],
            "other.self_s": other,
            "scenario.load_s": self._inclusive["scenario.load_scenario"],
            "root.self_s": s[ROOT],
            "trace.root_s": self._root_s,
        }

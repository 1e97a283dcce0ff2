"""In-memory span tracing of the povmlab public API.

:func:`install` wraps every public function of the traced modules and
rebinds the wrapper in each povmlab namespace that holds the function, so
calls made from inside the library are traced as well. Classes are not
rebound, because the library checks ``isinstance`` on them: their
``__post_init__`` (or, when they have none, ``__init__``) is wrapped
instead. Spans are appended to flat arrays and aggregated once, after the
timed loop.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = ("linalg", "povm", "spin", "mzi", "kerrqnd", "models", "cli")


class Tracer:
    """Flat span store: name id, start, end, parent span, case id, error."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.case = array("i")
        self.error = array("b")
        self._stack: list[int] = []
        self.case_id = -1
        self.operator_bytes = 0
        self.max_dim = 0

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.case.append(self.case_id)
        self.error.append(1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int, ok: bool):
        self.end[i] = time.perf_counter()
        self._stack.pop()
        if ok:
            self.error[i] = 0

    def call(self, name_id: int, fn, args, kwargs):
        i = self.open(name_id)
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            self.close(i, ok)

    def arrays(self):
        """Spans as numpy arrays, with self time computed: a span's duration
        minus the durations of its direct children."""
        n = len(self.name)
        name = np.frombuffer(self.name, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = np.frombuffer(self.end, count=n) - np.frombuffer(self.start, count=n)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        return {
            "name": name,
            "parent": parent,
            "case": np.frombuffer(self.case, dtype=np.int32, count=n),
            "error": np.frombuffer(self.error, dtype=np.int8, count=n),
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path):
        """Write every span (name, start, end, parent, case, error)."""
        n = len(self.name)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32, count=n),
            start=np.frombuffer(self.start, count=n),
            end=np.frombuffer(self.end, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
            case=np.frombuffer(self.case, dtype=np.int32, count=n),
            error=np.frombuffer(self.error, dtype=np.int8, count=n),
        )


def _wrap_function(tracer: Tracer, fn, name: str):
    name_id = tracer.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name_id, fn, args, kwargs)

    return traced


def _wrap_induced_a_mode(tracer: Tracer, fn, name: str):
    # the two methods are different algorithms; give each its own span name
    ids = {m: tracer.intern(f"{name}.{m}") for m in ("closed_form", "unitary")}
    other = tracer.intern(name)
    method_default = inspect.signature(fn).parameters["method"].default

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        method = kwargs.get("method", args[1] if len(args) > 1 else method_default)
        return tracer.call(ids.get(method, other), fn, args, kwargs)

    return traced


def _wrap_operator_init(tracer: Tracer, init, name: str):
    name_id = tracer.intern(name)

    @functools.wraps(init)
    def traced(self, *args, **kwargs):
        result = tracer.call(name_id, init, (self,) + args, kwargs)
        dim = self.mat.shape[0]
        tracer.operator_bytes += self.mat.nbytes
        if dim > tracer.max_dim:
            tracer.max_dim = dim
        return result

    return traced


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield attr, obj


def _public_classes(module):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and inspect.isclass(obj)
                and obj.__module__ == module.__name__):
            yield attr, obj


def install(tracer: Tracer):
    """Trace the povmlab API; returns a function that undoes it."""
    import povmlab

    mods = {m: importlib.import_module(f"povmlab.{m}") for m in MODULES}
    namespaces = [povmlab, *mods.values()]
    wrappers = {}
    undo = []
    for short, module in mods.items():
        for attr, fn in _public_functions(module):
            qual = f"{short}.{attr}"
            if qual == "kerrqnd.induced_a_mode_observable":
                wrappers[fn] = _wrap_induced_a_mode(tracer, fn, qual)
            else:
                wrappers[fn] = _wrap_function(tracer, fn, qual)
        for attr, cls in _public_classes(module):
            hook = "__post_init__" if "__post_init__" in vars(cls) else "__init__"
            if hook not in vars(cls):
                continue
            original = vars(cls)[hook]
            qual = f"{short}.{attr}"
            if qual == "linalg.Operator":
                wrapped = _wrap_operator_init(tracer, original, qual)
            else:
                wrapped = _wrap_function(tracer, original, qual)
            setattr(cls, hook, wrapped)
            undo.append((cls, hook, original))
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(ns, attr, wrappers[obj])
                undo.append((ns, attr, obj))

    def uninstall():
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return uninstall

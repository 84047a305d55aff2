"""Outside-in span tracing of the solver package.

:meth:`Tracer.install` imports every module of a package and replaces each
public function and public method defined in that package with a wrapper
that records a span: name, start, end and the span that was open when it
was called.  Every binding of a function is replaced, including the names
one module imports from another (``stepper.sample``,
``cli.march``) and functions stored in module-level dicts (``PRESETS``), so
calls made through those names are traced too.  A public function added
later is traced without editing this file.  Private helpers (a leading
underscore, such as the per-cell CSV formatter) and dunder methods stay
unwrapped, which keeps the overhead bounded.  :meth:`Tracer.uninstall`
puts the originals back, so traced and untraced iterations can alternate
in one process.

Spans are kept in memory, in flat arrays, until :meth:`Tracer.summary`
folds them into per-name call counts and self times; a span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
import types
from array import array


def _is_public(name: str) -> bool:
    return name.isidentifier() and not name.startswith("_")


def _assign(target, key: str, value) -> None:
    if isinstance(target, dict):
        target[key] = value
    else:
        setattr(target, key, value)


class Tracer:
    """Span recorder for one process; spans are cleared by :meth:`reset`."""

    def __init__(self):
        self.names: list[str] = []
        self._wrappers: dict[int, types.FunctionType] = {}
        self._stack: list[int] = [-1]
        self._patches: list[tuple] | None = None
        self.reset()

    def reset(self) -> None:
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def _wrap(self, fn: types.FunctionType, name: str) -> types.FunctionType:
        wrapper = self._wrappers.get(id(fn))
        if wrapper is not None:
            return wrapper
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1])
            self.span_end.append(0.0)
            stack.append(idx)
            self.span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                stack.pop()

        self._wrappers[id(fn)] = traced
        return traced

    def install(self, package: str) -> None:
        """Wrap the public callables of ``package`` and its submodules.

        The first call discovers what to wrap; later calls re-apply the same
        wrappers after :meth:`uninstall`.
        """
        if self._patches is None:
            self._patches = self._discover(package)
        for target, key, _, wrapped in self._patches:
            _assign(target, key, wrapped)

    def uninstall(self) -> None:
        """Put the original callables back."""
        for target, key, original, _ in self._patches or ():
            _assign(target, key, original)

    def _discover(self, package: str) -> list[tuple]:
        root = importlib.import_module(package)
        for info in pkgutil.walk_packages(root.__path__, package + "."):
            importlib.import_module(info.name)
        prefix = package + "."
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(prefix)]

        def own(obj) -> bool:
            mod = getattr(obj, "__module__", None) or ""
            return mod == package or mod.startswith(prefix)

        patches = {}

        def consider(target, key, value):
            fn = value.__func__ if isinstance(
                value, (staticmethod, classmethod)) else value
            if not (isinstance(fn, types.FunctionType) and own(fn)
                    and _is_public(fn.__name__)):
                return
            short = fn.__module__[len(prefix):] if fn.__module__.startswith(
                prefix) else fn.__module__
            wrapped = self._wrap(fn, f"{short}.{fn.__qualname__}")
            if fn is not value:
                wrapped = type(value)(wrapped)
            patches[(id(target), key)] = (target, key, value, wrapped)

        classes = set()
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                consider(namespace, key, value)
                if isinstance(value, dict) and value is not namespace:
                    for k, v in list(value.items()):
                        consider(value, k, v)
                elif isinstance(value, type) and own(value):
                    classes.add(value)
        for cls in classes:
            for key, value in list(vars(cls).items()):
                if _is_public(key):
                    consider(cls, key, value)
        return list(patches.values())

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name ``calls`` and ``self_s`` of the recorded spans."""
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * len(dur)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += dur[i]
        out: dict[str, dict[str, float]] = {}
        for i, name_id in enumerate(self.span_name):
            rec = out.setdefault(self.names[name_id],
                                 {"calls": 0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += dur[i] - child[i]
        return out

    def write_spans(self, path, origin: float) -> None:
        """Write the recorded spans as CSV, times relative to ``origin``."""
        lines = ["span,name,start_s,end_s,parent"]
        names = self.names
        for i, (n, p, s, e) in enumerate(zip(self.span_name, self.span_parent,
                                             self.span_start, self.span_end)):
            lines.append(f"{i},{names[n]},{s - origin:.9f},{e - origin:.9f},{p}")
        path.write_text("\n".join(lines) + "\n")

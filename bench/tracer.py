"""Per-layer tracing from outside the program.

The tracer wraps every public function of the traced qhj3d modules and
rebinds the wrapper under every name that refers to the function in any
loaded qhj3d module, so calls through ``from .x import f`` are seen too.
Nothing in the package is edited, and ``remove`` restores every binding.

Each traced call is a span. Per boundary the tracer keeps calls, busy time
(inclusive), self time (busy time minus the time of traced children),
exceptions raised by type, and calls by the nearest traced caller. Axis
evaluations (``AxisSolution.value`` / ``.derivative``) are only counted:
timing them would cost more than they do.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import time

PACKAGE = "qhj3d"
MODULES = ("scenario", "potentials", "schrodinger", "hj_core", "metric", "dynamics", "cli")
# Public methods traced as boundaries of their own. The second-order
# right-hand side is a closure; it calls the potential gradient once, which
# is how its evaluations are counted.
METHODS = (("potentials", "SeparablePotential", "gradient"),)
COUNTED = (("schrodinger", "AxisSolution", "value"), ("schrodinger", "AxisSolution", "derivative"))


class Tracer:
    def __init__(self):
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self.reset()

    def reset(self):
        self.stats = collections.defaultdict(lambda: [0, 0, 0])  # calls, busy ns, self ns
        self.exceptions = collections.Counter()  # (name, exception type)
        self.by_parent = collections.Counter()  # (name, nearest traced caller)
        self.counted = collections.Counter()

    # -- installation ------------------------------------------------------

    def install(self):
        modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in MODULES}
        loaded = [m for name, m in sys.modules.items()
                  if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._span(f"{short}.{attr}", fn)
                for holder in loaded:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._rebind(holder, name, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            self._rebind(cls, meth, self._span(f"{short}.{cls_name}.{meth}", cls.__dict__[meth]))
        for short, cls_name, meth in COUNTED:
            cls = getattr(modules[short], cls_name)
            self._rebind(cls, meth, self._count(f"{short}.{cls_name}.{meth}", cls.__dict__[meth]))
        return self

    def remove(self):
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    def _rebind(self, holder, name, wrapper):
        self._restore.append((holder, name, getattr(holder, name)))
        setattr(holder, name, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.exceptions[(name, type(exc).__name__)] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                entry = self.stats[name]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                self.by_parent[(name, parent)] += 1

        return traced

    def _count(self, name, fn):
        counted = self.counted

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counted[name] += 1
            return fn(*args, **kwargs)

        return counting

    # -- results -----------------------------------------------------------

    def calls(self, name) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def seconds(self, name, kind="busy") -> float:
        if name not in self.stats:
            return 0.0
        return self.stats[name][1 if kind == "busy" else 2] * 1e-9

    def raised(self, name, exc_type) -> int:
        return self.exceptions[(name, exc_type)]

    def call_counts(self) -> dict:
        """Every count the tracer keeps; equal across runs of the same ops."""
        counts = {f"{name}.calls": entry[0] for name, entry in self.stats.items()}
        counts.update({f"{name}.raised.{exc}": n for (name, exc), n in self.exceptions.items()})
        counts.update({f"{name}.from.{parent}": n for (name, parent), n in self.by_parent.items()})
        counts.update(self.counted)
        return dict(sorted(counts.items()))

"""Span recorder that wraps a package's public functions at module boundaries.

Each public (non-underscore) function of a traced module, and each public
plain method of a class defined there, is replaced by a wrapper that
records a span: name, layer (the defining module), start, end, the span
that was open on the same thread when it started (its parent), and any
counts a hook extracts from the arguments.  The replacement is made in
every namespace that holds the function -- the defining module, every
module that imported it by name, and the package root -- so calls made
through any of those names are seen.  ``uninstall`` puts every original
back and checks that it did.

Spans started on a worker thread have no parent: the open-span stack is
per thread.  Recording can be switched off while wrappers stay installed,
so that result checks made between timed calls leave no spans.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from collections import defaultdict

_MARK = "_perfbench_original"


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "info")

    def __init__(self, name, layer, start, end, parent=None, info=None):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.info = info

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    return [
        s.duration - covered_length(children.get(id(s), ()), s.start, s.end)
        for s in spans
    ]


def package_modules(package) -> list:
    """The package and every loaded submodule of it."""
    prefix = package.__name__ + "."
    return [package] + [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix) and m]


def is_boundary(span: Span) -> bool:
    """True when the span enters its layer from outside (another layer,
    the caller of the package, or a worker thread)."""
    return span.parent is None or span.parent.layer != span.layer


class Tracer:
    """Install with ``with Tracer(package, layers, hooks) as t:``.

    ``layers`` names the submodules to wrap.  ``hooks`` maps a span name
    (``"layer.function"`` or ``"layer.Class.method"``) to a function of
    (args, kwargs) whose return value is stored as the span's ``info``.
    """

    def __init__(self, package, layers, hooks=None):
        self.package = package
        self.layers = tuple(layers)
        self.hooks = dict(hooks or {})
        self.spans: list = []
        self.recording = False
        self._local = threading.local()
        self._patches: list = []  # (owner, attribute, original)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install(self) -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in self.layers:
            mod = sys.modules[f"{self.package.__name__}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", layer, obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, fn in list(vars(obj).items()):
                        if attr.startswith("_") or not inspect.isfunction(fn):
                            continue
                        wrapped = self._wrap(f"{layer}.{name}.{attr}", layer, fn)
                        setattr(obj, attr, wrapped)
                        self._patches.append((obj, attr, fn))
        for mod in package_modules(self.package):
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._patches.append((mod, name, obj))

    def uninstall(self) -> None:
        self.recording = False
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        leftover = [
            f"{owner.__name__}.{name}"
            for owner, name, original in self._patches
            if getattr(owner, name) is not original
        ]
        self._patches = []
        if leftover:
            raise RuntimeError(f"tracer failed to restore {leftover}")

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        hook = self.hooks.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            info = hook(args, kwargs) if hook is not None else None
            span = Span(name, layer, 0.0, 0.0, stack[-1] if stack else None, info)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)  # list.append is atomic under the GIL

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, _MARK, fn)
        return wrapper


def wrapped_names(package) -> list:
    """Names in the package's modules that still hold a tracer wrapper."""
    found = []
    for mod in package_modules(package):
        for name, obj in vars(mod).items():
            if hasattr(obj, _MARK):
                found.append(f"{mod.__name__}.{name}")
            elif inspect.isclass(obj):
                found += [
                    f"{mod.__name__}.{name}.{a}"
                    for a, fn in vars(obj).items()
                    if hasattr(fn, _MARK)
                ]
    return found

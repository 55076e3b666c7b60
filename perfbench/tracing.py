"""Span tracing for the benchmark, installed from outside the library.

Each traced callable is replaced by a wrapper that records a span: its
duration, the time covered by child spans, and optional work counts taken
from its arguments and result.  A layer's self time is its span duration
minus the part covered by child spans.  A call nested directly inside a
span of the same name (a method calling its own alias, a product weight
evaluating its factors) is folded into that span.

Functions are replaced at every binding site: a name pulled in with
``from .muckenhoupt import safe_power_values`` is a separate module
attribute that wrapping the defining module alone would miss.  Methods are
replaced on the class, which catches every call.  Spans are aggregated in
memory per name; nothing is written to disk.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

ROOT = "trace.root"


@dataclass(frozen=True)
class Target:
    """One traced callable: ``owner.attr`` recorded under ``name``.

    ``owner`` is a module (the function is then replaced at every binding
    site) or a class (the method is replaced on the class).  ``count``
    maps ``(call, result)`` to extra counters for the span.
    """

    name: str
    owner: object
    attr: str
    count: Callable | None = None


@dataclass
class Stats:
    """Aggregated spans of one recording."""

    calls: dict = field(default_factory=lambda: defaultdict(int))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    counts: dict = field(default_factory=lambda: defaultdict(float))
    root_s: float = 0.0
    root_self_s: float = 0.0


class Call:
    """Arguments of one traced call, bound to parameter names on demand."""

    __slots__ = ("signature", "args", "kwargs")

    def __init__(self, signature, args, kwargs):
        self.signature, self.args, self.kwargs = signature, args, kwargs

    @property
    def arguments(self) -> dict:
        bound = self.signature.bind(*self.args, **self.kwargs)
        bound.apply_defaults()
        return bound.arguments


class _Frame:
    __slots__ = ("name", "child")

    def __init__(self, name: str):
        self.name = name
        self.child = 0.0


class Tracer:
    """Installs wrappers for ``targets``; records only inside ``record()``."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.missing: list[str] = []
        self._stack: list[_Frame] = []
        self._stats: Stats | None = None
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        for target in self.targets:
            if isinstance(target.owner, type):
                self._install_method(target)
            else:
                self._install_function(target)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _install_method(self, target: Target) -> None:
        raw = target.owner.__dict__.get(target.attr)
        if raw is None:
            self.missing.append(f"{target.owner.__qualname__}.{target.attr}")
            return
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(target, raw.__func__))
        else:
            wrapped = self._wrap(target, raw)
        setattr(target.owner, target.attr, wrapped)
        self._undo.append((target.owner, target.attr, raw))

    def _install_function(self, target: Target) -> None:
        original = getattr(target.owner, target.attr, None)
        if original is None:
            self.missing.append(f"{target.owner.__name__}.{target.attr}")
            return
        wrapped = self._wrap(target, original)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(module, key, wrapped)
                    self._undo.append((module, key, original))

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name, count = target.name, target.count
        signature = inspect.signature(fn) if count is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack or stack[-1].name == name:
                return fn(*args, **kwargs)
            frame = _Frame(name)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stack[-1].child += elapsed
                stats = tracer._stats
                stats.calls[name] += 1
                stats.self_s[name] += elapsed - frame.child
            if count is not None:
                call = Call(signature, args, kwargs)
                for key, value in count(call, result).items():
                    tracer._stats.counts[f"{name}.{key}"] += value
            return result

        return traced

    @contextmanager
    def record(self):
        """Record spans of the enclosed block under a root span."""
        if self._stack:
            raise RuntimeError("recordings do not nest")
        stats = Stats()
        root = _Frame(ROOT)
        self._stats, self._stack = stats, [root]
        start = time.perf_counter()
        try:
            yield stats
        finally:
            stats.root_s = time.perf_counter() - start
            stats.root_self_s = stats.root_s - root.child
            self._stats, self._stack = None, []

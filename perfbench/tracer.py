"""Span tracing of rsmeta's layers from outside the package.

``from .gradients import grad_wrt_theta`` gives ``rsmeta.metaopt`` its own
binding of the function, so wrapping it in ``rsmeta.gradients`` alone would
miss every call the optimizer makes. :class:`Patches` therefore replaces a
function at every attribute of an ``rsmeta`` module bound to it (methods at
their one class attribute) and puts every original back on :meth:`undo`.
:class:`Tracer` supplies the wrappers: one span per call, with start, end,
a parent link and an optional value the call returned.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time


class Span:
    __slots__ = ("name", "parent", "start", "end", "extra")

    def __init__(self, name, parent, start=0.0, end=0.0, extra=None):
        self.name = name
        self.parent = parent      # index of the enclosing span, -1 at the root
        self.start = start
        self.end = end
        self.extra = extra        # what the span's hook took from the call


def resolve(target: str):
    """``'pkg.module:Class.attr'`` -> (namespace owning attr, attr), or None."""
    mod_name, qualname = target.split(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


class Patches:
    """Rebinds functions inside the ``rsmeta`` package and undoes it."""

    def __init__(self):
        self._stack = []          # (owner, attr, previous value), in order
        self._first = {}          # (id(owner), attr) -> (owner, attr, original)

    def replace(self, target: str, make_wrapper) -> bool:
        """Wrap ``target`` wherever the package binds it.

        Returns False, patching nothing, when the target does not exist.
        """
        found = resolve(target)
        if found is None:
            return False
        owner, attr = found
        raw = vars(owner)[attr]
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(make_wrapper(raw.__func__)))
            else:
                self._set(owner, attr, make_wrapper(raw))
            return True
        wrapper = make_wrapper(raw)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "rsmeta" or name.startswith("rsmeta.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is raw:
                    self._set(mod, key, wrapper)
        return True

    def _set(self, owner, attr, value):
        prev = vars(owner)[attr]
        self._stack.append((owner, attr, prev))
        self._first.setdefault((id(owner), attr), (owner, attr, prev))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._stack:
            owner, attr, prev = self._stack.pop()
            setattr(owner, attr, prev)

    def unrestored(self) -> list:
        """Attributes that do not hold their original value again."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, orig in self._first.values()
                if vars(owner).get(attr) is not orig]


class Tracer:
    """Collects spans from the wrappers it makes; one tracer per traced pass."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrapper(self, name: str, hook=None):
        """A ``make_wrapper`` for :meth:`Patches.replace` that records spans.

        ``hook(args, kwargs, result)`` runs after the span has closed and
        its value is kept on the span.
        """
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = Span(name, open_[-1] if open_ else -1)
                open_.append(len(spans))
                spans.append(span)
                span.start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = clock()
                    open_.pop()
                if hook is not None:
                    span.extra = hook(args, kwargs, result)
                return result
            return traced
        return make


def children_of(spans) -> list:
    """For each span, the indices of its direct children in call order."""
    kids = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            kids[span.parent].append(i)
    return kids


def self_times(spans, kids=None) -> list:
    """Each span's duration minus the part of it that its children cover."""
    kids = children_of(spans) if kids is None else kids
    out = []
    for span, mine in zip(spans, kids):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in mine):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out

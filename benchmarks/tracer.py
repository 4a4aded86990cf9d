"""Span tracer for the benchmark's traced run, installed from outside the package.

Every public callable the benchmark measures is wrapped where callers look it
up: a function at every ``multlab.*`` module attribute bound to it, a method
(or classmethod) on its class, and a class by its ``__init__``.  A span holds
``(name, start, end, parent, item, attrs)``; spans stay in memory and are
written out once the run ends.  Nothing under ``src/`` changes.
"""

import contextlib
import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    item: int = -1
    attrs: dict = None


def _sdp_attrs(args, kwargs, result):
    """Solver counters: iterations, status, parameter count, input bytes."""
    c = args[0] if args else kwargs["c"]
    blocks = args[1] if len(args) > 1 else kwargs["blocks"]
    nbytes = np.asarray(c).nbytes + sum(
        np.asarray(f0).nbytes + np.asarray(fs).nbytes for f0, fs in blocks
    )
    return {
        "iterations": int(result.iterations),
        "status": result.status,
        "params": int(np.atleast_1d(np.asarray(c)).size),
        "input_bytes": int(nbytes),
    }


# Annotators add counters read from a call's arguments and result.
ANNOTATORS = {"cbnorm.sdp_solve": _sdp_attrs}


class Tracer:
    """Records nested spans for wrapped callables while installed."""

    def __init__(self):
        self.spans = []
        self.item = -1
        self._stack = []
        self._undo = []

    def _open(self, name):
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1, item=self.item)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a block."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def install(self, targets):
        """Wrap each target, named "<module>.<function>", "<module>.<Class>"
        (its constructor) or "<module>.<Class>.<method>".  A target that no
        longer exists raises at once."""
        for target in targets:
            self._install_one(target)

    def _install_one(self, target):
        parts = target.split(".")
        module_name = f"multlab.{parts[0]}"
        module = sys.modules.get(module_name)
        if module is None:
            raise LookupError(f"trace target {target}: module {module_name} not imported")
        obj = getattr(module, parts[1], None)
        if obj is None:
            raise LookupError(f"trace target {target}: {module_name}.{parts[1]} is gone")
        annotate = ANNOTATORS.get(target)
        if len(parts) == 2 and inspect.isfunction(obj):
            wrapper = self.wrap(target, obj, annotate)
            bound = [
                (mod, attr)
                for mod_name, mod in list(sys.modules.items())
                if mod_name == "multlab" or mod_name.startswith("multlab.")
                for attr, value in list(vars(mod).items())
                if value is obj
            ]
            for mod, attr in bound:
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, wrapper)
            return
        if not inspect.isclass(obj) or len(parts) > 3:
            raise LookupError(f"trace target {target}: not a function, class or method")
        attr = "__init__" if len(parts) == 2 else parts[2]
        raw = obj.__dict__.get(attr)
        if raw is None:
            raise LookupError(f"trace target {target}: {obj.__name__}.{attr} is gone")
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = type(raw)(self.wrap(target, raw.__func__, annotate))
        else:
            wrapper = self.wrap(target, raw, annotate)
        self._undo.append((obj, attr, raw))
        setattr(obj, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, item, attrs."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        [s.name, s.start, s.end, s.parent, s.item, s.attrs],
                        separators=(",", ":"),
                    )
                )
                fh.write("\n")


def span_stats(spans):
    """Per-name ``calls``, ``total_s`` and ``self_s``.

    ``total_s`` counts a span only when no ancestor has the same name, so a
    recursive call is not timed twice.  ``self_s`` is a span's duration minus
    the time its direct children cover; on one thread children never overlap.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    stats = {}
    for i, s in enumerate(spans):
        entry = stats.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = s.end - s.start
        entry["calls"] += 1
        entry["self_s"] += duration - covered[i]
        parent = s.parent
        while parent >= 0 and spans[parent].name != s.name:
            parent = spans[parent].parent
        if parent < 0:
            entry["total_s"] += duration
    return stats

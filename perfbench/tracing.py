"""Spans around secnc's public functions and counts of its field operations.

The tracer rebinds attributes from outside the package; nothing under
src/ changes.  A call inside a module resolves its callee through the
module's globals, and a name imported elsewhere (``from .network import
transmit`` in ``secnc/__init__`` or ``cli``) is a second binding of the
same function object, so install() replaces every binding of each
original in every loaded secnc module.  uninstall() restores them all.

Layers get spans: ``linalg``, ``rankmetric``, ``scheme``, ``network`` and
``audit``, for module-level functions and for public methods of the
classes defined there.  A generator function gets one span per next().
``gf`` gets no spans, because a span costs more than a field operation:
calls to the arithmetic methods of PrimeField and ExtField are counted
instead, nested calls (``sub`` calling ``add``) included, and their time
lands in the calling span's self time.

A span's self time is its duration minus the durations of its direct
children.  The benchmark opens a root span around the traced pass, so
the self times of all spans add up to the pass's wall time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

SPAN_LAYERS = ("linalg", "rankmetric", "scheme", "network", "audit")
FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "div", "pow", "frobenius")
FIELD_COUNTERS = {"PrimeField": "gf.base.ops", "ExtField": "gf.ext.ops"}

# Spans whose return value says whether the attempt was useful.
OUTCOMES = {
    "rankmetric.decode": lambda out: out.ok,
}

ROOT = "bench"


class Tracer:
    """Aggregates spans as they close; keeps the first `keep_spans` records.

    Aggregates are keyed by (span name, parent span name), so callers can
    ask how often one layer was entered from another.
    """

    def __init__(self, keep_spans: int = 0):
        self.keep_spans = keep_spans
        self.spans = []  # (span id, parent id, name, start, end)
        self.self_s = Counter()  # name -> seconds
        self.entries = Counter()  # (name, parent name) -> spans closed
        self.useful = Counter()  # (name, parent name) -> useful outcomes
        self.items = Counter()  # (name, parent name) -> items yielded
        self.ops = Counter()  # gf counter name -> calls
        self._stack = []
        self._ids = 0
        self._undo = []

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        self._ids += 1
        frame = [name, self._stack[-1] if self._stack else None,
                 time.perf_counter(), 0.0, self._ids]
        self._stack.append(frame)
        return frame

    def _close(self, frame, useful=False, item=False):
        """Pop `frame`, fold it into the aggregates, and return its duration."""
        end = time.perf_counter()
        self._stack.pop()
        name, parent, start, child_s, span_id = frame
        dur = end - start
        self.self_s[name] += dur - child_s
        if parent is not None:
            parent[3] += dur
            key = (name, parent[0])
        else:
            key = (name, None)
        self.entries[key] += 1
        if useful:
            self.useful[key] += 1
        if item:
            self.items[key] += 1
        if len(self.spans) < self.keep_spans:
            self.spans.append(
                (span_id, parent[4] if parent is not None else None, name,
                 start, end))
        return dur

    def root(self):
        """Context manager for the benchmark's own span around a traced pass."""
        return _RootSpan(self)

    def _span(self, name, fn):
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            useful = False
            try:
                result = fn(*args, **kwargs)
                useful = outcome is not None and bool(outcome(result))
                return result
            finally:
                self._close(frame, useful)

        return wrapper

    def _generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._iterate(name, fn(*args, **kwargs))

        return wrapper

    def _iterate(self, name, it):
        while True:
            frame = self._open(name)
            try:
                item = next(it)
            except StopIteration:
                self._close(frame)
                return
            except BaseException:
                self._close(frame)
                raise
            self._close(frame, item=True)
            yield item

    def _counter(self, key, fn):
        ops = self.ops

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ops[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._generator(name, fn)
        return self._span(name, fn)

    def _set(self, target, attr, value):
        self._undo.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def install(self):
        """Wrap the public functions and methods of every traced layer."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "secnc" or k.startswith("secnc."))]
        gf = sys.modules["secnc.gf"]
        for cls_name, key in FIELD_COUNTERS.items():
            cls = getattr(gf, cls_name)
            for op in FIELD_OPS:
                if op in vars(cls):
                    self._set(cls, op, self._counter(key, vars(cls)[op]))

        replaced = {}  # id(original function) -> (original, wrapper)
        for layer in SPAN_LAYERS:
            mod = sys.modules[f"secnc.{layer}"]
            public = [(attr, obj) for attr, obj in vars(mod).items()
                      if not attr.startswith("_")
                      and getattr(obj, "__module__", None) == mod.__name__]
            names = {attr for attr, obj in public if inspect.isfunction(obj)}
            for attr, obj in public:
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
            for attr, obj in public:
                if not inspect.isclass(obj):
                    continue
                for mname, mobj in list(vars(obj).items()):
                    if mname.startswith("_"):
                        continue
                    # a method is named after its layer, unless that clashes
                    name = (f"{layer}.{mname}" if mname not in names
                            else f"{layer}.{attr}.{mname}")
                    names.add(mname)
                    if inspect.isfunction(mobj):
                        self._set(obj, mname, self._wrap(name, mobj))
                    elif isinstance(mobj, staticmethod):
                        self._set(obj, mname,
                                  staticmethod(self._wrap(name, mobj.__func__)))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        return self

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- queries ------------------------------------------------------------

    def count(self, names, *, parents=None, table=None):
        """Spans (or `table` entries) of `names`, optionally only under `parents`.

        With parents=None, entries from a parent inside `names` are left
        out, so a group's count is the number of times it was entered
        from outside.
        """
        table = self.entries if table is None else table
        names = set(names)
        return sum(c for (name, parent), c in table.items()
                   if name in names and (parent in parents if parents is not None
                                         else parent not in names))

    def group_self_s(self, names):
        return sum(self.self_s[n] for n in names)

    def layer_names(self, layer):
        prefix = layer + "."
        return {n for n in self.self_s if n.startswith(prefix)}


class _RootSpan:
    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        self.frame = self.tracer._open(ROOT)
        return self

    def __exit__(self, *exc):
        self.wall_s = self.tracer._close(self.frame)
        return False

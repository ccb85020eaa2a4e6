"""In-memory spans around calls into the ``smithtile`` modules.

A span is (name, start, end, parent): ``parent`` is the index of the span
that was open when this one began, or -1.  ``install`` replaces each chosen
function, in every ``smithtile`` namespace that binds it, with a wrapper that
records a span and passes the call through unchanged; ``uninstall`` puts the
originals back.  Nothing here changes what the program computes: wrappers
return the original result and re-raise its exceptions.

A span's self time is its duration minus the part of it covered by its child
spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "smithtile"


class Tracer:
    """Span recorder.  ``names`` are the span names (``module.function``)
    that ``install`` wraps; ``observers`` maps a span name to a function
    ``(tracer, args, kwargs, result)`` that adds counts for that call."""

    def __init__(self, observers=None, names=()):
        self.spans = []          # [name, start, end, parent]
        self.counts = defaultdict(float)
        self.observers = dict(observers or {})
        self.names = frozenset(names)
        self._open = []          # indices of open spans, innermost last
        self._undo = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        top = self._open.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} is open")

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def wrap(self, fn, name: str):
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time per span name."""
        children = defaultdict(list)
        for i, (_name, _s, _e, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(i)
        out = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            if end is None:
                continue
            kids = sorted((max(start, self.spans[k][1]), min(end, self.spans[k][2]))
                          for k in children.get(i, ()) if self.spans[k][2] is not None)
            covered, reach = 0.0, start
            for a, b in kids:
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            out[name] += (end - start) - covered
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans,
                       "counts": dict(self.counts)}, fh)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap each function ``module.function`` in ``names`` wherever a
        smithtile module binds it (aliases included), ``CombMap.__init__``
        for ``map_core.CombMap``, and the scipy solvers that ``electrical``
        reaches through its ``spla`` module alias.  A name the program no
        longer defines is skipped."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name in self.names:
            short, attr = name.split(".", 1)
            fn = getattr(importlib.import_module(f"{PACKAGE}.{short}"), attr, None)
            if inspect.isfunction(fn):
                wrappers[id(fn)] = self.wrap(fn, name)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])

        cls = getattr(importlib.import_module(f"{PACKAGE}.map_core"), "CombMap", None)
        if cls is not None and "map_core.CombMap" in self.names:
            self._patch(cls, "__init__", self.wrap(cls.__init__, "map_core.CombMap"))

        electrical = importlib.import_module(f"{PACKAGE}.electrical")
        spla = getattr(electrical, "spla", None)
        if spla is not None:
            self._patch(electrical, "spla", _SolverProxy(spla, self))

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class _SolverProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``electrical``: counts CG
    iterations (through CG's own callback) and ``spsolve`` calls, and hands
    every other attribute through."""

    def __init__(self, spla, tracer: Tracer):
        self._spla = spla
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._spla, name)

    def cg(self, *args, callback=None, **kwargs):
        tracer = self._tracer

        def counting(xk):
            tracer.count("electrical.cg_iters")
            if callback is not None:
                callback(xk)

        return self._spla.cg(*args, callback=counting, **kwargs)

    def spsolve(self, *args, **kwargs):
        self._tracer.count("electrical.spsolve_fallbacks")
        return self._spla.spsolve(*args, **kwargs)

"""In-memory span tracer and the arithmetic on its spans.

A span is recorded around each call of a wrapped function: its name, its
start and end (``time.perf_counter_ns``), the index of the span that was
open when it started (-1 at top level) and an optional attribute computed
from the call's arguments and result.  Spans stay in a list until the
caller writes them out.  The tracer is single-threaded by design: the
benchmark runs every workload body in one thread.

Wrappers are installed at every place a name is bound (the defining
module, each module that imported it, and class aliases such as
``__radd__ = __add__``) and removed again by :meth:`Tracer.uninstall`.
They sit outside any ``functools.lru_cache``, so a cache hit is still one
(short) span and hit counts come from ``cache_info()``.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span, -1 at top level
    attr: Any = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Target(NamedTuple):
    """A function to trace: dotted path, span name, attribute extractor.

    The path names a module attribute (``pkg.mod.func``) or a class
    attribute (``pkg.mod.Class.method``).  ``attr(args, result)`` runs
    after a successful call and its value is stored on the span.
    """

    path: str
    span: str
    attr: Optional[Callable[[tuple, Any], Any]] = None


def resolve(path: str) -> tuple[Any, Any]:
    """(owner, current value) for a dotted path."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, getattr(owner, parts[-1])
    raise ValueError(f"cannot resolve {path!r}")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable,
             attr: Optional[Callable[[tuple, Any], Any]] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = Span(name, start, clock(), parent)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[idx] = Span(name, start, end, parent,
                              attr(args, result) if attr else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets: Iterable[Target],
                module_prefixes: Sequence[str]) -> None:
        """Wrap each target wherever it is bound.

        Every loaded module whose name starts with one of the prefixes is
        searched for attributes that are the original object, as is the
        owning class (for aliases).  Call :meth:`uninstall` to undo.
        """
        for target in targets:
            owner, original = resolve(target.path)
            wrapper = self.wrap(target.span, original, target.attr)
            owners = [owner] + [
                mod for name, mod in list(sys.modules.items())
                if mod is not None and mod is not owner
                and name.startswith(tuple(module_prefixes))
            ]
            for obj in owners:
                for key, value in list(vars(obj).items()):
                    if value is original:
                        self._patched.append((obj, key, original))
                        setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            obj, key, original = self._patched.pop()
            setattr(obj, key, original)

    def finished(self) -> list[Span]:
        """The recorded spans; raises if a span is still open."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        return list(self.spans)


# -- arithmetic on spans ------------------------------------------------------


def _union_ns(intervals: Iterable[tuple[int, int]]) -> int:
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times_ns(spans: Sequence[Span]) -> list[int]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    out = []
    for i, s in enumerate(spans):
        kids = children.get(i, ())
        clipped = [(max(lo, s.start_ns), min(hi, s.end_ns)) for lo, hi in kids
                   if hi > s.start_ns and lo < s.end_ns]
        out.append(s.duration_ns - _union_ns(clipped))
    return out


def outermost(spans: Sequence[Span]) -> list[bool]:
    """True for spans with no enclosing span of the same name.

    Summing the durations of outermost spans counts recursive calls
    (a cofactor determinant calling itself) once.
    """
    out = []
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        out.append(p < 0)
    return out


def coverage(spans: Sequence[Span], start_ns: int, end_ns: int) -> float:
    """Share of [start_ns, end_ns] covered by top-level spans."""
    if end_ns <= start_ns:
        return 0.0
    top = [(max(s.start_ns, start_ns), min(s.end_ns, end_ns))
           for s in spans if s.parent < 0 and s.end_ns > start_ns
           and s.start_ns < end_ns]
    return _union_ns(top) / (end_ns - start_ns)


# -- summary statistics -------------------------------------------------------


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (1..99), linear between order statistics.

    0.0 for no values; the value itself for one.
    """
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

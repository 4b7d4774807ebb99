"""In-memory span recorder that wraps the program's functions from outside.

A :class:`Tracer` replaces a function or method with a wrapper that
records one span per call: name, start and end (``perf_counter_ns``,
which is ``CLOCK_MONOTONIC`` and therefore comparable across the
processes of one host), the parent span and an optional request id.
The parent comes from a :class:`contextvars.ContextVar`, so nesting is
correct across ``await`` points: every asyncio task carries its own
current span.  Spans stay in a list until the run ends.

Nothing under ``src/`` knows it is traced: :meth:`Tracer.wrap` patches
the attribute on the owning class or module and :meth:`Tracer.remove`
puts every original back.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import sys
import time
from collections import Counter, defaultdict

#: request id of the generator request the current code runs for
REQUEST_ID: contextvars.ContextVar = contextvars.ContextVar(
    "pbench_request_id", default=None)

#: a span is the tuple (span id, name, start ns, end ns, parent id,
#: request id)


class Tracer:
    """Records spans and counts at wrapped boundaries."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "pbench_span", default=None)
        self._ids = itertools.count(1)
        #: named sample lists filled by hooks (e.g. per-request waits)
        self.samples: dict[str, list] = defaultdict(list)
        self._patched: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    # installing wrappers
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str | None, *, on_call=None,
             on_span=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_call(args, kwargs)`` runs before the call (counts);
        ``on_span(span, args, result)`` runs after it.  With ``name``
        None no span is kept and ``on_span`` still sees the timing.
        Coroutine functions get a coroutine wrapper so the span covers
        the await.
        """
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap descriptor {owner!r}.{attr}")
        owned = attr in vars(owner)
        wrapper = self._make_wrapper(original, name, on_call, on_span)
        self._patched.append((owner, attr, original, owned))
        setattr(owner, attr, wrapper)

    def wrap_function(self, module_name: str, attr: str, name: str,
                      **hooks) -> None:
        """Wrap a module-level function everywhere it is bound.

        ``from x import f`` copies the binding into the importing
        module, so every loaded module whose ``attr`` is the same
        function object gets the wrapper too.
        """
        original = getattr(sys.modules[module_name], attr)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] != "repro":
                continue
            if module.__dict__.get(attr) is original:
                self.wrap(module, attr, name, **hooks)

    def remove(self) -> None:
        """Restore every wrapped attribute (last wrapped first)."""
        while self._patched:
            owner, attr, original, owned = self._patched.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _make_wrapper(self, fn, name: str | None, on_call, on_span):
        current = self._current
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter_ns

        def enter(args, kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            if name is None:  # hook only: the caller's span stays current
                return None, None
            sid = next(ids)
            return sid, current.set(sid)

        def leave(sid, token, t0, args, result):
            end = clock()
            parent = None
            if token is not None:
                old = token.old_value
                parent = None if old is contextvars.Token.MISSING else old
                current.reset(token)
            span = (sid, name, t0, end, parent, REQUEST_ID.get())
            if name is not None:
                spans.append(span)
            if on_span is not None:
                on_span(span, args, result)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                sid, token = enter(args, kwargs)
                t0 = clock()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    leave(sid, token, t0, args, result)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, token = enter(args, kwargs)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                leave(sid, token, t0, args, result)
        return wrapper

    # ------------------------------------------------------------------
    # reading the record
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Forget recorded spans and counts (wrappers stay installed)."""
        self.spans.clear()
        self.counts.clear()
        self.samples.clear()


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of ``[lo, hi)`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Self time of every span: duration minus what its children cover.

    Children are the spans whose parent id is the span's id; their
    intervals are clipped to the parent and merged before subtracting,
    so overlapping children (concurrent tasks) are not counted twice.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for sid, _name, start, end, parent, _rid in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent_id, _rid in spans:
        kids = children.get(sid)
        covered = covered_ns(kids, start, end) if kids else 0
        out[sid] = (end - start) - covered
    return out


def totals_by_name(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total and self nanoseconds."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
    for span in spans:
        row = out[span[1]]
        row["calls"] += 1
        row["total_ns"] += span[3] - span[2]
        row["self_ns"] += selfs[span[0]]
    return dict(out)

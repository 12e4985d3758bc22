"""Outside-in tracing: spans around the program's public functions.

The benchmark never edits the program. It replaces a function with a
timing wrapper under the name its caller looks it up by (for example
``gridgap.search.sweep.adf_test``, the name the sweep calls), runs an
operation, and puts every original back. Spans live in memory as
``[name, start, end, parent]`` rows and are written out when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import time
from collections import Counter, defaultdict


class Tracer:
    """Records nested spans and counters while installed wrappers run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------------

    def span(self, name, func, *args, **kwargs):
        """Call ``func(*args, **kwargs)`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else -1
        row = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        try:
            return func(*args, **kwargs)
        finally:
            self._stack.pop()
            row[2] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, counters=None, key=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span.

        ``counters(args, kwargs, result)`` returns amounts to add to named
        counters; ``key(args, kwargs)`` returns a fingerprint of the inputs,
        so the ratio of distinct inputs to calls measures repeated work.
        """
        original = self._lookup(owner, attr)
        if original is None:
            return

        # bookkeeping runs inside the span, so it never lands in the
        # caller's self time
        def body(args, kwargs):
            if key is not None:
                self.keys[name].add(key(args, kwargs))
            result = original(*args, **kwargs)
            if counters is not None:
                self.counters.update(counters(args, kwargs, result))
            return result

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.span(name, body, args, kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def count(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts calls."""
        original = self._lookup(owner, attr)
        if original is None:
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _lookup(self, owner, attr: str):
        # a name the program no longer has is reported, not fatal: its
        # metrics then read zero and the run lists it as untraced
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
        return original

    def uninstall(self) -> None:
        """Put back every original function, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self):
        """Return and forget everything recorded since the last take."""
        recorded = (self.spans, self.counters, self.keys)
        self.spans, self.counters, self.keys = [], Counter(), defaultdict(set)
        return recorded


# -- arithmetic over recorded spans -----------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so a function
    that reaches itself again is not counted twice.
    """
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["s"] += end - start
    return table


def fingerprint(*parts) -> str:
    """Stable digest of arrays, frames and plain values."""
    h = hashlib.blake2b(digest_size=16)

    def feed(obj):
        if hasattr(obj, "tobytes"):
            h.update(str(obj.shape).encode())
            h.update(obj.tobytes())
        elif hasattr(obj, "values") and hasattr(obj, "names") and hasattr(obj, "dates"):
            feed(tuple(obj.names))
            feed((obj.dates[0], obj.dates[-1]) if obj.dates else ())
            feed(obj.values)
        elif isinstance(obj, (tuple, list)):
            h.update(b"(")
            for item in obj:
                feed(item)
            h.update(b")")
        elif isinstance(obj, dict):
            feed(sorted(obj.items()))
        else:
            h.update(repr(obj).encode())
        h.update(b";")

    for part in parts:
        feed(part)
    return h.hexdigest()

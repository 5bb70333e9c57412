"""In-memory span recorder that wraps calls into the program's layers.

The benchmark does not instrument the program: it replaces functions and
methods with wrappers from this file for the length of a traced pass, then
puts the originals back.  A function imported by name into other modules
(``from ..core import prune_tensor``) lives on in each importer's namespace,
so :meth:`Tracer.wrap_function` rebinds every ``repro`` module attribute that
holds the original, not only the defining one.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from stats import self_times


@dataclass
class Span:
    name: str
    span_id: int
    parent_id: int | None
    trace_id: int
    start: float
    end: float = 0.0


class Tracer:
    """Records spans (name, start, end, parent, trace id) per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record one span under the current one around a ``with`` block."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        span = Span(
            name,
            span_id,
            parent.span_id if parent else None,
            parent.trace_id if parent else span_id,
            time.perf_counter(),
        )
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    # -------------------------------------------------------------- wrapping
    def _wrapper(self, name: str, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def wrap_function(self, name: str, module: str, attr: str) -> None:
        """Trace ``module.attr`` as ``name`` wherever a module holds it."""
        original = getattr(sys.modules[module], attr)
        traced = self._wrapper(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, traced)

    def wrap_methods(self, name: str, package: str, method: str) -> None:
        """Trace ``method`` on every class under ``package`` defining it."""
        seen = set()
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(package):
                continue
            for cls in vars(mod).values():
                if (
                    inspect.isclass(cls)
                    and cls.__module__.startswith(package)
                    and method in vars(cls)
                    and cls not in seen
                ):
                    seen.add(cls)
                    original = vars(cls)[method]
                    self._restore.append((cls, method, original))
                    setattr(cls, method, self._wrapper(name, original))

    def unwrap(self) -> None:
        """Put every original function and method back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -------------------------------------------------------------- reading
    def calls(self, name: str) -> int:
        """Spans of ``name`` not nested directly in a span of the same name
        (a subclass method calling ``super()`` is one call, not two)."""
        names = {span.span_id: span.name for span in self.spans}
        return sum(
            1
            for span in self.spans
            if span.name == name and names.get(span.parent_id) != name
        )

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name."""
        own = self_times([(s.span_id, s.parent_id, s.start, s.end) for s in self.spans])
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + own[span.span_id]
        return totals

    def durations(self, name: str) -> list[float]:
        return [span.end - span.start for span in self.spans if span.name == name]

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(vars(span)) + "\n")


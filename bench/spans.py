"""In-memory span tracing around the calls the CLI makes into each layer.

The tracer wraps functions by rebinding the names that callers look up at
call time (`engine.run_filters`, `cli.render_trace`, ...), so the program
itself is untouched and runs at full speed when the wrappers are not
installed. A span is (name, start_ns, end_ns, parent, request): `parent`
is the index of the enclosing span in `Tracer.spans` (-1 for a root) and
`request` is the id of the discourse being processed. Counts are taken
from arguments and return values at the same boundaries, but only when
`settle()` is called after the request, so counting never lands inside a
timed span or a measured latency.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int
    request: int


class Tracer:
    """Records spans and counts; install() and uninstall() bracket a traced run."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter[str] = Counter()
        self.request_id = -1
        self._stack: list[int] = []
        self._observed: list[tuple[Callable, tuple, object]] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """`fn` timed as span `name`; `observe(counts, args, result)` runs
        at the next `settle()`."""
        spans, stack, observed = self.spans, self._stack, self._observed

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.request_id)
            if observe is not None:
                observed.append((observe, args, result))
            return result

        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        """`fn` with a call counter and no span, for calls too small to time."""
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def install(self, module: object, attr: str, replacement: Callable) -> None:
        self._installed.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def request(self, request: int, name: str, fn: Callable, *args):
        """Call `fn(*args)` as the root span of `request`."""
        self.request_id = request
        return self.wrap(name, fn)(*args)

    def settle(self) -> None:
        """Take the counts deferred while the last request ran."""
        for observe, args, result in self._observed:
            observe(self.counts, args, result)
        self._observed.clear()

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: [name, start_ns, end_ns, parent, request]."""
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(list(span)) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Per span: its duration minus the part of it that child spans cover.

    Children of one parent may overlap each other (they cannot in a
    single-threaded run, but the arithmetic does not rely on it): the
    covered part is the union of their intervals clipped to the parent.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start_ns, span.end_ns))
    out = []
    for index, span in enumerate(spans):
        covered = 0
        reach = span.start_ns
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end_ns)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end_ns - span.start_ns - covered)
    return out

"""Nestable tracing spans, collected per thread, task and process.

A *span* brackets one pipeline phase (``with span("route_row_links")``)
and records wall time, custom attributes, and ad-hoc counts.  Spans
nest: entering a span inside another makes it a child, so one traced
run yields a tree mirroring the pipeline's call structure
(build -> pack_channels -> ..., validate -> ..., measure -> ...).

Tracing is **off by default** and the disabled path is a single module
global check returning a shared no-op span, so instrumentation costs
~nothing unless :func:`enable` was called.

The open span lives in a :class:`contextvars.ContextVar`, so nesting
follows the flow of control: every thread starts with no span open,
and every asyncio task inherits the span open where it was created --
two requests multiplexed on one event loop build two separate trees.
A span opened with no open parent is a *root*: it lands in the forest
of the innermost :func:`collect` scope, else in the lock-guarded
process-global root list that :func:`trace_roots` returns.  Worker
processes ship their forests home as dicts, and
:func:`reroot_worker_spans` grafts each under the span open in the
parent.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "Span",
    "SpanRecord",
    "current_span_name",
    "enable",
    "disable",
    "enabled",
    "span",
    "collect",
    "attach",
    "reroot_worker_spans",
    "trace_roots",
    "reset_trace",
    "phase_totals",
    "format_span_tree",
    "span_names",
    "find_spans",
]

_enabled = False


@dataclass(slots=True)
class SpanRecord:
    """One completed (or in-flight) span: a node of the trace tree."""

    name: str
    attrs: dict
    start: float = 0.0
    duration: float = 0.0
    counts: dict = field(default_factory=dict)
    children: list["SpanRecord"] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start_s": self.start,
            "duration_ms": round(self.duration * 1e3, 4),
            "attrs": dict(self.attrs),
            "counts": dict(self.counts),
            "children": [c.as_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRecord":
        """Rebuild a span tree from its :meth:`as_dict` form.

        This is how worker processes ship their span forests home:
        serialize with ``as_dict``, rebuild in the parent, re-root
        under a per-worker span (see :func:`reroot_worker_spans`).
        """
        return cls(
            name=data["name"],
            attrs=dict(data.get("attrs", {})),
            start=float(data.get("start_s", 0.0)),
            duration=float(data.get("duration_ms", 0.0)) / 1e3,
            counts=dict(data.get("counts", {})),
            children=[cls.from_dict(c) for c in data.get("children", [])],
        )

    def self_time(self) -> float:
        """Duration minus time attributed to child spans."""
        return self.duration - sum(c.duration for c in self.children)

    def end(self) -> float:
        """``start + duration``: when the span closed (monotonic)."""
        return self.start + self.duration

    def walk(self):
        """Depth-first iterator over this span and every descendant."""
        stack = [self]
        while stack:
            rec = stack.pop()
            yield rec
            stack.extend(reversed(rec.children))


#: The innermost open :class:`Span` of the running thread or asyncio
#: task.  A new thread starts with none open; an asyncio task starts
#: with its creator's, so its spans nest under the span that spawned
#: it and never under a stranger's multiplexed on the same loop.
_current: ContextVar["Span | None"] = ContextVar(
    "repro_open_span", default=None
)
#: The root sink of the innermost :func:`collect` scope, or None for
#: the process-global root list.
_sink: ContextVar["list[SpanRecord] | None"] = ContextVar(
    "repro_span_sink", default=None
)
_roots: list[SpanRecord] = []
_roots_lock = threading.Lock()


def _add(rec: SpanRecord, parent: "Span | None") -> None:
    """Hang ``rec`` under ``parent``, else on the current root sink."""
    if parent is not None:
        parent._rec.children.append(rec)
        return
    sink = _sink.get()
    if sink is not None:
        sink.append(rec)
    else:
        with _roots_lock:
            _roots.append(rec)


class Span:
    """Context manager recording one :class:`SpanRecord`."""

    __slots__ = ("_rec", "_parent", "_closed")

    def __init__(self, name: str, attrs: dict):
        self._rec = SpanRecord(name=name, attrs=attrs)
        self._parent: Span | None = None
        self._closed = False

    def __enter__(self) -> "Span":
        self._rec.start = time.perf_counter()
        self._parent = _current.get()
        _add(self._rec, self._parent)
        _current.set(self)
        return self

    def __exit__(self, *exc) -> bool:
        self._rec.duration = time.perf_counter() - self._rec.start
        self._closed = True
        if _current.get() is self:
            # Reopen the nearest still-open ancestor; tolerates a span
            # closed out of order rather than corrupting the tree.
            parent = self._parent
            while parent is not None and parent._closed:
                parent = parent._parent
            _current.set(parent)
        return False

    def set(self, **attrs) -> "Span":
        self._rec.attrs.update(attrs)
        return self

    def add(self, key: str, n: int = 1) -> "Span":
        counts = self._rec.counts
        counts[key] = counts.get(key, 0) + n
        return self

    @property
    def record(self) -> SpanRecord:
        return self._rec


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):
        return self

    def add(self, key, n=1):
        return self


NOOP_SPAN = _NoopSpan()


def span(name: str, /, **attrs):
    """Open a span named ``name``; a no-op unless tracing is enabled.

    The name is positional-only, so ``name=...`` is a legal attribute
    (``span("build", name=spec.name)``).
    """
    if not _enabled:
        return NOOP_SPAN
    return Span(name, attrs)


@contextmanager
def collect() -> Iterator[list[SpanRecord]]:
    """Scope a root sink: ``with collect() as forest:``.

    Inside the block no span is open at first, and every span opened
    without an open parent lands in ``forest`` instead of the
    process-global root list -- one request's tree in the server, one
    job's forest in a pool worker.  Asyncio tasks created inside
    inherit the sink; a new thread starts outside it, like any other
    context variable.
    """
    forest: list[SpanRecord] = []
    sink_token = _sink.set(forest)
    span_token = _current.set(None)
    try:
        yield forest
    finally:
        _current.reset(span_token)
        _sink.reset(sink_token)


def attach(rec: SpanRecord) -> None:
    """Graft an already-built span tree into the live trace.

    The subtree lands under the innermost open span, else as a root
    of the current sink (see :func:`collect`).  This is the parent
    side of cross-process tracing; :func:`reroot_worker_spans` wraps
    a shipped worker forest and attaches it.
    """
    if _enabled:
        _add(rec, _current.get())


def reroot_worker_spans(
    worker_id: int, span_docs: list, *, wrapper: str = "sweep.worker",
    **attrs,
) -> None:
    """Attach a worker's serialized span forest to the live trace.

    The forest is rebuilt and wrapped in one ``wrapper`` span
    (``sweep.worker`` for sweep and fuzz workers, ``pool.worker`` for
    the server's pool) whose attrs carry ``worker_id`` (the exporters
    key process rows off it) plus anything the caller adds; timing is
    derived from the children (monotonic clocks are shared across
    ``fork``, so child timestamps line up with the parent's spans).
    No-op when tracing is disabled or the worker produced no spans.
    """
    if not span_docs or not _enabled:
        return
    children = [SpanRecord.from_dict(d) for d in span_docs]
    start = min((c.start for c in children if c.start), default=0.0)
    end = max((c.end() for c in children), default=start)
    attach(
        SpanRecord(
            name=wrapper,
            attrs={"worker_id": worker_id, **attrs},
            start=start,
            duration=max(0.0, end - start),
            children=children,
        )
    )


def current_span_name() -> str | None:
    """The innermost open span in this thread or task, or None.

    This is the span context the structured logger stamps on every
    record: a log line emitted inside ``with span("build")`` carries
    ``"span": "build"`` without the call sites threading anything
    through.  Returns None while tracing is disabled or outside any
    span.
    """
    if not _enabled:
        return None
    cur = _current.get()
    return cur._rec.name if cur is not None else None


def enable() -> None:
    """Turn on span collection (and the ``obs`` metric helpers)."""
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def enabled() -> bool:
    return _enabled


def trace_roots() -> list[SpanRecord]:
    """The process-global root spans (each a tree), in start order."""
    with _roots_lock:
        return list(_roots)


def reset_trace() -> None:
    """Drop the global roots and close this context's open spans.

    A forked worker calls this (via ``obs.reset``) so spans inherited
    from the parent's open context never swallow its own.  The
    enabled flag is untouched.
    """
    with _roots_lock:
        _roots.clear()
    _current.set(None)


def span_names(roots: list[SpanRecord] | None = None) -> set[str]:
    """The set of span names appearing anywhere in the forest.

    The request-trace tests compare these sets across worker counts:
    the names a request produces must not depend on which process
    built the layout.
    """
    names: set[str] = set()
    for root in roots if roots is not None else trace_roots():
        for rec in root.walk():
            names.add(rec.name)
    return names


def find_spans(
    name: str, roots: list[SpanRecord] | None = None
) -> list[SpanRecord]:
    """Every span named ``name`` in the forest, depth-first order."""
    found: list[SpanRecord] = []
    for root in roots if roots is not None else trace_roots():
        for rec in root.walk():
            if rec.name == name:
                found.append(rec)
    return found


def phase_totals(
    roots: list[SpanRecord] | None = None,
) -> dict[str, dict]:
    """Aggregate the span forest by span name.

    Returns ``{name: {"calls", "total_s", "self_s"}}`` where ``self_s``
    excludes time spent in child spans -- the number a phase-timing
    breakdown should rank by.
    """
    totals: dict[str, dict] = {}

    def visit(rec: SpanRecord) -> None:
        t = totals.setdefault(
            rec.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        t["calls"] += 1
        t["total_s"] += rec.duration
        t["self_s"] += rec.self_time()
        for c in rec.children:
            visit(c)

    for r in roots if roots is not None else trace_roots():
        visit(r)
    return totals


def format_span_tree(
    roots: list[SpanRecord] | None = None, *, indent: str = "  "
) -> str:
    """Render the span forest as indented ``name  time  attrs`` lines."""
    lines: list[str] = []

    def visit(rec: SpanRecord, depth: int) -> None:
        extras = []
        if rec.attrs:
            extras.append(
                " ".join(f"{k}={v}" for k, v in sorted(rec.attrs.items()))
            )
        if rec.counts:
            extras.append(
                " ".join(f"{k}:{v}" for k, v in sorted(rec.counts.items()))
            )
        suffix = ("  [" + "; ".join(extras) + "]") if extras else ""
        lines.append(
            f"{indent * depth}{rec.name}  {rec.duration * 1e3:.2f}ms{suffix}"
        )
        for c in rec.children:
            visit(c, depth + 1)

    for r in roots if roots is not None else trace_roots():
        visit(r, 0)
    return "\n".join(lines)

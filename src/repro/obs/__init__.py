"""repro.obs: tracing, metrics, and machine-readable run reports.

Zero-dependency observability for the layout pipeline:

* :func:`span` -- nestable timing spans with attributes and counts,
  collected into a tree by a thread-safe in-process collector
  (:mod:`repro.obs.trace`);
* :func:`count` / :func:`observe` / :func:`gauge` -- named counters,
  histograms, and gauges in a process-wide registry
  (:mod:`repro.obs.metrics`);
* :class:`RunReport` -- a JSON document capturing spec, layer budget,
  metrics snapshot, span tree, and environment
  (:mod:`repro.obs.report`).

Everything is **off by default**: ``span`` returns a shared no-op and
the helpers return immediately, so instrumented hot paths pay one
boolean check.  ``enable()`` turns collection on (the CLI does this
for ``--trace`` / ``--report`` and for ``python -m repro stats``).

Usage::

    from repro import obs

    obs.enable()
    with obs.span("build", layers=4) as sp:
        ...
        sp.add("wires", 128)
    obs.count("builder.wires_routed", 128)
    report = obs.collect_report("my-run", layers=4)
    report.write("run.json")
"""

from repro.obs import trace as _trace
from repro.obs import logging  # noqa: F401  (structured JSONL logger)
from repro.obs import live  # noqa: F401  (heartbeats, watchdog, watch)
from repro.obs import context  # noqa: F401  (trace-context propagation)
from repro.obs import slo  # noqa: F401  (latency objectives, burn rate)
from repro.obs.context import (
    RequestLog,
    RequestRecord,
    RequestTrace,
    TraceContext,
    current_context,
    new_context,
    parse_traceparent,
    use_context,
)
from repro.obs.export import (
    chrome_trace,
    jsonl_events,
    prometheus_text,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)
from repro.obs.report import (
    REPORT_SCHEMA_VERSION,
    RunReport,
    collect_report,
    environment_info,
    validate_report,
)
from repro.obs.trace import (
    Span,
    SpanRecord,
    attach,
    current_span_name,
    disable,
    enable,
    enabled,
    find_spans,
    format_span_tree,
    phase_totals,
    reset_trace,
    span,
    span_names,
    trace_roots,
)

__all__ = [
    # switch
    "enable",
    "disable",
    "enabled",
    "reset",
    # tracing
    "span",
    "Span",
    "SpanRecord",
    "attach",
    "trace_roots",
    "reset_trace",
    "phase_totals",
    "format_span_tree",
    "current_span_name",
    "span_names",
    "find_spans",
    # trace context + request telemetry
    "context",
    "TraceContext",
    "RequestTrace",
    "RequestLog",
    "RequestRecord",
    "new_context",
    "parse_traceparent",
    "current_context",
    "use_context",
    # SLO tracking
    "slo",
    # live telemetry
    "logging",
    "live",
    # exporters
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "jsonl_events",
    "write_jsonl",
    "prometheus_text",
    "write_prometheus",
    # metrics
    "count",
    "observe",
    "gauge",
    "registry",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    # reports
    "RunReport",
    "collect_report",
    "environment_info",
    "validate_report",
    "REPORT_SCHEMA_VERSION",
]


def count(name: str, n: int = 1) -> None:
    """Increment counter ``name`` by ``n`` (no-op while disabled)."""
    if _trace._enabled:
        registry().counter(name).inc(n)


def observe(
    name: str,
    value: float,
    bounds: tuple | None = None,
    *,
    exemplar: str | None = None,
) -> None:
    """Record ``value`` into histogram ``name`` (no-op while disabled).

    ``exemplar`` tags the receiving bucket with a trace id (last
    observation wins), surfaced in the Prometheus rendering and
    ``repro stats`` so a bucket links back to a concrete request.
    """
    if _trace._enabled:
        registry().histogram(name, bounds).observe(value, exemplar=exemplar)


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (no-op while disabled)."""
    if _trace._enabled:
        registry().gauge(name).set(value)


def reset() -> None:
    """Clear collected spans and all registry instruments."""
    reset_trace()
    registry().reset()

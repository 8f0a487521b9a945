"""Zero-dependency structured JSONL logging for the pipeline.

One JSON object per line, one file (or stream) per process tree.
Every record carries a level, an event name, a run id shared across
the parent and its workers, the emitting pid, the worker id (when
set), and the innermost open :mod:`repro.obs.trace` span -- so a log
line from deep inside a sweep worker is attributable without any call
site threading context through:

    {"ts": 1754650000.123, "level": "info", "event": "sweep.worker_start",
     "run": "a3f09c1b52de", "pid": 41712, "worker": 2,
     "span": "sweep.worker", "jobs": 5}

Like the rest of :mod:`repro.obs`, logging is **off by default** and
the disabled path is a single module-global check -- instrumented hot
paths (cache lookups, bench timers) pay ~nothing until
:func:`configure` installs a sink.  ``python -m repro <cmd>
--log-out FILE`` configures it for any CLI run; sweeps and fuzz runs
given a ``--run-dir`` default the sink to ``<run-dir>/log.jsonl`` so
``repro watch`` always has a log to tail.

Concurrency: files are opened in append mode and each record is one
``write()`` of one line, which POSIX ``O_APPEND`` keeps whole -- so a
parent and its forked workers can share one log file without
interleaving partial lines.  Forked children must call
:func:`fork_child` (the sweep/fuzz worker entries do) to get a fresh
file handle and lock; the sink also reopens itself if it notices a
pid change, as a belt-and-braces fallback.

The level threshold comes from ``configure(level=...)`` or the
``REPRO_LOG_LEVEL`` environment variable (default ``info``).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

from repro.obs import context as _context
from repro.obs import trace as _trace

__all__ = [
    "ENV_LEVEL",
    "LEVELS",
    "close",
    "configure",
    "configured",
    "debug",
    "error",
    "fork_child",
    "info",
    "level_no",
    "log",
    "new_run_id",
    "run_id",
    "set_worker_id",
    "warning",
]

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}
_LEVEL_NAMES = {v: k for k, v in LEVELS.items()}
DEFAULT_LEVEL = "info"
ENV_LEVEL = "REPRO_LOG_LEVEL"


def level_no(level: str | int) -> int:
    """Numeric threshold for a level name (or pass a number through)."""
    if isinstance(level, int):
        return level
    try:
        return LEVELS[str(level).strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown log level {level!r}; known: {', '.join(LEVELS)}"
        ) from None


def new_run_id() -> str:
    """A fresh 12-hex-digit run id (shared parent + workers)."""
    return os.urandom(6).hex()


class _Config:
    """The process-wide sink: path or stream, level, run context."""

    __slots__ = (
        "path", "stream", "level", "run_id", "worker_id",
        "_fh", "_pid", "_lock",
    )

    def __init__(self, path, stream, level, run_id, worker_id):
        self.path = None if path is None else os.fspath(path)
        self.stream = stream
        self.level = level
        self.run_id = run_id
        self.worker_id = worker_id
        self._fh = None
        self._pid = None
        self._lock = threading.Lock()

    def sink(self):
        if self.stream is not None:
            return self.stream
        pid = os.getpid()
        if self._fh is None or self._pid != pid:
            # (Re)open after fork: the inherited handle shares the
            # parent's buffer.  Line-buffered append keeps concurrent
            # writers' records whole (one line per write, O_APPEND).
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:
                    pass
            self._fh = open(self.path, "a", buffering=1)
            self._pid = pid
        return self._fh


_config: _Config | None = None


def configure(
    path: str | os.PathLike | None = None,
    *,
    stream=None,
    level: str | int | None = None,
    run_id: str | None = None,
    worker_id: int | None = None,
) -> str:
    """Install the process-wide log sink; returns the run id.

    ``path`` appends JSONL records to a file; ``stream`` writes to an
    open text stream instead (tests use ``io.StringIO``).  With
    neither, records go to ``sys.stderr``.  ``level`` defaults to the
    ``REPRO_LOG_LEVEL`` environment variable, then ``"info"``.
    Reconfiguring replaces the previous sink.
    """
    global _config
    if level is None:
        level = os.environ.get(ENV_LEVEL, DEFAULT_LEVEL)
    if path is None and stream is None:
        stream = sys.stderr
    close()
    _config = _Config(
        path, stream, level_no(level), run_id or new_run_id(), worker_id
    )
    return _config.run_id


def close() -> None:
    """Remove the sink (logging becomes a no-op again)."""
    global _config
    cfg, _config = _config, None
    if cfg is not None and cfg._fh is not None:
        try:
            cfg._fh.close()
        except OSError:
            pass


def configured() -> bool:
    return _config is not None


def run_id() -> str | None:
    """The active run id, or None while unconfigured."""
    return _config.run_id if _config is not None else None


def log_path() -> str | None:
    """The active sink's file path, or None (unconfigured or stream).

    Worker payloads carry it so a ``spawn``-started child can reopen
    the same sink.
    """
    return _config.path if _config is not None else None


def set_worker_id(worker_id: int | None) -> None:
    """Stamp subsequent records with ``worker_id`` (workers call this)."""
    if _config is not None:
        _config.worker_id = worker_id


def fork_child(worker_id: int | None = None) -> None:
    """Reset per-process sink state in a freshly forked child.

    The child gets a new lock (the inherited one may be held by a
    parent thread caught mid-write at fork time) and a new file
    handle, keeping the parent's path, level, and run id.  No-op when
    logging is unconfigured; stream sinks are dropped (a forked
    child's writes to an in-memory stream would be invisible anyway).
    """
    global _config
    cfg = _config
    if cfg is None:
        return
    if cfg.path is None:
        _config = None
        return
    _config = _Config(
        cfg.path, None, cfg.level, cfg.run_id,
        worker_id if worker_id is not None else cfg.worker_id,
    )


def log(level: str | int, event: str, /, **fields) -> None:
    """Emit one structured record; a no-op below the threshold.

    Never raises: an unserializable field falls back to ``str`` and a
    failed write is dropped -- telemetry must not take down the run
    it observes.
    """
    cfg = _config
    if cfg is None:
        return
    no = level_no(level)
    if no < cfg.level:
        return
    rec = {
        "ts": round(time.time(), 6),
        "level": _LEVEL_NAMES.get(no, str(no)),
        "event": event,
        "run": cfg.run_id,
        "pid": os.getpid(),
    }
    if cfg.worker_id is not None:
        rec["worker"] = cfg.worker_id
    span = _trace.current_span_name()
    if span is not None:
        rec["span"] = span
    ctx = _context.current_context()
    if ctx is not None:
        rec["trace"] = ctx.trace_id
    rec.update(fields)
    try:
        line = json.dumps(rec, default=str)
    except (TypeError, ValueError):  # pragma: no cover - default=str
        return
    try:
        with cfg._lock:
            cfg.sink().write(line + "\n")
    except (OSError, ValueError):
        pass


def debug(event: str, /, **fields) -> None:
    log("debug", event, **fields)


def info(event: str, /, **fields) -> None:
    log("info", event, **fields)


def warning(event: str, /, **fields) -> None:
    log("warning", event, **fields)


def error(event: str, /, **fields) -> None:
    log("error", event, **fields)

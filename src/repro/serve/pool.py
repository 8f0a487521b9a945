"""A persistent process pool executing layout jobs for the server.

The sweep runner (:mod:`repro.batch.runner`) forks one process per
job *slice* and lets it exit; a server cannot afford that -- workers
here are **long-lived**: forked once at startup (inheriting the warm
interpreter on POSIX, ``spawn`` elsewhere), fed jobs through a
``multiprocessing`` task queue, and answering on a shared result
queue.  Each task is one :func:`repro.batch.runner.run_sweep_job`
call, so a pool worker gets the exact same pure build + cache +
observability path as a batch sweep worker -- including the
per-process :class:`~repro.batch.cache.LayoutCache` handle, whose
content-addressed atomic writes make concurrent workers building the
same key safe (last write wins with identical bytes).

The asyncio side never blocks: :meth:`WorkerPool.submit` returns an
``asyncio.Future`` resolved by a dispatcher thread that drains the
result queue and hops onto the event loop with
``loop.call_soon_threadsafe``.

Workers heartbeat into the server's run directory (when one is kept),
so ``python -m repro watch RUNDIR`` works on a serve run exactly as
on a sweep run.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time

from repro import obs
from repro.batch.cache import LayoutCache
from repro.batch.runner import _mp_context, run_sweep_job
from repro.batch.spec import SweepJob
from repro.obs import context as ocontext
from repro.obs import live
from repro.obs import logging as olog

__all__ = ["POOL_DELAY_ENV", "WorkerPool"]

#: Test/CI hook: a float number of seconds every pool worker sleeps
#: before starting a job's build.  Lets tests hold a cold key in
#: flight long enough to deterministically observe request
#: coalescing; never set in production.
POOL_DELAY_ENV = "REPRO_POOL_DELAY_S"


def _pool_worker(wid: int, tasks, results, cfg: dict) -> None:
    """Worker process entry: loop on the task queue until sentinel."""
    olog.fork_child(wid)
    if not olog.configured() and cfg.get("log_path"):
        # spawn start method: module state did not survive the fork.
        olog.configure(
            cfg["log_path"], run_id=cfg.get("run_id"), worker_id=wid
        )
    cache = (
        LayoutCache(cfg["cache_dir"])
        if cfg.get("cache_dir") is not None
        else None
    )
    hb = None
    if cfg.get("run_dir"):
        hb = live.HeartbeatWriter(cfg["run_dir"], wid)
        hb.beat(force=True)
        hb.start_pulse()
    olog.info("serve.worker_start", worker_id=wid)
    delay_s = 0.0
    try:
        delay_s = float(os.environ.get(POOL_DELAY_ENV, "") or 0.0)
    except ValueError:
        pass
    while True:
        task = tasks.get()
        if task is None:
            break
        job = SweepJob(
            index=0,
            network=task["network"],
            layers=task["layers"],
            scheme=task["scheme"],
        )
        if hb is not None:
            hb.current_job = job.job_id
            hb.beat(force=True)
        if delay_s > 0:
            time.sleep(delay_s)
        # Rehydrate the request's trace context so log lines carry
        # its trace id, and collect this job's span forest in a
        # per-task sink (spans record while tracing is on, which the
        # server turns on before forking the pool).  The forest ships
        # home only for a sampled request -- the server reroots it
        # under the request's pool.build span -- and is dropped
        # otherwise, never reaching this worker's global roots.
        trace = task.get("trace")
        ctx = (
            ocontext.TraceContext.from_dict(trace)
            if trace is not None
            else None
        )
        with obs.collect() as forest, ocontext.use_context(ctx):
            try:
                res = run_sweep_job(job, cache, validate=cfg["validate"])
            except (Exception, SystemExit) as exc:  # noqa: BLE001 - to parent
                olog.error(
                    "serve.worker_error",
                    worker_id=wid,
                    job=job.job_id,
                    error=str(exc),
                )
                results.put(
                    {
                        "id": task["id"],
                        "ok": False,
                        "error": f"{type(exc).__name__}: {exc}",
                        "worker": wid,
                    }
                )
                continue
        sampled = ctx is not None and ctx.sampled
        results.put(
            {
                "id": task["id"],
                "ok": True,
                "result": res.as_dict(),
                "worker": wid,
                "spans": [r.as_dict() for r in forest] if sampled else None,
            }
        )
        if hb is not None:
            hb.job_tick(
                cache=cache.stats.as_dict() if cache is not None else {},
            )
    if hb is not None:
        hb.finish("done")
    olog.info("serve.worker_done", worker_id=wid)


class WorkerPool:
    """Long-lived layout-building processes behind an asyncio facade."""

    def __init__(
        self,
        workers: int = 1,
        *,
        cache_dir: str | os.PathLike | None = None,
        validate: bool = True,
        run_dir: str | os.PathLike | None = None,
    ):
        self.workers = max(1, int(workers))
        self.cache_dir = (
            None if cache_dir is None else os.fspath(cache_dir)
        )
        self.validate = validate
        self.run_dir = None if run_dir is None else os.fspath(run_dir)
        self._ctx = _mp_context()
        self._tasks = self._ctx.Queue()
        self._results = self._ctx.Queue()
        self._procs: list = []
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._lock = threading.Lock()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._dispatcher: threading.Thread | None = None
        self._closed = False

    def start(self, loop: asyncio.AbstractEventLoop) -> "WorkerPool":
        """Fork the workers and start the result dispatcher thread."""
        self._loop = loop
        cfg = {
            "cache_dir": self.cache_dir,
            "validate": self.validate,
            "run_dir": self.run_dir,
            "log_path": olog.log_path(),
            "run_id": olog.run_id(),
        }
        for wid in range(self.workers):
            p = self._ctx.Process(
                target=_pool_worker,
                args=(wid, self._tasks, self._results, cfg),
                name=f"repro-serve-{wid}",
                daemon=True,
            )
            p.start()
            olog.info(
                "serve.worker_spawn", worker_id=wid, worker_pid=p.pid
            )
            self._procs.append(p)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            daemon=True,
            name="repro-serve-dispatch",
        )
        self._dispatcher.start()
        return self

    def _dispatch_loop(self) -> None:
        while True:
            doc = self._results.get()
            if doc is None:
                break
            with self._lock:
                fut = self._pending.pop(doc["id"], None)
            if fut is None or self._loop is None:
                continue
            if doc.get("ok"):
                self._loop.call_soon_threadsafe(
                    _resolve,
                    fut,
                    {
                        "result": doc["result"],
                        "worker": doc.get("worker"),
                        "spans": doc.get("spans"),
                    },
                )
            else:
                self._loop.call_soon_threadsafe(
                    _reject, fut, RuntimeError(doc.get("error", "worker error"))
                )

    def submit(
        self,
        network: str,
        scheme: str,
        layers: int,
        *,
        trace: dict | None = None,
    ) -> asyncio.Future:
        """Queue one build; the future resolves to an envelope dict.

        The envelope carries ``result`` (the job-result dict),
        ``worker`` (which process built it), and ``spans`` (the
        worker's serialized span forest when ``trace`` named a
        sampled context, else ``None``).
        """
        if self._loop is None:
            raise RuntimeError("WorkerPool.start() not called")
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        fut = self._loop.create_future()
        with self._lock:
            task_id = self._next_id
            self._next_id += 1
            self._pending[task_id] = fut
        self._tasks.put(
            {
                "id": task_id,
                "network": network,
                "scheme": scheme,
                "layers": layers,
                "trace": trace,
            }
        )
        return fut

    def alive(self) -> int:
        return sum(1 for p in self._procs if p.is_alive())

    def snapshot(self) -> dict:
        with self._lock:
            pending = len(self._pending)
        return {
            "workers": self.workers,
            "alive": self.alive(),
            "pending": pending,
        }

    def close(self, timeout: float = 5.0) -> None:
        """Drain: sentinel every worker, join, stop the dispatcher."""
        if self._closed:
            return
        self._closed = True
        for _ in self._procs:
            self._tasks.put(None)
        deadline = time.monotonic() + timeout
        for p in self._procs:
            p.join(timeout=max(0.1, deadline - time.monotonic()))
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
        self._results.put(None)
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=2.0)
            self._dispatcher = None
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for fut in pending:
            if self._loop is not None:
                self._loop.call_soon_threadsafe(
                    _reject, fut, RuntimeError("worker pool closed")
                )


def _resolve(fut: asyncio.Future, value) -> None:
    if not fut.done():
        fut.set_result(value)


def _reject(fut: asyncio.Future, exc: BaseException) -> None:
    if not fut.done():
        fut.set_exception(exc)

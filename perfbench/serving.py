"""The ``repro serve`` workloads: a server process tree and its clients.

The server runs as ``python3 -m repro serve --workers 2`` in its own
process group, so the benchmark can signal it alone.  It is stopped with
SIGINT -- the daemon then closes its pool and joins both workers --
and every pid ever seen in its tree must be gone afterwards.  (SIGTERM
kills the daemon without closing the pool and leaves both workers
running, reparented to PID 1.)

Load comes from one process: two threads, each with one keep-alive
HTTP connection, in a closed loop (the next request goes out when the
previous answer is in).  Every answer is checked; nothing is retried.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import subprocess
import sys
import threading
import time

import common
import proctree

WORKERS = 2
CONNECTIONS = 2
#: Independent set-ups per warm run; ``setup_s`` is their median.
#: The first serves the timed window; the others come between the
#: window's parts and after it.
WARM_SETUPS = 3


class Server:
    """One ``repro serve`` process tree over a fresh cache directory."""

    def __init__(self, workdir: str, name: str, *, extra=(), cache_dir=None):
        self.cache_dir = cache_dir or os.path.join(workdir, f"{name}-cache")
        self.ready_file = os.path.join(workdir, f"{name}.ready")
        self.log_path = os.path.join(workdir, f"{name}.log")
        self.extra = list(extra)
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.seen: dict[int, dict] = {}

    def start(self, timeout: float = 60.0) -> float:
        """Launch and wait until listening; seconds taken."""
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--workers", str(WORKERS),
            "--cache-dir", self.cache_dir,
            "--ready-file", self.ready_file,
            *self.extra,
        ]
        t0 = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=common.ROOT, env=common.work_env(),
                stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                start_new_session=True,
            )
        deadline = time.monotonic() + timeout
        while not os.path.exists(self.ready_file):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    f"repro serve did not start; see {self.log_path}"
                )
            time.sleep(0.002)
        with open(self.ready_file) as fh:
            self.port = json.load(fh)["port"]
        return time.perf_counter() - t0

    def snapshot(self) -> dict:
        snap = proctree.snapshot(self.proc.pid)
        self.seen.update(snap)
        return snap

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return json.loads(resp.read())
        finally:
            conn.close()

    def stop(self) -> list[int]:
        """SIGINT the daemon; the pids of its tree still alive after."""
        if self.proc is None:
            return []
        survivors = proctree.stop(self.proc, self.seen)
        self.proc = None
        return survivors


class Conn:
    """One keep-alive connection; a transport error drops it."""

    def __init__(self, port: int):
        self.port = port
        self.http: http.client.HTTPConnection | None = None

    def post(self, path: str, body: bytes) -> tuple[int, bytes]:
        if self.http is None:
            self.http = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=180
            )
        try:
            self.http.request(
                "POST", path, body, {"Content-Type": "application/json"}
            )
            resp = self.http.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self) -> None:
        if self.http is not None:
            self.http.close()
            self.http = None


def layout_op(conn: Conn, network: str, layers: int, source: str,
              expected: common.Expected) -> dict:
    """One ``/v1/layout`` request, timed and checked.

    A failure is a transport error, a status other than 200, a missing
    or unexpected ``source``, or metrics that differ from the expected
    answer.
    """
    body = json.dumps({"network": network, "layers": layers}).encode()
    op = {"key": common.key_id(network, layers), "error": None}
    t0 = time.perf_counter()
    try:
        status, data = conn.post("/v1/layout", body)
    except (OSError, http.client.HTTPException) as exc:
        op["ms"] = (time.perf_counter() - t0) * 1000.0
        op["error"] = f"transport: {type(exc).__name__}: {exc}"
        return op
    t1 = time.perf_counter()
    op.update(t0=t0, t1=t1, ms=(t1 - t0) * 1000.0)
    if status != 200:
        op["error"] = f"status {status}"
        return op
    try:
        doc = json.loads(data)
    except ValueError:
        op["error"] = "unparseable body"
        return op
    op["elapsed_ms"] = doc.get("elapsed_ms")
    if doc.get("source") != source:
        op["error"] = f"source {doc.get('source')!r}, want {source!r}"
    elif not expected.metrics_ok(network, layers, doc.get("metrics")):
        op["error"] = "wrong metrics"
    return op


def closed_loop(port: int, feed: KeyFeed, source: str, expected,
                seconds: float | None = None, on_start=None):
    """``CONNECTIONS`` client threads drawing keys from ``feed``.

    Each thread sends its next request when the previous answer is in,
    until the feed runs dry or ``seconds`` have passed since the start.
    Returns ``(ops, t0, t1)``.
    """
    go = threading.Event()
    results: list[list[dict]] = [[] for _ in range(CONNECTIONS)]
    deadline = [float("inf")]

    def client(i):
        conn = Conn(port)
        go.wait()
        try:
            while time.perf_counter() < deadline[0]:
                key = feed.next()
                if key is None:
                    break
                results[i].append(layout_op(conn, *key, source, expected))
                feed.done(key)
        except Exception as exc:  # noqa: BLE001 - a client bug fails the run
            results[i].append({"key": f"connection {i}",
                               "error": f"client: {exc!r}"})
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(CONNECTIONS)
    ]
    for t in threads:
        t.start()
    if on_start is not None:
        on_start()
    t0 = time.perf_counter()
    if seconds is not None:
        deadline[0] = t0 + seconds
    go.set()
    for t in threads:
        t.join()
    t1 = time.perf_counter()
    return [op for ops in results for op in ops], t0, t1


class KeyFeed:
    """The keys every connection draws from, one shared stream.

    With ``rng`` the stream is endless: one seeded permutation of
    ``keys`` after another, so the mix is exactly uniform over the key
    set.  Without it each key comes once, in the given order.  A key
    still in flight on another connection is deferred, never sent
    twice at once -- the server would coalesce the second request
    instead of answering it from the cache.
    """

    def __init__(self, keys, rng: random.Random | None = None):
        self.keys = list(keys)
        self.rng = rng
        self.pending = [] if rng is not None else list(self.keys)
        self.inflight: set = set()
        self.lock = threading.Lock()

    def next(self):
        with self.lock:
            if self.rng is not None and len(self.pending) < len(self.keys):
                more = list(self.keys)
                self.rng.shuffle(more)
                self.pending.extend(more)
            for i, key in enumerate(self.pending):
                if key not in self.inflight:
                    del self.pending[i]
                    self.inflight.add(key)
                    return key
            return None

    def done(self, key) -> None:
        with self.lock:
            self.inflight.discard(key)


def warm_setup(workdir, name, expected, tally):
    """Launch a server on a fresh cache and pre-fill every warm key.

    Returns ``(server, seconds from launch to the end of the fill)``.
    """
    srv = Server(workdir, name)
    t0 = time.perf_counter()
    try:
        srv.start()
        ops, _, _ = closed_loop(
            srv.port,
            KeyFeed(common.warm_keys()),
            "built",
            expected,
            on_start=srv.snapshot,
        )
        srv.snapshot()
    except BaseException:
        tally.stopped(srv.stop())
        raise
    tally.ops(ops)
    return srv, time.perf_counter() - t0


def run_warm(workdir, seed, seconds, expected, tally) -> dict:
    """``WARM_SETUPS`` timed set-ups spread over the run, so their
    median samples the machine at several moments rather than in one
    burst; the first server serves the timed window."""
    setups = []

    def setup_only():
        srv, took = warm_setup(workdir, f"warm{len(setups)}", expected,
                               tally)
        tally.stopped(srv.stop())
        setups.append(took)

    srv, took = warm_setup(workdir, "warm0", expected, tally)
    setups.append(took)
    try:
        res = warm_window(srv, seed, seconds, expected, tally,
                          pauses=[setup_only] * (WARM_SETUPS - 2))
    finally:
        tally.stopped(srv.stop())
    setup_only()
    return {"setups": setups, **res}


def warm_window(srv, seed, seconds, expected, tally, pauses=()) -> dict:
    """The timed warm phase against a filled server, in
    ``len(pauses) + 1`` equal parts with a call of the next pause
    between two parts (outside the timed window)."""
    keys = common.warm_keys()
    feed = KeyFeed(keys, random.Random(f"warm-{seed}"))
    parts = len(pauses) + 1
    ops, window_s, cpu = [], 0.0, {}
    for k in range(parts):
        if k:
            pauses[k - 1]()
        before = {}

        def mark():
            before.update(srv.snapshot())

        part, t0, t1 = closed_loop(
            srv.port, feed, "cache", expected, seconds=seconds / parts,
            on_start=mark,
        )
        after = srv.snapshot()
        for pid, ms in proctree.cpu_between(before, after).items():
            cpu[pid] = cpu.get(pid, 0.0) + ms
        ops += part
        window_s += t1 - t0
    tally.ops(ops)
    stats = srv.get("/stats")
    tally.check(stats["hits"] == len(ops),
                f"/stats hits {stats['hits']} != {len(ops)} ops")
    tally.check(stats["built"] == len(keys),
                f"/stats built {stats['built']} != {len(keys)} keys")
    tally.check(stats["coalesced"] == 0,
                f"/stats coalesced {stats['coalesced']} != 0")
    return {
        "ops": ops,
        "window_s": window_s,
        "cpu": cpu,
        "rss_mb": proctree.peak_rss_mb(after),
        "stats": stats,
    }


def cold_round(workdir, name, order, expected, tally) -> dict:
    """One fresh server, every cold key asked once on two connections."""
    srv = Server(workdir, name)
    try:
        setup = srv.start()
        before = {}

        def mark():
            before.update(srv.snapshot())

        ops, t0, t1 = closed_loop(
            srv.port, KeyFeed(order), "built",
            expected, on_start=mark,
        )
        after = srv.snapshot()
        tally.ops(ops)
        stats = srv.get("/stats")
        tally.check(stats["built"] == len(order),
                    f"/stats built {stats['built']} != {len(order)} keys")
        tally.check(stats["hits"] == 0 and stats["coalesced"] == 0,
                    f"/stats hits {stats['hits']} coalesced "
                    f"{stats['coalesced']} on a cold round")
        return {
            "setup_s": setup,
            "ops": ops,
            "window_s": t1 - t0,
            "cpu": proctree.cpu_between(before, after),
            "server_pid": srv.proc.pid,
            "rss_mb": proctree.peak_rss_mb(after),
            "stats": stats,
        }
    finally:
        tally.stopped(srv.stop())


def cold_order(seed: int, round_no: int) -> list[tuple[str, int]]:
    keys = common.cold_keys()
    random.Random(f"cold-{seed}-{round_no}").shuffle(keys)
    return keys


def run_cold(workdir, seed, seconds, expected, tally) -> list[dict]:
    """Whole rounds until ``seconds`` of timed building have passed."""
    rounds = []
    while not rounds or sum(r["window_s"] for r in rounds) < seconds:
        n = len(rounds)
        rounds.append(
            cold_round(workdir, f"cold{n}", cold_order(seed, n),
                       expected, tally)
        )
    return rounds

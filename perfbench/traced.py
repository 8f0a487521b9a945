"""The traced run: per-layer metrics from the benchmark's own spans.

This run never feeds an end-to-end metric.  It replays a workload's
inputs through the public call of each layer -- ``parse_network``,
``LayoutCache.key_for`` / ``get`` / ``put``, ``dispatch_scheme``,
``validate_layout``, ``measure``, ``layout_to_json``, ``SweepRunner``,
``layout_link_delays``, ``simulate_fast`` -- and records one span
around each call: name, start, end, parent span, op id.  Served
requests become spans too, carrying the server's ``elapsed_ms``.
Spans stay in memory and are written to
``perfbench/.work/spans-<workload>-seed<seed>.json`` at the end.

A layer a workload does not exercise reads 0 on that workload.  The
run also times the same in-process ops with no spans, alternately
before and after the traced op, and reports the difference as
``trace.overhead_ms``.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager

import common
import proctree
import serving
import stats

#: Every per-layer metric with its unit, in BENCHMARK.json order.
LAYER_METRICS = {
    "serve.overhead_ms": "ms",
    "serve.elapsed_ms": "ms",
    "serve.trace_overhead_ms": "ms",
    "pool.overhead_ms": "ms",
    "serve.cpu_ms_per_op": "ms",
    "pool.cpu_ms_per_op": "ms",
    "serve.hits": "count",
    "serve.built": "count",
    "serve.coalesced": "count",
    "cache.key_for_ms": "ms",
    "cache.get_ms": "ms",
    "cache.put_ms": "ms",
    "cache.entry_kb": "KB",
    "topology.parse_ms": "ms",
    "core.build_ms": "ms",
    "grid.validate_ms": "ms",
    "core.measure_ms": "ms",
    "grid.to_json_ms": "ms",
    "runner.serial_ms": "ms",
    "runner.fanout_ms": "ms",
    "runner.jobs": "count",
    "routing.link_delay_ms": "ms",
    "routing.simulate_light_ms": "ms",
    "routing.simulate_heavy_ms": "ms",
    "routing.messages": "count",
    "trace.overhead_ms": "ms",
}

#: Span name of each in-process stage -> the per-layer metric it feeds.
STAGES = {
    "topology.parse": "topology.parse_ms",
    "cache.key_for": "cache.key_for_ms",
    "cache.get": "cache.get_ms",
    "core.build": "core.build_ms",
    "grid.validate": "grid.validate_ms",
    "core.measure": "core.measure_ms",
    "grid.to_json": "grid.to_json_ms",
    "cache.put": "cache.put_ms",
}


class Spans:
    """An in-memory span log: name, start, end, parent, op id."""

    def __init__(self):
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op=None, **attrs):
        rec = {
            "id": len(self.records),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": op,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.records.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, op=None, **attrs):
        """A span timed elsewhere (a client thread's request)."""
        self.records.append({
            "id": len(self.records), "name": name, "parent": None,
            "op": op, "start": start, "end": end, **attrs,
        })

    def ms(self, name: str, **match) -> list[float]:
        return [
            (r["end"] - r["start"]) * 1000.0
            for r in self.records
            if r["name"] == name
            and all(r.get(k) == v for k, v in match.items())
        ]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"schema": "perfbench.spans/v1",
                       "clock": "time.perf_counter seconds",
                       "spans": self.records}, fh)


class Layers:
    """Per-layer values with sample notes; unset layers read 0."""

    def __init__(self):
        self.values: dict[str, tuple[float, str]] = {}

    def set(self, name: str, value: float, note: str) -> None:
        assert name in LAYER_METRICS, name
        self.values[name] = (value, note)

    def median(self, name: str, samples: list[float]) -> None:
        if samples:
            self.set(name, stats.median(samples), f"median of n={len(samples)}")

    def emit(self, report) -> None:
        for name, unit in LAYER_METRICS.items():
            value, note = self.values.get(name, (0.0, "layer not exercised"))
            report.add(name, value, unit, note)


# -- in-process stage replay -------------------------------------------------


def entry_kb(cache_root: str, key: str) -> float:
    """Size of a cache entry file, ``<root>/<k[:2]>/<k>.json``."""
    return os.path.getsize(
        os.path.join(cache_root, key[:2], f"{key}.json")) / 1024.0


@contextmanager
def _untraced(*_args, **_kw):
    yield None


def replay_job(network, layers, cache, sp: Spans | None, op, expected,
               tally) -> tuple[float, float, float]:
    """One cold job through each layer's public call.

    With ``sp`` None the same calls run with no spans (the untraced
    twin used for the tracing overhead).  Returns ``(op ms, sum of the
    stage spans in ms, entry KB)``.
    """
    from repro.batch.spec import dispatch_scheme, parse_network
    from repro.core.metrics import measure
    from repro.grid.io import layout_to_json
    from repro.grid.validate import validate_layout

    span = sp.span if sp is not None else _untraced
    recs = []
    t0 = time.perf_counter()
    with span("job", op, key=common.key_id(network, layers)):
        with span("topology.parse", op) as r:
            recs.append(r)
            net = parse_network(network)
        with span("cache.key_for", op) as r:
            recs.append(r)
            key, key_doc = cache.key_for(net, scheme="auto", layers=layers)
        with span("cache.get", op) as r:
            recs.append(r)
            hit = cache.get(key, key_doc)
        with span("core.build", op) as r:
            recs.append(r)
            layout = dispatch_scheme(net, layers=layers, scheme="auto")
        with span("grid.validate", op) as r:
            recs.append(r)
            validate_layout(layout)
        with span("core.measure", op) as r:
            recs.append(r)
            metrics = measure(layout).as_dict()
        with span("grid.to_json", op) as r:
            recs.append(r)
            payload = layout_to_json(layout)
        with span("cache.put", op) as r:
            recs.append(r)
            cache.put(key, key_doc, payload, metrics)
    total = (time.perf_counter() - t0) * 1000.0
    stages = sum((r["end"] - r["start"]) * 1000.0 for r in recs if r)
    tally.attempted += 1
    tally.check(hit is None, f"{network}@L{layers}: replay cache not cold")
    tally.check(expected.metrics_ok(network, layers, metrics),
                f"{network}@L{layers}: replayed metrics differ")
    return total, stages, entry_kb(str(cache.root), key)


def replay_jobs(keys, workdir, name, sp, expected, tally, untraced_every):
    """Replay ``keys`` traced, and every ``untraced_every``-th key again
    without spans, alternately before and after the traced replay so
    neither variant always gets the warmer caches.  Returns ``(stage
    sums by key id, tracing overheads in ms, entry sizes in KB)``."""
    from repro.batch.cache import LayoutCache

    cache = LayoutCache(os.path.join(workdir, f"{name}-traced"))
    twin = LayoutCache(os.path.join(workdir, f"{name}-untraced"))
    sums, overheads, sizes = {}, [], []

    def plain(i, network, layers):
        ms, _, _ = replay_job(network, layers, twin, None, i, expected,
                              tally)
        return ms

    for i, (network, layers) in enumerate(keys):
        sampled = i % untraced_every == 0
        plain_first = sampled and (i // untraced_every) % 2 == 1
        if plain_first:
            plain_ms = plain(i, network, layers)
        traced, stages, kb = replay_job(network, layers, cache, sp, i,
                                        expected, tally)
        if sampled and not plain_first:
            plain_ms = plain(i, network, layers)
        sums[common.key_id(network, layers)] = stages
        sizes.append(kb)
        if sampled:
            overheads.append(traced - plain_ms)
    return sums, overheads, sizes


def stage_metrics(sp: Spans, layers: Layers) -> None:
    for span_name, metric in STAGES.items():
        layers.median(metric, sp.ms(span_name))


# -- workloads -----------------------------------------------------------------


def served_ops(sp: Spans, ops, phase: str) -> None:
    for i, op in enumerate(ops):
        if "t0" in op:
            sp.add("serve.request", op["t0"], op["t1"], op=f"{phase}{i}",
                   key=op["key"], phase=phase,
                   elapsed_ms=op.get("elapsed_ms"))


def serve_cpu(layers: Layers, cpu: dict, server_pid: int, n: int) -> None:
    server = cpu.get(server_pid, 0.0)
    pool = sum(v for pid, v in cpu.items() if pid != server_pid)
    layers.set("serve.cpu_ms_per_op", server / n,
               f"server process, n={n} ops")
    layers.set("pool.cpu_ms_per_op", pool / n,
               f"{len(cpu) - 1} pool workers, n={n} ops")


def serve_counts(layers: Layers, st: dict) -> None:
    for name in ("hits", "built", "coalesced"):
        layers.set(f"serve.{name}", st[name], "from /stats")


def traced_warm(seed, seconds, workdir, expected, tally, sp, layers):
    srv, _ = serving.warm_setup(workdir, "traced", expected, tally)
    try:
        nosample = serving.Server(workdir, "traced-nosample",
                                  extra=["--trace-sample", "0"],
                                  cache_dir=srv.cache_dir)
        try:
            nosample.start()
            phase = seconds * 0.15
            keys = common.warm_keys()
            sampled, unsampled, cpu = [], [], {}
            for rnd in range(2):
                before = srv.snapshot()
                ops, _, _ = serving.closed_loop(
                    srv.port,
                    serving.KeyFeed(keys, random.Random(f"warm-{seed}-{rnd}")),
                    "cache", expected, seconds=phase,
                )
                for pid, v in proctree.cpu_between(
                        before, srv.snapshot()).items():
                    cpu[pid] = cpu.get(pid, 0.0) + v
                sampled += ops
                ops, _, _ = serving.closed_loop(
                    nosample.port,
                    serving.KeyFeed(keys, random.Random(f"warm-{seed}-{rnd}")),
                    "cache", expected, seconds=phase,
                )
                unsampled += ops
            st = srv.get("/stats")
            backends = st["backends"]
        finally:
            tally.stopped(nosample.stop())
        tally.ops(sampled + unsampled)
        tally.check(st["hits"] == len(sampled) and st["coalesced"] == 0,
                    f"/stats hits {st['hits']} coalesced {st['coalesced']} "
                    f"after {len(sampled)} warm ops")
        served_ops(sp, sampled, "sampled")
        served_ops(sp, unsampled, "unsampled")
        ok = [op for op in sampled if not op["error"]]
        layers.median("serve.overhead_ms",
                      [op["ms"] - op["elapsed_ms"] for op in ok])
        layers.median("serve.elapsed_ms", [op["elapsed_ms"] for op in ok])
        p50_on = stats.median([op["ms"] for op in ok])
        p50_off = stats.median(
            [op["ms"] for op in unsampled if not op["error"]])
        layers.set("serve.trace_overhead_ms", p50_on - p50_off,
                   f"p50 at --trace-sample 1.0 (n={len(ok)}) minus "
                   f"p50 at 0 (n={len(unsampled)})")
        serve_cpu(layers, cpu, srv.proc.pid, len(sampled))
        serve_counts(layers, st)
        warm_replay(seed, seconds, srv.cache_dir, expected, tally, sp,
                    layers)
    finally:
        tally.stopped(srv.stop())
    return backends


def warm_replay(seed, seconds, cache_dir, expected, tally, sp, layers):
    """parse -> key_for -> get on the filled cache, traced and not."""
    from repro.batch.cache import LayoutCache
    from repro.batch.spec import parse_network

    cache = LayoutCache(cache_dir, readonly=True)
    keys = common.warm_keys()
    rng = random.Random(f"warm-replay-{seed}")
    overheads, sizes = [], {}

    def hit(i, network, L, span):
        t0 = time.perf_counter()
        with span("warm.hit", i, key=common.key_id(network, L)):
            with span("topology.parse", i):
                net = parse_network(network)
            with span("cache.key_for", i):
                key, doc = cache.key_for(net, scheme="auto", layers=L)
            with span("cache.get", i):
                entry = cache.get(key, doc)
        return key, entry, (time.perf_counter() - t0) * 1000.0

    deadline = time.perf_counter() + seconds * 0.3
    i = 0
    while not sizes or time.perf_counter() < deadline:
        order = list(keys)
        rng.shuffle(order)
        for network, L in order:
            # The untraced twin goes first on odd ops, second on even.
            if i % 2:
                plain = hit(i, network, L, _untraced)[2]
            key, entry, traced = hit(i, network, L, sp.span)
            if not i % 2:
                plain = hit(i, network, L, _untraced)[2]
            overheads.append(traced - plain)
            tally.attempted += 1
            tally.check(
                entry is not None
                and expected.metrics_ok(network, L, entry.metrics),
                f"{network}@L{L}: cached metrics differ")
            sizes[key] = entry_kb(cache_dir, key)
            i += 1
    stage_metrics(sp, layers)
    layers.set("cache.entry_kb", sum(sizes.values()) / len(sizes),
               f"mean over n={len(sizes)} entries")
    layers.median("trace.overhead_ms", overheads)


def traced_cold(seed, seconds, workdir, expected, tally, sp, layers):
    order = serving.cold_order(seed, 0)
    rnd = serving.cold_round(workdir, "traced", order, expected, tally)
    served_ops(sp, rnd["ops"], "cold")
    ok = [op for op in rnd["ops"] if not op["error"]]
    layers.median("serve.overhead_ms",
                  [op["ms"] - op["elapsed_ms"] for op in ok])
    layers.median("serve.elapsed_ms", [op["elapsed_ms"] for op in ok])
    serve_cpu(layers, rnd["cpu"], rnd["server_pid"], len(rnd["ops"]))
    serve_counts(layers, rnd["stats"])
    sums, overheads, sizes = replay_jobs(order, workdir, "cold", sp,
                                         expected, tally, untraced_every=3)
    layers.median("pool.overhead_ms",
                  [op["elapsed_ms"] - sums[op["key"]] for op in ok])
    stage_metrics(sp, layers)
    layers.set("cache.entry_kb", sum(sizes) / len(sizes),
               f"mean over n={len(sizes)} entries")
    layers.median("trace.overhead_ms", overheads)
    return rnd["stats"]["backends"]


def traced_sweep(seed, seconds, workdir, expected, tally, sp, layers):
    from repro.accel import backend_info
    from repro.batch.runner import SweepRunner
    from repro.batch.spec import standard_family_sweep

    spec = standard_family_sweep()
    jobs = spec.expand()
    layers.set("runner.jobs", len(jobs), "jobs per sweep")
    n = 0
    for workers, share in ((2, 0.35), (1, 0.2)):
        deadline = time.perf_counter() + seconds * share
        while True:
            with sp.span("runner.run", n, workers=workers):
                res = SweepRunner(
                    workers=workers,
                    cache_dir=os.path.join(workdir, f"sweep-{n}"),
                ).run(spec)
            tally.attempted += 1
            tally.check(expected.rows_ok(res.rows()),
                        f"sweep op {n} (workers={workers}): rows differ")
            n += 1
            if time.perf_counter() >= deadline:
                break
    par = stats.median(sp.ms("runner.run", workers=2))
    serial = sp.ms("runner.run", workers=1)
    layers.median("runner.serial_ms", serial)
    layers.set("runner.fanout_ms", par - stats.median(serial) / 2,
               f"p50 at 2 workers (n={len(sp.ms('runner.run', workers=2))})"
               f" minus half the serial p50")
    keys = [(j.network, j.layers) for j in jobs]
    _, overheads, sizes = replay_jobs(keys, workdir, "sweep", sp, expected,
                                      tally, untraced_every=1)
    stage_metrics(sp, layers)
    layers.set("cache.entry_kb", sum(sizes) / len(sizes),
               f"mean over n={len(sizes)} entries")
    layers.median("trace.overhead_ms", overheads)
    return backend_info()


def traced_traffic(seed, seconds, workdir, expected, tally, sp, layers):
    from repro.accel import backend_info
    from repro.batch.spec import parse_network
    from repro.core.schemes import layout_network
    from repro.routing import simulate_fast
    from repro.routing.paths import layout_link_delays

    net = parse_network(common.TRAFFIC_NETWORK)
    layout = layout_network(net, layers=common.TRAFFIC_LAYERS)
    for i in range(5):
        with sp.span("routing.link_delay", i):
            delays = layout_link_delays(layout)
    layers.median("routing.link_delay_ms", sp.ms("routing.link_delay"))
    schedule = common.traffic_schedule(seed, 30000)
    streams = {sid: common.make_stream(net, sid) for sid in set(schedule)}
    deadline = time.perf_counter() + seconds * 0.6
    messages, overheads, i = [], [], 0
    def plain_ms(sid):
        t0 = time.perf_counter()
        simulate_fast(net, streams[sid], link_delay=delays)
        return (time.perf_counter() - t0) * 1000.0

    while i < 3 or time.perf_counter() < deadline:
        sid = schedule[i]
        kind = sid.partition(":")[0]
        # Every other op also runs untraced, alternately before and
        # after the traced run (light and heavy streams both get twins).
        twin = i % 2 == 0
        plain_first = (i // 2) % 2 == 1
        if twin and plain_first:
            plain = plain_ms(sid)
        with sp.span("routing.simulate", i, kind=kind, stream=sid) as rec:
            res = simulate_fast(net, streams[sid], link_delay=delays)
        if twin and not plain_first:
            plain = plain_ms(sid)
        if twin:
            overheads.append((rec["end"] - rec["start"]) * 1000.0 - plain)
        messages.append(len(streams[sid]))
        tally.attempted += 1
        tally.check(expected.stream_ok(sid, common.result_digest(res)),
                    f"traffic op {i} ({sid}): result digest differs")
        i += 1
    layers.median("routing.simulate_light_ms",
                  sp.ms("routing.simulate", kind="light"))
    layers.median("routing.simulate_heavy_ms",
                  sp.ms("routing.simulate", kind="heavy"))
    layers.set("routing.messages", sum(messages) / len(messages),
               f"mean over n={len(messages)} ops")
    layers.median("trace.overhead_ms", overheads)
    return backend_info()


TRACED = {
    "warm": traced_warm,
    "cold": traced_cold,
    "sweep": traced_sweep,
    "traffic": traced_traffic,
}


def run(workload, seed, seconds, workdir, expected, tally, report):
    """The traced run of ``workload``; returns the active backends."""
    common.use_source()
    sp = Spans()
    layers = Layers()
    backends = TRACED[workload](seed, seconds, workdir, expected, tally, sp,
                                layers)
    layers.emit(report)
    path = os.path.join(common.WORK, f"spans-{workload}-seed{seed}.json")
    sp.write(path)
    print(f"  spans: {len(sp.records)} written to "
          f"{os.path.relpath(path, common.ROOT)}")
    return backends

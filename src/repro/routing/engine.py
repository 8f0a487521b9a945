"""Batched event engine: the fast path for traffic simulation.

:func:`simulate_fast` reproduces :func:`repro.routing.simulator.simulate`
field-for-field -- same ``SimulationResult``, same deterministic
lowest-index-wins link arbitration, same queue-depth accounting, same
busiest-link tie-break -- while replacing the oracle's per-packet heap
with a calendar queue of time buckets and per-link waiter heaps.

Why it is fast
--------------
The oracle parks every waiter back on the global event heap at the
link's free time, so releasing a link with ``Q`` waiters re-pops all
``Q`` of them, every cycle, until the queue drains: ``O(Q^2)`` heap
traffic per queue, which is exactly the regime (saturation) where the
paper's latency claims live.  The engine keeps one min-heap of waiting
message indices per link and wakes each link **once** per release, so
total event work is linear in delivered hops.  On top of that, large
time buckets (``_VEC_MIN`` movers or more) are processed as int64
array batches:
arrival detection, bulk latency-histogram updates, and grouping movers
by contended link (a stable argsort over the CSR link column) are
vectorized, then each group is arbitrated by the shared scalar helper.
Per-message and per-link *mutable* state stays in plain python lists
-- the arbitration loop is scalar element access, where list indexing
beats ndarray item access several-fold.  The batch bucket
classification itself is :func:`repro.accel.classify_bucket`; small
buckets take an in-place scalar loop instead, and both paths feed the
same arbitration and scheduling helpers.

Parity caveat: when a hop's advance delay is 0 (``router_overhead=0``
with zero-delay wires) a message hops several times inside one cycle
and the oracle interleaves those sub-steps by message index, which the
batch model replays in hop-waves instead.  Aggregate results still
agree, but the busiest-link tie-break may not; every delay model in
this repo (and ``router_overhead >= 1``) keeps advances positive, where
parity is exact.
"""

from __future__ import annotations

import heapq
from typing import Callable, Hashable

import numpy as _np

from repro import accel as _accel
from repro import obs
from repro.grid.layout import GridLayout
from repro.obs.metrics import Histogram
from repro.routing.paths import RoutingTable
from repro.routing.simulator import (
    LATENCY_BOUNDS,
    SimulationResult,
    _build_routes,
    _finalize_result,
    _hop_costs,
    _resolve_link_delay,
    _resolve_router,
)
from repro.topology.base import Network

__all__ = [
    "simulate_fast",
    "saturation_sweep",
    "knee_point",
]

Node = Hashable
Message = tuple[Node, Node]

#: Below this many message events in a time bucket the scalar loop wins
#: -- array setup costs more than it saves.
_VEC_MIN = 16


def _observe_batch(hist: Histogram, bounds_arr, values) -> None:
    """Bulk-exact equivalent of ``hist.observe(v)`` per int64 value.

    Count, sum, min, max and bucket placement land exactly where the
    oracle's one-at-a-time observations put them (integer latencies
    sum exactly in a float64 well below 2**53), so the serialized
    ``latency_hist`` stays byte-identical between engines.
    """
    hist.count += int(values.size)
    hist.total += float(values.sum())
    mn, mx = int(values.min()), int(values.max())
    if hist.min is None or mn < hist.min:
        hist.min = mn
    if hist.max is None or mx > hist.max:
        hist.max = mx
    pos = _np.searchsorted(bounds_arr, values, side="left")
    for p, c in zip(*_np.unique(pos, return_counts=True)):
        hist.buckets[int(p)] += int(c)


def simulate_fast(
    network: Network,
    messages: list[Message],
    *,
    layout: GridLayout | None = None,
    router: RoutingTable | Callable[[Node, Node], list] | None = None,
    link_delay: dict[tuple[Node, Node], int] | None = None,
    default_delay: int = 1,
    router_overhead: int = 1,
    mode: str = "store_forward",
    message_length: int = 1,
    max_cycles: int = 10_000_000,
) -> SimulationResult:
    """Drop-in fast replacement for :func:`repro.routing.simulator.simulate`.

    Same signature and semantics (see there for the parameter story).
    Results match the oracle field-for-field; the parity suite and the
    ``traffic`` fuzz stage enforce it.
    """
    link_delay = _resolve_link_delay(layout, link_delay)
    get_route = _resolve_router(network, router)
    routes, starts = _build_routes(messages, get_route)
    delay_of = _hop_costs(
        link_delay, default_delay, router_overhead, mode, message_length
    )

    n_msgs = len(routes)
    # Flatten routes to per-hop link ids (CSR layout).  Link ids are
    # assigned in first-encounter order over messages x hops; the
    # *result* ordering (busiest-link tie-break) instead follows the
    # first-acquisition sequence tracked during the run.
    link_index: dict[tuple, int] = {}
    link_pairs: list[tuple] = []
    flat: list[int] = []
    offsets = [0]
    for route in routes:
        prev = route[0]
        for v in route[1:]:
            pair = (prev, v)
            li = link_index.get(pair)
            if li is None:
                li = len(link_pairs)
                link_index[pair] = li
                link_pairs.append(pair)
            flat.append(li)
            prev = v
        offsets.append(len(flat))
    n_links = len(link_pairs)
    d_of = [0] * n_links
    busy_of = [0] * n_links
    for li, pair in enumerate(link_pairs):
        d, b = delay_of(*pair)
        # Plain python ints: the arbitration loop does arithmetic on
        # these per hop, and WireTable delays may arrive as np.int64.
        d_of[li] = int(d)
        busy_of[li] = int(b)
    nhops = [offsets[i + 1] - offsets[i] for i in range(n_msgs)]
    tail = message_length - 1 if mode == "cut_through" else 0

    # Mutable state lives in plain python lists: link arbitration is
    # scalar element access, and list indexing is several-fold cheaper
    # than ndarray item access.  Read-only int64 columns (routes,
    # delays, starts) back the batch path, which gathers from them
    # without touching python objects.
    hop = [0] * n_msgs
    free = [0] * n_links
    qlen = [0] * n_links
    load = [0] * n_links
    busy_time = [0] * n_links
    first_seq = [-1] * n_links
    flat_a = _np.asarray(flat, dtype=_np.int64)
    route_start_a = _np.asarray(offsets[:-1], dtype=_np.int64)
    nhops_a = _np.asarray(nhops, dtype=_np.int64)
    starts_a = _np.asarray(starts, dtype=_np.int64)
    wake_sched = [-1] * n_links
    queues: list[list[int]] = [[] for _ in range(n_links)]

    depth_hist: dict[int, int] = {}
    lat_hist = Histogram(LATENCY_BOUNDS)
    lats: list[int] = []
    makespan = 0
    active = n_msgs
    events = 0
    seq = 0
    new_first: dict = {}

    # Calendar queue: message and wake events live in per-time buckets;
    # a heap of distinct times (deduped by set) orders the batches.
    # Hot helpers bind their state through default args -- local slot
    # access beats closure-cell dereferences in the arbitration loop.
    msg_at: dict[int, list[int]] = {}
    wake_at: dict[int, list[int]] = {}
    times: list[int] = []
    in_heap: set[int] = set()

    def sched_msg(
        i, t, *, msg_at=msg_at, in_heap=in_heap, times=times,
        heappush=heapq.heappush,
    ):
        b = msg_at.get(t)
        if b is None:
            msg_at[t] = [i]
            if t not in in_heap:
                in_heap.add(t)
                heappush(times, t)
        else:
            b.append(i)

    def sched_wake(
        li, t, *, wake_sched=wake_sched, wake_at=wake_at, in_heap=in_heap,
        times=times, heappush=heapq.heappush,
    ):
        if wake_sched[li] == t:
            return
        wake_sched[li] = t
        b = wake_at.get(t)
        if b is None:
            wake_at[t] = [li]
            if t not in in_heap:
                in_heap.add(t)
                heappush(times, t)
        else:
            b.append(li)

    def resolve(
        li, group, t_now, *, queues=queues, free=free, qlen=qlen,
        load=load, busy_time=busy_time, first_seq=first_seq, hop=hop,
        busy_of=busy_of, d_of=d_of, depth_hist=depth_hist,
        new_first=new_first, sched_msg=sched_msg, sched_wake=sched_wake,
        heappop=heapq.heappop, heappush=heapq.heappush,
    ):
        """Arbitrate link ``li`` at ``t_now``.

        ``group`` holds this bucket's movers for the link in ascending
        message index.  Matches the oracle exactly: while the link is
        free, the lowest index among (queued waiters, new movers) wins;
        leftovers join the waiter heap, each recording the queue depth
        it found (its own slot included), exactly once per wait.
        """
        q = queues[li]
        gpos = 0
        glen = len(group)
        f = free[li]
        if f <= t_now and (q or glen):
            b = busy_of[li]
            nt = t_now + d_of[li]
            while f <= t_now and (q or gpos < glen):
                cand = group[gpos] if gpos < glen else None
                if q and (cand is None or q[0] < cand):
                    w = heappop(q)
                    qlen[li] -= 1
                else:
                    w = cand
                    gpos += 1
                f = t_now + b
                busy_time[li] += b
                load[li] += 1
                if first_seq[li] < 0 and li not in new_first:
                    new_first[li] = w
                hop[w] += 1
                sched_msg(w, nt)
            free[li] = f
        for k in range(gpos, glen):
            qlen[li] += 1
            depth = qlen[li]
            depth_hist[depth] = depth_hist.get(depth, 0) + 1
            heappush(q, group[k])
        if q:
            sched_wake(li, f)

    for i, s in enumerate(starts):
        sched_msg(i, int(s))

    heappop = heapq.heappop
    heappush = heapq.heappush
    with obs.span(
        "simulate.engine", messages=n_msgs, mode=mode,
        message_length=message_length,
    ) as sp:
        while active and times:
            t_now = heappop(times)
            in_heap.discard(t_now)
            movers_raw = msg_at.pop(t_now, None)
            wakes = wake_at.pop(t_now, None)
            events += (len(movers_raw) if movers_raw else 0) + (
                len(wakes) if wakes else 0
            )
            if events > max_cycles:
                raise RuntimeError("simulation exceeded max_cycles")
            new_first.clear()
            if wakes:
                for li in wakes:
                    wake_sched[li] = -1
            if movers_raw:
                movers_raw.sort()
            if movers_raw and len(movers_raw) >= _VEC_MIN:
                n_done, top, blats, groups = _accel.classify_bucket(
                    movers_raw, hop, t_now, tail,
                    nhops_a, route_start_a, flat_a, starts_a,
                )
                if n_done:
                    if top > makespan:
                        makespan = top
                    lats.extend(blats)
                    active -= n_done
                for li, group in groups:
                    resolve(li, group, t_now)
            elif movers_raw:
                # Scalar path: one pass, each mover handled in place.
                # Movers come sorted, so the first mover a link sees in
                # this bucket is the lowest index -- instant-acquire and
                # queue-join below reproduce grouped arbitration exactly
                # (later same-bucket movers find the link busy & queue).
                for i in movers_raw:
                    hp = hop[i]
                    if hp >= nhops[i]:
                        done = t_now + tail if nhops[i] else t_now
                        if done > makespan:
                            makespan = done
                        lats.append(done - starts[i])
                        active -= 1
                        continue
                    li = flat[offsets[i] + hp]
                    f = free[li]
                    if f > t_now:
                        # Busy link: join the waiter heap, record the
                        # depth found (own slot included), exactly once.
                        qlen[li] = depth = qlen[li] + 1
                        depth_hist[depth] = depth_hist.get(depth, 0) + 1
                        heappush(queues[li], i)
                        sched_wake(li, f)
                    elif not queues[li]:
                        # Free link, no waiters: uncontended acquire.
                        b = busy_of[li]
                        free[li] = t_now + b
                        busy_time[li] += b
                        load[li] += 1
                        if first_seq[li] < 0 and li not in new_first:
                            new_first[li] = i
                        hop[i] += 1
                        sched_msg(i, t_now + d_of[li])
                    else:
                        resolve(li, [i], t_now)
            if wakes:
                # A pending wake whose link is still free at t_now was
                # not serviced by this bucket's movers: its queue is
                # intact and non-empty, and the link was first-acquired
                # in an earlier bucket, so the head waiter wins
                # unconditionally -- no arbitration needed.  A link
                # already re-acquired this bucket (free > t_now) had its
                # queue arbitrated by resolve(), which re-scheduled the
                # next wake.
                for li in wakes:
                    if free[li] > t_now:
                        continue
                    q = queues[li]
                    b = busy_of[li]
                    if not q or not b:
                        # Zero busy time drains several waiters per
                        # cycle; keep that rarity in the general path.
                        resolve(li, [], t_now)
                        continue
                    w = heappop(q)
                    nq = qlen[li] - 1
                    qlen[li] = nq
                    free[li] = f = t_now + b
                    busy_time[li] += b
                    load[li] += 1
                    hop[w] += 1
                    sched_msg(w, t_now + d_of[li])
                    if nq:
                        sched_wake(li, f)
            # First use of each link this bucket gets its sequence
            # number in winner-index order -- the oracle inserts into
            # its link dicts in exactly that order at equal times.
            if new_first:
                for li, _w in sorted(
                    new_first.items(), key=lambda kv: kv[1]
                ):
                    first_seq[li] = seq
                    seq += 1
        sp.add("events", events)

    if active:
        raise RuntimeError("simulation ended with unfinished messages")

    # Latency observations are order-insensitive (count/sum/min/max and
    # bucket tallies all commute, and integer sums are exact in float64
    # far below 2**53), so one bulk pass lands byte-identical to the
    # oracle's per-arrival observations.
    if lats:
        _observe_batch(
            lat_hist,
            _np.asarray(LATENCY_BOUNDS, dtype=_np.int64),
            _np.asarray(lats, dtype=_np.int64),
        )

    used = sorted(
        (int(first_seq[li]), li) for li in range(n_links) if load[li] > 0
    )
    link_load: dict[tuple, int] = {}
    link_busy_time: dict[tuple, int] = {}
    for _s, li in used:
        pair = link_pairs[li]
        link_load[pair] = int(load[li])
        link_busy_time[pair] = int(busy_time[li])
    return _finalize_result(
        makespan=int(makespan),
        lat_hist=lat_hist,
        n_messages=n_msgs,
        link_load=link_load,
        link_busy_time=link_busy_time,
        depth_hist=depth_hist,
        events=events,
    )


# ---------------------------------------------------------------------------
# Saturation sweeps


def saturation_sweep(
    network: Network,
    *,
    rates: list[float],
    duration: int,
    workload: str = "uniform",
    seed: int = 0,
    engine: str = "fast",
    layout: GridLayout | None = None,
    router=None,
    link_delay=None,
    default_delay: int = 1,
    router_overhead: int = 1,
    mode: str = "store_forward",
    message_length: int = 1,
    workload_params: dict | None = None,
) -> list[dict]:
    """Offered-load vs latency curve: one simulation per rate.

    Returns one JSON-ready row per rate, sorted ascending:
    ``{"rate", "offered", "messages", "avg_latency", "p50", "p99",
    "max_latency", "makespan", "max_utilization"}`` where ``offered``
    is the measured injection rate (messages per node-cycle).  Feed the
    rows to :func:`knee_point` to locate the saturation knee.
    ``engine`` is ``"fast"`` (the default) or ``"oracle"``.
    """
    from repro.routing.simulator import simulate
    from repro.routing.traffic import make_workload

    if engine not in ("fast", "oracle"):
        raise ValueError(f"unknown engine {engine!r}")
    rows = []
    n_nodes = network.num_nodes
    for rate in sorted(rates):
        msgs = make_workload(
            workload, network, seed=seed, rate=rate, duration=duration,
            **(workload_params or {}),
        )
        kwargs = dict(
            layout=layout, router=router, link_delay=link_delay,
            default_delay=default_delay, router_overhead=router_overhead,
            mode=mode, message_length=message_length,
        )
        if engine == "fast":
            res = simulate_fast(network, msgs, **kwargs)
        else:
            res = simulate(network, msgs, **kwargs)
        rows.append({
            "rate": rate,
            "offered": (
                len(msgs) / (n_nodes * duration) if duration else 0.0
            ),
            "messages": len(msgs),
            "avg_latency": res.avg_latency,
            "p50": res.latency_p50,
            "p99": res.latency_p99,
            "max_latency": res.max_latency,
            "makespan": res.makespan,
            "max_utilization": res.max_utilization,
        })
    return rows


def knee_point(rows: list[dict], *, factor: float = 2.0) -> float | None:
    """The saturation knee of a :func:`saturation_sweep` curve.

    The knee is the first injection rate whose average latency exceeds
    ``factor`` times the zero-load latency (the curve's first rate with
    delivered traffic).  Returns that row's ``rate``, or ``None`` when
    the curve never knees in the measured range -- both outcomes are
    meaningful bench results.

    A degenerate curve -- empty, or with fewer than two rates that
    delivered any traffic -- has no interval to compare against the
    zero-load baseline, so it cleanly returns ``None`` instead of
    manufacturing a knee from a single point (a one-element
    ``--saturation`` list is the common way to get here).
    """
    delivered = [
        row
        for row in rows
        if row.get("messages") and row.get("avg_latency", 0) > 0
    ]
    if len(delivered) < 2:
        return None
    base = delivered[0]["avg_latency"]
    for row in delivered:
        if row["avg_latency"] > factor * base:
            return row["rate"]
    return None

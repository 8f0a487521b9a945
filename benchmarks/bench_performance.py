"""E7: the introduction's performance argument, quantified.

"...the maximum length of wires can be reduced by a factor of
approximately t [and] the maximum total length of wires along the
routing path ... leading to lower cost and/or higher performance."

Under a standard wire-delay model (repeatered linear delay, plus an
unbuffered RC variant), the multilayer layouts' shorter wires turn
directly into faster clocks and lower message latencies, while the
folded baseline's performance is pinned at the 2-layer level.

The file also hosts the pipeline's own performance gates: the sweep
engine's cache and worker rows, and before/after rows for the two
measured hot loops (the exact-cutwidth DP inner scan and the
validator's node-interference sweep), each timed against a reference
reimplementation of the pre-optimization algorithm kept here.
"""

import bisect
import os
import time
from collections import defaultdict

from repro.bench.harness import timed_median
from repro.core import layout_hypercube
from repro.core.delay import DelayModel, performance
from repro.core.folding import fold_layout


def test_clock_and_latency_vs_layers(benchmark, report):
    base = layout_hypercube(10, layers=2, node_side="min")
    base_rep = performance(base, max_sources=8)
    rows = []
    for L in (2, 4, 8, 16):
        lay = layout_hypercube(10, layers=L, node_side="min")
        rep = performance(lay, max_sources=8)
        folded_rep = performance(fold_layout(base, L), max_sources=8)
        rows.append([
            L,
            f"{rep.clock_period:.0f}",
            f"{base_rep.clock_period / rep.clock_period:.2f}",
            f"{base_rep.clock_period / folded_rep.clock_period:.2f}",
            f"{rep.worst_latency:.0f}",
            f"{base_rep.worst_latency / rep.worst_latency:.2f}",
            f"{base_rep.avg_latency / rep.avg_latency:.2f}",
        ])
    report(
        "E7a: 10-cube clock period and message latency vs L "
        "(linear wire delay; folding stays at 1.00x)",
        ["L", "clock", "clock speedup", "clock speedup (fold)",
         "worst latency", "latency speedup", "avg speedup"],
        rows,
    )
    benchmark.pedantic(
        performance, args=(base,), kwargs={"max_sources": 8},
        rounds=1, iterations=1,
    )


def test_rc_wires_amplify(report, benchmark):
    rc = DelayModel(alpha=0.0, beta=0.05, router_delay=20.0)
    rows = []
    base_rep = None
    for L in (2, 4, 8):
        lay = layout_hypercube(10, layers=L, node_side="min")
        rep = performance(lay, rc, max_sources=4)
        if base_rep is None:
            base_rep = rep
        rows.append([
            L,
            f"{rep.max_wire_delay:.0f}",
            f"{base_rep.max_wire_delay / max(rep.max_wire_delay, 1e-9):.2f}",
            f"{base_rep.clock_period / rep.clock_period:.2f}",
        ])
    report(
        "E7b: unbuffered RC wires -- quadratic delay makes the L/2 wire "
        "reduction a ~(L/2)^2 delay win",
        ["L", "max wire delay", "delay ratio", "clock speedup"],
        rows,
    )
    benchmark(performance, layout_hypercube(8, node_side="min"), rc)


# ---------------------------------------------------------------------------
# E7c/E7d: sweep engine -- cache and worker rows


def test_sweep_cache_cold_vs_warm(report, tmp_path):
    """A cache-hit sweep must beat a cold sweep by >= 5x.

    Hits skip build, validation, *and* measurement -- the stored
    metrics come back directly -- so the warm pass is bounded by key
    hashing and one small JSON read per job.
    """
    from repro.batch import SweepRunner, standard_family_sweep

    spec = standard_family_sweep()
    cdir = tmp_path / "cache"

    t0 = time.perf_counter()
    cold = SweepRunner(cache_dir=cdir).run(spec)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = SweepRunner(cache_dir=cdir).run(spec)
    warm_s = time.perf_counter() - t0

    assert warm.rows() == cold.rows()
    assert all(r.source == "cache" for r in warm.results)
    speedup = cold_s / warm_s
    report(
        "E7c: standard family sweep, cold build vs cache hit "
        f"({cold.jobs} jobs)",
        ["pass", "jobs", "hits", "misses", "seconds", "speedup"],
        [
            ["cold", cold.jobs, cold.cache_stats.hits,
             cold.cache_stats.misses, f"{cold_s:.3f}", "1.00x"],
            ["warm", warm.jobs, warm.cache_stats.hits,
             warm.cache_stats.misses, f"{warm_s:.3f}",
             f"{speedup:.1f}x"],
        ],
    )
    assert speedup >= 5.0, (
        f"cache-hit sweep only {speedup:.1f}x faster than cold"
    )


def test_sweep_workers_cold(report, tmp_path):
    """1-worker vs 4-worker cold sweep on the standard family jobs.

    The merged rows must be identical whatever the worker count; the
    wall-clock ratio is reported honestly and only asserted to improve
    when the machine actually has more than one CPU (worker fan-out
    cannot beat serial on a single core).
    """
    from repro.batch import SweepRunner, standard_family_sweep

    spec = standard_family_sweep()
    jobs = len(spec.expand())
    assert jobs >= 8

    t0 = time.perf_counter()
    serial = SweepRunner(cache_dir=tmp_path / "c1").run(spec)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    par = SweepRunner(cache_dir=tmp_path / "c4", workers=4).run(spec)
    par_s = time.perf_counter() - t0

    assert par.rows() == serial.rows()
    cpus = os.cpu_count() or 1
    report(
        f"E7d: cold sweep, 1 vs 4 workers ({jobs} jobs, "
        f"{cpus} CPU(s) available)",
        ["workers", "jobs", "seconds", "speedup"],
        [
            [1, serial.jobs, f"{serial_s:.3f}", "1.00x"],
            [4, par.jobs, f"{par_s:.3f}", f"{serial_s / par_s:.2f}x"],
        ],
    )
    if cpus >= 2:
        assert par_s < serial_s, (
            f"4 workers ({par_s:.3f}s) not faster than 1 "
            f"({serial_s:.3f}s) on a {cpus}-CPU machine"
        )


# ---------------------------------------------------------------------------
# E7e/E7f: hot-loop before/after rows.  Each "before" is a faithful
# reimplementation of the pre-optimization algorithm, kept here so the
# gain stays measurable (and honest) as the optimized code evolves.


def _naive_exact_cutwidth(network) -> int:
    """The original DP: per-state Python scan of every removable bit."""
    index = network.index
    n = network.num_nodes
    if n <= 1:
        return 0
    weights: dict[tuple[int, int], int] = {}
    for u, v in network.edges:
        iu, iv = sorted((index[u], index[v]))
        weights[(iu, iv)] = weights.get((iu, iv), 0) + 1
    wadj: list[dict[int, int]] = [dict() for _ in range(n)]
    for (iu, iv), wt in weights.items():
        wadj[iu][iv] = wt
        wadj[iv][iu] = wt
    size = 1 << n
    INF = float("inf")
    dp = [INF] * size
    cut = [0] * size
    dp[0] = 0
    for s in range(1, size):
        v = (s & -s).bit_length() - 1
        prev = s & (s - 1)
        delta = 0
        for w, wt in wadj[v].items():
            delta += -wt if (prev >> w) & 1 else wt
        cut[s] = cut[prev] + delta
        best = INF
        t = s
        while t:
            u = (t & -t).bit_length() - 1
            t &= t - 1
            cand = dp[s ^ (1 << u)]
            if cand < best:
                best = cand
        dp[s] = max(best, cut[s])
    return int(dp[size - 1])


def test_cutwidth_dp_optimized(report):
    """Optimized exact-cutwidth DP: >= 2x at n=16, values unchanged.

    Every zoo network small enough for the DP must get the identical
    cutwidth from the naive reference and the optimized path.
    """
    from repro.cli import _zoo_networks
    from repro.collinear.cutwidth import DP_NODE_LIMIT, exact_cutwidth
    from repro.topology import Hypercube

    net = Hypercube(4)  # n = 16: the gate instance
    assert net.num_nodes == 16
    naive_value = _naive_exact_cutwidth(net)
    opt_value = exact_cutwidth(net)
    assert opt_value == naive_value
    naive_s = timed_median(lambda: _naive_exact_cutwidth(net))
    opt_s = timed_median(lambda: exact_cutwidth(net))

    checked = 0
    for zoo_net in _zoo_networks():
        if zoo_net.num_nodes > DP_NODE_LIMIT:
            continue
        assert exact_cutwidth(zoo_net) == _naive_exact_cutwidth(zoo_net), (
            f"cutwidth changed on {zoo_net.name}"
        )
        checked += 1

    speedup = naive_s / opt_s
    report(
        f"E7e: exact-cutwidth DP at n=16, median of 3 (values identical "
        f"on {checked} zoo networks <= {DP_NODE_LIMIT} nodes)",
        ["implementation", "cutwidth", "seconds", "speedup"],
        [
            ["naive per-state scan", naive_value, f"{naive_s:.4f}",
             "1.00x"],
            ["optimized DP", opt_value, f"{opt_s:.4f}",
             f"{speedup:.1f}x"],
        ],
    )
    assert speedup >= 2.0, f"optimized DP only {speedup:.1f}x faster"


def _naive_node_interference(layout) -> None:
    """The original sweep: every segment against every same-layer rect
    up to its x bound, without y-band pruning."""
    from repro.grid.validate import LayoutError

    by_layer: dict[int, list] = defaultdict(list)
    for p in layout.placements.values():
        by_layer[p.layer].append(p)
    for layer, placements in by_layer.items():
        rects = [(p.rect, p.node) for p in placements]
        rects.sort(key=lambda rn: rn[0].x0)
        xs = [r.x0 for r, _ in rects]
        for w in layout.wires:
            for s in w.segments:
                if s.layer != layer:
                    continue
                lo_x, hi_x = s.x1, s.x2
                i = bisect.bisect_right(xs, hi_x)
                for r, node in rects[:i]:
                    if r.x1 < lo_x:
                        continue
                    if r.segment_crosses_interior(s):
                        raise LayoutError(
                            f"wire {w.u}-{w.v} crosses node {node!r}"
                        )


def test_validator_node_sweep_optimized(report):
    """The y-banded node-interference sweep vs the naive x-only scan:
    same verdict, reported timing on the largest routine layout."""
    from repro.grid.validate import _check_node_interference

    lay = layout_hypercube(8, layers=4)

    # Both must accept: the layout is legal.
    naive_s = timed_median(lambda: _naive_node_interference(lay))
    opt_s = timed_median(lambda: _check_node_interference(lay))

    speedup = naive_s / opt_s
    report(
        "E7f: validator node-interference sweep on the 8-cube at L=4, "
        f"median of 3 ({len(lay.wires)} wires, {len(lay.placements)} nodes)",
        ["implementation", "seconds", "speedup"],
        [
            ["naive x-bound scan", f"{naive_s:.4f}", "1.00x"],
            ["y-banded sweep", f"{opt_s:.4f}", f"{speedup:.1f}x"],
        ],
    )
    assert opt_s <= naive_s, (
        f"banded sweep slower than naive scan: {opt_s:.4f}s vs "
        f"{naive_s:.4f}s"
    )


# ---------------------------------------------------------------------------
# E7g/E7h: the WireTable geometry kernel -- speed and memory rows.
# The "before" is the original object-graph pass kept here verbatim:
# per-wire Python walks over Segment objects.


def _naive_geometry_pass(layout):
    """The pre-WireTable metrics + delay precompute, object by object.

    Reimplements what ``measure()`` (geometry part) and
    ``layout_link_delays`` did before the table: bounding box over
    placement rects and per-wire segments, max/total wire length via
    ``Wire.length`` segment walks, and per-wire ceil'd link delays.
    """
    x0 = y0 = x1 = y1 = None

    def extend(ax0, ay0, ax1, ay1):
        nonlocal x0, y0, x1, y1
        if x0 is None:
            x0, y0, x1, y1 = ax0, ay0, ax1, ay1
        else:
            x0 = min(x0, ax0)
            y0 = min(y0, ay0)
            x1 = max(x1, ax1)
            y1 = max(y1, ay1)

    for p in layout.placements.values():
        r = p.rect
        extend(r.x0, r.y0, r.x1, r.y1)
    for w in layout.wires:
        for s in w.segments:
            extend(min(s.x1, s.x2), min(s.y1, s.y2),
                   max(s.x1, s.x2), max(s.y1, s.y2))

    max_wire = max((w.length for w in layout.wires), default=0)
    total_wire = sum(w.length for w in layout.wires)

    alpha, base = 1.0, 1.0
    delays: dict = {}
    for w in layout.wires:
        d = max(1, int(-(-(base + alpha * w.length) // 1)))
        for key in ((w.u, w.v), (w.v, w.u)):
            if key not in delays or d < delays[key]:
                delays[key] = d
    return (x0, y0, x1, y1), max_wire, total_wire, delays


def test_wiretable_geometry_speed(report):
    """E7g gate: measure() + link-delay precompute >= 3x vs the object
    pass on the 10-cube at L=4, steady state (table built and cached).

    The cold table build is timed and reported honestly but not gated:
    it is a one-time cost amortized over every later geometry query.
    """
    from repro.core.metrics import measure
    from repro.routing.paths import layout_link_delays

    lay = layout_hypercube(10, layers=4, node_side="min")

    t0 = time.perf_counter()
    table = lay.wire_table()
    build_s = time.perf_counter() - t0

    def table_pass():
        m = measure(lay)
        d = layout_link_delays(lay)
        return m, d

    # Equivalence first: identical numbers out of both passes.
    (bx0, by0, bx1, by1), naive_max, naive_total, naive_delays = (
        _naive_geometry_pass(lay)
    )
    m, d = table_pass()
    bb = lay.bounding_box()
    assert (bb.x0, bb.y0, bb.x1, bb.y1) == (bx0, by0, bx1, by1)
    assert (m.max_wire, m.total_wire) == (naive_max, naive_total)
    assert d == naive_delays

    naive_s = timed_median(lambda: _naive_geometry_pass(lay))
    opt_s = timed_median(table_pass)

    speedup = naive_s / opt_s
    report(
        "E7g: geometry pass (measure + link delays) on the 10-cube at "
        f"L=4, median of 3 ({len(lay.wires)} wires, "
        f"{table.num_segments} segments)",
        ["implementation", "seconds", "speedup"],
        [
            ["object-graph walk", f"{naive_s:.4f}", "1.00x"],
            ["WireTable (steady state)", f"{opt_s:.4f}",
             f"{speedup:.1f}x"],
            ["(table build, one-time)", f"{build_s:.4f}", None],
        ],
    )
    assert speedup >= 3.0, (
        f"WireTable geometry pass only {speedup:.1f}x faster"
    )


def test_wiretable_memory(report):
    """E7h gate: the flat geometry table stores the 10-cube L=4 layout
    in <= half the bytes of the Wire/Segment/Point object graph."""
    from repro.grid.table import object_graph_bytes

    rows = []
    gate_ratio = None
    for n, L in ((8, 4), (10, 4)):
        lay = layout_hypercube(n, layers=L, node_side="min")
        obj = object_graph_bytes(lay)
        tab = lay.wire_table().nbytes()
        ratio = obj / tab
        rows.append([
            f"{n}-cube", L, len(lay.wires), f"{obj:,}", f"{tab:,}",
            f"{ratio:.1f}x",
        ])
        if n == 10:
            gate_ratio = ratio
    report(
        "E7h: layout representation bytes, object graph vs WireTable",
        ["layout", "L", "wires", "object graph B", "wire table B",
         "reduction"],
        rows,
    )
    assert gate_ratio is not None and gate_ratio >= 2.0, (
        f"WireTable only {gate_ratio:.1f}x smaller than the object graph"
    )


# ---------------------------------------------------------------------------
# E7i/E7j: the accel kernels and incremental revalidation.
# The "before" for E7i is the validator's own scalar battery (still the
# diagnosis path, so it cannot rot); for E7j it is a full revalidation
# after each edit.


def test_validator_kernels(report):
    """E7i gate: the kernelized validator >= 5x the scalar battery on
    the 10-cube at L=4."""
    from repro.grid.validate import (
        _validate_scalar_reference,
        validate_layout,
    )

    lay = layout_hypercube(10, layers=4, node_side="min")

    # Both paths must accept; the parity suite pins the error messages.
    scalar_s = timed_median(lambda: _validate_scalar_reference(lay))
    kernel_s = timed_median(lambda: validate_layout(lay))

    speedup = scalar_s / kernel_s
    report(
        f"E7i: full validation battery on the 10-cube at L=4, median "
        f"of 3 ({len(lay.wires)} wires)",
        ["implementation", "seconds", "speedup"],
        [
            ["scalar sweeps", f"{scalar_s:.4f}", "1.00x"],
            ["accel kernels", f"{kernel_s:.4f}", f"{speedup:.1f}x"],
        ],
    )
    assert speedup >= 5.0, (
        f"kernelized validator only {speedup:.1f}x faster"
    )


def test_incremental_revalidation(report):
    """E7j gate: single-wire edit + incremental revalidation >= 10x an
    edit + full revalidation on the 10-cube at L=4."""
    from repro.grid.validate import validate_layout
    from repro.grid.wire import Wire

    lay = layout_hypercube(10, layers=4, node_side="min")
    validate_layout(lay, incremental=True)  # attach + arm the tracker

    edit_idx = [
        i for i, w in enumerate(lay.wires) if w.riser is None
    ][:8]

    def clone_wire(i):
        w = lay.wires[i]
        return Wire(w.u, w.v, list(w.segments), edge_key=w.edge_key)

    state = {"k": 0}

    def edit_and_full():
        i = edit_idx[state["k"] % len(edit_idx)]
        state["k"] += 1
        lay.replace_wire(i, clone_wire(i))
        validate_layout(lay)

    def edit_and_incremental():
        i = edit_idx[state["k"] % len(edit_idx)]
        state["k"] += 1
        lay.replace_wire(i, clone_wire(i))
        validate_layout(lay, incremental=True)

    full_s = timed_median(edit_and_full)
    inc_s = timed_median(edit_and_incremental)

    speedup = full_s / inc_s
    report(
        f"E7j: single-wire edit + revalidation on the 10-cube at L=4, "
        f"median of 3 ({len(lay.wires)} wires)",
        ["implementation", "seconds", "speedup"],
        [
            ["edit + full sweep", f"{full_s:.4f}", "1.00x"],
            ["edit + dirty bands", f"{inc_s:.4f}", f"{speedup:.1f}x"],
        ],
    )
    assert speedup >= 10.0, (
        f"incremental revalidation only {speedup:.1f}x faster"
    )

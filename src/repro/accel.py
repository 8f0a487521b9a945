"""Numpy kernels for the hot validation, analysis and engine passes.

Validator kernels operate on :class:`repro.grid.table.WireTable`
arrays and return *clean verdicts*, not error messages: ``True`` means
the corresponding scalar check in :mod:`repro.grid.validate` provably
accepts; ``False`` means "suspicious" and the caller re-runs the scalar
check, which either raises its usual byte-identical
:class:`~repro.grid.validate.LayoutError` or (for the deliberately
conservative kernels) accepts after all.  A kernel must never return
``True`` when the scalar check would raise; the verdict-and-message
suite (``tests/test_accel.py``) holds them to that against
``_validate_scalar_reference`` on legal and corrupted layouts.

Exactness notes:

* ``edge_sweep`` / ``via_clean`` / ``pins_clean`` are exact: their
  verdict matches the scalar check precisely.
* ``bend_clean`` is wire-blind: overlapping layer intervals claimed at
  one point by the *same* wire (legal) also report suspicion.
* ``node_overlap_clean`` accepts band by band and reports bands whose
  y-extents meet on a shared layer as suspicious.
* ``node_sweep_clean`` assumes node squares are interior-disjoint per
  layer (the node-overlap check runs first); under that assumption it
  is exact.

The sweep kernels share one trick: a *segmented running maximum*.
After sorting rows so one group (grid line, planar point, ...) is
contiguous and the in-group order is ascending ``lo``, offset each
``hi`` by ``group_id * span`` (``span`` > the global ``hi`` range), take
a plain ``np.maximum.accumulate``, and subtract the offset back.  The
offset makes every value in group ``g`` larger than anything in earlier
groups, so the running max restricted to a group's prefix never leaks
across the boundary; masking the first row of each group then yields
"max hi among my group's earlier rows" for every row at C speed.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

__all__ = [
    "INF",
    "backend_info",
    "edge_weights",
    "edge_sweep",
    "self_consistency_clean",
    "layer_budget_clean",
    "parity_clean",
    "bend_clean",
    "via_clean",
    "node_overlap_clean",
    "node_sweep_clean",
    "pins_clean",
    "wire_extents",
    "cut_profile",
    "cutwidth_dp",
    "classify_bucket",
]


INF = 1 << 60


def backend_info() -> dict:
    """Which implementation each accelerated layer runs (always numpy;
    kept for tools that print or record it)."""
    return {"accel": "numpy", "table": "numpy", "engine": "numpy"}


def edge_weights(network) -> dict[tuple[int, int], int]:
    """Multigraph support: parallel edges each count toward the cut."""
    index = network.index
    weights: dict[tuple[int, int], int] = {}
    for u, v in network.edges:
        iu, iv = sorted((index[u], index[v]))
        weights[(iu, iv)] = weights.get((iu, iv), 0) + 1
    return weights


def _prev_group_max(values, new_group):
    """Per row: max of ``values`` over *earlier* rows of its group.

    ``new_group`` marks each group's first row; rows where it is set
    get a value below any real one (the caller masks them anyway).
    """
    gid = np.cumsum(new_group) - 1
    base = int(values.min())
    span = int(values.max()) - base + 1
    adj = (values - base) + gid * span
    run = np.empty_like(adj)
    np.maximum.accumulate(adj, out=run)
    prev = np.empty_like(run)
    prev[0] = 0
    prev[1:] = run[:-1]
    out = prev - gid * span + base
    # First-of-group rows carry garbage from the previous group; push
    # them to an absolute floor so no comparison can fire.  (``base - 1``
    # is NOT low enough: callers compare against *other* columns -- a
    # span's lo sits below the smallest hi on legal layouts.)
    out[new_group] = -INF
    return out


# ---------------------------------------------------------------------------
# Validator kernels


def edge_sweep(table) -> tuple[int, bool]:
    """``(total_segments, clean)`` for the edge-disjointness rule.

    Exact: ``clean`` is ``False`` iff two spans on one (orientation,
    layer, grid line) properly overlap -- the scalar sweep's raise
    condition, same-wire overlaps included.
    """
    S = table.num_segments
    if S == 0:
        return 0, True
    x1, y1 = table.seg_x1, table.seg_y1
    x2, y2 = table.seg_x2, table.seg_y2
    lay = table.seg_layer
    horiz = y1 == y2
    coord = np.where(horiz, y1, x1)
    lo = np.where(horiz, x1, y1)
    hi = np.where(horiz, x2, y2)
    hcode = horiz.astype(np.int64)
    order = np.lexsort((lo, coord, lay, hcode))
    glo = lo[order]
    ghi = hi[order]
    gh, gl, gc = hcode[order], lay[order], coord[order]
    new_group = np.empty(S, dtype=bool)
    new_group[0] = True
    new_group[1:] = (
        (gh[1:] != gh[:-1]) | (gl[1:] != gl[:-1]) | (gc[1:] != gc[:-1])
    )
    prev_hi = _prev_group_max(ghi, new_group)
    conflict = glo < prev_hi
    return S, not bool(conflict.any())


def self_consistency_clean(table) -> bool:
    """No consecutive same-layer, same-orientation segments (exact)."""
    S = table.num_segments
    if S < 2:
        return True
    counts = np.diff(table.wire_seg_start)
    rep = np.repeat(np.arange(table.num_wires), counts)
    lay = table.seg_layer
    horiz = table.seg_y1 == table.seg_y2
    bad = (
        (rep[1:] == rep[:-1])
        & (lay[1:] == lay[:-1])
        & (horiz[1:] == horiz[:-1])
    )
    return not bool(bad.any())


def layer_budget_clean(table, layers: int) -> bool:
    """Every segment layer and riser z-span inside ``1..layers`` (exact)."""
    if table.num_segments:
        lay = table.seg_layer
        if int(lay.min()) < 1 or int(lay.max()) > layers:
            return False
    riser = table.wire_is_riser.astype(bool)
    if riser.any():
        zi = table.wire_zrun_start[:-1][riser]
        if int(table.zrun_lo[zi].min()) < 1:
            return False
        if int(table.zrun_hi[zi].max()) > layers:
            return False
    return True


def parity_clean(table) -> bool:
    """Scheme convention: horizontal odd layers, vertical even (exact)."""
    if table.num_segments == 0:
        return True
    horiz = table.seg_y1 == table.seg_y2
    odd = table.seg_layer % 2 == 1
    return bool((horiz == odd).all())


def bend_clean(table) -> bool:
    """No two bend/via layer intervals overlap at one planar point.

    Wire-blind (conservative): same-wire interval overlaps at a point
    -- which the scalar check permits -- also report suspicion.
    """
    px_parts = []
    py_parts = []
    lo_parts = []
    hi_parts = []
    S = table.num_segments
    if S >= 2:
        counts = np.diff(table.wire_seg_start)
        rep = np.repeat(np.arange(table.num_wires), counts)
        idx = np.flatnonzero(rep[:-1] == rep[1:])
        if idx.size:
            rev = table.seg_rev[idx].astype(bool)
            px_parts.append(
                np.where(rev, table.seg_x1[idx], table.seg_x2[idx])
            )
            py_parts.append(
                np.where(rev, table.seg_y1[idx], table.seg_y2[idx])
            )
            la = table.seg_layer[idx]
            lb = table.seg_layer[idx + 1]
            lo_parts.append(np.minimum(la, lb))
            hi_parts.append(np.maximum(la, lb))
    riser = table.wire_is_riser.astype(bool)
    if riser.any():
        zi = table.wire_zrun_start[:-1][riser]
        px_parts.append(table.zrun_x[zi])
        py_parts.append(table.zrun_y[zi])
        lo_parts.append(table.zrun_lo[zi])
        hi_parts.append(table.zrun_hi[zi])
    if not px_parts:
        return True
    px = np.concatenate(px_parts)
    py = np.concatenate(py_parts)
    plo = np.concatenate(lo_parts)
    phi = np.concatenate(hi_parts)
    n = len(px)
    if n < 2:
        return True
    order = np.lexsort((plo, py, px))
    spx, spy = px[order], py[order]
    slo, shi = plo[order], phi[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = (spx[1:] != spx[:-1]) | (spy[1:] != spy[:-1])
    prev_hi = _prev_group_max(shi, new_group)
    # Inclusive interval overlap: sorted ascending by lo within a
    # point, a row conflicts iff its lo <= some earlier row's hi.
    conflict = slo <= prev_hi
    return not bool(conflict.any())


def via_clean(table) -> bool:
    """No segment pierces another wire's via interior (exact).

    Wire-aware like the scalar check: a wire's own segments may cover
    its via interiors.

    The common case -- no z-run spanning an interior layer -- exits
    after one vectorized scan; otherwise the few interior-layer
    segments are indexed and probed exactly like the scalar check.
    """
    Z = table.num_zruns
    if Z == 0:
        return True
    zlo, zhi = table.zrun_lo, table.zrun_hi
    big = (zhi - zlo) >= 2
    if not bool(big.any()):
        return True
    zcounts = np.diff(table.wire_zrun_start)
    zwire = np.repeat(np.arange(table.num_wires), zcounts)
    bz = np.flatnonzero(big)
    runs = list(zip(
        zwire[bz].tolist(), table.zrun_x[bz].tolist(),
        table.zrun_y[bz].tolist(), zlo[bz].tolist(), zhi[bz].tolist(),
    ))
    interior: set[int] = set()
    for _, _, _, lo, hi in runs:
        interior.update(range(lo + 1, hi))

    lay = table.seg_layer
    smask = np.isin(lay, np.fromiter(interior, dtype=np.int64))
    lines: dict[tuple, list[tuple[int, int, int]]] = {}
    if bool(smask.any()):
        si = np.flatnonzero(smask)
        counts = np.diff(table.wire_seg_start)
        srep = np.repeat(np.arange(table.num_wires), counts)
        x1, y1 = table.seg_x1[si], table.seg_y1[si]
        x2, y2 = table.seg_x2[si], table.seg_y2[si]
        sl = lay[si]
        sw = srep[si]
        horiz = y1 == y2
        for k in range(len(si)):
            if horiz[k]:
                key = (1, int(sl[k]), int(y1[k]))
                row = (int(x1[k]), int(x2[k]), int(sw[k]))
            else:
                key = (0, int(sl[k]), int(x1[k]))
                row = (int(y1[k]), int(y2[k]), int(sw[k]))
            b = lines.get(key)
            if b is None:
                lines[key] = [row]
            else:
                b.append(row)
    index: dict[tuple, tuple[list[int], list[int]]] = {}
    for key, spans in lines.items():
        spans.sort()
        prefix_max_hi: list[int] = []
        top = spans[0][1]
        for _, hi, _ in spans:
            if hi > top:
                top = hi
            prefix_max_hi.append(top)
        index[key] = ([lo for lo, _, _ in spans], prefix_max_hi)

    def covered(key, coord, self_wire) -> bool:
        spans = lines.get(key)
        if not spans:
            return False
        los, prefix_max_hi = index[key]
        i = bisect_right(los, coord) - 1
        while i >= 0 and prefix_max_hi[i] > coord:
            lo, hi, owner = spans[i]
            if lo < coord < hi and owner != self_wire:
                return True
            i -= 1
        return False

    for owner, x, y, lo, hi in runs:
        for layer in range(lo + 1, hi):
            if covered((1, layer, y), x, owner):
                return False
            if covered((0, layer, x), y, owner):
                return False
    return True


def node_overlap_clean(table) -> bool:
    """Positive-area node rects are interior-disjoint (banded accept).

    Zero-extent rects have no interior and are exempt throughout.

    One lexsort puts each (layer, y-extent) band's rects in ascending
    ``x0``; an adjacent-row compare then decides within-band overlap
    exactly, and the segmented running max flags any pair of bands
    whose y-extents meet on a shared layer as suspicious.
    """
    if len(table.node_x0) == 0:
        return True
    nx0, ny0 = table.node_x0, table.node_y0
    nx1, ny1 = table.node_x1, table.node_y1
    nlay = table.node_layer
    pos = (nx1 > nx0) & (ny1 > ny0)
    if not bool(pos.any()):
        return True
    order = np.lexsort((nx0[pos], ny1[pos], ny0[pos], nlay[pos]))
    x0s, x1s = nx0[pos][order], nx1[pos][order]
    y0s, y1s = ny0[pos][order], ny1[pos][order]
    lays = nlay[pos][order]
    same_band = (
        (lays[1:] == lays[:-1])
        & (y0s[1:] == y0s[:-1])
        & (y1s[1:] == y1s[:-1])
    )
    if bool((same_band & (x0s[1:] < x1s[:-1])).any()):
        return False
    first = np.ones(len(order), dtype=bool)
    first[1:] = ~same_band
    band_lay = lays[first]
    band_y0, band_y1 = y0s[first], y1s[first]
    new_layer = np.ones(len(band_lay), dtype=bool)
    new_layer[1:] = band_lay[1:] != band_lay[:-1]
    prev_y1 = _prev_group_max(band_y1, new_layer)
    return not bool((band_y0 < prev_y1).any())


def node_sweep_clean(table) -> bool:
    """No segment crosses a node interior on the node's layer.

    Node rects are grouped into per-layer y-bands; interior-disjointness
    within a band (established by the node-overlap check first) leaves
    one ``searchsorted`` candidate per band and segment to test.
    """
    S = table.num_segments
    if S == 0 or len(table.node_x0) == 0:
        return True
    nx0, ny0 = table.node_x0, table.node_y0
    nx1, ny1 = table.node_x1, table.node_y1
    nlay = table.node_layer
    pos = (nx1 > nx0) & (ny1 > ny0)
    if not bool(pos.any()):
        return True
    bands: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    for r in np.flatnonzero(pos).tolist():
        key = (int(nlay[r]), int(ny0[r]), int(ny1[r]))
        b = bands.get(key)
        if b is None:
            bands[key] = [(int(nx0[r]), int(nx1[r]))]
        else:
            b.append((int(nx0[r]), int(nx1[r])))
    by_layer: dict[int, list] = {}
    for (layer, y0, y1), rects in bands.items():
        rects.sort()
        by_layer.setdefault(layer, []).append((
            y0, y1,
            np.asarray([x0 for x0, _ in rects], dtype=np.int64),
            np.asarray([x1 for _, x1 in rects], dtype=np.int64),
        ))

    lay = table.seg_layer
    sy_lo, sy_hi = table.seg_y1, table.seg_y2
    sx_lo, sx_hi = table.seg_x1, table.seg_x2
    order = np.argsort(lay, kind="stable")
    slay = lay[order]
    for layer, layer_bands in by_layer.items():
        a = np.searchsorted(slay, layer, side="left")
        b = np.searchsorted(slay, layer, side="right")
        if a == b:
            continue
        rows = order[a:b]
        qy_lo, qy_hi = sy_lo[rows], sy_hi[rows]
        qx_lo, qx_hi = sx_lo[rows], sx_hi[rows]
        for y0, y1, xs0, xs1 in layer_bands:
            m = (qy_hi > y0) & (qy_lo < y1)
            if not bool(m.any()):
                continue
            idx = np.searchsorted(xs0, qx_hi[m], side="left") - 1
            valid = idx >= 0
            if not bool(valid.any()):
                continue
            cand_x1 = xs1[np.maximum(idx, 0)]
            if bool((valid & (cand_x1 > qx_lo[m])).any()):
                return False
    return True


def pins_clean(table, u_rows, v_rows) -> bool:
    """Wire endpoints on their nodes' perimeters, uniquely (exact).

    ``u_rows[i]`` / ``v_rows[i]`` are the placement-row indices of wire
    ``i``'s endpoint nodes (callers resolve labels; an unresolvable
    label means falling back to the scalar check instead).
    """
    W = table.num_wires
    if W == 0:
        return True
    ur = np.asarray(u_rows, dtype=np.int64)
    vr = np.asarray(v_rows, dtype=np.int64)
    sx, sy, ex, ey = table.wire_endpoints()
    nx0, ny0 = table.node_x0, table.node_y0
    nx1, ny1 = table.node_x1, table.node_y1

    def perim(px, py, rows):
        x0, y0 = nx0[rows], ny0[rows]
        x1, y1 = nx1[rows], ny1[rows]
        inside = (x0 <= px) & (px <= x1) & (y0 <= py) & (py <= y1)
        strict = (x0 < px) & (px < x1) & (y0 < py) & (py < y1)
        return inside & ~strict

    p1 = perim(sx, sy, ur) & perim(ex, ey, vr)
    p2 = perim(ex, ey, ur) & perim(sx, sy, vr)
    if not bool((p1 | p2).all()):
        return False
    # The scalar check prefers the (u<-start, v<-end) pairing; mirror
    # that choice so claimed pin points match it exactly.
    ax = np.where(p1, sx, ex)
    ay = np.where(p1, sy, ey)
    bx = np.where(p1, ex, sx)
    by = np.where(p1, ey, sy)
    nodes = np.concatenate((ur, vr))
    px = np.concatenate((ax, bx))
    py = np.concatenate((ay, by))
    wi = np.concatenate((np.arange(W), np.arange(W)))
    order = np.lexsort((wi, py, px, nodes))
    sn, spx, spy, sw = nodes[order], px[order], py[order], wi[order]
    same = (
        (sn[1:] == sn[:-1]) & (spx[1:] == spx[:-1]) & (spy[1:] == spy[:-1])
    )
    return not bool((same & (sw[1:] != sw[:-1])).any())


def wire_extents(table):
    """Per-wire ``(ymin, ymax, lmin, lmax)`` lists for dirty tracking.

    Y extent over segment endpoints (a riser's planar point); layer
    extent over segment layers (a riser's z-span).  Via interiors lie
    between the adjacent segments' layers, so the segment layer range
    covers them.  Matches :func:`repro.grid.dirty.wire_extent` per wire.
    """
    W = table.num_wires
    if W == 0:
        return [], [], [], []
    ymin = np.zeros(W, dtype=np.int64)
    ymax = np.zeros(W, dtype=np.int64)
    lmin = np.zeros(W, dtype=np.int64)
    lmax = np.zeros(W, dtype=np.int64)
    starts = table.wire_seg_start
    counts = np.diff(starts)
    nonempty = counts > 0
    if bool(nonempty.any()):
        # Risers have empty segment ranges; reduceat over only the
        # non-empty starts keeps every group's slice exact (consecutive
        # non-empty wires are adjacent in the segment arrays).
        ne_idx = starts[:-1][nonempty]
        ymin[nonempty] = np.minimum.reduceat(table.seg_y1, ne_idx)
        ymax[nonempty] = np.maximum.reduceat(table.seg_y2, ne_idx)
        lmin[nonempty] = np.minimum.reduceat(table.seg_layer, ne_idx)
        lmax[nonempty] = np.maximum.reduceat(table.seg_layer, ne_idx)
    riser = table.wire_is_riser.astype(bool)
    if riser.any():
        zi = table.wire_zrun_start[:-1][riser]
        ymin[riser] = table.zrun_y[zi]
        ymax[riser] = table.zrun_y[zi]
        lmin[riser] = table.zrun_lo[zi]
        lmax[riser] = table.zrun_hi[zi]
    return ymin.tolist(), ymax.tolist(), lmin.tolist(), lmax.tolist()


# ---------------------------------------------------------------------------
# Cutwidth kernels


def cut_profile(n: int, pairs) -> int:
    """Max prefix-gap cut of an order.

    ``pairs`` are normalized ``(pu, pv)`` position pairs with
    ``pu < pv``; each contributes +1 to every gap it spans (difference
    array + prefix sum).
    """
    if n == 0 or not pairs:
        return 0
    arr = np.asarray(pairs, dtype=np.int64)
    diff = (
        np.bincount(arr[:, 0], minlength=n + 1)
        - np.bincount(arr[:, 1], minlength=n + 1)
    )
    running = np.cumsum(diff[:n])
    best = int(running.max())
    return best if best > 0 else 0


def cutwidth_dp(network, n: int):
    """The full ``(dp, cut)`` tables over all 2^n vertex subsets.

    ``cut[S]`` counts (weighted) edges between S and its complement and
    ``dp[S] = min over v in S of max(dp[S - v], cut[S])``; both index by
    subset bitmask.

    ``dp`` at popcount k depends only on popcount k-1, so each layer is
    one fancy-indexed gather per bit position -- O(2^n n) element ops
    all at C speed instead of an interpreted inner loop.
    """
    size = 1 << n
    states = np.arange(size, dtype=np.int64)
    cut = np.zeros(size, dtype=np.int64)
    for (iu, iv), wt in edge_weights(network).items():
        differs = ((states >> iu) ^ (states >> iv)) & 1
        cut += wt * differs
    pc = np.zeros(size, dtype=np.int64)
    for u in range(n):
        pc += (states >> u) & 1
    order = np.argsort(pc, kind="stable")
    bounds = np.searchsorted(pc[order], np.arange(n + 2))
    dp = np.zeros(size, dtype=np.int64)
    for k in range(1, n + 1):
        layer = order[bounds[k]:bounds[k + 1]]
        best = np.full(len(layer), INF, dtype=np.int64)
        for u in range(n):
            bit = 1 << u
            has = (layer & bit) != 0
            if not has.any():
                continue
            members = layer[has]
            best[has] = np.minimum(best[has], dp[members ^ bit])
        dp[layer] = np.maximum(cut[layer], best)
    return dp, cut


# ---------------------------------------------------------------------------
# Fast-engine kernel


def classify_bucket(movers_raw, hop, t_now, tail, nhops, route_start, flat, starts):
    """Classify one calendar-queue time bucket's movers.

    ``movers_raw`` comes sorted ascending.  Returns
    ``(n_done, top, done_lats, groups)``: the arrival count, the max
    arrival completion time, their latencies (mover order), and the
    non-arrived movers grouped by contended link as
    ``[(link_id, [mover, ...]), ...]`` in ascending link id with
    members in ascending message index -- exactly the order the fast
    engine's scalar arbitration consumes.

    The array arguments (``nhops``, ``route_start``, ``flat``,
    ``starts``) must be int64 ndarrays; ``movers_raw`` and ``hop`` are
    plain python lists (mutable engine state).
    """
    nmv = len(movers_raw)
    mv = np.asarray(movers_raw, dtype=np.int64)
    h = np.fromiter((hop[i] for i in movers_raw), np.int64, count=nmv)
    arr_mask = h >= nhops[mv]
    n_done = 0
    top = 0
    done_lats: list[int] = []
    if arr_mask.any():
        arr = mv[arr_mask]
        tails = np.where(nhops[arr] > 0, tail, 0)
        done = t_now + tails
        top = int(done.max())
        done_lats = (done - starts[arr]).tolist()
        n_done = int(arr.size)
    groups: list[tuple[int, list[int]]] = []
    movers = mv[~arr_mask]
    if movers.size:
        ml = flat[route_start[movers] + h[~arr_mask]]
        order = np.argsort(ml, kind="stable")
        sl = ml[order]
        sm = movers[order].tolist()
        n = len(sm)
        is_first = np.empty(n, dtype=bool)
        is_first[0] = True
        is_first[1:] = sl[1:] != sl[:-1]
        gs = np.flatnonzero(is_first)
        ge = np.append(gs[1:], n)
        for a0, b0 in zip(gs.tolist(), ge.tolist()):
            groups.append((int(sl[a0]), sm[a0:b0]))
    return n_done, top, done_lats, groups

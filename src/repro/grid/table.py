"""Structure-of-arrays geometry kernel for routed layouts.

A :class:`WireTable` flattens a :class:`~repro.grid.layout.GridLayout`'s
wires into contiguous integer arrays -- segment endpoints and layers in
wire-major path order, per-wire index ranges (CSR offsets), and the
z-runs (vias and risers) -- so every downstream consumer of layout
geometry (metrics, link delays, serialization, the brute-force oracle's
occupancy expansion, the renderers) can read flat data instead of
re-walking per-wire ``Wire``/``Segment`` object graphs.  Thompson-style
grid layouts are natively flat integer data (paper Section 2.1), so the
table is both the fast path and the compact representation: on the
paper-scale cases it is several times smaller than the object graph
(``python -m repro stats --mem`` prints the accounting).

The table is **derived, immutable data**: it is built once per layout by
:meth:`GridLayout.wire_table` and cached there.  The cache is
revalidated against an identity stamp -- the number of placements plus
the ``id()`` of every ``Wire`` in ``layout.wires`` -- so appending a
wire, placing a node, or replacing a wire object (the mutation harness
in :mod:`repro.check` does exactly that) all invalidate it.  Mutating a
``Wire``'s *own* ``segments`` list in place is not detected and is
unsupported everywhere in this codebase: wires are replaced, never
edited.

Storage is numpy ``int64`` arrays (``int8`` for the flag columns), and
the reductions and row views below are vectorized over them.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

import numpy as _np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (layout -> table)
    from repro.grid.layout import GridLayout

__all__ = ["WireTable", "object_graph_bytes"]


def _freeze(values: list[int]):
    """Materialize a built-up int list as the backing storage."""
    return _np.asarray(values, dtype=_np.int64)


class WireTable:
    """Flat-array view of one layout's wires.

    Array schema (all int64; ``W`` wires, ``S`` segments, ``Z`` z-runs):

    ``seg_x1, seg_y1, seg_x2, seg_y2, seg_layer``
        One entry per segment, in wire-major path order (exactly the
        order ``layout.wires[i].segments`` stores them), endpoints
        normalized as ``Segment`` stores them.
    ``seg_rev``
        int8 flag per segment: 1 when the wire's path traverses the
        segment from ``(x2, y2)`` to ``(x1, y1)`` (i.e. against the
        normalized endpoint order), else 0.  Together with the
        normalized endpoints this recovers the oriented path: the
        junction between consecutive segments ``i`` and ``i + 1`` is
        segment ``i``'s path *end*, ``(x1, y1)`` if ``seg_rev[i]``
        else ``(x2, y2)``.
    ``wire_seg_start``
        CSR offsets, length ``W + 1``: wire ``i``'s segments occupy
        rows ``wire_seg_start[i] : wire_seg_start[i + 1]``.
    ``zrun_x, zrun_y, zrun_lo, zrun_hi`` / ``wire_zrun_start``
        One entry per z-run -- a via between consecutive segments on
        different layers, or a riser's vertical run -- mirroring
        ``Wire.z_occupancy()`` exactly, with CSR offsets per wire.
    ``wire_length``
        ``Wire.length`` per wire (planar segment lengths; a riser's
        z-extent).
    ``wire_is_riser``
        1 for riser wires, else 0.
    ``node_x0, node_y0, node_x1, node_y1, node_layer``
        Placement rectangle corners and active layer, in
        ``layout.placements`` order (bounding-box input; node identity
        stays on the layout).
    """

    __slots__ = (
        "num_wires", "num_segments", "num_zruns",
        "seg_x1", "seg_y1", "seg_x2", "seg_y2", "seg_layer", "seg_rev",
        "wire_seg_start",
        "zrun_x", "zrun_y", "zrun_lo", "zrun_hi", "wire_zrun_start",
        "wire_length", "wire_is_riser",
        "node_x0", "node_y0", "node_x1", "node_y1", "node_layer",
        "_seg_rows", "_zrun_rows", "_lengths_list", "_units",
        "_endpoints",
    )

    def __init__(self, layout: "GridLayout"):
        from repro.grid.wire import walk_path

        sx1: list[int] = []
        sy1: list[int] = []
        sx2: list[int] = []
        sy2: list[int] = []
        slay: list[int] = []
        srev: list[int] = []
        seg_start = [0]
        zx: list[int] = []
        zy: list[int] = []
        zlo: list[int] = []
        zhi: list[int] = []
        zrun_start = [0]
        wlen: list[int] = []
        wriser: list[int] = []

        for w in layout.wires:
            if w.riser is not None:
                x, y, lo, hi = w.riser
                zx.append(x)
                zy.append(y)
                zlo.append(lo)
                zhi.append(hi)
                wlen.append(hi - lo)
                wriser.append(1)
            else:
                segs = w.segments
                length = 0
                prev_layer = None
                for s, (_, end) in zip(segs, walk_path(segs, w.u, w.v)):
                    sx1.append(s.x1)
                    sy1.append(s.y1)
                    sx2.append(s.x2)
                    sy2.append(s.y2)
                    slay.append(s.layer)
                    srev.append(1 if end == (s.x1, s.y1) else 0)
                    length += (s.x2 - s.x1) + (s.y2 - s.y1)
                    if prev_layer is not None and prev_layer != s.layer:
                        # The junction is the *start* of this segment
                        # along the path == end of the previous one.
                        zx.append(start_x)
                        zy.append(start_y)
                        zlo.append(min(prev_layer, s.layer))
                        zhi.append(max(prev_layer, s.layer))
                    prev_layer = s.layer
                    start_x, start_y = end
                wlen.append(length)
                wriser.append(0)
            seg_start.append(len(sx1))
            zrun_start.append(len(zx))

        nx0: list[int] = []
        ny0: list[int] = []
        nx1: list[int] = []
        ny1: list[int] = []
        nlay: list[int] = []
        for p in layout.placements.values():
            nx0.append(p.rect.x0)
            ny0.append(p.rect.y0)
            nx1.append(p.rect.x1)
            ny1.append(p.rect.y1)
            nlay.append(p.layer)

        self.num_wires = len(layout.wires)
        self.num_segments = len(sx1)
        self.num_zruns = len(zx)
        self.seg_x1 = _freeze(sx1)
        self.seg_y1 = _freeze(sy1)
        self.seg_x2 = _freeze(sx2)
        self.seg_y2 = _freeze(sy2)
        self.seg_layer = _freeze(slay)
        self.seg_rev = _np.asarray(srev, dtype=_np.int8)
        self.wire_seg_start = _freeze(seg_start)
        self.zrun_x = _freeze(zx)
        self.zrun_y = _freeze(zy)
        self.zrun_lo = _freeze(zlo)
        self.zrun_hi = _freeze(zhi)
        self.wire_zrun_start = _freeze(zrun_start)
        self.wire_length = _freeze(wlen)
        self.wire_is_riser = _freeze(wriser)
        self.node_x0 = _freeze(nx0)
        self.node_y0 = _freeze(ny0)
        self.node_x1 = _freeze(nx1)
        self.node_y1 = _freeze(ny1)
        self.node_layer = _freeze(nlay)
        self._seg_rows = None
        self._zrun_rows = None
        self._lengths_list = None
        self._units = None
        self._endpoints = None

    @classmethod
    def from_layout(cls, layout: "GridLayout") -> "WireTable":
        return cls(layout)

    # -- measurement ----------------------------------------------------

    def bounds(self) -> tuple[int, int, int, int] | None:
        """(x0, y0, x1, y1) over node rects and segment endpoints, or
        ``None`` when the layout has neither (risers never count,
        matching the object path)."""
        if self.num_segments == 0 and len(self.node_x0) == 0:
            return None
        xs = (self.node_x0, self.node_x1, self.seg_x1, self.seg_x2)
        ys = (self.node_y0, self.node_y1, self.seg_y1, self.seg_y2)
        x0 = min(int(a.min()) for a in xs if len(a))
        x1 = max(int(a.max()) for a in xs if len(a))
        y0 = min(int(a.min()) for a in ys if len(a))
        y1 = max(int(a.max()) for a in ys if len(a))
        return (x0, y0, x1, y1)

    def wire_lengths(self) -> list[int]:
        """Per-wire routed lengths as plain ints (``Wire.length``)."""
        if self._lengths_list is None:
            self._lengths_list = self.wire_length.tolist()
        return self._lengths_list

    def max_wire_length(self) -> int:
        if self.num_wires == 0:
            return 0
        return int(self.wire_length.max())

    def total_wire_length(self) -> int:
        if self.num_wires == 0:
            return 0
        return int(self.wire_length.sum())

    def via_count(self) -> int:
        """``sum(len(w.vias()))``: one via per z-run (a riser's single
        z-run counts once, exactly as ``Wire.vias`` reports it)."""
        return self.num_zruns

    def layers_used(self) -> set[int]:
        """Union of segment layers and riser z-spans (inclusive),
        mirroring ``GridLayout.layers_used``: a via between two planar
        layers does *not* claim the layers it passes through."""
        used = set(_np.unique(self.seg_layer).tolist())
        zi = self.wire_zrun_start[:-1][self.wire_is_riser.astype(bool)]
        for lo, hi in zip(self.zrun_lo[zi].tolist(), self.zrun_hi[zi].tolist()):
            used.update(range(lo, hi + 1))
        return used

    def link_delay_values(self, *, alpha: float = 1.0, base: float = 1.0) -> list[int]:
        """``max(1, ceil(base + alpha * length))`` per wire, vectorized."""
        d = _np.ceil(base + alpha * self.wire_length.astype(_np.float64))
        return _np.maximum(1, d.astype(_np.int64)).tolist()

    # -- row views (serialization, rendering) ---------------------------

    def segment_rows(self) -> list[list[int]]:
        """``[x1, y1, x2, y2, layer]`` per segment, wire-major path
        order -- exactly the lists ``layout_to_json`` serializes."""
        if self._seg_rows is None:
            self._seg_rows = _np.stack(
                (self.seg_x1, self.seg_y1, self.seg_x2, self.seg_y2,
                 self.seg_layer),
                axis=1,
            ).tolist()
        return self._seg_rows

    def wire_segment_rows(self, wi: int) -> list[list[int]]:
        rows = self.segment_rows()
        starts = self.wire_seg_start
        return rows[int(starts[wi]):int(starts[wi + 1])]

    def zrun_rows(self) -> list[tuple[tuple[int, int], int, int]]:
        """``((x, y), z_lo, z_hi)`` per z-run (``Wire.z_occupancy``)."""
        if self._zrun_rows is None:
            self._zrun_rows = [
                ((int(self.zrun_x[i]), int(self.zrun_y[i])),
                 int(self.zrun_lo[i]), int(self.zrun_hi[i]))
                for i in range(self.num_zruns)
            ]
        return self._zrun_rows

    def wire_zruns(self, wi: int) -> list[tuple[tuple[int, int], int, int]]:
        rows = self.zrun_rows()
        starts = self.wire_zrun_start
        return rows[int(starts[wi]):int(starts[wi + 1])]

    def wire_vias(self, wi: int) -> list[tuple[int, int]]:
        """Planar via positions of wire ``wi`` (``Wire.vias``)."""
        return [pt for pt, _, _ in self.wire_zruns(wi)]

    def wire_endpoints(self):
        """Per-wire planar path pins ``(sx, sy, ex, ey)``, cached.

        ``(sx[i], sy[i])`` is wire ``i``'s path start (``Wire.start``)
        and ``(ex[i], ey[i])`` its path end (``Wire.end``), recovered
        from ``seg_rev``; a riser's start and end share its planar
        point.  Each is an int64 array.
        """
        if self._endpoints is not None:
            return self._endpoints
        W = self.num_wires
        starts = self.wire_seg_start
        riser = self.wire_is_riser.astype(bool)
        if self.num_segments:
            f = _np.clip(starts[:-1], 0, self.num_segments - 1)
            l = _np.clip(starts[1:] - 1, 0, self.num_segments - 1)
            revf = self.seg_rev[f].astype(bool)
            revl = self.seg_rev[l].astype(bool)
            sx = _np.where(revf, self.seg_x2[f], self.seg_x1[f])
            sy = _np.where(revf, self.seg_y2[f], self.seg_y1[f])
            ex = _np.where(revl, self.seg_x1[l], self.seg_x2[l])
            ey = _np.where(revl, self.seg_y1[l], self.seg_y2[l])
        else:
            sx, sy, ex, ey = (_np.zeros(W, dtype=_np.int64) for _ in range(4))
        if riser.any():
            zi = self.wire_zrun_start[:-1][riser]
            sx[riser] = self.zrun_x[zi]
            sy[riser] = self.zrun_y[zi]
            ex[riser] = self.zrun_x[zi]
            ey[riser] = self.zrun_y[zi]
        self._endpoints = (sx, sy, ex, ey)
        return self._endpoints

    # -- occupancy expansion (oracle) -----------------------------------

    def _unit_expansion(self):
        """Bulk unit expansion of every segment, cached.

        Returns ``(edges, edge_start, points, point_start)`` where
        ``edges[k] = (x, y, layer, horizontal)`` is the lower endpoint
        of one unit grid edge, ``points`` covers every grid point of
        every segment (endpoints included, shared junctions repeated
        per segment -- exactly ``Segment.planar_points``), and the
        ``*_start`` arrays are per-wire CSR offsets.  Order is
        wire-major, path order, ascending coordinate within a segment.
        """
        if self._units is not None:
            return self._units
        x1, y1 = self.seg_x1, self.seg_y1
        lens = (self.seg_x2 - x1) + (self.seg_y2 - y1)
        horiz = (self.seg_y1 == self.seg_y2)
        cum = _np.concatenate(([0], _np.cumsum(lens)))

        def expand(counts, count_cum):
            sid = _np.repeat(_np.arange(self.num_segments), counts)
            off = _np.arange(int(count_cum[-1])) - _np.repeat(
                count_cum[:-1], counts
            )
            h = horiz[sid]
            ex = x1[sid] + _np.where(h, off, 0)
            ey = y1[sid] + _np.where(h, 0, off)
            return _np.stack(
                (ex, ey, self.seg_layer[sid], h.astype(_np.int64)),
                axis=1,
            ).tolist()

        edges = expand(lens, cum)
        pcum = cum + _np.arange(self.num_segments + 1)
        points = expand(lens + 1, pcum)
        edge_start = cum[self.wire_seg_start].tolist()
        point_start = pcum[self.wire_seg_start].tolist()
        self._units = (edges, edge_start, points, point_start)
        return self._units

    def wire_unit_edges(self, wi: int):
        """Unit planar grid edges of wire ``wi`` as
        ``((x, y, layer), (x', y', layer))`` pairs, in the order the
        brute-force oracle enumerates them."""
        edges, edge_start, _, _ = self._unit_expansion()
        out = []
        for x, y, lay, h in edges[edge_start[wi]:edge_start[wi + 1]]:
            if h:
                out.append(((x, y, lay), (x + 1, y, lay)))
            else:
                out.append(((x, y, lay), (x, y + 1, lay)))
        return out

    def wire_cover_points(self, wi: int) -> list[tuple[int, int, int]]:
        """Every ``(x, y, layer)`` grid point covered by wire ``wi``'s
        segments (junction points repeated per covering segment)."""
        _, _, points, point_start = self._unit_expansion()
        return [
            (x, y, lay)
            for x, y, lay, _ in points[point_start[wi]:point_start[wi + 1]]
        ]

    def wire_cover_point_rows(self, wi: int) -> list[list[int]]:
        """Raw ``[x, y, layer, horizontal]`` cover-point rows of wire
        ``wi`` (the ASCII renderer keys glyphs off the orientation)."""
        _, _, points, point_start = self._unit_expansion()
        return points[point_start[wi]:point_start[wi + 1]]

    # -- memory accounting ----------------------------------------------

    def nbytes(self) -> int:
        """Bytes held by the core arrays (derived row/expansion caches
        excluded -- they are transient render helpers, not the
        representation)."""
        total = 0
        for name in (
            "seg_x1", "seg_y1", "seg_x2", "seg_y2", "seg_layer", "seg_rev",
            "wire_seg_start", "zrun_x", "zrun_y", "zrun_lo", "zrun_hi",
            "wire_zrun_start", "wire_length", "wire_is_riser",
            "node_x0", "node_y0", "node_x1", "node_y1", "node_layer",
        ):
            total += int(getattr(self, name).nbytes)
        return total


def object_graph_bytes(layout: "GridLayout") -> int:
    """Bytes held by the layout's *geometry object graph*: the wire
    list, ``Wire``/``Segment``/``Point`` instances, riser tuples, any
    materialized path-point caches, placement ``Placement``/``Rect``
    objects -- plus the coordinate ``int`` objects they reference
    (deduplicated by identity; CPython's small-int cache keeps shared
    ones from double-counting).  Node labels and ``meta`` are excluded:
    the :class:`WireTable` shares them with the object graph rather
    than replacing them, so they cancel out of the comparison
    ``python -m repro stats --mem`` prints.
    """
    seen: set[int] = set()

    def size(obj) -> int:
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return sys.getsizeof(obj)

    total = size(layout.wires)
    for w in layout.wires:
        total += size(w) + size(w.segments)
        for s in w.segments:
            total += size(s)
            for v in (s.x1, s.y1, s.x2, s.y2, s.layer):
                total += size(v)
        if w.riser is not None:
            total += size(w.riser)
            for v in w.riser:
                total += size(v)
        pts = getattr(w, "_pts", None)
        if pts is not None:
            total += size(pts)
            for p in pts:
                total += size(p) + size(p.x) + size(p.y) + size(p.layer)
    total += size(layout.placements)
    for p in layout.placements.values():
        total += size(p) + size(p.rect)
        for v in (p.rect.x0, p.rect.y0, p.rect.w, p.rect.h, p.layer):
            total += size(v)
    return total

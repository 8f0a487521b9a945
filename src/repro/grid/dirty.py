"""Dirty-region tracking for incremental revalidation.

A :class:`DirtyTracker` rides on a :class:`~repro.grid.layout.GridLayout`
(lazily attached the first time ``validate_layout(..., incremental=True)``
is called) and records which *y-bands x layer ranges* each mutation
touched:

* :meth:`on_replace` (``GridLayout.replace_wire``) marks the old and
  new wire's extents dirty and updates the cached per-wire extent
  arrays in place;
* :meth:`on_add` (``GridLayout.add_wire``) marks the new wire's extent;
* :meth:`on_place` marks the new node rectangle's band;
* :meth:`mark_all` (``GridLayout.invalidate_table``) poisons the whole
  tracker, forcing the next incremental validation to fall back to a
  full sweep.

Correctness contract: after a *successful* validation, only conflicts
involving an element touched **since that validation** can newly
appear, and every such conflict's counterpart geometrically intersects
the dirty element's own band (conflicts require shared grid lines,
overlapping layer intervals at shared points, or overlapping
rectangles).  Re-validating the sub-layout of wires and nodes whose
extents intersect the dirty bands therefore decides the whole layout's
verdict -- *relative to the last successful validation*: conflicts
purely among untouched elements were already ruled out then.
"""

from __future__ import annotations

from repro import accel

__all__ = ["DirtyTracker", "wire_extent"]


def wire_extent(wire) -> tuple[int, int, int, int]:
    """``(ymin, ymax, lmin, lmax)`` of one wire (the per-wire
    semantics of :func:`repro.accel.wire_extents`)."""
    if wire.riser is not None:
        _, y, zlo, zhi = wire.riser
        return (y, y, zlo, zhi)
    segs = wire.segments
    return (
        min(s.y1 for s in segs),
        max(s.y2 for s in segs),
        min(s.layer for s in segs),
        max(s.layer for s in segs),
    )


class DirtyTracker:
    """Touched y-bands x layer ranges since the last full validation."""

    __slots__ = ("full", "validated", "bands", "ymin", "ymax", "lmin", "lmax")

    #: Above this many distinct dirty bands the incremental path stops
    #: paying off (band bookkeeping itself becomes the cost) and the
    #: validator falls back to a full sweep.
    MAX_BANDS = 256

    def __init__(self) -> None:
        self.full = True
        self.validated = False
        self.bands: list[tuple[int, int, int, int]] = []
        self.ymin: list[int] = []
        self.ymax: list[int] = []
        self.lmin: list[int] = []
        self.lmax: list[int] = []

    # -- mutation hooks (called by GridLayout) --------------------------

    def on_add(self, wire) -> None:
        if self.full:
            return
        ext = wire_extent(wire)
        self.ymin.append(ext[0])
        self.ymax.append(ext[1])
        self.lmin.append(ext[2])
        self.lmax.append(ext[3])
        self.bands.append(ext)

    def on_replace(self, i: int, wire) -> None:
        if self.full:
            return
        if i >= len(self.ymin):  # pragma: no cover - defensive
            self.mark_all()
            return
        self.bands.append(
            (self.ymin[i], self.ymax[i], self.lmin[i], self.lmax[i])
        )
        ext = wire_extent(wire)
        self.ymin[i], self.ymax[i], self.lmin[i], self.lmax[i] = ext
        self.bands.append(ext)

    def on_place(self, rect, layer: int) -> None:
        if self.full:
            return
        self.bands.append((rect.y0, rect.y1, layer, layer))

    def mark_all(self) -> None:
        """Poison the tracker: next incremental call does a full sweep."""
        self.full = True
        self.bands = []

    # -- validator protocol ---------------------------------------------

    def needs_full(self) -> bool:
        return self.full or not self.validated

    def reset_after_full(self, layout) -> None:
        """Record a successful full validation: capture per-wire extents
        from the (already hot) wire table and arm incremental mode."""
        self.ymin, self.ymax, self.lmin, self.lmax = accel.wire_extents(
            layout.wire_table()
        )
        self.full = False
        self.validated = True
        self.bands = []

    def clear_bands(self) -> None:
        """Record a successful incremental validation."""
        self.bands = []

    def coalesced_bands(self) -> list[tuple[int, int, int, int]]:
        """The dirty set with duplicate bands removed (stable order)."""
        seen: set[tuple[int, int, int, int]] = set()
        out: list[tuple[int, int, int, int]] = []
        for band in self.bands:
            if band not in seen:
                seen.add(band)
                out.append(band)
        return out

    def select_wires(self, bands) -> list[int]:
        """Indices of wires whose extent intersects any dirty band
        (closed intervals: a conflict needs only a shared grid point)."""
        ymin, ymax = self.ymin, self.ymax
        lmin, lmax = self.lmin, self.lmax
        out = []
        for i in range(len(ymin)):
            for y0, y1, l0, l1 in bands:
                if ymax[i] >= y0 and ymin[i] <= y1 and (
                    lmax[i] >= l0 and lmin[i] <= l1
                ):
                    out.append(i)
                    break
        return out

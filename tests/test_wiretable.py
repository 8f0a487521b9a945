"""WireTable parity: the geometry kernel vs the object graph, exactly.

Every consumer rerouted onto :class:`~repro.grid.table.WireTable`
(metrics, delays, serialization, renderers, the oracle's occupancy
expansion) promises *byte-identical* outputs.  This module checks that
promise on the full topology zoo at two layer budgets plus every
network in the counterexample corpus: table accessors against walks of
the ``Wire``/``Segment`` object graph, and rendered bytes against the
SHA-256 digests recorded in ``render_digests.json``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import CASES, cached_layout
from repro.batch.spec import dispatch_scheme
from repro.grid import GridLayout, Rect, Wire, validate_layout
from repro.grid.io import layout_to_json
from repro.grid.oracle import oracle_validate
from repro.routing.paths import layout_link_delays
from repro.viz.ascii_art import ascii_grid_layout
from repro.viz.svg import svg_layer_stack, svg_layout

DIGESTS = Path(__file__).parent / "render_digests.json"


def _ceil_delay(length: int, alpha: float, base: float) -> int:
    return max(1, int(-(-(base + alpha * length) // 1)))


def _walk_bounds(lay):
    """``(x0, y0, x1, y1)`` over node rects and segment endpoints."""
    xs, ys = [], []
    for p in lay.placements.values():
        xs += [p.rect.x0, p.rect.x1]
        ys += [p.rect.y0, p.rect.y1]
    for w in lay.wires:
        for s in w.segments:
            xs += [s.x1, s.x2]
            ys += [s.y1, s.y2]
    return (min(xs), min(ys), max(xs), max(ys)) if xs else None


@pytest.mark.parametrize(
    "case_id,net,layers", CASES, ids=[c[0] for c in CASES]
)
def test_object_graph_parity(case_id, net, layers):
    """Table accessors == per-wire object walks, wire by wire."""
    lay = cached_layout(case_id, net, layers)
    table = lay.wire_table()
    wires = lay.wires
    assert table.num_wires == len(wires)

    assert table.wire_lengths() == [w.length for w in wires]
    assert table.via_count() == sum(len(w.z_occupancy()) for w in wires)
    expected_layers: set = set()
    for w in wires:
        expected_layers |= w.layers_used()
    assert table.layers_used() == expected_layers

    starts = table.wire_seg_start
    seg_rows = table.segment_rows()
    sx, sy, ex, ey = (a.tolist() for a in table.wire_endpoints())
    for wi, w in enumerate(wires):
        rows = seg_rows[int(starts[wi]):int(starts[wi + 1])]
        assert rows == [
            [s.x1, s.y1, s.x2, s.y2, s.layer] for s in w.segments
        ], f"segment rows differ on wire {wi} ({w.u}-{w.v})"
        assert table.wire_segment_rows(wi) == rows
        assert table.wire_vias(wi) == w.vias()
        assert table.wire_zruns(wi) == w.z_occupancy()
        if w.riser is None:
            assert (sx[wi], sy[wi]) == w.start.planar()
            assert (ex[wi], ey[wi]) == w.end.planar()
        else:
            assert (sx[wi], sy[wi]) == (ex[wi], ey[wi]) == w.riser[:2]

    for alpha, base in ((1.0, 1.0), (0.37, 2.5)):
        got = layout_link_delays(lay, alpha=alpha, base=base)
        want: dict = {}
        for w in wires:
            d = _ceil_delay(w.length, alpha, base)
            for key in ((w.u, w.v), (w.v, w.u)):
                if key not in want or d < want[key]:
                    want[key] = d
        assert got == want, f"link delays differ at alpha={alpha}"


@pytest.mark.parametrize(
    "case_id,net,layers", CASES, ids=[c[0] for c in CASES]
)
def test_numpy_vs_fallback_parity(case_id, net, layers):
    """Whole-table numpy arrays == the pure-python reference walk.

    The reference is a plain walk of the ``Wire``/``Segment`` objects
    (``Segment.planar_points`` for the oracle's occupancy expansion):
    the same values the deleted ``array('q')`` fallback table stored,
    computed without any table at all.
    """
    lay = cached_layout(case_id, net, layers)
    table = lay.wire_table()
    wires = lay.wires

    assert table.bounds() == _walk_bounds(lay)
    assert table.segment_rows() == [
        [s.x1, s.y1, s.x2, s.y2, s.layer] for w in wires for s in w.segments
    ]
    seg_start = [0]
    for w in wires:
        seg_start.append(seg_start[-1] + len(w.segments))
    assert table.wire_seg_start.tolist() == seg_start
    assert table.zrun_rows() == [r for w in wires for r in w.z_occupancy()]
    for alpha, base in ((1.0, 1.0), (0.37, 2.5)):
        assert table.link_delay_values(alpha=alpha, base=base) == [
            _ceil_delay(w.length, alpha, base) for w in wires
        ]

    # The oracle's occupancy expansion: every unit edge and grid point
    # of each segment, in path order, ascending coordinate.
    for wi, w in enumerate(wires):
        edges, points, point_rows = [], [], []
        for s in w.segments:
            pts = [(x, y, s.layer) for x, y in s.planar_points()]
            edges += list(zip(pts, pts[1:]))
            points += pts
            point_rows += [[*p, int(s.horizontal)] for p in pts]
        assert table.wire_unit_edges(wi) == edges
        assert table.wire_cover_points(wi) == points
        assert table.wire_cover_point_rows(wi) == point_rows


def _riser_only_layout() -> GridLayout:
    """Two risers between stacked nodes: wires and vias, no segments."""
    lay = GridLayout(layers=4)
    lay.place("a", Rect(0, 0, 2, 2), layer=1)
    lay.place("b", Rect(0, 0, 2, 2), layer=4)
    lay.place("c", Rect(4, 0, 2, 2), layer=1)
    lay.place("d", Rect(4, 0, 2, 2), layer=3)
    lay.add_wire(Wire.make_riser("a", "b", 2, 1, 1, 4))
    lay.add_wire(Wire.make_riser("c", "d", 4, 2, 1, 3))
    return lay


_SEGMENTLESS = {
    "empty": lambda: GridLayout(layers=2),
    "riser-only": _riser_only_layout,
}


def _render_digests(lay) -> dict:
    outputs = {
        "json": layout_to_json(lay),
        "svg": svg_layout(lay, legend=True),
        "stack": svg_layer_stack(lay),
        "ascii": ascii_grid_layout(lay, max_width=10_000),
    }
    return {
        k: hashlib.sha256(v.encode()).hexdigest() for k, v in outputs.items()
    }


def write_render_digests() -> None:
    """Rewrite ``render_digests.json`` from the current renderers."""
    doc = {
        case_id: _render_digests(cached_layout(case_id, net, layers))
        for case_id, net, layers in CASES
    }
    for name, make in _SEGMENTLESS.items():
        doc[name] = _render_digests(make())
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _recorded(case_id: str) -> dict:
    return json.loads(DIGESTS.read_text())[case_id]


@pytest.mark.parametrize(
    "case_id,net,layers", CASES, ids=[c[0] for c in CASES]
)
def test_rendered_bytes_parity(case_id, net, layers):
    """JSON, SVGs and ASCII match the recorded digests, byte for byte.

    ``render_digests.json`` holds the SHA-256 of each renderer's
    output per case.  Regenerate it -- only for an intended change to
    rendered output -- with::

        PYTHONPATH=src:tests python -c \\
            "import test_wiretable as t; t.write_render_digests()"
    """
    lay = cached_layout(case_id, net, layers)
    assert _render_digests(lay) == _recorded(case_id)


@pytest.mark.parametrize("name", sorted(_SEGMENTLESS))
def test_segmentless_tables(name):
    """Zero-segment tables: empty arrays flow through every accessor,
    the oracle, the validator and the renderers."""
    lay = _SEGMENTLESS[name]()
    table = lay.wire_table()
    W = len(lay.wires)
    assert table.num_segments == 0
    assert table.segment_rows() == []
    assert table.bounds() == _walk_bounds(lay)
    expected_layers: set = set()
    for w in lay.wires:
        expected_layers |= w.layers_used()
    assert table.layers_used() == expected_layers
    pts = [w.riser[:2] for w in lay.wires]
    assert [a.tolist() for a in table.wire_endpoints()] == [
        [x for x, _ in pts], [y for _, y in pts],
    ] * 2
    assert table._unit_expansion() == ([], [0] * (W + 1), [], [0] * (W + 1))
    for wi, w in enumerate(lay.wires):
        assert table.wire_unit_edges(wi) == []
        assert table.wire_cover_points(wi) == []
        assert table.wire_zruns(wi) == w.z_occupancy()
    assert validate_layout(lay)["segments"] == 0
    oracle_validate(lay)
    assert _render_digests(lay) == _recorded(name)


def test_table_cache_invalidation():
    """Appending or replacing a wire rebuilds the cached table."""
    from repro.topology import Ring

    lay = dispatch_scheme(Ring(6), layers=2, scheme="auto")
    t1 = lay.wire_table()
    assert lay.wire_table() is t1  # cached

    w0 = lay.wires[0]
    lay.wires[0] = Wire(
        w0.u, w0.v, list(w0.segments), edge_key=w0.edge_key
    )
    t2 = lay.wire_table()
    assert t2 is not t1, "wire replacement must invalidate the table"

    lay.invalidate_table()
    assert lay.wire_table() is not t2


def test_table_cache_survives_id_reuse():
    """A replaced wire's recycled address must not serve a stale table.

    CPython frees the old ``Wire`` the moment the last reference
    drops and eagerly hands its address to the next allocation, so a
    stamp of stored ``id()`` ints can collide with a *different* wire
    at the same address and keep a stale cache (the fuzzer's
    dirty-region stage caught ``clone_layout`` serializing pre-edit
    geometry this way).  Assert the two mechanisms that close the
    hole: the stamp strong-references the stamped wires (their ids
    cannot be recycled while the cache lives), and the mutation API
    drops the cache without consulting the stamp at all.
    """
    from repro.topology import Ring

    lay = dispatch_scheme(Ring(6), layers=2, scheme="auto")
    t1 = lay.wire_table()
    stamped = lay._table_stamp[1]
    assert len(stamped) == len(lay.wires)
    assert all(a is b for a, b in zip(stamped, lay.wires))

    w0 = lay.wires[0]
    lay.replace_wire(
        0, Wire(w0.u, w0.v, list(w0.segments), edge_key=w0.edge_key)
    )
    assert lay._table is None, "mutation API must drop the cache eagerly"
    t2 = lay.wire_table()
    assert t2 is not t1
    # The old stamp kept w0 alive until the rebuild; the new one holds
    # the replacement.
    assert lay._table_stamp[1][0] is lay.wires[0]

"""The accel kernels against the scalar checks they accelerate.

Every kernel in :mod:`repro.accel` promises that routing a check
through it never changes an observable result: validator verdicts and
error messages, cutwidth values and certificates must be exactly what
the scalar definitions give.  This module checks the kernels on the
same zoo x layers matrix (plus the counterexample corpus) as
``test_wiretable.py`` -- clean verdicts on legal layouts, and the
kernelized validator against the scalar reference battery on legal
*and* corrupted layouts, message text included -- and checks the
cutwidth DP tables against their defining recurrence.
"""

import random

import pytest

from conftest import CASES, cached_layout
from repro import accel
from repro.check.generate import mutate_layout
from repro.grid.dirty import wire_extent
from repro.grid.io import clone_layout
from repro.grid.validate import (
    LayoutError,
    _edge_disjointness_scalar,
    _parity_scalar,
    _validate_scalar_reference,
    validate_layout,
)


def _pin_rows(lay):
    rows = {label: i for i, label in enumerate(lay.placements)}
    u_rows = [rows[w.u] for w in lay.wires]
    v_rows = [rows[w.v] for w in lay.wires]
    return u_rows, v_rows


def test_backend_info_is_constant():
    assert accel.backend_info() == {
        "accel": "numpy", "table": "numpy", "engine": "numpy",
    }


# ---------------------------------------------------------------------------
# Kernel verdicts and values on legal layouts


@pytest.mark.parametrize(
    "case_id,net,layers", CASES, ids=[c[0] for c in CASES]
)
def test_kernel_parity_legal(case_id, net, layers):
    """The scalar battery accepts every zoo/corpus layout, so every
    kernel must return clean -- the conservative ones included, or
    validation silently drops to the slow scalar path -- and the
    values kernels compute must equal their scalar definitions."""
    lay = cached_layout(case_id, net, layers)
    table = lay.wire_table()
    _validate_scalar_reference(lay)

    assert accel.edge_sweep(table) == (_edge_disjointness_scalar(lay), True)
    assert accel.self_consistency_clean(table)
    assert accel.layer_budget_clean(table, lay.layers)
    try:
        _parity_scalar(lay)
        parity_ok = True
    except LayoutError:
        parity_ok = False
    assert accel.parity_clean(table) == parity_ok
    assert accel.bend_clean(table)
    assert accel.via_clean(table)
    assert accel.node_overlap_clean(table)
    assert accel.node_sweep_clean(table)
    assert accel.pins_clean(table, *_pin_rows(lay))
    assert list(zip(*accel.wire_extents(table))) == [
        wire_extent(w) for w in lay.wires
    ]


@pytest.mark.parametrize(
    "case_id,net,layers", CASES, ids=[c[0] for c in CASES]
)
def test_kernelized_validator_accepts_legal(case_id, net, layers):
    """The kernelized validator and the scalar battery both accept."""
    lay = cached_layout(case_id, net, layers)
    validate_layout(lay)
    _validate_scalar_reference(lay)


# ---------------------------------------------------------------------------
# Verdict + message parity on corrupted layouts


@pytest.mark.parametrize(
    "case_id,net,layers",
    [c for c in CASES if c[0].startswith("zoo")][:12],
    ids=[c[0] for c in CASES if c[0].startswith("zoo")][:12],
)
def test_corrupted_verdict_and_message_parity(case_id, net, layers):
    """Kernelized vs scalar: same verdict AND same message, always.

    Random corruption of zoo layouts -- the kernel fast path must
    never accept a layout the scalar battery rejects, and on rejection
    the diagnosis re-runs the scalar sweep, so even the message text
    matches.
    """
    base = cached_layout(case_id, net, layers)
    rng = random.Random(hash(case_id) & 0xFFFF)
    for round_no in range(8):
        lay = clone_layout(base)
        applied = 0
        for _ in range(rng.randint(1, 3)):
            applied += mutate_layout(lay, rng)
        if not applied:
            continue
        try:
            validate_layout(lay, check_pins=False)
            fast = (True, "")
        except LayoutError as exc:
            fast = (False, str(exc))
        try:
            _validate_scalar_reference(lay, check_pins=False)
            ref = (True, "")
        except LayoutError as exc:
            ref = (False, str(exc))
        assert fast == ref, f"round {round_no}: {fast} != {ref}"


# ---------------------------------------------------------------------------
# Cutwidth kernels


def _multigraph():
    from repro.topology.base import build_network

    return build_network(
        range(5), [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (3, 4), (0, 4)],
        "multi",
    )


class TestCutwidthParity:
    def test_dp_tables_match(self):
        """``cut[S]`` is the direct crossing-edge count and ``dp`` the
        defining recurrence ``dp[S] = min_v max(dp[S - v], cut[S])``."""
        from repro.topology import CompleteGraph, Hypercube, Ring

        for net in (Ring(7), Hypercube(3), CompleteGraph(5), _multigraph()):
            n = net.num_nodes
            index = net.index
            dp, cut = accel.cutwidth_dp(net, n)
            ref_dp = [0] * (1 << n)
            for s in range(1 << n):
                crossing = sum(
                    ((s >> index[u]) & 1) != ((s >> index[v]) & 1)
                    for u, v in net.edges
                )
                assert int(cut[s]) == crossing, (net.name, s)
                if s:
                    ref_dp[s] = min(
                        max(ref_dp[s & ~(1 << u)], crossing)
                        for u in range(n)
                        if (s >> u) & 1
                    )
            assert [int(x) for x in dp] == ref_dp, net.name

    def test_cut_profile_matches(self):
        """The difference-array profile equals a direct per-gap count."""
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 12)
            pairs = []
            for _ in range(rng.randint(0, 24)):
                a, b = rng.randrange(n), rng.randrange(n)
                if a > b:
                    a, b = b, a
                pairs.append((a, b))
            direct = max(
                sum(1 for a, b in pairs if a <= gap < b) for gap in range(n)
            )
            assert accel.cut_profile(n, pairs) == direct

    def test_certificate_profile_equals_dp_value(self):
        from repro.collinear.cutwidth import (
            cutwidth_certificate,
            exact_cutwidth,
        )
        from repro.topology import Hypercube, KAryNCube

        for net in (Hypercube(3), KAryNCube(3, 2)):
            cw, order = cutwidth_certificate(net)
            assert cw == exact_cutwidth(net)
            assert sorted(map(repr, order)) == sorted(
                map(repr, net.nodes)
            )

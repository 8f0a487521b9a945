"""Shared test helpers."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.grid.validate import check_topology, validate_layout

CORPUS_DIR = Path(__file__).parent / "corpus"


def assert_layout_ok(layout, network=None, *, parity=True):
    """Full legality check, plus topology equivalence when a network is
    given.  Used by nearly every scheme test."""
    report = validate_layout(layout, check_parity=parity)
    assert report["wires"] == len(layout.wires)
    if network is not None:
        check_topology(layout, network.edges)
    return report


@pytest.fixture
def small_layouts():
    """A few routed layouts reused across metric/viz tests."""
    from repro.core import layout_collinear_network, layout_kary
    from repro.topology import Ring

    return {
        "ring": layout_collinear_network(Ring(5)),
        "kary": layout_kary(3, 2),
        "kary4": layout_kary(3, 2, layers=4),
    }


def _zoo_corpus_cases() -> list:
    from repro.check.shrink import iter_corpus
    from repro.cli import _zoo_networks

    cases = [
        (f"zoo:{net.name}:L{L}", net, L)
        for net in _zoo_networks()
        for L in (2, 4)
    ]
    seen = set()
    for _path, case in iter_corpus(CORPUS_DIR):
        net = case.network
        if net.name not in seen:
            seen.add(net.name)
            cases.append((f"corpus:{net.name}:L2", net, 2))
    return cases


#: ``(case_id, network, layers)``: the network zoo at L=2 and L=4,
#: then every network of the counterexample corpus at L=2.
CASES = _zoo_corpus_cases()

_LAYOUT_CACHE: dict = {}


def cached_layout(case_id: str, net, layers: int):
    """The ``auto``-scheme layout of one :data:`CASES` entry, built once
    per test run.  Callers must not mutate it (clone first)."""
    lay = _LAYOUT_CACHE.get(case_id)
    if lay is None:
        from repro.batch.spec import dispatch_scheme

        lay = dispatch_scheme(net, layers=layers, scheme="auto")
        _LAYOUT_CACHE[case_id] = lay
    return lay

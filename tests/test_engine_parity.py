"""Byte-identical parity: the batched engine vs the per-packet oracle.

`simulate_fast` is only allowed to be fast -- every observable field of
`SimulationResult` must match `simulate` exactly: makespan, the full
latency histogram (hence avg/max/percentiles), per-link load and busy
time (hence `link_utilization` dict contents and the busiest-link
tie-break), and `queue_depth_hist`.  The matrix covers the network zoo
under L=2/L=4 layout-derived delays x every workload kind x 5 seeds.
Light runs keep every time bucket under the engine's ``_VEC_MIN``
batch threshold and take its scalar path; the saturating ones cross it
into the vectorized bucket kernel, so both paths face the oracle.
"""

import pytest

from repro.batch.spec import dispatch_scheme
from repro.core import layout_hypercube
from repro.routing import (
    WORKLOAD_KINDS,
    dimension_order_route,
    layout_link_delays,
    make_workload,
    simulate,
    simulate_fast,
    uniform,
)
from repro.topology import CubeConnectedCycles, Hypercube, Mesh, Ring, StarGraph

ZOO = {
    "hypercube4": Hypercube(4),
    "ring12": Ring(12),
    "ccc3": CubeConnectedCycles(3),
    "star4": StarGraph(4),
    "mesh4x4": Mesh(4, 2),
}


def _delays(name, L):
    """Layout-derived per-link delays for a zoo member at L layers."""
    net = ZOO[name]
    if isinstance(net, Hypercube):
        lay = layout_hypercube(net.n, layers=L, node_side="min")
    else:
        lay = dispatch_scheme(net, layers=L, scheme="generic")
    return layout_link_delays(lay)


@pytest.fixture(scope="module")
def delay_cache():
    cache = {}

    def get(name, L):
        key = (name, L)
        if key not in cache:
            cache[key] = _delays(name, L)
        return cache[key]

    return get


def _workload(kind, net, seed):
    if kind == "trace":
        base = uniform(net, rate=0.3, duration=8, seed=seed)
        return make_workload(kind, net, trace=base)
    try:
        return make_workload(kind, net, seed=seed, rate=0.25, duration=10)
    except ValueError as exc:
        if "undefined" in str(exc):
            pytest.skip(f"{kind} undefined for {net.name}")
        raise


def _assert_field_parity(oracle, fast):
    assert fast == oracle
    # The dataclass eq above already covers everything; spell out the
    # fields the issue names so a future field addition that breaks
    # eq-coverage fails loudly here too.
    assert fast.makespan == oracle.makespan
    assert fast.avg_latency == oracle.avg_latency
    assert fast.max_latency == oracle.max_latency
    assert fast.latency_hist == oracle.latency_hist
    assert fast.max_link_load == oracle.max_link_load
    assert fast.link_utilization == oracle.link_utilization
    # ...including dict insertion order, which carries the oracle's
    # first-acquisition sequence (the busiest-link tie-break).
    assert list(fast.link_utilization) == list(oracle.link_utilization)
    assert fast.queue_depth_hist == oracle.queue_depth_hist
    assert fast.busiest_link == oracle.busiest_link
    assert fast.as_dict() == oracle.as_dict()


class TestZooParity:
    @pytest.mark.parametrize("name", sorted(ZOO))
    @pytest.mark.parametrize("L", [2, 4])
    @pytest.mark.parametrize("kind", WORKLOAD_KINDS)
    def test_zoo_workloads_match(self, name, L, kind, delay_cache):
        net = ZOO[name]
        link_delay = delay_cache(name, L)
        for seed in range(5):
            msgs = _workload(kind, net, seed)
            oracle = simulate(net, msgs, link_delay=link_delay)
            fast = simulate_fast(net, msgs, link_delay=link_delay)
            _assert_field_parity(oracle, fast)


class TestModesAndRouters:
    @pytest.mark.parametrize("mode,length", [
        ("store_forward", 1), ("store_forward", 6),
        ("cut_through", 1), ("cut_through", 6),
    ])
    def test_modes_and_lengths(self, mode, length, delay_cache):
        net = ZOO["hypercube4"]
        route = lambda s, d: dimension_order_route(net, s, d)  # noqa: E731
        link_delay = delay_cache("hypercube4", 4)
        for seed in range(5):
            msgs = _workload("uniform", net, seed)
            oracle = simulate(
                net, msgs, link_delay=link_delay, router=route,
                mode=mode, message_length=length,
            )
            fast = simulate_fast(
                net, msgs, link_delay=link_delay, router=route,
                mode=mode, message_length=length,
            )
            _assert_field_parity(oracle, fast)

    def test_saturated_contention(self):
        # Everything funnels through one node: deep queues, the herd
        # regime where the engine's waiter heaps must still replay the
        # oracle's FIFO-by-index arbitration exactly.
        net = Ring(8)
        msgs = [(0, 4)] * 20 + [(1, 5)] * 10 + [(0, 4, 3)] * 5
        oracle = simulate(net, msgs, message_length=3)
        _assert_field_parity(
            oracle, simulate_fast(net, msgs, message_length=3)
        )

    def test_timed_and_degenerate_messages(self):
        net = Ring(6)
        msgs = [(2, 2), (0, 3, 7), (1, 1, 4), (5, 2)]
        oracle = simulate(net, msgs)
        _assert_field_parity(oracle, simulate_fast(net, msgs))

    def test_empty_run(self):
        oracle = simulate(Ring(4), [])
        _assert_field_parity(oracle, simulate_fast(Ring(4), []))


class TestErrorParity:
    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            simulate_fast(Ring(4), [(0, 1)], mode="teleport")

    def test_bad_length(self):
        with pytest.raises(ValueError, match="message_length"):
            simulate_fast(Ring(4), [(0, 1)], message_length=0)

    def test_runaway_guard(self):
        net = Ring(5)
        msgs = make_workload("adversarial", net, seed=1)
        with pytest.raises(RuntimeError, match="max_cycles"):
            simulate_fast(net, msgs, max_cycles=2)

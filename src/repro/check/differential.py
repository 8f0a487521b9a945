"""Differential pipeline driver: every scheme, cross-checked.

Each generated network runs through every *applicable* layout scheme
and a battery of invariants, every one backed by an independent
reference model:

``collinear-tracks``
    the left-edge engine's track count equals the max edge-cut of the
    order (interval coloring = clique number), for the canonical and a
    seeded random order;
``cutwidth-cert``
    the exact-cutwidth DP's optimal order, realized through the
    engine, achieves exactly the DP value (n <= ``exact_limit``);
``cutwidth-lb``
    no order beats the DP value;
``layout-legal``
    the fast validator accepts every layout the schemes build;
``oracle-legal``
    so does the brute-force occupancy oracle;
``topology``
    the routed edge multiset equals the network's;
``validator-oracle``
    on randomly corrupted clones, the fast validator and the oracle
    return the *same* verdict;
``dirty-region``
    incremental (dirty-band) revalidation returns the same verdict as
    a from-scratch validation after every random edit sequence;
``area-lb`` / ``volume-lb`` / ``wire-lb``
    measured area/volume/total-wire respect the bisection and unit-edge
    lower bounds of :mod:`repro.core.bounds` (exact brute-force
    bisection, small n only);
``multilayer-area``
    the L-layer layout's area never exceeds the 2-layer layout's;
``fold-*``
    geometric folding preserves legality, the edge multiset and wire
    lengths (uniform-pitch layouts only);
``threedee-legal``
    3-D deck stacking of k^3 tori yields legal layouts;
``engine-parity``
    the batched event engine (:func:`repro.routing.simulate_fast`)
    reproduces the per-packet oracle field-for-field on seeded zoo
    workloads.

A violated invariant (or a crash anywhere in a stage) becomes a
:class:`Violation`; :func:`run_fuzz` streams cases from
:mod:`repro.check.generate`, tallies per-stage counters and spans into
:mod:`repro.obs`, and returns a :class:`FuzzReport`.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field

from repro import obs
from repro.batch.cache import LayoutCache
from repro.obs import live
from repro.obs import logging as olog
from repro.batch.spec import dispatch_scheme
from repro.check.generate import (
    CheckCase,
    generate_cases,
    mutate_layout,
    network_from_doc,
    network_to_doc,
)
from repro.collinear.cutwidth import cutwidth_certificate
from repro.collinear.engine import collinear_layout
from repro.core.bounds import (
    area_lower_bound,
    exact_bisection,
    volume_lower_bound,
    wire_lower_bound,
)
from repro.core.folding import fold_layout
from repro.core.metrics import measure
from repro.grid.io import clone_layout, layout_to_json
from repro.grid.layout import GridLayout
from repro.grid.oracle import OracleViolation, oracle_validate
from repro.grid.validate import LayoutError, check_topology, validate_layout
from repro.routing import layout_link_delays, make_workload, simulate
from repro.routing.engine import simulate_fast
from repro.topology import DeBruijn, KAryNCube, Ring, ShuffleExchange, StarGraph

__all__ = [
    "Violation",
    "CheckResult",
    "FuzzReport",
    "STAGES",
    "check_case",
    "run_fuzz",
    "build_scheme_layout",
    "case_scheme",
]

STAGES = (
    "collinear",
    "cutwidth",
    "orthogonal",
    "agreement",
    "dirty-region",
    "folding",
    "threedee",
    "traffic",
)


@dataclass(frozen=True)
class Violation:
    """One broken invariant on one case."""

    invariant: str
    stage: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting
        return f"[{self.stage}/{self.invariant}] {self.detail}"


@dataclass
class CheckResult:
    """Everything one case's differential run produced."""

    case: CheckCase
    violations: list[Violation] = field(default_factory=list)
    stages_run: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, invariant: str, stage: str, detail: str) -> None:
        self.violations.append(Violation(invariant, stage, detail))


@dataclass
class FuzzReport:
    """Aggregate outcome of one :func:`run_fuzz` sweep."""

    seed: int
    budget: int
    cases_run: int = 0
    kind_counts: dict = field(default_factory=dict)
    stage_counts: dict = field(default_factory=dict)
    failures: list[CheckResult] = field(default_factory=list)
    elapsed_s: float = 0.0
    worker_health: dict = field(default_factory=dict)

    @property
    def violations(self) -> int:
        return sum(len(r.violations) for r in self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# Scheme dispatch


def case_scheme(case: CheckCase) -> str:
    """The :data:`repro.batch.spec.SCHEMES` label the case routes to.

    Zoo instances go through their family constructors; generated and
    shrunk graphs take the universal near-square grid, which is the
    scheme under adversarial test.
    """
    net = case.network
    if case.kind == "zoo":
        if isinstance(net, (ShuffleExchange, DeBruijn)):
            return "generic"
        if isinstance(net, StarGraph):
            return "cayley"
        return "auto"
    return "generic"


def build_scheme_layout(
    case: CheckCase, layers: int, cache: LayoutCache | None = None
) -> GridLayout:
    """Build (or fetch from ``cache``) the case's layout.

    The cache is addressed by network structure + scheme + layers --
    the same keys the sweep runner writes -- so a fuzz run pointed at
    a sweep-populated cache directory skips rebuilding layouts the
    sweep already produced.  Fuzz workers open the cache read-only.
    """
    scheme = case_scheme(case)
    if cache is None:
        return dispatch_scheme(case.network, layers=layers, scheme=scheme)
    key, key_doc = cache.key_for(
        case.network, scheme=scheme, layers=layers
    )
    entry = cache.get(key, key_doc)
    if entry is not None:
        return entry.layout()
    lay = dispatch_scheme(case.network, layers=layers, scheme=scheme)
    cache.put(key, key_doc, layout_to_json(lay))
    return lay


# ---------------------------------------------------------------------------
# Stages


def _stage_collinear(case: CheckCase, res: CheckResult, opts: dict) -> None:
    net = case.network
    lay = collinear_layout(net.nodes, net.edges)
    lay.check()
    if lay.num_tracks != lay.max_cut():
        res.add(
            "collinear-tracks", "collinear",
            f"left-edge used {lay.num_tracks} tracks but the order's "
            f"max cut is {lay.max_cut()}",
        )
    rng = random.Random(case.seed ^ 0x5EED5EED)
    order = list(net.nodes)
    rng.shuffle(order)
    shuffled = collinear_layout(net.nodes, net.edges, order)
    shuffled.check()
    if shuffled.num_tracks != shuffled.max_cut():
        res.add(
            "collinear-tracks", "collinear",
            f"random order: {shuffled.num_tracks} tracks vs max cut "
            f"{shuffled.max_cut()}",
        )
    opts["_tracks"] = min(lay.num_tracks, shuffled.num_tracks)


def _stage_cutwidth(case: CheckCase, res: CheckResult, opts: dict) -> None:
    net = case.network
    if net.num_nodes > opts["exact_limit"]:
        res.skipped.append("cutwidth")
        return
    cw, order = cutwidth_certificate(net, limit=opts["exact_limit"])
    achieved = opts.get("_tracks")
    if achieved is not None and cw > achieved:
        res.add(
            "cutwidth-lb", "cutwidth",
            f"DP cutwidth {cw} exceeds an achieved track count "
            f"{achieved} -- the 'lower bound' is not one",
        )
    opt = collinear_layout(net.nodes, net.edges, order)
    opt.check()
    if opt.num_tracks != cw:
        res.add(
            "cutwidth-cert", "cutwidth",
            f"optimal order realizes {opt.num_tracks} tracks, DP "
            f"says {cw}",
        )


def _validate_both(
    lay: GridLayout, res: CheckResult, stage: str, label: str
) -> bool:
    ok = True
    try:
        validate_layout(lay)
    except LayoutError as exc:
        res.add("layout-legal", stage, f"{label}: {exc}")
        ok = False
    try:
        oracle_validate(lay)
    except OracleViolation as exc:
        res.add("oracle-legal", stage, f"{label}: {exc}")
        ok = False
    return ok


def _stage_orthogonal(case: CheckCase, res: CheckResult, opts: dict) -> None:
    net = case.network
    areas: dict[int, int] = {}
    bis = None
    if net.num_nodes <= opts["bisect_limit"]:
        bis = exact_bisection(net)
    for L in sorted(case.layers):
        lay = build_scheme_layout(case, L, opts.get("cache"))
        label = f"L={L}"
        if not _validate_both(lay, res, "orthogonal", label):
            continue
        try:
            check_topology(lay, net.edges)
        except LayoutError as exc:
            res.add("topology", "orthogonal", f"{label}: {exc}")
            continue
        m = measure(lay)
        areas[L] = m.area
        if net.num_edges and m.total_wire < wire_lower_bound(net.num_edges):
            res.add(
                "wire-lb", "orthogonal",
                f"{label}: total wire {m.total_wire} < |E| = "
                f"{net.num_edges}",
            )
        if bis is not None:
            alb = area_lower_bound(bis, L)
            if m.area < alb:
                res.add(
                    "area-lb", "orthogonal",
                    f"{label}: area {m.area} < bisection bound {alb} "
                    f"(B={bis})",
                )
            vlb = volume_lower_bound(bis, L)
            if m.volume < vlb:
                res.add(
                    "volume-lb", "orthogonal",
                    f"{label}: volume {m.volume} < bound {vlb} (B={bis})",
                )
        opts.setdefault("_layouts", {})[L] = lay
    if len(areas) >= 2:
        lo = min(areas)
        for L, a in areas.items():
            if L > lo and a > areas[lo]:
                res.add(
                    "multilayer-area", "orthogonal",
                    f"area at L={L} ({a}) exceeds area at L={lo} "
                    f"({areas[lo]})",
                )


def _stage_agreement(case: CheckCase, res: CheckResult, opts: dict) -> None:
    base = opts.get("_layouts", {}).get(max(case.layers))
    if base is None:
        base = build_scheme_layout(case, max(case.layers), opts.get("cache"))
    rng = random.Random(case.seed * 7919 + 17)
    for _ in range(opts["mutation_rounds"]):
        lay = clone_layout(base)
        applied = 0
        for _ in range(rng.randint(1, 3)):
            applied += mutate_layout(lay, rng)
        if not applied:
            continue
        try:
            validate_layout(
                lay, check_pins=False, check_node_interference=True
            )
            fast_ok = True
            fast_msg = ""
        except LayoutError as exc:
            fast_ok, fast_msg = False, str(exc)
        try:
            oracle_validate(lay)
            oracle_ok = True
            oracle_msg = ""
        except OracleViolation as exc:
            oracle_ok, oracle_msg = False, str(exc)
        if fast_ok != oracle_ok:
            res.add(
                "validator-oracle", "agreement",
                f"verdicts diverge: fast "
                f"{'accepts' if fast_ok else f'rejects ({fast_msg})'}, "
                f"oracle "
                f"{'accepts' if oracle_ok else f'rejects ({oracle_msg})'}",
            )


def _stage_dirty_region(case: CheckCase, res: CheckResult, opts: dict) -> None:
    """Incremental revalidation agrees with from-scratch validation.

    A clone of the case's largest-L layout is validated with
    ``incremental=True`` (arming the dirty tracker), then mutated in
    rounds of 1-3 random edits -- ``mutate_layout`` routes each through
    ``GridLayout.replace_wire``, so the tracker sees every one.  After
    every round the incremental verdict must match a from-scratch
    ``validate_layout`` of a fresh clone; only verdicts are compared
    (a broken layout may hold several conflicts, and the two paths may
    legitimately report different ones first).
    """
    base = opts.get("_layouts", {}).get(max(case.layers))
    if base is None:
        base = build_scheme_layout(case, max(case.layers), opts.get("cache"))
    lay = clone_layout(base)
    try:
        validate_layout(
            lay, check_pins=False, check_node_interference=True,
            incremental=True,
        )
    except LayoutError:
        # The base layout itself is rejected (scheme bug -- the
        # orthogonal stage reports it); no baseline to increment from.
        res.skipped.append("dirty-region")
        return
    rng = random.Random(case.seed ^ 0xD187E)
    for _ in range(opts["mutation_rounds"]):
        applied = 0
        for _ in range(rng.randint(1, 3)):
            applied += mutate_layout(lay, rng)
        if not applied:
            continue
        try:
            validate_layout(
                lay, check_pins=False, check_node_interference=True,
                incremental=True,
            )
            inc_ok, inc_msg = True, ""
        except LayoutError as exc:
            inc_ok, inc_msg = False, str(exc)
        try:
            validate_layout(
                clone_layout(lay), check_pins=False,
                check_node_interference=True,
            )
            full_ok, full_msg = True, ""
        except LayoutError as exc:
            full_ok, full_msg = False, str(exc)
        if inc_ok != full_ok:
            res.add(
                "dirty-region", "dirty-region",
                f"verdicts diverge: incremental "
                f"{'accepts' if inc_ok else f'rejects ({inc_msg})'}, "
                f"from-scratch "
                f"{'accepts' if full_ok else f'rejects ({full_msg})'}",
            )
            return


def _stage_folding(case: CheckCase, res: CheckResult, opts: dict) -> None:
    if 2 not in case.layers or max(case.layers) < 4:
        res.skipped.append("folding")
        return
    base = opts.get("_layouts", {}).get(2)
    if base is None:
        base = build_scheme_layout(case, 2, opts.get("cache"))
    widths = base.meta.get("col_widths")
    extents = base.meta.get("col_channel_extents")
    L = max(case.layers)
    slabs = L // 2
    if (
        widths is None
        or extents is None
        or len(widths) % slabs
        or len({w + e for w, e in zip(widths, extents)}) > 1
    ):
        res.skipped.append("folding")
        return
    folded = fold_layout(base, L)
    if not _validate_both(folded, res, "folding", f"fold L={L}"):
        return
    if folded.edge_multiset() != base.edge_multiset():
        res.add(
            "fold-topology", "folding",
            "folding changed the routed edge multiset",
        )
    if folded.total_wire_length() != base.total_wire_length():
        res.add(
            "fold-wire", "folding",
            f"total wire changed: {base.total_wire_length()} -> "
            f"{folded.total_wire_length()}",
        )


def _stage_threedee(case: CheckCase, res: CheckResult, opts: dict) -> None:
    net = case.network
    if not (
        case.kind == "zoo"
        and isinstance(net, KAryNCube)
        and net.wraparound
        and net.n == 3
        and 3 <= net.k <= 4
    ):
        res.skipped.append("threedee")
        return
    from repro.core.threedee import layout_product_3d

    k = net.k
    lay = layout_product_3d(Ring(k), Ring(k), Ring(k), layers=2 * k)
    _validate_both(lay, res, "threedee", f"{k}^3 torus decks")


def _result_mismatch(oracle, fast) -> str | None:
    """Describe the first field where the two results diverge."""
    for name in (
        "makespan", "messages", "avg_latency", "max_latency",
        "latency_hist", "max_link_load", "busiest_link",
        "link_utilization", "queue_depth_hist",
    ):
        a, b = getattr(oracle, name), getattr(fast, name)
        if a != b:
            return f"{name}: oracle {a!r} vs fast {b!r}"
    if list(oracle.link_utilization) != list(fast.link_utilization):
        return "link_utilization insertion order diverged"
    return None


def _stage_traffic(case: CheckCase, res: CheckResult, opts: dict) -> None:
    """Differential-test the batched engine against the oracle.

    Seeded zoo workloads over the case's network, with per-link delays
    taken from the orthogonal stage's largest-L layout when it was
    built (unit delays otherwise), under a seeded choice of switching
    mode and message length.  Every observable field of
    :class:`~repro.routing.SimulationResult` must match.
    """
    net = case.network
    link_delay = None
    lay = opts.get("_layouts", {}).get(max(case.layers))
    if lay is not None:
        link_delay = layout_link_delays(lay)
    rng = random.Random(case.seed ^ 0x7AFF1C)
    kinds = ["uniform", rng.choice(
        ["hotspot", "bursty", "adversarial", "bit-reversal"]
    )]
    for kind in kinds:
        msgs = make_workload(kind, net, seed=case.seed, rate=0.3, duration=8)
        mode, length = rng.choice(
            [("store_forward", 1), ("store_forward", 4), ("cut_through", 4)]
        )
        kwargs = dict(
            link_delay=link_delay, mode=mode, message_length=length,
        )
        oracle = simulate(net, msgs, **kwargs)
        fast = simulate_fast(net, msgs, **kwargs)
        diff = _result_mismatch(oracle, fast)
        if diff is not None:
            res.add(
                "engine-parity", "traffic",
                f"{kind}/{mode}/ml={length}: {diff}",
            )


_STAGE_FNS = {
    "collinear": _stage_collinear,
    "cutwidth": _stage_cutwidth,
    "orthogonal": _stage_orthogonal,
    "agreement": _stage_agreement,
    "dirty-region": _stage_dirty_region,
    "folding": _stage_folding,
    "threedee": _stage_threedee,
    "traffic": _stage_traffic,
}


# ---------------------------------------------------------------------------
# Driver


def check_case(
    case: CheckCase,
    *,
    stages: tuple[str, ...] | None = None,
    exact_limit: int = 12,
    bisect_limit: int = 12,
    mutation_rounds: int = 2,
    cache: LayoutCache | None = None,
) -> CheckResult:
    """Run ``case`` through every selected stage; collect violations.

    An unexpected exception inside a stage is itself recorded as a
    ``pipeline-crash`` violation -- the fuzzer keeps running and the
    crash becomes a shrinkable counterexample like any other.
    ``cache`` (usually read-only) lets stages fetch scheme layouts a
    sweep already built instead of rebuilding them.
    """
    res = CheckResult(case=case)
    opts = {
        "exact_limit": exact_limit,
        "bisect_limit": bisect_limit,
        "mutation_rounds": mutation_rounds,
        "cache": cache,
    }
    selected = stages if stages is not None else STAGES
    with obs.span(
        "fuzz.case",
        case=case.case_id,
        kind=case.kind,
        n=case.network.num_nodes,
    ):
        for stage in selected:
            fn = _STAGE_FNS[stage]
            with obs.span(f"fuzz.{stage}"):
                before = len(res.violations)
                try:
                    fn(case, res, opts)
                except Exception as exc:  # noqa: BLE001 - fuzzing boundary
                    res.add(
                        "pipeline-crash", stage,
                        f"{type(exc).__name__}: {exc}",
                    )
            res.stages_run.append(stage)
            obs.count(f"fuzz.stage.{stage}")
            found = len(res.violations) - before
            if found:
                obs.count("fuzz.violations_found", found)
    obs.count("fuzz.cases_run")
    if not res.ok:
        olog.warning(
            "fuzz.case_failed",
            case=case.case_id,
            kind=case.kind,
            violations=[
                [v.invariant, v.stage] for v in res.violations
            ],
        )
    return res


def _tally(report: FuzzReport, case: CheckCase, result: CheckResult) -> None:
    report.cases_run += 1
    report.kind_counts[case.kind] = report.kind_counts.get(case.kind, 0) + 1
    for st in result.stages_run:
        if st not in result.skipped:
            report.stage_counts[st] = report.stage_counts.get(st, 0) + 1


def _fuzz_worker(payload: tuple) -> dict:
    """Process-pool entry: check the cases assigned to one worker.

    Workers regenerate the seeded case stream themselves (networks
    need not cross the process boundary) and keep every case with
    ``index % nworkers == wid``; failing cases come back as plain
    documents the parent rebuilds, keyed by case index so the merge
    is invariant under worker count.  With a ``run_dir`` each worker
    also keeps a heartbeat fresh for the parent's watchdog and
    ``repro watch``.
    """
    (wid, nworkers, seed, budget, layers, max_nodes, stages, kinds,
     exact_limit, bisect_limit, mutation_rounds, max_failures,
     cache_dir, observe, run_dir, log_path, log_run_id) = payload
    olog.fork_child(wid)
    if not olog.configured() and log_path:
        olog.configure(log_path, run_id=log_run_id, worker_id=wid)
    cache = (
        LayoutCache(cache_dir, readonly=True) if cache_dir else None
    )
    if observe:
        # Fork inherits the parent's registry; reset so the counter
        # snapshot returned below holds only this worker's activity.
        obs.reset()
        obs.enable()
    hb = None
    if run_dir is not None:
        hb = live.HeartbeatWriter(
            run_dir, wid,
            jobs_total=(budget - wid + nworkers - 1) // nworkers,
        )
        hb.beat(force=True)
        hb.start_pulse()
    out: dict = {
        "cases_run": 0,
        "kind_counts": {},
        "stage_counts": {},
        "failures": [],
    }
    for i, case in enumerate(generate_cases(
        seed, budget, layers=layers, max_nodes=max_nodes, kinds=kinds,
    )):
        if i % nworkers != wid:
            continue
        if hb is not None:
            hb.current_job = case.case_id
            hb.beat(force=True)
        result = check_case(
            case,
            stages=stages,
            exact_limit=exact_limit,
            bisect_limit=bisect_limit,
            mutation_rounds=mutation_rounds,
            cache=cache,
        )
        out["cases_run"] += 1
        if hb is not None:
            hb.job_tick()
        out["kind_counts"][case.kind] = (
            out["kind_counts"].get(case.kind, 0) + 1
        )
        for st in result.stages_run:
            if st not in result.skipped:
                out["stage_counts"][st] = (
                    out["stage_counts"].get(st, 0) + 1
                )
        if not result.ok:
            out["failures"].append({
                "index": i,
                "case_id": case.case_id,
                "seed": case.seed,
                "kind": case.kind,
                "layers": list(case.layers),
                "network": network_to_doc(case.network),
                "violations": [
                    [v.invariant, v.stage, v.detail]
                    for v in result.violations
                ],
                "stages_run": list(result.stages_run),
                "skipped": list(result.skipped),
            })
            if (
                max_failures is not None
                and len(out["failures"]) >= max_failures
            ):
                break
    out["snapshot"] = obs.registry().snapshot() if observe else {}
    out["spans"] = (
        [r.as_dict() for r in obs.trace_roots()] if observe else []
    )
    if hb is not None:
        hb.finish("done")
    return out


def _run_fuzz_parallel(
    report: FuzzReport,
    workers: int,
    payload_base: tuple,
    max_failures: int | None,
    run_dir: str | None = None,
    stall_after_s: float = live.DEFAULT_STALL_AFTER_S,
) -> None:
    from concurrent.futures import ProcessPoolExecutor

    from repro.batch.runner import _mp_context

    from repro.batch.runner import reroot_worker_spans

    payloads = [
        (wid, workers) + payload_base for wid in range(workers)
    ]
    failures: list[tuple[int, CheckResult]] = []
    watchdog = None
    if run_dir is not None:
        watchdog = live.Watchdog(
            run_dir, stall_after_s=stall_after_s,
        ).start()
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=_mp_context()
    ) as pool:
        for wid, out in enumerate(pool.map(_fuzz_worker, payloads)):
            report.cases_run += out["cases_run"]
            for k, v in out["kind_counts"].items():
                report.kind_counts[k] = report.kind_counts.get(k, 0) + v
            for k, v in out["stage_counts"].items():
                report.stage_counts[k] = report.stage_counts.get(k, 0) + v
            for doc in out["failures"]:
                case = CheckCase(
                    case_id=doc["case_id"],
                    seed=doc["seed"],
                    kind=doc["kind"],
                    network=network_from_doc(doc["network"]),
                    layers=tuple(doc["layers"]),
                )
                res = CheckResult(
                    case=case,
                    violations=[
                        Violation(*v) for v in doc["violations"]
                    ],
                    stages_run=list(doc["stages_run"]),
                    skipped=list(doc["skipped"]),
                )
                failures.append((doc["index"], res))
            if out["snapshot"] and obs.enabled():
                obs.registry().merge(out["snapshot"])
            reroot_worker_spans(
                wid, out["spans"], cases=out["cases_run"]
            )
    if watchdog is not None:
        report.worker_health = watchdog.stop()
    failures.sort(key=lambda pair: pair[0])
    report.failures = [res for _, res in failures]
    if max_failures is not None:
        report.failures = report.failures[:max_failures]


def run_fuzz(
    seed: int = 0,
    budget: int = 100,
    *,
    layers: tuple[int, ...] = (2, 4),
    max_nodes: int = 12,
    stages: tuple[str, ...] | None = None,
    kinds: tuple[str, ...] | None = None,
    exact_limit: int = 12,
    bisect_limit: int = 12,
    mutation_rounds: int = 2,
    max_failures: int | None = None,
    workers: int = 1,
    cache_dir=None,
    run_dir=None,
    stall_after_s: float = live.DEFAULT_STALL_AFTER_S,
) -> FuzzReport:
    """Generate ``budget`` cases and differential-check each one.

    ``max_failures`` stops the sweep early once that many failing
    cases have accumulated (the shrinker wants only a handful).

    ``workers > 1`` fans the case stream across processes (case ``i``
    goes to worker ``i % workers``) and merges failures by case index,
    so with ``max_failures=None`` the report's cases, counts, and
    failures are identical for every worker count.  With a failure cap
    the parallel path caps per worker and truncates after the merge --
    deterministic per worker count, but it may check more cases than a
    serial early-stopped run.  ``cache_dir`` points every worker at a
    shared layout cache, opened read-only in workers (a serial run
    opens it read-write and populates it).

    ``run_dir`` turns on live telemetry: a run manifest, per-worker
    heartbeats, a ``log.jsonl`` sink (unless one is already
    configured), and -- for parallel runs -- a watchdog whose final
    per-worker verdicts land in :attr:`FuzzReport.worker_health`.
    ``python -m repro watch RUNDIR`` renders all of it live.
    """
    from repro.check.generate import KINDS

    report = FuzzReport(seed=seed, budget=budget)
    run_dir = None if run_dir is None else os.fspath(run_dir)
    log_here = False
    if run_dir is not None:
        os.makedirs(run_dir, exist_ok=True)
        if not olog.configured():
            olog.configure(os.path.join(run_dir, live.LOG_NAME))
            log_here = True
        live.write_run_manifest(
            run_dir,
            kind="fuzz",
            seed=seed,
            jobs_total=budget,
            workers=workers,
        )
    start = time.perf_counter()
    try:
        with obs.span(
            "fuzz.run", seed=seed, budget=budget, workers=workers
        ):
            olog.info(
                "fuzz.start", seed=seed, budget=budget, workers=workers
            )
            if workers > 1:
                log_path = None
                if olog.configured():
                    from repro.obs.logging import _config as _log_cfg

                    log_path = (
                        _log_cfg.path if _log_cfg is not None else None
                    )
                _run_fuzz_parallel(
                    report,
                    workers,
                    (
                        seed, budget, layers, max_nodes, stages,
                        kinds or KINDS, exact_limit, bisect_limit,
                        mutation_rounds, max_failures,
                        None if cache_dir is None else str(cache_dir),
                        obs.enabled(),
                        run_dir,
                        log_path,
                        olog.run_id(),
                    ),
                    max_failures,
                    run_dir,
                    stall_after_s,
                )
            else:
                cache = (
                    LayoutCache(cache_dir) if cache_dir is not None else None
                )
                hb = None
                if run_dir is not None:
                    hb = live.HeartbeatWriter(
                        run_dir, 0, jobs_total=budget,
                    )
                    hb.beat(force=True)
                    hb.start_pulse()
                try:
                    for case in generate_cases(
                        seed,
                        budget,
                        layers=layers,
                        max_nodes=max_nodes,
                        kinds=kinds or KINDS,
                    ):
                        if hb is not None:
                            hb.current_job = case.case_id
                            hb.beat(force=True)
                        result = check_case(
                            case,
                            stages=stages,
                            exact_limit=exact_limit,
                            bisect_limit=bisect_limit,
                            mutation_rounds=mutation_rounds,
                            cache=cache,
                        )
                        _tally(report, case, result)
                        if hb is not None:
                            hb.job_tick()
                        if not result.ok:
                            report.failures.append(result)
                            if (
                                max_failures is not None
                                and len(report.failures) >= max_failures
                            ):
                                break
                finally:
                    if hb is not None:
                        hb.finish("done")
        report.elapsed_s = time.perf_counter() - start
        olog.info(
            "fuzz.done",
            cases_run=report.cases_run,
            failures=len(report.failures),
            elapsed_s=round(report.elapsed_s, 4),
        )
        if run_dir is not None:
            live.update_run_manifest(
                run_dir,
                state="done",
                jobs_done=report.cases_run,
                elapsed_s=round(report.elapsed_s, 4),
            )
    finally:
        if log_here:
            olog.close()
    return report

"""Regenerate ``perfbench/expected.json`` from in-process reference calls.

    python3 perfbench/gen_expected.py

Every answer the benchmark checks is listed here: the metrics of each
warm and cold (network, L) key, built by ``run_sweep_job`` without a
cache; the rows of ``standard_family_sweep`` run serially; and, for
each traffic stream, the digest of its ``simulate_fast`` result, which
must equal the oracle ``simulate`` result.  Run it only after an
intentional change to layouts or routing results.
"""

from __future__ import annotations

import json
import sys

import common


def main() -> int:
    common.pin_own_env()
    common.use_source()
    from repro.batch.runner import SweepRunner, run_sweep_job
    from repro.batch.spec import (
        SweepJob,
        parse_network,
        standard_family_sweep,
    )
    from repro.core.schemes import layout_network
    from repro.routing import simulate, simulate_fast
    from repro.routing.paths import layout_link_delays

    keys = {}
    for network, layers in common.warm_keys() + common.cold_keys():
        kid = common.key_id(network, layers)
        if kid not in keys:
            res = run_sweep_job(SweepJob(0, network, layers), None)
            keys[kid] = res.metrics
    rows = SweepRunner(workers=1).run(standard_family_sweep()).rows()

    net = parse_network(common.TRAFFIC_NETWORK)
    delays = layout_link_delays(
        layout_network(net, layers=common.TRAFFIC_LAYERS)
    )
    streams = {}
    ids = [common.stream_id("light", s) for s in common.LIGHT_SEEDS] + [
        common.stream_id("heavy", s) for s in common.HEAVY_SEEDS
    ]
    for sid in ids:
        msgs = common.make_stream(net, sid)
        fast = simulate_fast(net, msgs, link_delay=delays)
        oracle = simulate(net, msgs, link_delay=delays)
        digest = common.result_digest(fast)
        if common.result_digest(oracle) != digest:
            print(f"{sid}: simulate_fast disagrees with simulate",
                  file=sys.stderr)
            return 1
        streams[sid] = {"messages": len(msgs), "digest": digest}

    doc = {"keys": keys, "sweep_rows": rows, "streams": streams}
    bad = common.Expected(doc).golden_mismatches()
    if bad:
        print(f"disagrees with tests/golden_metrics.json: {bad}",
              file=sys.stderr)
        return 1
    with open(common.EXPECTED_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {common.EXPECTED_PATH}: {len(keys)} keys, "
          f"{len(rows)} sweep rows, {len(streams)} streams")
    return 0


if __name__ == "__main__":
    sys.exit(main())

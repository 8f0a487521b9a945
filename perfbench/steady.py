"""Steadiness self-check: is every end-to-end metric repeatable?

    python3 perfbench/steady.py

For each workload, runs the benchmark ten times with seeds 1-10 and ten
times with seeds 1001-1010, interleaved (1, 1001, 2, 1002, ...) so both
sets see the same phases of the machine, each run ``run_seconds`` long
as BENCHMARK.json sets it.  For every end-to-end metric it prints each
set's median, quartiles (``statistics.quantiles(values, n=4)``) and
spread -- the quartile distance as a share of the median -- against
the metric's bound, and how far the second set's median moved from the
first's, in the worse direction.

It exits 1 when a run fails, when any spread exceeds its metric's
bound, or when a median worsens by more than its bound.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import common
import stats

RUNS = 10
SEED_SETS = (1, 1001)


def one_run(workload, seed, seconds) -> dict:
    cmd = [sys.executable, os.path.join(common.HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=common.ROOT, capture_output=True,
                         text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    doc = json.loads(lines[-1]) if lines else {}
    if out.returncode != 0 or not doc.get("correct"):
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit {out.returncode})")
    return {k: v["value"] for k, v in doc["metrics"].items()}


def main() -> int:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    bad = []
    for workload in common.WORKLOADS:
        sets = [[] for _ in SEED_SETS]
        for i in range(RUNS):
            for runs, base in zip(sets, SEED_SETS):
                runs.append(one_run(workload, base + i, seconds))
                print(f"  {workload} seed {base + i}: " + " ".join(
                    f"{m['name']}={runs[-1][m['name']]:.4g}"
                    for m in metrics), flush=True)
        print(f"\n{workload}: {RUNS} runs x {len(sets)} seed sets, "
              f"{seconds:g} s each")
        print(f"  {'metric':16s} {'set':>3s} {'median':>11s} {'q1':>11s} "
              f"{'q3':>11s} {'spread':>7s} {'bound':>6s} {'drift':>7s}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = None
            for k, runs in enumerate(sets):
                vals = [r[name] for r in runs]
                q1, med, q3 = stats.quartiles(vals)
                sp = stats.spread(vals)
                drift = ""
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first
                    if m["better"] == "higher":
                        worse = -worse
                    drift = f"{worse:+7.3f}"
                    if worse > bound:
                        bad.append(f"{workload} {name}: median worse by "
                                   f"{worse:.3f} > {bound}")
                flag = ""
                if sp > bound:
                    flag = " <-- spread"
                    bad.append(f"{workload} {name} set {k + 1}: spread "
                               f"{sp:.3f} > {bound}")
                print(f"  {name:16s} {k + 1:3d} {med:11.4f} {q1:11.4f} "
                      f"{q3:11.4f} {sp:7.3f} {bound:6.2f} {drift:>7s}"
                      f"{flag}")
        print(flush=True)
    for line in bad:
        print(f"NOT STEADY: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

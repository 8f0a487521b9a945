"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload warm --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the run measures a compiled
copy of its ``src``.  ``--workload`` is one of
``warm``, ``cold``, ``sweep`` and ``traffic`` (see perfbench/README.md
for what each measures and why).  With ``--trace 0`` the run measures
the end-to-end metrics with no tracing; with ``--trace 1`` it is the
separate traced run that times each layer through its public calls
and reports the per-layer metrics.

Every metric is printed by name with its unit and sample count, then
the last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every answer was right and every process the
run started is gone, 1 otherwise, and 2 when the checkout holds no
program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import common
import stats


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=common.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment_line(backends: dict | None) -> str:
    import platform

    import numpy

    b = backends or {}
    return (
        f"env: python {platform.python_version()}, numpy "
        f"{numpy.__version__}, nproc {len(os.sched_getaffinity(0))}, backends "
        f"accel={b.get('accel')} table={b.get('table')} "
        f"engine={b.get('engine')}"
    )


class Report:
    """Metrics with units and sample counts, printed then emitted."""

    def __init__(self):
        self.rows: list[tuple[str, float, str, str]] = []

    def add(self, name: str, value: float, unit: str, samples: str) -> None:
        self.rows.append((name, float(value), unit, samples))

    def print(self) -> None:
        for name, value, unit, samples in self.rows:
            print(f"  {name:26s} {value:14.4f} {unit:6s} {samples}")

    def metrics(self) -> dict:
        return {n: {"value": v, "unit": u} for n, v, u, _ in self.rows}


def end_to_end(report: Report, *, setups, latencies, window_s, cpu_ms,
               procs: int, rss_mb: float) -> None:
    n = len(latencies)
    report.add("setup_s", stats.median(setups), "s",
               f"median of n={len(setups)} set-ups")
    report.add("ops_per_s", n / window_s, "1/s",
               f"n={n} ops in {window_s:.3f} s")
    report.add("latency_p50_ms", stats.percentile(latencies, 50), "ms",
               f"n={n} ops")
    report.add("latency_p90_ms", stats.percentile(latencies, 90), "ms",
               f"n={n} ops")
    report.add("cpu_ms_per_op", cpu_ms / n, "ms",
               f"n={n} ops, {procs} processes")
    report.add("rss_peak_mb", rss_mb, "MB",
               f"sum of peak RSS over {procs} processes")


def measure(workload, seed, seconds, workdir, expected, tally, report):
    """The untraced run; returns the backends the program reported."""
    import serving
    from child import SWEEP_WORKERS, run_child

    if workload == "warm":
        res = serving.run_warm(workdir, seed, seconds, expected, tally)
        ok = [op["ms"] for op in res["ops"] if not op["error"]]
        end_to_end(report, setups=res["setups"], latencies=ok,
                   window_s=res["window_s"], cpu_ms=sum(res["cpu"].values()),
                   procs=len(res["cpu"]), rss_mb=res["rss_mb"])
        return res["stats"]["backends"]
    if workload == "cold":
        rounds = serving.run_cold(workdir, seed, seconds, expected, tally)
        ok = [op["ms"] for r in rounds for op in r["ops"] if not op["error"]]
        end_to_end(report, setups=[r["setup_s"] for r in rounds],
                   latencies=ok,
                   window_s=sum(r["window_s"] for r in rounds),
                   cpu_ms=sum(sum(r["cpu"].values()) for r in rounds),
                   procs=len(rounds[0]["cpu"]),
                   rss_mb=max(r["rss_mb"] for r in rounds))
        print(f"  ({len(rounds)} rounds of {len(common.cold_keys())} keys)")
        return rounds[-1]["stats"]["backends"]
    res = run_child(workload, seed, seconds, workdir, tally)
    procs = 1 + (SWEEP_WORKERS if workload == "sweep" else 0)
    end_to_end(report, setups=res["setups"],
               latencies=res["ops"],
               window_s=res["window_s"], cpu_ms=res["cpu_ms"],
               procs=procs, rss_mb=res["rss_mb"])
    return res["backends"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not common.program_present():
        print(f"perfbench: no program at {common.SRC}/repro; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    common.pin_own_env()
    workdir = os.path.join(common.WORK, f"run-{os.getpid()}")
    os.makedirs(os.path.join(workdir, "tmp"))
    os.environ["TMPDIR"] = os.path.join(workdir, "tmp")
    tempfile.tempdir = None
    try:
        common.stage_program(workdir)
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir) -> int:
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    tally = common.Tally()
    expected = common.Expected.load()
    for name in expected.golden_mismatches():
        tally.fail(f"expected answers disagree with golden metrics: {name}")
    report = Report()
    if args.trace:
        import traced

        backends = traced.run(args.workload, args.seed, args.seconds,
                              workdir, expected, tally, report)
    else:
        backends = measure(args.workload, args.seed, args.seconds, workdir,
                           expected, tally, report)
    print(environment_line(backends))
    report.print()
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'error_rate':26s} {rate:14.4f} {'ratio':6s} "
          f"{tally.failed} failed of {tally.attempted} attempted")
    for reason in tally.reasons:
        print(f"  FAILED: {reason}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": report.metrics(),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""The work process of the ``sweep`` and ``traffic`` workloads.

The benchmark starts ``python3 perfbench/child.py <workload> <seed>``
and talks to it over stdin/stdout, one JSON line per message:

1. the child sets up and prints ``{"ready": ...}``;
2. on ``go <seconds>`` it runs ops back to back for that much op time,
   checks every output against the expected answers and prints
   ``{"paused": true}``; the parent may send ``go`` again;
3. on ``end`` it prints ``{"done": ...}`` with every op so far and
   exits; on ``quit`` (or end of input) it exits silently.

The parent launches three children to time set-up: the first runs
the timed window, in two parts, and the other two set up and quit
between the parts and after the window.

The child reads its own CPU (``/proc/self/stat``, reaped sweep slices
included) around each op, and its peak RSS at the end.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time

import common
import proctree

#: Work processes launched per run; ``setup_s`` is the median of
#: their set-up times.
LAUNCHES = 3
SWEEP_WORKERS = 2
#: Ops at the end of set-up, outside the timed window (they count in
#: ``setup_s``, not in the op latencies).  The first few sweeps of a fresh
#: process run ~1.6x slower than the rest; timing them would put a
#: start-up tail into every run's p90.
WARMUP_OPS = 3


class SweepWork:
    """Each op runs the standard family sweep on two workers into a
    fresh cache directory, so every job is built."""

    def __init__(self, seed: int, workdir: str, expected: common.Expected):
        from repro.batch.runner import SweepRunner
        from repro.batch.spec import standard_family_sweep

        self.runner_cls = SweepRunner
        self.spec = standard_family_sweep()
        self.expected = expected
        self.root = os.path.join(workdir, f"sweep-{os.getpid()}")
        os.makedirs(self.root)

    def op(self, i: int):
        cache = os.path.join(self.root, f"op{i}")
        return self.runner_cls(
            workers=SWEEP_WORKERS, cache_dir=cache
        ).run(self.spec)

    def check(self, i: int, res) -> list[str]:
        bad = []
        if not self.expected.rows_ok(res.rows()):
            bad.append(f"sweep op {i}: rows differ from expected")
        sources = {r.source for r in res.results}
        if sources != {"built"}:
            bad.append(f"sweep op {i}: sources {sorted(sources)}")
        if res.lost_workers():
            bad.append(f"sweep op {i}: lost workers {res.lost_workers()}")
        return bad

    def finish(self) -> list[str]:
        shutil.rmtree(self.root, ignore_errors=True)
        return []


class TrafficWork:
    """Each op is one ``simulate_fast`` run of a prebuilt stream on the
    8-cube's L=4 layout, with link delays computed in set-up."""

    def __init__(self, seed: int, workdir: str, expected: common.Expected):
        from repro.batch.spec import parse_network
        from repro.core.schemes import layout_network
        from repro.routing import simulate_fast
        from repro.routing.paths import layout_link_delays

        self.simulate_fast = simulate_fast
        self.expected = expected
        self.net = parse_network(common.TRAFFIC_NETWORK)
        layout = layout_network(self.net, layers=common.TRAFFIC_LAYERS)
        self.delays = layout_link_delays(layout)
        self.schedule = common.traffic_schedule(seed, 30000)
        self.streams = {
            sid: common.make_stream(self.net, sid)
            for sid in set(self.schedule)
        }

    def op(self, i: int):
        return self.simulate_fast(
            self.net, self.streams[self.schedule[i]], link_delay=self.delays
        )

    def check(self, i: int, res) -> list[str]:
        sid = self.schedule[i]
        if self.expected.stream_ok(sid, common.result_digest(res)):
            return []
        return [f"traffic op {i} ({sid}): result digest differs"]

    def finish(self) -> list[str]:
        """One light stream through the oracle simulator."""
        from repro.routing import simulate

        light = next(s for s in self.schedule if s.startswith("light"))
        oracle = simulate(self.net, self.streams[light], link_delay=self.delays)
        if self.expected.stream_ok(light, common.result_digest(oracle)):
            return []
        return [f"oracle simulate on {light}: digest differs"]


WORK = {"sweep": SweepWork, "traffic": TrafficWork}


def child_main(workload: str, seed: int, workdir: str) -> int:
    # Protocol lines go to the real stdout; anything the program under
    # test prints lands on stderr instead.
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def say(doc):
        proto.write(json.dumps(doc) + "\n")
        proto.flush()

    common.use_source()
    from repro.accel import backend_info

    work = WORK[workload](seed, workdir, common.Expected.load())
    bad = []
    for i in range(WARMUP_OPS):
        bad += work.check(i, work.op(i))
    say({"ready": True, "backends": backend_info()})
    # The window is the ops alone: each op's output is checked and
    # dropped right after it, outside its wall and CPU time, so the
    # check costs nothing and memory does not grow with the op count.
    me = os.getpid()
    ops, busy, cpu_ms = [], 0.0, 0.0
    while True:
        cmd = sys.stdin.readline().split()
        if not cmd or cmd[0] == "quit":
            return 0
        if cmd[0] == "end":
            break
        target = busy + float(cmd[1])
        while busy < target:
            i = WARMUP_OPS + len(ops)
            c0 = proctree.sample(me)["cpu_ms"]
            t0 = time.perf_counter()
            res = work.op(i)
            dt = time.perf_counter() - t0
            cpu_ms += proctree.sample(me)["cpu_ms"] - c0
            busy += dt
            ops.append(dt * 1000.0)
            bad += work.check(i, res)
            del res
        say({"paused": True})
    bad += work.finish()
    say({
        "done": True,
        "ops": ops,
        "window_s": busy,
        "cpu_ms": cpu_ms,
        "failures": bad,
        "rss_kb": proctree.sample(me)["hwm_kb"],
        "children_maxrss_kb": resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss,
    })
    return 0


# -- parent side ------------------------------------------------------------


class Child:
    def __init__(self, workload: str, seed: int, workdir: str, n: int):
        self.log = open(os.path.join(workdir, f"{workload}{n}.log"), "ab")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), workload,
             str(seed), workdir],
            cwd=common.ROOT, env=common.work_env(), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log,
            start_new_session=True,
        )
        self.seen: dict = {}

    def recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.proc.args[2]} work process died; "
                               f"see {self.log.name}")
        return json.loads(line)

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def snapshot(self) -> dict:
        snap = proctree.snapshot(self.proc.pid)
        self.seen.update(snap)
        return snap

    def finish(self) -> list[int]:
        """Wait for the child to exit; pids of its tree still alive."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        survivors = proctree.stop(self.proc, self.seen, grace=30.0)
        self.proc.stdout.close()
        self.log.close()
        return survivors


def run_child(workload: str, seed: int, seconds: float, workdir: str,
              tally) -> dict:
    """Time ``LAUNCHES`` set-ups and run the timed window in the first.

    The other set-ups come between the window's parts and after it,
    so their median samples the machine at several moments of the run
    rather than in one burst.
    """
    setups = []

    def launch() -> tuple[Child, dict]:
        child = Child(workload, seed, workdir, len(setups))
        try:
            ready = child.recv()
        except BaseException:
            tally.stopped(child.finish())
            raise
        setups.append(time.perf_counter() - child.t0)
        return child, ready

    def setup_only() -> None:
        child, _ = launch()
        child.send("quit")
        tally.stopped(child.finish())

    main, ready = launch()
    try:
        main.snapshot()
        parts = LAUNCHES - 1
        for k in range(parts):
            if k:
                setup_only()
            main.send(f"go {seconds / parts!r}")
            main.recv()
        main.send("end")
        done = main.recv()
    finally:
        tally.stopped(main.finish())
    setup_only()
    tally.attempted += len(done["ops"])
    for reason in done["failures"]:
        tally.fail(reason)
    rss_kb = done["rss_kb"]
    if workload == "sweep":
        rss_kb += SWEEP_WORKERS * done["children_maxrss_kb"]
    return {
        "setups": setups,
        "ops": done["ops"],
        "window_s": done["window_s"],
        "cpu_ms": done["cpu_ms"],
        "rss_mb": rss_kb / 1024.0,
        "backends": ready["backends"],
    }


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1], int(sys.argv[2]), sys.argv[3]))

"""Shared inputs, paths, environment and answer checks of the benchmark.

The benchmark runs from the root of a source checkout: the program is
``src/repro`` there.  Each run copies ``src`` into its scratch directory
and compiles it (``stage_program``); every process of the run imports
the program from that copy, and starts it as ``python3 -m repro`` with
``PYTHONPATH`` pointing there.  Everything the benchmark writes goes
under ``perfbench/.work`` in the checkout.
"""

from __future__ import annotations

import compileall
import hashlib
import json
import os
import random
import re
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
GOLDEN_PATH = os.path.join(ROOT, "tests", "golden_metrics.json")

#: Switches that select a backend, inject faults or change logging.
#: They are removed from every work process's environment so each run
#: measures the default configuration.
PINNED_ENV = (
    "REPRO_ACCEL_BACKEND",
    "REPRO_TABLE_FALLBACK",
    "REPRO_ENGINE_FALLBACK",
    "REPRO_POOL_DELAY_S",
    "REPRO_SWEEP_FAULT",
    "REPRO_LOG_LEVEL",
)

WORKLOADS = ("warm", "cold", "sweep", "traffic")

# -- warm: the cache read path ---------------------------------------------

#: Entries from ~40 KB to ~780 KB, so a hit's cost spans the key
#: hashing and JSON decode of small and large layouts.
WARM_NETWORKS = (
    "hypercube:8", "hypercube:10", "kary:8,3", "kary:4,4",
    "butterfly:6", "ccc:6", "ghc:8,8", "folded-hypercube:8",
    "mesh:16,2", "complete:32", "star:5", "hsn:4,3",
)
WARM_LAYERS = (2, 4, 8)

# -- cold: the build path ----------------------------------------------------

#: Six small (~20-35 ms builds) and six mid-size (~60-90 ms) families,
#: the generic-opt routes (shuffle-exchange, de Bruijn, ~185/240 ms)
#: and the 10-cube (~330 ms), each at six layer budgets: 90 distinct
#: keys.  The sizes place the p50 rank (45 of 90) inside the mid-size
#: mode and the p90 rank (81 of 90) in the middle of the de Bruijn
#: mode, away from the gaps between modes.
COLD_NETWORKS = (
    "star:5", "butterfly:5", "mesh:12,2", "ghc:6,6", "complete:24",
    "hsn:4,3",
    "hypercube:8", "kary:6,3", "ccc:6", "folded-hypercube:8",
    "kary:4,4", "butterfly:6",
    "shuffle-exchange:6", "de-bruijn:6", "hypercube:10",
)
COLD_LAYERS = (2, 3, 4, 5, 6, 8)

# -- traffic: the routing engine ----------------------------------------------

TRAFFIC_NETWORK = "hypercube:8"
TRAFFIC_LAYERS = 4
#: Light uniform streams keep every event bucket under the engine's
#: vector threshold (scalar path); heavy ones saturate the 8-cube
#: (numpy batch classification).  Each stream is fixed by its own
#: generator seed, so its result digest is known in advance; a run's
#: ``--seed`` picks the order in which the streams are replayed.
LIGHT_STREAM = {"rate": 0.004, "duration": 1500}
HEAVY_STREAM = {"rate": 1.0, "duration": 40}
LIGHT_SEEDS = tuple(range(12))
HEAVY_SEEDS = tuple(range(100, 106))


def key_id(network: str, layers: int) -> str:
    """The expected-answers key of one (network, L) request."""
    return f"{network}@L{layers}"


def warm_keys() -> list[tuple[str, int]]:
    return [(n, L) for n in WARM_NETWORKS for L in WARM_LAYERS]


def cold_keys() -> list[tuple[str, int]]:
    return [(n, L) for n in COLD_NETWORKS for L in COLD_LAYERS]


def stream_id(kind: str, seed: int) -> str:
    return f"{kind}:{seed}"


def traffic_schedule(seed: int, ops: int) -> list[str]:
    """``ops`` stream ids, light and heavy interleaved 2:1.

    Light streams take two of every three slots, so the p50 falls in
    the light mode and the p90 in the heavy mode.  Each kind cycles
    through its own seeded permutation.
    """
    rng = random.Random(f"traffic-{seed}")
    light = [stream_id("light", s) for s in LIGHT_SEEDS]
    heavy = [stream_id("heavy", s) for s in HEAVY_SEEDS]
    rng.shuffle(light)
    rng.shuffle(heavy)
    out = []
    n_light = n_heavy = 0
    for i in range(ops):
        if i % 3 == 2:
            out.append(heavy[n_heavy % len(heavy)])
            n_heavy += 1
        else:
            out.append(light[n_light % len(light)])
            n_light += 1
    return out


def make_stream(net, sid: str) -> list:
    """The message stream named ``sid`` on ``net``."""
    from repro.routing import make_workload

    kind, _, seed = sid.partition(":")
    params = LIGHT_STREAM if kind == "light" else HEAVY_STREAM
    return make_workload("uniform", net, seed=int(seed), **params)


def result_digest(result) -> str:
    """SHA-256 over every field of a ``SimulationResult``."""
    doc = {
        **result.as_dict(),
        "link_utilization": [
            [repr(k), v] for k, v in result.link_utilization.items()
        ],
        "latency_hist": result.latency_hist,
    }
    blob = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


#: Names the run's compiled copy of ``src``; inherited by work processes.
PROGRAM_ENV = "PERFBENCH_PROGRAM"


def stage_program(workdir: str) -> str:
    """Copy ``src`` into ``workdir`` and compile every module there.

    Set-up times then always include reading fresh bytecode and never
    compiling it, whatever ``__pycache__`` directories the checkout
    holds or a test run left behind.  Untimed; about 0.4 s.
    """
    dest = os.path.join(workdir, "src")
    shutil.copytree(SRC, dest,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if not compileall.compile_dir(dest, quiet=1):
        raise RuntimeError(f"compiling {dest} failed")
    os.environ[PROGRAM_ENV] = dest
    return dest


def program_dir() -> str:
    """The run's compiled copy of ``src``, or ``src`` itself when no
    run staged one (``gen_expected.py``)."""
    return os.environ.get(PROGRAM_ENV, SRC)


def use_source() -> None:
    """Import the program from the run's copy of ``src``."""
    path = program_dir()
    if path not in sys.path:
        sys.path.insert(0, path)


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def work_env() -> dict:
    """The environment of every work process: pinned, seeded hashing,
    the staged program, and no bytecode writes (it is all compiled)."""
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env["PYTHONPATH"] = program_dir()
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def pin_own_env() -> None:
    """Drop the pinned switches before this process imports ``repro``
    (they are read at import time)."""
    for name in PINNED_ENV:
        os.environ.pop(name, None)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


class Expected:
    """The expected-answers file, cross-checked against the golden file."""

    def __init__(self, doc: dict):
        self.keys: dict[str, dict] = doc["keys"]
        self.sweep_rows: list[dict] = doc["sweep_rows"]
        self.streams: dict[str, dict] = doc["streams"]
        #: Metrics of every (network, L) the file knows, sweep jobs too.
        self.metrics = {
            key_id(r["network"], r["layers"]): r["metrics"]
            for r in self.sweep_rows
        }
        self.metrics.update(self.keys)

    @classmethod
    def load(cls, path: str = EXPECTED_PATH) -> "Expected":
        with open(path) as fh:
            return cls(json.load(fh))

    def metrics_ok(self, network: str, layers: int, metrics) -> bool:
        want = self.metrics.get(key_id(network, layers))
        return want is not None and canonical(want) == canonical(metrics)

    def rows_ok(self, rows: list[dict]) -> bool:
        return canonical(rows) == canonical(self.sweep_rows)

    def stream_ok(self, sid: str, digest: str) -> bool:
        want = self.streams.get(sid)
        return want is not None and want["digest"] == digest

    def golden_mismatches(self, path: str = GOLDEN_PATH) -> list[str]:
        """Keys whose expected metrics disagree with the golden file.

        Golden names ``family(a,b)_L<n>`` map to ``family:a,b@L<n>``;
        a golden entry with a suffix (folded orders, ``min`` node
        sides) was built another way and is skipped.
        """
        with open(path) as fh:
            golden = json.load(fh)
        bad = []
        checked = 0
        for name, want in golden.items():
            m = re.fullmatch(r"([a-z_]+)\(([\d,]+)\)_L(\d+)", name)
            if m is None:
                continue
            family = m.group(1).replace("_", "-")
            got = self.metrics.get(
                key_id(f"{family}:{m.group(2)}", int(m.group(3))))
            if got is None:
                continue
            checked += 1
            if any(got[f] != v for f, v in want.items() if f in got):
                bad.append(name)
        if checked == 0:
            bad.append("no key overlaps the golden file")
        return bad


class Tally:
    """Attempted/failed answers, survivors and the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def ops(self, ops) -> None:
        for op in ops:
            self.attempted += 1
            if op["error"]:
                self.fail(f"{op['key']}: {op['error']}")

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def check(self, ok: bool, reason: str) -> None:
        if not ok:
            self.fail(reason)

    def stopped(self, survivors: list[int]) -> None:
        self.check(not survivors,
                   f"pids {survivors} outlived their stopped parent")

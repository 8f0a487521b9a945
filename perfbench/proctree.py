"""CPU, memory and lifetime of a work process tree, read from ``/proc``.

A tree is a root pid plus every descendant listed in
``/proc/<pid>/task/<tid>/children``.  CPU is ``utime + stime`` of each
member plus ``cutime + cstime`` (the CPU of descendants it has already
reaped), so short-lived children such as sweep slices still count once
their parent has waited for them.  Memory is each member's ``VmHWM``
(its peak resident set) from ``/proc/<pid>/status``.

Members are identified by ``(pid, starttime)`` so a recycled pid is
never mistaken for a survivor.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            raw = fh.read()
    except OSError:
        return None
    # The command name may contain spaces; fields resume after ')'.
    return raw[raw.rindex(")") + 2:].split()


def children(pid: int) -> list[int]:
    out = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(c) for c in fh.read().split())
        except OSError:
            continue
    return out


def members(root: int) -> list[int]:
    """``root`` and all its live descendants, parents first."""
    out, todo = [], [root]
    while todo:
        pid = todo.pop(0)
        out.append(pid)
        todo.extend(children(pid))
    return out


def sample(pid: int) -> dict | None:
    """One member's identity, CPU (ms) and peak RSS (KB), or None."""
    f = _stat_fields(pid)
    if f is None:
        return None
    # Fields after the name: utime is index 11, stime 12, cutime 13,
    # cstime 14, starttime 19.
    tick_ms = 1000.0 / CLK_TCK
    hwm = 0
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    hwm = int(line.split()[1])
                    break
    except OSError:
        return None
    return {
        "start": int(f[19]),
        "cpu_ms": (int(f[11]) + int(f[12]) + int(f[13]) + int(f[14]))
        * tick_ms,
        "hwm_kb": hwm,
    }


def snapshot(root: int) -> dict[int, dict]:
    """``{pid: sample}`` for every live member of the tree."""
    snap = {}
    for pid in members(root):
        s = sample(pid)
        if s is not None:
            snap[pid] = s
    return snap


def cpu_between(before: dict, after: dict) -> dict[int, float]:
    """CPU ms each member used between two snapshots."""
    out = {}
    for pid, s in after.items():
        b = before.get(pid)
        base = b["cpu_ms"] if b is not None and b["start"] == s["start"] else 0.0
        out[pid] = s["cpu_ms"] - base
    return out


def peak_rss_mb(snap: dict) -> float:
    """Sum of the members' peak resident sets, in MB."""
    return sum(s["hwm_kb"] for s in snap.values()) / 1024.0


def alive(pid: int, start: int) -> bool:
    f = _stat_fields(pid)
    return f is not None and int(f[19]) == start and f[0] not in ("Z", "X")


def stop(proc: subprocess.Popen, known: dict, *, sig=signal.SIGINT,
         grace: float = 0.0, timeout: float = 30.0) -> list[int]:
    """Stop a tree by signalling its root; return the pids that survived.

    ``known`` maps every pid ever seen in the tree to its sample (for
    the start time).  The root gets ``sig`` and must exit on its own,
    taking its children with it; a root expected to exit by itself gets
    ``grace`` seconds first.  Anything still running afterwards is
    a survivor: it is killed so nothing outlives the benchmark, and
    reported so the run counts as failed.
    """
    known = {**known, **snapshot(proc.pid)}
    hung = []
    try:
        proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        proc.send_signal(sig)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        hung.append(proc.pid)
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 2.0
    while True:
        left = [p for p, s in known.items() if alive(p, s["start"])]
        if not left or time.monotonic() > deadline:
            break
        time.sleep(0.02)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    return hung + left

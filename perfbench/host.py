"""What the benchmark reads about its host from ``/proc``: the CPUs it
may use, the processes a run has started and their peak memory."""

from __future__ import annotations

import os
import re
import signal
import time


def num_cpus() -> int:
    """``nproc``: ``OMP_NUM_THREADS`` when set, else the CPUs this
    process may run on."""
    env = os.environ.get("OMP_NUM_THREADS", "")
    return int(env) if env.isdigit() and int(env) > 0 \
        else len(os.sched_getaffinity(0))


def session_pids(sid: int) -> list[int]:
    """Live (not zombie) processes of session ``sid``."""
    out = []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat", "rb") as fh:
                f = fh.read().rsplit(b")", 1)[1].split()
        except OSError:  # exited while we looked
            continue
        if int(f[3]) == sid and f[0] != b"Z":
            out.append(int(d))
    return out


def reap_session(sid: int, grace_s: float = 10.0) -> None:
    """Wait for every process of session ``sid`` to end; SIGKILL what
    is still running after ``grace_s`` and wait for that too."""
    stop = time.monotonic() + grace_s
    while (left := session_pids(sid)) and time.monotonic() < stop:
        time.sleep(0.1)
    for p in left:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while session_pids(sid):
        time.sleep(0.05)


def ray_pids() -> list[int]:
    """This process and every ``ray::`` worker descended from it: the
    processes whose peak RSS a job's memory sums."""
    me = os.getpid()
    parent, title = {}, {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat", "rb") as fh:
                stat = fh.read()
            with open(f"/proc/{d}/cmdline", "rb") as fh:
                title[int(d)] = fh.read(5)
        except OSError:  # the process exited while we looked
            continue
        parent[int(d)] = int(stat.rsplit(b")", 1)[1].split()[1])

    def ours(p: int) -> bool:
        while p > 1:
            if p == me:
                return True
            p = parent.get(p, 0)
        return False

    return [me] + [p for p in parent
                   if p != me and title[p].startswith(b"ray::") and ours(p)]


def reset_peak_rss(pids: list[int]) -> None:
    for p in pids:
        try:
            with open(f"/proc/{p}/clear_refs", "w") as fh:
                fh.write("5")  # peak RSS := current RSS
        except OSError:
            pass


def peak_rss_kb(pids: list[int]) -> dict[int, int]:
    """pid → VmHWM (peak RSS since start or the last reset) in kB."""
    out = {}
    for p in pids:
        try:
            with open(f"/proc/{p}/status") as fh:
                m = re.search(r"^VmHWM:\s+(\d+) kB", fh.read(), re.M)
        except OSError:
            continue
        if m:
            out[p] = int(m.group(1))
    return out


class SessionWatch:
    """Samples the peak RSS of a session's leader and ``ray::`` workers
    while it runs, so a worker that starts and exits between two job
    boundaries is still seen."""

    def __init__(self, sid: int):
        self.sid = sid
        self.members: set[int] = set()
        self.others: set[int] = set()
        self.samples: list[tuple[float, dict[int, int]]] = []

    def _scan(self) -> None:
        for d in os.listdir("/proc"):
            if not d.isdigit():
                continue
            p = int(d)
            if p in self.members or p in self.others:
                continue
            try:
                with open(f"/proc/{d}/stat", "rb") as fh:
                    f = fh.read().rsplit(b")", 1)[1].split()
                with open(f"/proc/{d}/cmdline", "rb") as fh:
                    title = fh.read(5)
            except OSError:
                continue
            if int(f[3]) != self.sid:
                # no process can join an existing session later
                self.others.add(p)
            elif p == self.sid or title.startswith(b"ray::"):
                self.members.add(p)
            # else a session process that is not (yet) a named worker:
            # looked at again on the next scan

    def sample(self) -> None:
        self._scan()
        hwm = peak_rss_kb(sorted(self.members))
        self.members &= set(hwm)  # exited: its pid may be reused
        self.samples.append((time.monotonic(), hwm))

    def peak_mb(self, t0: float, t1: float, last: dict[int, int]) -> float:
        """Peak RSS summed over the processes seen in ``[t0, t1]`` —
        each one's highest sample there, or ``last`` (read by the job
        itself when it ended) if higher."""
        peak = dict(last)
        for t, hwm in self.samples:
            if t0 <= t <= t1:
                for p, kb in hwm.items():
                    peak[p] = max(kb, peak.get(p, 0))
        return sum(peak.values()) / 1024.0

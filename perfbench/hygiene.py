"""What a round must leave behind (nothing), and what it ran on: the
process tree, the machine's speed (the calibration spin), the fingerprint.

Process-tree bookkeeping reads ``/proc`` directly: the container has no
psutil, and the tree is three levels deep at most (child -> server ->
workers).
"""

from __future__ import annotations

import glob
import os
import platform
import signal
import subprocess
import time
from typing import Dict, List

from perfbench import ROOT

#: the machine speed every time is expressed at: the one at which ``spin``
#: takes this long — this box when nobody disturbs it (0.75-0.80 ms).  A
#: constant, not something a run learns: two checkouts, or two commits,
#: measured an hour apart must correct towards the same speed.
REFERENCE_SPIN_S = 0.0008

__all__ = ["descendants", "peak_rss_mb", "leftovers", "kill_tree",
           "spin", "REFERENCE_SPIN_S", "fingerprint", "cpus"]


def cpus() -> int:
    """CPUs this process may actually run on (cgroup/affinity honest)."""
    return len(os.sched_getaffinity(0))


def _stat_fields(pid: int):
    """(ppid, state) of ``pid``, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            after_comm = fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return int(after_comm[1]), after_comm[0]


def descendants(root: int) -> List[int]:
    """Live (non-zombie) descendants of ``root``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and fields[1] != "Z":
                children.setdefault(fields[0], []).append(int(entry))
    out, frontier = [], [root]
    while frontier:
        frontier = [c for pid in frontier for c in children.get(pid, ())]
        out.extend(frontier)
    return out


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of each process's resident-set high-water mark (``VmHWM``).
    Pages shared through shm count once per process that touched them."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[1] != "Z"


def _is_resource_tracker(pid: int) -> bool:
    """multiprocessing's shm bookkeeper: started by the first SharedMemory,
    exits when its parent does — by design still there after teardown."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return b"multiprocessing.resource_tracker" in fh.read()
    except OSError:
        return False


def leftovers(pids: List[int], grace_s: float = 3.0) -> List[str]:
    """What the processes in ``pids`` (all told to stop by now) left: live
    processes — after ``grace_s`` to finish exiting — and
    ``/dev/shm/reproshm-<pid>p...`` segments."""
    pids = [pid for pid in pids if not _is_resource_tracker(pid)]
    deadline = time.monotonic() + grace_s
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.02)
    out = []
    for pid in pids:
        if _alive(pid):
            out.append(f"process {pid} outlived the round")
        for path in glob.glob(f"/dev/shm/reproshm-{pid}p*"):
            out.append(f"leaked shm segment {os.path.basename(path)}")
    return out


def kill_tree(pids: List[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    for pid in pids:
        for path in glob.glob(f"/dev/shm/reproshm-{pid}p*"):
            try:
                os.unlink(path)
            except OSError:
                pass


def spin() -> float:
    """Seconds a fixed pure-Python loop takes: how fast this core is right
    now.  About 0.8 ms on a quiet core here; a noisy neighbour shows in it
    first (there is no steal time to read: /proc/stat reports none)."""
    t0 = time.perf_counter()
    x = 0
    for i in range(20_000):
        x += i & 7
    return time.perf_counter() - t0


def fingerprint() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None   # a bare checkout has no history to name
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": cpus(),
    }

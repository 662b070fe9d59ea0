"""Measurement primitives of the end-to-end benchmark.

Percentile rule, process-tree CPU and memory accounting, lifecycle
hygiene and run provenance.  Nothing here imports ``repro`` at module
level, so the instrument's self-tests can exercise the arithmetic
without the engine on ``sys.path``.
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import subprocess
import sys
import time

__all__ = ["percentile", "tail_percentile", "tree_cpu_seconds",
           "child_pids", "peak_rss_mb", "hygiene_failures",
           "stop_process_tree", "provenance"]

#: A percentile is reported only with this many samples beyond it
#: (choosing-metrics: "the highest percentile that has at least ten
#: samples beyond it") — p90 needs 100 ops, p99 needs 1000.
MIN_SAMPLES_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(values, q: float) -> float | None:
    """``percentile`` when enough samples lie beyond it, else ``None``."""
    if round(len(values) * (1.0 - q), 6) < MIN_SAMPLES_BEYOND:
        return None
    return percentile(values, q)


# -- process tree -------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the command name, or ``None``
    when the process is gone (or there is no procfs)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    # The command name is parenthesised and may itself contain spaces.
    return text[text.rindex(")") + 2:].split()


def _descendants() -> dict[int, list[str]]:
    """``pid -> stat fields`` of this process's live descendants."""
    try:
        entries = os.listdir("/proc")
    except OSError:
        return {}
    table = {}
    for entry in entries:
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                table[int(entry)] = fields
    found, frontier = {}, [os.getpid()]
    while frontier:
        parent = frontier.pop()
        for pid, fields in table.items():
            if int(fields[1]) == parent:
                found[pid] = fields
                frontier.append(pid)
    return found


def child_pids() -> list[int]:
    """Live descendants of this process, via procfs."""
    return list(_descendants())


def tree_cpu_seconds() -> tuple[float, float]:
    """``(own, children)`` user+sys CPU seconds of the process tree.

    ``children`` adds the reaped children (``getrusage``) to the live
    descendants read from procfs, so a delta taken around a timed phase
    counts a persistent worker pool that is still running.
    """
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    children = reaped.ru_utime + reaped.ru_stime
    for fields in _descendants().values():
        children += (int(fields[11]) + int(fields[12])) / _TICK
    return time.process_time(), children


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set in MB (Linux reports ``ru_maxrss`` in KB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def _resource_tracker():
    from multiprocessing import resource_tracker
    return resource_tracker._resource_tracker


def hygiene_failures() -> list[str]:
    """What a closed workload left behind: shm segments, worker PIDs."""
    from repro.engine.shm import leaked_segments
    failures = []
    segments = leaked_segments()
    if segments:
        failures.append(f"leaked shm segments: {segments}")
    # multiprocessing's resource tracker (started for the shm plane) is a
    # helper of the interpreter, not a worker; stop_process_tree ends it.
    helper = getattr(_resource_tracker(), "_pid", None)
    survivors = [pid for pid in child_pids() if pid != helper]
    if survivors:
        failures.append(f"surviving child processes: {survivors}")
    return failures


def stop_process_tree(grace: float = 5.0) -> list[int]:
    """Last thing before exit, on every path out: leave no process behind.

    Terminates, kills and reaps whatever still descends from this process
    (nothing, after a clean teardown), then stops multiprocessing's
    resource tracker and waits for it.  Left alone the tracker notices
    the parent's exit only through its closed pipe, *after* the parent is
    gone, so whoever started the benchmark would find a process — then an
    unreaped zombie — behind it.  Returns the PIDs that were signalled.
    """
    tracker = _resource_tracker()
    helper = getattr(tracker, "_pid", None)

    def others() -> list[int]:
        _reap(skip=helper)
        return [pid for pid in child_pids() if pid != helper]

    signalled: set[int] = set()
    for signum in (signal.SIGTERM, signal.SIGKILL):
        for pid in others():
            signalled.add(pid)
            try:
                os.kill(pid, signum)
            except OSError:
                pass
        deadline = time.monotonic() + grace
        while others() and time.monotonic() < deadline:
            time.sleep(0.01)
    # The tracker ends when the last writer of its pipe closes it; every
    # forked worker held a copy, and they are all gone now.
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    elif helper is not None:
        os.kill(helper, signal.SIGKILL)
        os.waitpid(helper, 0)
    return sorted(signalled)


def _reap(skip: int | None) -> None:
    """Collect the direct children that have already ended (all but
    ``skip``, which its owner waits for itself)."""
    for pid, fields in _descendants().items():
        if pid != skip and int(fields[1]) == os.getpid() and fields[0] == "Z":
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass


# -- provenance ---------------------------------------------------------------

def _git_sha(repo_root: str) -> str | None:
    # Only in a git work tree of its own: elsewhere git would walk up and
    # read directories outside the checkout.
    if not os.path.exists(os.path.join(repo_root, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo_root,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(repo_root: str, seed: int, options: dict) -> dict:
    """Everything needed to rerun a result: code, inputs, environment.

    Stored beside every committed number, the way the LCG Monte-Carlo
    Data Base stores generator configuration beside each sample.
    """
    import numpy
    return {
        "git_sha": _git_sha(repo_root),
        "seed": seed,
        "nproc": os.cpu_count(),
        "loadavg_1min_at_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "options": options,
    }

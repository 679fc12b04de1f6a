"""Open-loop load for the latency metrics, and the statistics they use.

The generator writes records to the CLI's ``--source stdin`` on a fixed
schedule (record i is due ``i / rate`` seconds after the start) that does
not slow down when the program does; a stall shows up as lateness of the
generator and as latency of the windows behind it. One thread writes and
one reads, both in the benchmark's own process, apart from the program.

A window's latency is the time its result line is read minus the due
time of the record that closes it: the first record sent whose event
time is at or past the window's end. Windows that no record closes fire
only at end of input and carry no latency.
"""

from __future__ import annotations

import bisect
import json
import math
import subprocess
import threading
import time
from dataclasses import dataclass

# Time the program gets to start before the schedule begins, so that
# interpreter start-up (measured by setup_s) is not charged to the first
# windows.
SETTLE_S = 0.4
# Shortest sleep of the writer between two writes; records due meanwhile
# go out together, at most this late.
TICK_S = 0.001


def closing_index(times: list[int], window_end: int) -> int | None:
    """Index of the first record with event time >= window_end in a
    non-decreasing list, or None when no record closes the window."""
    i = bisect.bisect_left(times, window_end)
    return i if i < len(times) else None


def attribute(arrivals: list[tuple[float, int]], times: list[int],
              rate: float) -> list[float]:
    """Latency in seconds of each (read time, window end) pair that some
    record closes; read times count from the schedule's start."""
    out = []
    for read_at, end in arrivals:
        i = closing_index(times, end)
        if i is not None:
            out.append(read_at - i / rate)
    return out


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples above it."""
    if not values or not 0 < q <= 100:
        raise ValueError(f"percentile {q} of {len(values)} samples")
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


@dataclass
class OpenLoopRun:
    """What one open-loop run of the CLI produced."""

    returncode: int
    output: bytes
    latencies_s: list[float]
    lag_s: list[float]          # lateness of each write behind its schedule


def run_open_loop(cmd: list[str], env: dict, lines: list[bytes],
                times: list[int], rate: float, stderr,
                timeout: float) -> OpenLoopRun:
    """Write ``lines`` to the command's stdin at ``rate`` lines a second,
    read its result lines as they appear, and attribute latencies. The
    command is killed if it runs longer than ``timeout`` seconds."""
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=stderr)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    arrivals: list[tuple[float, bytes]] = []
    lag: list[float] = []

    def read() -> None:
        for line in proc.stdout:
            arrivals.append((time.perf_counter(), line))

    reader = threading.Thread(target=read, daemon=True)
    try:
        reader.start()
        time.sleep(SETTLE_S)
        t0 = time.perf_counter()
        sent, n = 0, len(lines)
        try:
            while sent < n:
                now = time.perf_counter() - t0
                due = min(n, int(now * rate) + 1)
                if due > sent:
                    proc.stdin.write(b"".join(lines[sent:due]))
                    proc.stdin.flush()
                    lag.append(time.perf_counter() - t0 - sent / rate)
                    sent = due
                time.sleep(max(TICK_S, sent / rate - now))
            proc.stdin.close()
        except BrokenPipeError:
            pass
        reader.join()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join(timeout=5)
    output = b"".join(line for _, line in arrivals)
    ends = []
    for read_at, line in arrivals:
        try:
            ends.append((read_at - t0, json.loads(line)["window_end"]))
        except (ValueError, TypeError, KeyError):
            pass  # the output check counts the bad line
    return OpenLoopRun(proc.returncode, output, attribute(ends, times, rate),
                       lag)

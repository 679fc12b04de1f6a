"""Runs commands for the benchmark and reports each one's own peak RSS.

Started once, before the benchmark loads its inputs, and kept small. A
process records the peak RSS of the memory image it replaces at exec,
so a child forked from the benchmark after it holds 100 MB of records
and references would report those 100 MB as its own peak. Children of
this small process report their true peak.

Protocol: one JSON request per line on stdin, ``{"cmd": [...], "err":
path, "timeout": seconds}``; one JSON reply per
line on stdout, ``{"wall_s", "returncode", "maxrss_kib"}``. The process
ends when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(cmd, err, timeout):
    with open(err, "ab") as err_fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err_fh)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "returncode": proc.returncode,
            "maxrss_kib": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["cmd"], req["err"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

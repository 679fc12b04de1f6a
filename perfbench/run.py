"""Benchmark of the gridstream CLI: one workload per call.

    python3 perfbench/run.py --workload range-sparse --seed 1 \
        --seconds 40 --trace 0

Run it from the repository root; it runs the program from ``./src``.
With ``--trace 0`` it replays the workload through the CLI the way a
user would and reports the end-to-end metrics; with ``--trace 1`` it
times calls into each module instead and reports the per-layer metrics
(see ``trace_layers.py``). Every output window is checked against a
reference built apart from the program. The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
(counted in windows) and ``metrics``. Generated inputs and outputs go
to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import openloop
from workloads import (OPEN_RATE, WORKLOADS, Record, Workload, generate,
                       render)

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Open-loop windows a run needs, so that ten lie beyond the 90th percentile.
MIN_LATENCY_SAMPLES = 110
# Least share of the timed phase that open-loop runs take; the rest goes
# to grid and naive file runs.
OPEN_SHARE = 0.2
# A CLI run that takes longer is killed and its windows count as failed.
CHILD_TIMEOUT_S = 60.0


@dataclass
class Inputs:
    """A workload's generated streams, their files and their references.

    ``main`` is the whole input, ``setup`` its first window of event time
    and ``open`` the prefix written to stdin by the open-loop generator.
    A join's query stream is cut to the same span as each part.
    """

    w: Workload
    s1: list[Record]
    s2: list[Record]
    dir: Path
    _expected: dict[str, list[dict]] = field(default_factory=dict)

    def part(self, name: str) -> tuple[list[Record], list[Record]]:
        n = {"main": self.w.n, "setup": self.w.setup_n,
             "open": self.w.open_n}[name]
        s1 = self.s1[:n]
        last = s1[-1].event_time
        return s1, [q for q in self.s2 if q.event_time <= last]

    def path(self, name: str, query: bool = False) -> Path:
        return self.dir / f"{name}{'-query' if query else ''}.{self.w.fmt}"

    def write(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        for name in ("main", "setup", "open"):
            s1, s2 = self.part(name)
            if name != "open":
                self.path(name).write_bytes(render(self.w, s1))
            if self.w.kind == "join":
                self.path(name, True).write_bytes(render(self.w, s2))

    def records(self, name: str) -> int:
        s1, s2 = self.part(name)
        return len(s1) + len(s2)

    def expected(self, name: str) -> list[dict]:
        """Reference lines for a part, built once, outside any timing."""
        if name not in self._expected:
            from reference import expected_lines
            self._expected[name] = expected_lines(self.w, *self.part(name))
        return self._expected[name]


def prepare(w: Workload, seed: int) -> Inputs:
    s1, s2 = generate(w, seed)
    inputs = Inputs(w, s1, s2, WORK / w.name)
    inputs.write()
    return inputs


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cli(inputs: Inputs, part: str, naive: bool = False,
        out: Path | None = None) -> list[str]:
    w = inputs.w
    cmd = [sys.executable, "-m", "gridstream.cli", *w.query_args()]
    if part == "open":
        cmd += ["--source", "stdin"]
    else:
        cmd += ["--input", str(inputs.path(part))]
    if w.kind == "join":
        cmd += ["--query-input", str(inputs.path(part, True))]
    if naive:
        cmd.append("--naive")
    if out is not None:
        cmd += ["--out", str(out)]
    return cmd


class Launcher:
    """Runs CLI commands through ``launcher.py``, a process started while
    the benchmark is still small, so each child's rusage is its own."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list[str], err: Path) -> tuple[float, int, int]:
        """Wall seconds, exit code and peak RSS in KiB of one command."""
        self.proc.stdin.write(json.dumps({
            "cmd": cmd, "err": str(err), "timeout": CHILD_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["wall_s"], reply["returncode"], reply["maxrss_kib"]

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def measure(inputs: Inputs, seconds: float, launcher: Launcher) -> dict:
    """End-to-end metrics, with tracing off."""
    from reference import Check, Verifier

    w = inputs.w
    env = child_env()
    out = inputs.dir / "result.jsonl"
    verifiers = {name: Verifier(inputs.expected(name))
                 for name in ("main", "setup", "open")}
    total = Check(0)
    identical = True

    def file_run(part: str, naive: bool) -> tuple[float, int, bytes]:
        if out.exists():
            out.unlink()
        wall, rc, rss = launcher.run(cli(inputs, part, naive, out), err_log)
        data = out.read_bytes() if out.exists() else b""
        verdict = verifiers[part].check(data if rc == 0 else b"")
        total.add(verdict)
        return wall, rss, data

    open_times = [p.event_time for p in inputs.part("open")[0]]
    closed = sum(1 for e in inputs.expected("open")
                 if openloop.closing_index(open_times, e["window_end"])
                 is not None)
    min_opens = max(2, math.ceil(MIN_LATENCY_SAMPLES / closed))
    open_lines = render(w, inputs.part("open")[0]).splitlines(keepends=True)
    # Share of the timed phase given to open-loop runs: enough for their
    # windows, and at least OPEN_SHARE so the latency samples span the run.
    # An open-loop run lasts its schedule, the settling time and about
    # 0.5 s for the program to start and drain. At most half, so that a
    # run too short for its open-loop windows still makes file runs and
    # ends, later than asked.
    open_guess = len(open_lines) / OPEN_RATE + openloop.SETTLE_S + 0.5
    open_share = min(0.5, max(OPEN_SHARE, min_opens * open_guess / seconds))

    err_log = inputs.dir / "stderr.log"
    err_log.write_bytes(b"")
    with open(err_log, "ab") as err:
        file_run("setup", False)                # untimed warm-up
        setup: list[float] = []
        walls: dict[str, list[float]] = {"grid": [], "naive": [], "open": []}
        rss_kib, latencies, lag = [], [], []
        first_output = None

        def next_step(elapsed: float) -> str:
            if sum(walls["open"]) <= open_share * elapsed:
                return "open"
            # Grid and naive get equal time, so on a workload where the
            # grid is faster it gets more samples.
            return "naive" if sum(walls["naive"]) < sum(walls["grid"]) \
                else "grid"

        started = time.perf_counter()
        elapsed = 0.0
        while True:
            # One set-up launch before each step: the machine's speed
            # drifts over tens of seconds, so set-up time is sampled
            # across the whole run like everything else.
            setup.append(file_run("setup", False)[0])
            step = next_step(elapsed)
            if step == "open":
                t0 = time.perf_counter()
                open_run = openloop.run_open_loop(
                    cli(inputs, "open"), env, open_lines, open_times,
                    OPEN_RATE, err, CHILD_TIMEOUT_S)
                walls["open"].append(time.perf_counter() - t0)
                total.add(verifiers["open"].check(
                    open_run.output if open_run.returncode == 0 else b""))
                latencies += open_run.latencies_s
                lag += open_run.lag_s
            else:
                wall, rss, data = file_run("main", step == "naive")
                walls[step].append(wall)
                if step == "grid":
                    rss_kib.append(rss)
                if first_output is None:
                    first_output = data
                identical &= data == first_output
            elapsed = time.perf_counter() - started
            upcoming = statistics.mean(walls[next_step(elapsed)] or [0.0])
            if (len(walls["open"]) >= min_opens and walls["grid"]
                    and walls["naive"]
                    and elapsed + setup[-1] + upcoming > seconds):
                break
        grid_s, naive_s = walls["grid"], walls["naive"]

    records = inputs.records("main")
    p50, _ = openloop.percentile(latencies, 50)
    p90, beyond = openloop.percentile(latencies, 90)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "grid_rps": (records / statistics.median(grid_s), "records/s"),
        "naive_rps": (records / statistics.median(naive_s), "records/s"),
        "latency_p50_ms": (p50 * 1000, "ms"),
        "latency_p90_ms": (p90 * 1000, "ms"),
        "grid_peak_rss_mb": (statistics.median(rss_kib) / 1024, "MB"),
    }
    lag_p50, _ = openloop.percentile(lag, 50)
    print(f"{w.name}: {len(grid_s)} grid, {len(naive_s)} naive and "
          f"{len(walls['open'])} open-loop runs in {elapsed:.1f} s; {records} "
          f"records per file run; {len(setup)} set-up launches")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<18} {value:>14.4f} {unit}")
    print(f"  latency samples {len(latencies)} ({beyond} beyond p90) at "
          f"{OPEN_RATE} records/s; generator lag p50 "
          f"{lag_p50 * 1000:.2f} ms, max {max(lag) * 1000:.2f} ms")
    print("  file-run walls (s): grid "
          + " ".join(f"{x:.3f}" for x in grid_s) + "; naive "
          + " ".join(f"{x:.3f}" for x in naive_s))
    print(f"  grid/naive {metrics['grid_rps'][0] / metrics['naive_rps'][0]:.2f}x;"
          f" grid and naive outputs identical: {identical}")
    print(f"  windows attempted {total.attempted}, failed {total.failed}")
    return {
        "correct": identical and total.wrong == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gridstream" / "cli.py").is_file():
        print(f"perfbench: no gridstream sources under {SRC}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env()
    if args.trace:
        import trace_layers
        result = trace_layers.measure(
            prepare(WORKLOADS[args.workload], args.seed), args.seconds)
    else:
        with Launcher(env) as launcher:
            result = measure(prepare(WORKLOADS[args.workload], args.seed),
                             args.seconds, launcher)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

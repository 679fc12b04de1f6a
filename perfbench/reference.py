"""Reference answers built apart from the program, and the output check.

Window assignment is worked out here from the window definition alone: a
window is ``[s, s + length)`` for every non-negative multiple ``s`` of
the slide, and the program emits one line for every start from the
first window of the earliest record to the last window of the latest
one, empty windows included. Range and kNN answers come from the
brute-force ``gridstream.oracle``; the join uses its own bucket join,
because the oracle's Cartesian product is too slow for 100k records.

Outputs are compared as parsed JSON, not as bytes, so a change to the
program's serialiser that keeps the meaning passes.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass

from gridstream.oracle import oracle_knn, oracle_range

from workloads import Record, Workload


def window_starts(t: int, length: int, slide: int) -> range:
    """Starts of the windows holding event time t.

    s is admissible when s <= t < s + length, that is when s lies in
    (t - length, t]; starts are non-negative multiples of the slide.
    """
    lowest = t - length + 1
    first = max(0, -(-lowest // slide) * slide)
    last = t // slide * slide
    return range(first, last + 1, slide)


def fired_starts(times: list[int], length: int, slide: int) -> range:
    """Every window start the program emits for a stream with these
    event times, from the first window of the earliest record to the
    last window of the latest."""
    lo, hi = min(times), max(times)
    return range(window_starts(lo, length, slide).start,
                 hi // slide * slide + 1, slide)


def assign(records: list[Record], length: int,
           slide: int) -> dict[int, list[Record]]:
    members: dict[int, list[Record]] = defaultdict(list)
    for rec in records:
        for s in window_starts(rec.event_time, length, slide):
            members[s].append(rec)
    return members


def bucket_join(s1: list[Record], s2: list[Record],
                r: float) -> set[tuple[str, str]]:
    """All (ordinary id, query id) pairs within r, by a hash on cells of
    side r: a pair within r lies in the same or an adjacent bucket."""
    buckets: dict[tuple[int, int], list[Record]] = defaultdict(list)
    for p in s1:
        buckets[(math.floor(p.x / r), math.floor(p.y / r))].append(p)
    pairs: set[tuple[str, str]] = set()
    for q in s2:
        bx, by = math.floor(q.x / r), math.floor(q.y / r)
        for u in (bx - 1, bx, bx + 1):
            for v in (by - 1, by, by + 1):
                for p in buckets.get((u, v), ()):
                    if math.hypot(p.x - q.x, p.y - q.y) <= r:
                        pairs.add((p.object_id, q.object_id))
    return pairs


def expected_lines(w: Workload, s1: list[Record],
                   s2: list[Record]) -> list[dict]:
    """One parsed result line per window, as a correct run prints it."""
    times = [p.event_time for p in s1] + [q.event_time for q in s2]
    starts = fired_starts(times, w.length, w.slide)
    m1 = assign(s1, w.length, w.slide)
    m2 = assign(s2, w.length, w.slide)
    qx, qy = w.q
    out = []
    for s in starts:
        members = m1.get(s, [])
        if w.kind == "range":
            hits = sorted(oracle_range(members, qx, qy, w.r),
                          key=lambda p: (p.object_id, p.event_time, p.x, p.y))
            payload = [{"id": p.object_id, "x": p.x, "y": p.y,
                        "t": p.event_time} for p in hits]
        elif w.kind == "knn":
            payload = [{"id": p.object_id, "distance": d}
                       for p, d in oracle_knn(members, qx, qy, w.r, w.k)]
        else:
            payload = [list(pair) for pair in
                       sorted(bucket_join(members, m2.get(s, []), w.r))]
        out.append({"window_start": s, "window_end": s + w.length,
                    "type": w.kind, "payload": payload})
    return out


@dataclass
class Check:
    """Windows a run was expected to produce, and how many it got wrong.

    ``failed`` counts windows missing, different, duplicated, out of
    order or unexpected (capped at ``attempted``); ``wrong`` counts those
    among them for which the run printed a line that is not the answer.
    """

    attempted: int
    failed: int = 0
    wrong: int = 0

    def add(self, other: "Check") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong


def check_lines(lines: list[bytes], expected: list[dict]) -> Check:
    want = {e["window_start"]: e for e in expected}
    got: dict[int, dict | None] = {}    # None: out of order, counted
    wrong = 0
    prev = None
    for line in lines:
        try:
            rec = json.loads(line)
            start = rec["window_start"]
        except (ValueError, TypeError, KeyError):
            wrong += 1
            continue
        if start not in want or start in got:
            wrong += 1
        elif prev is not None and start <= prev:
            got[start] = None
            wrong += 1
        else:
            got[start] = rec
            prev = start
    missing = 0
    for start, e in want.items():
        if start not in got:
            missing += 1
        elif got[start] is not None and got[start] != e:
            wrong += 1
    n = len(expected)
    return Check(n, min(n, missing + wrong), wrong)


class Verifier:
    """Checks run outputs against one reference, once per distinct output.

    Outputs that are byte-identical to one already checked get the same
    verdict without being parsed again.
    """

    def __init__(self, expected: list[dict]):
        self.expected = expected
        self._seen: dict[bytes, Check] = {}

    def check(self, data: bytes) -> Check:
        verdict = self._seen.get(data)
        if verdict is None:
            verdict = check_lines(data.splitlines(), self.expected)
            self._seen[data] = verdict
        return Check(verdict.attempted, verdict.failed, verdict.wrong)

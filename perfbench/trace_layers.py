"""Per-layer metrics: a traced replay that times calls into each module.

The replay does, one module at a time and with the program's own public
functions, the work the grid pipeline does on the workload's input:

* ``streams``: ``replay_file`` over the workload's files;
* ``grid``: ``Grid.cell_of``, ``layer_sets``/``layer_keys`` and
  ``route_keyed`` for every parsed record, as the router keys it, with
  the router's watermark cadence (one broadcast per ``chunk_size``
  records consumed);
* ``windows``: ``SlidingWindower.add``/``fire_ready`` per stage-one
  instance, fed the records the router would send it;
* ``operators``: ``range_refine``, ``knn_local``, ``knn_merge`` or
  ``join_per_key`` on each fired window, and ``batch_to_json`` on each
  result;
* ``runtime``: ``run_pipeline`` on the already-parsed points, grid and
  naive, with no JSON output.

Each call is recorded as a span (name, start, end, parent) kept in memory
and written to ``trace.jsonl`` when the run ends. The replay's output is
checked against the reference, and its distance and pruned-membership
counts must equal those ``run_pipeline`` reports on the same input:
equal counts show that the replay measures the work the program does.
"""

from __future__ import annotations

import heapq
import json
import math
import statistics
import time
from collections import defaultdict

from gridstream.grid import build_grid
from gridstream.operators import (ResultBatch, batch_to_json, join_per_key,
                                  knn_local, knn_merge, range_refine,
                                  replicas_for)
from gridstream.runtime import (GRID_STAGES, NAIVE_STAGES, JoinQuery,
                                KnnQuery, PipelineConfig, RangeQuery,
                                route_keyed, run_pipeline)
from gridstream.streams import replay_file
from gridstream.windows import (SlidingWindower, WindowSpec, earliest_start,
                                latest_start)

from reference import Check, check_lines
from workloads import BBOX, PARALLELISM

GRID_M = 150
CHUNK = PipelineConfig().chunk_size


class Tracer:
    """Spans kept in memory; per-name sums of the current round."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.sums: dict[str, float] = defaultdict(float)

    def add(self, name: str, start: float, end: float,
            parent: int | None = None) -> int:
        self.spans.append((len(self.spans), name, start, end, parent))
        self.sums[name] += end - start
        return len(self.spans) - 1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def _query(w):
    window = WindowSpec(w.length, w.slide, 0)
    if w.kind == "range":
        return RangeQuery(w.q[0], w.q[1], w.r, window)
    if w.kind == "knn":
        return KnnQuery(w.q[0], w.q[1], w.r, w.k, window)
    return JoinQuery(w.r, window)


def route(w, grid, s1, s2, counts):
    """Key every record as the grid router does.

    Returns one event list per stage-one instance: ``(t, item, key)`` for
    a record sent to it, ``(None, wm, first_start, max_start)`` for a
    watermark broadcast.
    """
    p = PARALLELISM
    n_bits = grid.n_bits
    events: list[list[tuple]] = [[] for _ in range(p)]
    dest_of: dict[int, int] = {}

    def dest(key: int) -> int:
        d = dest_of.get(key)
        if d is None:
            d = dest_of[key] = route_keyed(key, n_bits, p)
        return d

    if w.kind == "join":
        layer = None
        keys_of: dict = {}
        merged = heapq.merge(((q.event_time, 0, i, q) for i, q in enumerate(s1)),
                             ((q.event_time, 1, i, q) for i, q in enumerate(s2)))
        records = ((t, src, pt) for t, src, _, pt in merged)
    else:
        keys = grid.layer_keys(grid.layer_sets(grid.cell_of(*w.q), w.r))
        layer = dict.fromkeys(keys.guaranteed, True)
        layer.update(dict.fromkeys(keys.candidate, False))
        records = ((pt.event_time, 0, pt) for pt in s1)

    length, slide = w.length, w.slide
    since = 0
    max_t = first_start = max_start = last_wm = None
    for t, src, pt in records:
        max_t = t if max_t is None else max(max_t, t)
        es, ls = earliest_start(t, length, slide), latest_start(t, slide)
        first_start = es if first_start is None else min(first_start, es)
        max_start = ls if max_start is None else max(max_start, ls)
        coord = grid.cell_of(pt.x, pt.y)
        if src == 1:
            keys = keys_of.get(coord)
            if keys is None:
                keys = keys_of[coord] = grid.layer_keys(
                    grid.layer_sets(coord, w.r))
            for rep in replicas_for(keys, pt):
                events[dest(rep.cell)].append((t, (False, rep), rep.cell))
                counts["placements"] += 1
        else:
            key = grid.encode_key(coord)
            d = dest(key)
            flag = True if layer is None else layer.get(key)
            if flag is None:
                counts["pruned_members"] += (ls - es) // slide + 1
            else:
                # A join sends every ordinary point, tagged as such.
                item = (True, pt) if layer is None else pt
                events[d].append((t, item, key if layer is None else flag))
                counts["layer_records"] += 1
                counts["placements"] += 1
        since += 1
        if since >= CHUNK:
            since = 0
            if last_wm is None or max_t > last_wm:
                last_wm = max_t
                for ev in events:
                    ev.append((None, max_t, first_start, max_start))
    for ev in events:
        ev.append((None, math.inf, first_start, max_start))
    return events


def evaluate(w, window, dist_counts):
    """One instance's partial result for a fired window."""
    b = window.buckets
    if w.kind == "range":
        res, dc = range_refine(b.get(True, ()), b.get(False, ()),
                               w.q[0], w.q[1], w.r)
    elif w.kind == "knn":
        res, dc = knn_local(list(window.members), w.q[0], w.q[1], w.r, w.k)
    else:
        res, dc = set(), 0
        for bucket in b.values():
            reps = [x[1] for x in bucket if not x[0]]
            pts = [x[1] for x in bucket if x[0]]
            if reps and pts:
                got, n = join_per_key(pts, reps, w.r)
                res |= got
                dc += n
    dist_counts[0] += dc
    return res


def merge(w, partials):
    if w.kind == "knn":
        return knn_merge(partials, w.k)
    if w.kind == "join":
        out: set = set()
        for part in partials:
            out |= part
        return out
    out: list = []
    for part in partials:
        out += part
    return out


def replay(w, events, tracer, parent, counts):
    """Window and evaluate each instance's events; merge and serialise.
    Returns the result lines."""
    pc = time.perf_counter
    partials: dict[int, list] = defaultdict(list)
    ends: dict[int, int] = {}
    dist = [0]
    memberships = max_pending = 0
    for events_i in events:
        windower = SlidingWindower(w.length, w.slide)
        add = windower.add
        i = 0
        n = len(events_i)
        while i < n:
            t0 = pc()
            first = i
            while events_i[i][0] is not None:
                t, item, key = events_i[i]
                add(t, item, key)
                i += 1
            t1 = pc()
            if i > first:
                tracer.add("windows.add", t0, t1, parent)
            max_pending = max(max_pending, windower.pending_count())
            _, wm, first_start, max_start = events_i[i]
            i += 1
            fired = windower.fire_ready(wm, first_start, max_start)
            tracer.add("windows.fire", t1, pc(), parent)
            for win in fired:
                memberships += win.member_count
                t2 = pc()
                partials[win.start].append(evaluate(w, win, dist))
                tracer.add("operators.refine", t2, pc(), parent)
                ends[win.start] = win.end
    lines = []
    results = 0
    for start in sorted(partials):
        t0 = pc()
        payload = merge(w, partials[start])
        t1 = pc()
        line = batch_to_json(ResultBatch(start, ends[start], w.kind, payload))
        t2 = pc()
        tracer.add("operators.merge", t0, t1, parent)
        tracer.add("operators.serialize", t1, t2, parent)
        lines.append(line)
        results += len(payload)
    counts["distance_computations"] = dist[0]
    counts["memberships"] = memberships
    counts["max_pending"] = max_pending
    counts["results"] = results
    return lines


def measure(inputs, seconds: float) -> dict:
    """Per-layer metrics, from rounds of the traced replay."""
    w = inputs.w
    grid = build_grid(*BBOX, GRID_M)
    query = _query(w)
    config = PipelineConfig(parallelism=PARALLELISM)
    expected = inputs.expected("main")
    tracer = Tracer()
    pc = time.perf_counter
    total = Check(0)
    consistent = True
    rounds: list[dict] = []
    started = pc()
    while True:
        tracer.sums.clear()
        r0 = pc()
        root = tracer.add("round", r0, r0)
        t0 = pc()
        s1 = list(replay_file(str(inputs.path("main")), w.fmt))
        s2 = (list(replay_file(str(inputs.path("main", True)), w.fmt))
              if w.kind == "join" else [])
        tracer.add("streams.parse", t0, pc(), root)
        counts: dict[str, int] = defaultdict(int)
        t0 = pc()
        events = route(w, grid, s1, s2, counts)
        tracer.add("grid.route", t0, pc(), root)
        lines = replay(w, events, tracer, root, counts)
        del events
        total.add(check_lines([ln.encode() for ln in lines], expected))
        runs = {}
        for variant, stages in (("grid", GRID_STAGES), ("naive", NAIVE_STAGES)):
            sources = [iter(s1)] + ([iter(s2)] if w.kind == "join" else [])
            t0 = pc()
            batches, metrics = run_pipeline(sources, stages[w.kind], query,
                                            grid, config)
            tracer.add(f"runtime.{variant}", t0, pc(), root)
            total.add(check_lines([batch_to_json(b).encode()
                                   for b in batches], expected))
            runs[variant] = metrics
        rt = runs["grid"]
        consistent &= (rt.distance_computations
                       == counts["distance_computations"]
                       and rt.pruned_members == counts["pruned_members"])
        sums = dict(tracer.sums)
        stage_one = [v for k, v in rt.instance_tuples.items()
                     if k.startswith(("filter-", "join-"))]
        records = len(s1) + len(s2)
        rounds.append({
            "streams.parse_s": sums["streams.parse"],
            "streams.parse_rps": records / sums["streams.parse"],
            "grid.key_rps": records / sums["grid.route"],
            "grid.layer_records": counts["layer_records"],
            "grid.replicas": counts["placements"],
            "windows.add_s": sums["windows.add"],
            "windows.fire_s": sums["windows.fire"],
            "windows.memberships": counts["memberships"],
            "windows.max_pending": counts["max_pending"],
            "operators.refine_s": sums["operators.refine"],
            "operators.merge_s": sums["operators.merge"],
            "operators.distance_computations": counts["distance_computations"],
            "operators.hit_ratio": (counts["results"]
                                    / counts["distance_computations"]),
            "operators.serialize_s": sums["operators.serialize"],
            "operators.output_bytes": sum(len(ln) + 1 for ln in lines),
            "runtime.grid_s": sums["runtime.grid"],
            "runtime.naive_s": sums["runtime.naive"],
            "runtime.self_s": sums["runtime.grid"] - (
                sums["windows.add"] + sums["windows.fire"]
                + sums["operators.refine"] + sums["operators.merge"]),
            "runtime.distance_computations": rt.distance_computations,
            "runtime.pruned_members": rt.pruned_members,
            "runtime.windows_fired": rt.windows_fired,
            "runtime.partition_skew": max(stage_one) / statistics.mean(stage_one),
            "runtime.max_pending_windows": max(rt.instance_max_pending.values()),
        })
        tracer.spans[root] = (root, "round", r0, pc(), None)
        elapsed = pc() - started
        if elapsed + elapsed / len(rounds) > seconds:
            break
    tracer.write(inputs.dir / "trace.jsonl")
    metrics = {name: statistics.median(r[name] for r in rounds)
               for name in rounds[0]}
    print(f"{w.name} (traced): {len(rounds)} rounds in {elapsed:.1f} s; "
          f"{len(tracer.spans)} spans in {inputs.dir / 'trace.jsonl'}")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {UNITS[name]}")
    print(f"  replay counts equal run_pipeline's: {consistent}")
    print(f"  windows attempted {total.attempted}, failed {total.failed}")
    return {
        "correct": consistent and total.wrong == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }


UNITS = {
    "streams.parse_s": "s", "streams.parse_rps": "records/s",
    "grid.key_rps": "records/s", "grid.layer_records": "count",
    "grid.replicas": "count",
    "windows.add_s": "s", "windows.fire_s": "s",
    "windows.memberships": "count", "windows.max_pending": "count",
    "operators.refine_s": "s", "operators.merge_s": "s",
    "operators.distance_computations": "count",
    "operators.hit_ratio": "ratio", "operators.serialize_s": "s",
    "operators.output_bytes": "bytes",
    "runtime.grid_s": "s", "runtime.naive_s": "s", "runtime.self_s": "s",
    "runtime.distance_computations": "count",
    "runtime.pruned_members": "count", "runtime.windows_fired": "count",
    "runtime.partition_skew": "ratio", "runtime.max_pending_windows": "count",
}

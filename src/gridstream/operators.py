"""Per-window query evaluation: range, k-nearest, and stream join.

The range and join operators take their input split into guaranteed
and candidate layers and distance-check only the candidates; kNN ranks
every point it is given. The grid variant fills the layers from the
cell split and discards pruned cells; the naive variant feeds the same
operators every point as a candidate. Both produce identical results
and only the distance counts differ, so each operator returns (result,
distance_computations).

A neighbor is any point with distance <= r (closed ball); ranked lists
order ties by object id, then event time, then coordinates, which keeps
parallel merges deterministic even when ids repeat within a window.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Iterable, NamedTuple

from .grid import LayerKeys
from .streams import SpatialPoint

RankedPoint = tuple[SpatialPoint, float]
Distance = Callable[[float, float, float, float], float]


def euclidean(ax: float, ay: float, bx: float, by: float) -> float:
    return math.hypot(ax - bx, ay - by)


def rank_key(item: RankedPoint) -> tuple:
    p, d = item
    return (d, p.object_id, p.event_time, p.x, p.y)


def range_refine(guaranteed: Iterable[SpatialPoint],
                 candidates: Iterable[SpatialPoint],
                 qx: float, qy: float, r: float,
                 dist: Distance = euclidean) -> tuple[list[SpatialPoint], int]:
    """Guaranteed points pass through untouched; candidates pay one
    distance check each."""
    out = list(guaranteed)
    dc = 0
    for p in candidates:
        dc += 1
        if dist(p.x, p.y, qx, qy) <= r:
            out.append(p)
    return out, dc


def knn_local(points: Iterable[SpatialPoint], qx: float, qy: float,
              r: float, k: int,
              dist: Distance = euclidean) -> tuple[list[RankedPoint], int]:
    """The k nearest neighbors within r among this partition's points.

    Ranking needs distances for every point, guaranteed cells included,
    so all input points are distance-checked; the pruning already
    happened when non-layer cells were discarded. Selection keeps a
    bounded heap of size k rather than sorting the whole partition.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    points = list(points)
    scored = [(p, d) for p in points
              if (d := dist(p.x, p.y, qx, qy)) <= r]
    return heapq.nsmallest(k, scored, key=rank_key), len(points)


def knn_merge(partial_lists: Iterable[list[RankedPoint]], k: int) -> list[RankedPoint]:
    """Merge per-partition sorted lists into the global top k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    merged = heapq.merge(*partial_lists, key=rank_key)
    return list(islice(merged, k))


class Replica(NamedTuple):
    """One copy of a query-stream point addressed to a neighborhood cell."""

    cell: int
    guaranteed: bool
    point: SpatialPoint


def replicas_for(keys: LayerKeys, q_point: SpatialPoint) -> list[Replica]:
    """Copy a query point to every cell of its layer keys.

    Copies to guaranteed cells join without distance checks; copies to
    candidate cells (the point's own cell among them) join by distance.
    """
    out = [Replica(cell, True, q_point) for cell in keys.guaranteed]
    out += [Replica(cell, False, q_point) for cell in keys.candidate]
    return out


def join_per_key(s1_points: Iterable[SpatialPoint], s2_replicas: Iterable[Replica],
                 r: float,
                 dist: Distance = euclidean) -> tuple[set[tuple[str, str]], int]:
    """Join one cell's ordinary points against the replicas sent to it.

    Pairs are (ordinary_id, query_id). A pair can only form under one
    key (each ordinary point lives in exactly one cell, or, naive, in
    one instance's single bucket), so no cross-key deduplication is
    needed.
    """
    s1 = list(s1_points)
    pairs: set[tuple[str, str]] = set()
    dc = 0
    for rep in s2_replicas:
        q = rep.point
        if rep.guaranteed:
            for p in s1:
                pairs.add((p.object_id, q.object_id))
        else:
            dc += len(s1)
            for p in s1:
                if dist(p.x, p.y, q.x, q.y) <= r:
                    pairs.add((p.object_id, q.object_id))
    return pairs, dc


@dataclass(frozen=True)
class ResultBatch:
    """One window's query output, ready for serialization."""

    window_start: int
    window_end: int
    kind: str
    payload: Any


def canonical_payload(batch: ResultBatch) -> list:
    """Payload in a sorted, JSON-ready form, identical for identical
    result sets no matter how the computation was partitioned."""
    if batch.kind == "range":
        pts = sorted(batch.payload,
                     key=lambda p: (p.object_id, p.event_time, p.x, p.y))
        return [{"id": p.object_id, "x": p.x, "y": p.y, "t": p.event_time}
                for p in pts]
    if batch.kind == "knn":
        return [{"id": p.object_id, "distance": d} for p, d in batch.payload]
    if batch.kind == "join":
        return [list(pair) for pair in sorted(batch.payload)]
    raise ValueError(f"unknown result kind {batch.kind!r}")


def batch_to_json(batch: ResultBatch) -> str:
    return json.dumps({
        "window_start": batch.window_start,
        "window_end": batch.window_end,
        "type": batch.kind,
        "payload": canonical_payload(batch),
    }, separators=(",", ":"))

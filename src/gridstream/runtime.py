"""A keyed streaming runtime that runs on one thread.

The router consumes the source(s), drops out-of-extent and late records,
assigns cell keys, and pushes each record into one of P stage-one
instances: key-hashed for keyed stages, round-robin for rebalanced ones.
The instances are logical partitions, plain objects called directly, as
Flink runs chained operators in one task thread with no queue between
them. For grid range/kNN queries the keyed filter's layer test runs in
the router: a point in a pruned cell is counted toward its windows and
credited to the filter instance its key routes to, but never windowed,
so filters hold only guaranteed and candidate points.

The router owns event time. The watermark is the largest accepted event
time minus the allowed lateness, never below 0, the first window start;
it is evaluated on every record, and a record behind it is dropped as
late, so a record with t < 0 always is. After each accepted record that
lifts the watermark past the end of the earliest unfired window, every
instance fires up to it, given the globally observed first and last
window starts so all instances fire the exact same window sequence,
empty windows included. One function then combines each window's
per-instance partial results into a single ResultBatch, which makes
output independent of parallelism.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Iterator

from .geo import degree_radius_bounds, haversine_m
from .grid import Grid, LayerKeys
from .operators import (Distance, ResultBatch, euclidean, join_naive,
                        join_per_key, knn_local, knn_merge, range_naive,
                        range_refine, replicas_for)
from .streams import SpatialPoint
from .windows import (SlidingWindower, WindowInstance, WindowSpec,
                      earliest_start, latest_start)

KEYED = "keyed-by-cell"
REBALANCE = "rebalance"
MERGE = "merge-to-one"

_FOREVER = math.inf

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF

_BROADCAST = -1


class ConfigError(ValueError):
    """Pipeline wiring does not match the query."""


class PipelineError(RuntimeError):
    """A source, an operator or the result callback failed; the run was
    aborted."""


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & _FNV_MASK
    return h


def route_keyed(cell: int, n_bits: int, p: int) -> int:
    """Stable instance index for a cell key: FNV-1a of the key's bit string."""
    return fnv1a64(format(cell, f"0{2 * n_bits}b").encode("ascii")) % p


class _Memo(dict):
    """A dict that fills a missing key with fn(key) on first lookup."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[Any], Any]):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


_METRICS = ("euclidean", "haversine")


@dataclass(frozen=True)
class RangeQuery:
    x: float
    y: float
    r: float
    window: WindowSpec
    metric: str = "euclidean"
    kind: ClassVar[str] = "range"

    def __post_init__(self) -> None:
        if self.r <= 0:
            raise ConfigError(f"radius must be positive, got {self.r}")
        if self.metric not in _METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}")


@dataclass(frozen=True)
class KnnQuery:
    x: float
    y: float
    r: float
    k: int
    window: WindowSpec
    metric: str = "euclidean"
    kind: ClassVar[str] = "knn"

    def __post_init__(self) -> None:
        if self.r <= 0:
            raise ConfigError(f"radius must be positive, got {self.r}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.metric not in _METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}")


@dataclass(frozen=True)
class JoinQuery:
    r: float
    window: WindowSpec
    metric: str = "euclidean"
    kind: ClassVar[str] = "join"

    def __post_init__(self) -> None:
        if self.r <= 0:
            raise ConfigError(f"radius must be positive, got {self.r}")
        if self.metric not in _METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}")


Query = RangeQuery | KnnQuery | JoinQuery


def _dist_for(query: Query) -> Distance:
    return haversine_m if query.metric == "haversine" else euclidean


def _layer_radii(query: Query, grid: Grid) -> tuple[float, float | None]:
    """Guarantee and candidate radii in degree units for layer math.

    With the haversine metric the query radius is meters; the layers are
    built from degree radii that bracket the metric ball.
    """
    if query.metric == "haversine":
        return degree_radius_bounds(query.r, grid.min_y, grid.max_y)
    return query.r, None

GRID_STAGES = {
    "range": [KEYED, REBALANCE],
    "knn": [KEYED, REBALANCE, MERGE],
    "join": [KEYED],
}
NAIVE_STAGES = {
    "range": [REBALANCE],
    "knn": [REBALANCE, MERGE],
    "join": [REBALANCE],
}


@dataclass(frozen=True)
class PipelineConfig:
    """parallelism is the number of stage-one instances."""

    parallelism: int = 1
    # Read only by perfbench's traced replay; goes with ROADMAP item 4.
    chunk_size: ClassVar[int] = 512

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be >= 1, got {self.parallelism}")


@dataclass
class RuntimeMetrics:
    """Counters gathered from the router and every instance."""

    parallelism: int = 1
    consumed: int = 0
    routed: int = 0
    dropped_outside: int = 0
    late_dropped: int = 0
    pruned_members: int = 0
    distance_computations: int = 0
    windows_fired: int = 0
    wall_seconds: float = 0.0
    throughput_tps: float = 0.0
    instance_tuples: dict[str, int] = field(default_factory=dict)
    instance_distance: dict[str, int] = field(default_factory=dict)
    instance_max_pending: dict[str, int] = field(default_factory=dict)
    # (monotonic time, window start) of the first and the second-to-last
    # fired window: all bench.steady_state_throughput reads, kept O(1)
    # so an unbounded source does not grow them.
    first_completion: tuple[float, int] | None = None
    penultimate_completion: tuple[float, int] | None = None

    def summary(self) -> dict:
        return {
            "throughput_tps": self.throughput_tps,
            "distance_computations": self.distance_computations,
            "pruned_tuples": self.pruned_members,
            "windows_fired": self.windows_fired,
        }

    def counter_rows(self) -> list[tuple[str, str, float]]:
        """One (instance, counter, value) row per counter, for CSV dumps."""
        rows: list[tuple[str, str, float]] = [
            ("router", "consumed", self.consumed),
            ("router", "routed", self.routed),
            ("router", "dropped_outside", self.dropped_outside),
            ("router", "late_dropped", self.late_dropped),
        ]
        for name in sorted(self.instance_tuples):
            rows.append((name, "tuples", self.instance_tuples[name]))
        for name in sorted(self.instance_distance):
            rows.append((name, "distance_computations",
                         self.instance_distance[name]))
        for name in sorted(self.instance_max_pending):
            rows.append((name, "max_pending_windows",
                         self.instance_max_pending[name]))
        rows.append(("pipeline", "windows_fired", self.windows_fired))
        rows.append(("pipeline", "pruned_members", self.pruned_members))
        rows.append(("pipeline", "distance_total", self.distance_computations))
        return rows


# Record generators yield (event_time, placements) where placements is a
# tuple of (dest, key, item): dest is an instance index, or _BROADCAST
# for every instance; key is the windower bucket key. placements is None
# when the record falls outside the grid extent, and item is None for a
# point the layer test pruned: it is credited to dest but never windowed.


def _point_records(source: Iterator[SpatialPoint], grid: Grid, u: int,
                   layers: LayerKeys | None):
    """Range/kNN records: keyed by cell and tagged with their layer
    (True = guaranteed, False = candidate) given layer keys, else
    rebalanced round-robin."""
    if layers is None:
        rr = itertools.cycle(range(u))
        for p in source:
            if not grid.contains(p.x, p.y):
                yield (p.event_time, None)
                continue
            yield (p.event_time, ((next(rr), None, p),))
        return
    # Cell key -> True (guaranteed) / False (candidate); a key that is
    # absent is pruned.
    layer = dict.fromkeys(layers.guaranteed, True)
    layer.update(dict.fromkeys(layers.candidate, False))
    dest = _Memo(lambda key: route_keyed(key, grid.n_bits, u))
    key_of = grid.key_of
    for p in source:
        key = key_of(p.x, p.y)
        if key is None:
            yield (p.event_time, None)
            continue
        flag = layer.get(key)
        if flag is None:
            yield (p.event_time, ((dest[key], None, None),))
        else:
            yield (p.event_time, ((dest[key], flag, p),))


def _join_records(sources: list[Iterator[SpatialPoint]], query: JoinQuery,
                  grid: Grid, u: int, keyed: bool):
    """Join records from both streams. Keyed: ordinary points go to their
    cell's instance as (True, point), query points to every layer cell's
    instance as (False, replica), bucketed by cell. Naive: ordinary
    points are rebalanced, query points broadcast, bucketed by stream
    (True = ordinary)."""

    def tagged(src, idx):
        for seq, p in enumerate(src):
            yield (p.event_time, idx, seq, p)

    # Two-source merge ordered by (event_time, source, position) so the
    # interleaving is a pure function of the inputs.
    merged = heapq.merge(tagged(sources[0], 0), tagged(sources[1], 1))
    if not keyed:
        rr = itertools.cycle(range(u))
        for t, src, _seq, p in merged:
            if not grid.contains(p.x, p.y):
                yield (t, None)
            elif src == 0:
                yield (t, ((next(rr), True, p),))
            else:
                yield (t, ((_BROADCAST, False, p),))
        return
    r_guar, r_cand = _layer_radii(query, grid)
    dest = _Memo(lambda key: route_keyed(key, grid.n_bits, u))
    layer_keys = _Memo(lambda key: grid.layer_keys(
        grid.layer_sets(grid.decode_key(key), r_guar, r_cand)))
    for t, src, _seq, p in merged:
        key = grid.key_of(p.x, p.y)
        if key is None:
            yield (t, None)
        elif src == 0:
            yield (t, ((dest[key], key, (True, p)),))
        else:
            yield (t, tuple((dest[rep.cell], rep.cell, (False, rep))
                            for rep in replicas_for(layer_keys[key], p)))


def _join_buckets(w: WindowInstance, r: float,
                  dist: Distance) -> tuple[set[tuple[str, str]], int]:
    """Keyed join of one fired window, cell bucket by cell bucket."""
    pairs: set[tuple[str, str]] = set()
    dc = 0
    for bucket in w.buckets.values():
        reps = [x[1] for x in bucket if not x[0]]
        if not reps:
            continue
        pts = [x[1] for x in bucket if x[0]]
        if not pts:
            continue
        got, n = join_per_key(pts, reps, r, dist)
        pairs |= got
        dc += n
    return pairs, dc


def _evaluator(query: Query, variant: str
               ) -> Callable[[WindowInstance], tuple[Any, int]]:
    """One instance's (partial result, distance computations) for a
    fired window."""
    dist = _dist_for(query)
    r = query.r
    if query.kind == "join":
        if variant == "grid":
            return lambda w: _join_buckets(w, r, dist)
        return lambda w: join_naive(w.buckets.get(True, ()),
                                    w.buckets.get(False, ()), r, dist)
    x, y = query.x, query.y
    if query.kind == "knn":
        return lambda w: knn_local(w.members, x, y, r, query.k, dist)
    if variant == "grid":
        return lambda w: range_refine(w.buckets.get(True, ()),
                                      w.buckets.get(False, ()), x, y, r, dist)
    return lambda w: range_naive(w.members, x, y, r, dist)


def _combiner(query: Query) -> Callable[[list], Any]:
    """One window's result from its per-instance partials."""
    if query.kind == "knn":
        return lambda parts: knn_merge(parts, query.k)
    if query.kind == "join":
        return lambda parts: set().union(*parts)
    return lambda parts: [p for part in parts for p in part]


class _Instance:
    """One logical stage-one partition: its windower and its counters."""

    __slots__ = ("name", "windower", "dc", "max_pending")

    def __init__(self, name: str, window: WindowSpec):
        self.name = name
        self.windower = SlidingWindower(window.length, window.slide)
        self.dc = 0
        self.max_pending = 0


class _Executor:
    """The router loop and the window firing it drives.

    The watermark is evaluated on every record, and a record is late iff
    its event time is below it. Late decisions therefore depend only on
    the event times in consumption order and the lateness, so the grid
    and naive variants of a query drop the same records on the same
    input, at any parallelism.

    A pruned point still passes the late check and drives the watermark
    and window-start hints like any other record; it is counted as
    routed, credited to its instance, and counted once per window it
    belongs to (pruned_members). That count is exact by arithmetic: an
    accepted record has t >= watermark, so none of its windows has fired
    yet, and every window from its earliest to its latest start fires
    later.
    """

    def __init__(self, query: Query, instances: list[_Instance],
                 evaluate: Callable[[WindowInstance], tuple[Any, int]],
                 combine: Callable[[list], Any], metrics: RuntimeMetrics,
                 callback: Callable[[ResultBatch], None] | None):
        self.query = query
        self.instances = instances
        self.evaluate = evaluate
        self.combine = combine
        self.metrics = metrics
        self.callback = callback
        self.results: list[ResultBatch] = []
        self._last_completion: tuple[float, int] | None = None

    def run(self, records) -> None:
        metrics = self.metrics
        w = self.query.window
        length, slide, lateness = w.length, w.slide, w.lateness
        instances = self.instances
        u = len(instances)
        adders = [inst.windower.add for inst in instances]
        tuples = [0] * u
        consumed = routed = dropped = late = pruned_members = 0
        watermark = 0
        # End of the earliest window not yet fired; none before the
        # first accepted record.
        next_end: float = _FOREVER
        first_start: int | None = None
        max_start: int | None = None

        for t, placements in records:
            consumed += 1
            if placements is None:
                dropped += 1
                continue
            if t < watermark:
                late += 1
                continue
            es = earliest_start(t, length, slide)
            ls = latest_start(t, slide)
            if first_start is None or es < first_start:
                # Only before the first firing: afterwards every accepted
                # record starts at or past the earliest unfired window.
                first_start = es
                next_end = es + length
            if max_start is None or ls > max_start:
                max_start = ls
            for dest, key, item in placements:
                if dest == _BROADCAST:
                    for d in range(u):
                        adders[d](t, item, key)
                        tuples[d] += 1
                    routed += u
                    continue
                tuples[dest] += 1
                routed += 1
                if item is None:
                    pruned_members += (ls - es) // slide + 1
                else:
                    adders[dest](t, item, key)
            if t - lateness > watermark:
                watermark = t - lateness
                if watermark >= next_end:
                    self._fire(watermark, first_start, max_start)
                    next_end = earliest_start(watermark, length,
                                              slide) + length

        self._fire(_FOREVER, first_start, max_start)
        for inst, n in zip(instances, tuples):
            metrics.instance_tuples[inst.name] = n
            metrics.instance_distance[inst.name] = inst.dc
            metrics.instance_max_pending[inst.name] = inst.max_pending
        metrics.distance_computations = sum(inst.dc for inst in instances)
        metrics.consumed = consumed
        metrics.routed = routed
        metrics.dropped_outside = dropped
        metrics.late_dropped = late
        metrics.pruned_members = pruned_members

    def _fire(self, watermark: float, first_start: int | None,
              max_start: int | None) -> None:
        """Fire every instance up to the watermark and emit one batch per
        window, in window order."""
        fired = []
        for inst in self.instances:
            windower = inst.windower
            # Pending windows only grow between firings, so their peak
            # is reached just before one.
            pending = windower.pending_count()
            if pending > inst.max_pending:
                inst.max_pending = pending
            fired.append(windower.fire_ready(watermark, first_start,
                                             max_start))
        kind = self.query.kind
        metrics = self.metrics
        for group in zip(*fired, strict=True):
            partials = []
            for inst, w in zip(self.instances, group):
                res, dc = self.evaluate(w)
                inst.dc += dc
                partials.append(res)
            first = group[0]
            batch = ResultBatch(first.start, first.end, kind,
                                self.combine(partials))
            metrics.windows_fired += 1
            sample = (time.monotonic(), first.start)
            if metrics.first_completion is None:
                metrics.first_completion = sample
            metrics.penultimate_completion = self._last_completion
            self._last_completion = sample
            if self.callback is None:
                self.results.append(batch)
            else:
                self.callback(batch)


def validate_stages(stages: list[str], query: Query) -> str:
    """Return "grid" or "naive", or raise ConfigError for a bad stage list."""
    if stages == GRID_STAGES[query.kind]:
        return "grid"
    if stages == NAIVE_STAGES[query.kind]:
        return "naive"
    raise ConfigError(
        f"stages {stages!r} do not form a valid {query.kind} pipeline; "
        f"expected {GRID_STAGES[query.kind]!r} (grid) "
        f"or {NAIVE_STAGES[query.kind]!r} (naive)")


def run_pipeline(sources: list[Iterator[SpatialPoint]], stages: list[str],
                 query: Query, grid: Grid,
                 config: PipelineConfig = PipelineConfig(),
                 callback: Callable[[ResultBatch], None] | None = None,
                 ) -> tuple[list[ResultBatch], RuntimeMetrics]:
    """Run one continuous query over the given sources to completion.

    Returns the per-window result batches in window order plus the
    metrics. With a callback, each batch is passed to it as its window
    fires and none is kept: the returned list is empty, so memory stays
    bounded on an unbounded source, and metrics.windows_fired still
    counts them. Raises ConfigError if the stage list does not match the
    query, and PipelineError, carrying the original message, if a
    source, an operator or the callback raises.
    """
    variant = validate_stages(stages, query)
    n_sources = 2 if query.kind == "join" else 1
    if len(sources) != n_sources:
        raise ConfigError(f"{query.kind} query needs {n_sources} source(s), "
                          f"got {len(sources)}")
    if query.kind in ("range", "knn") and not grid.contains(query.x, query.y):
        raise ConfigError(f"query point ({query.x}, {query.y}) outside "
                          f"the grid extent")

    P = config.parallelism
    metrics = RuntimeMetrics(parallelism=P)
    if variant == "naive":
        prefix = "worker"
    else:
        prefix = "join" if query.kind == "join" else "filter"
    instances = [_Instance(f"{prefix}-{i}", query.window) for i in range(P)]
    if query.kind == "join":
        records = _join_records(sources, query, grid, P, variant == "grid")
    elif variant == "grid":
        r_guar, r_cand = _layer_radii(query, grid)
        layers = grid.layer_keys(
            grid.layer_sets(grid.cell_of(query.x, query.y), r_guar, r_cand))
        records = _point_records(sources[0], grid, P, layers)
    else:
        records = _point_records(sources[0], grid, P, None)
    executor = _Executor(query, instances, _evaluator(query, variant),
                         _combiner(query), metrics, callback)

    t0 = time.monotonic()
    try:
        executor.run(records)
    except Exception as exc:
        raise PipelineError(f"pipeline aborted: {exc!r}") from exc
    metrics.wall_seconds = time.monotonic() - t0
    if metrics.wall_seconds > 0:
        metrics.throughput_tps = metrics.consumed / metrics.wall_seconds
    return executor.results, metrics

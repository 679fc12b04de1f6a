"""A keyed streaming runtime that runs on one thread.

The router consumes the source(s), drops out-of-extent and late records,
assigns cell keys, and pushes each record into one of P instances:
key-hashed by cell for the grid variant, round-robin for the naive one.
The instances are logical partitions, plain objects called directly, as
Flink runs chained operators in one task thread with no queue between
them. For grid range/kNN queries the keyed filter's layer test runs in
the router: a point in a pruned cell is counted toward its windows and
credited to the filter instance its key routes to, but never windowed,
so filters hold only guaranteed and candidate points. The naive variant
routes round-robin (join query points to every instance) and emits every
point as a candidate, so both variants share the same operators and
differ only in routing and the layer test.

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
from .operators import (Distance, Replica, ResultBatch, euclidean,
                        join_per_key, knn_local, knn_merge, range_refine,
                        replicas_for)
from .streams import SpatialPoint
from .windows import (SlidingWindower, WindowInstance, WindowSpec,
                      earliest_start, latest_start)

_FOREVER = math.inf

# 2**64 / golden ratio, odd: Knuth's multiplier for Fibonacci hashing.
_FIB_MULT = 0x9E3779B97F4A7C15


class ConfigError(ValueError):
    """Pipeline wiring does not match the query."""


class PipelineError(RuntimeError):
    """A source, an operator or the result callback failed; the run was
    aborted."""


def route_keyed(cell: int, n_bits: int, p: int) -> int:
    """Instance index in [0, p) for a cell key of width 2*n_bits.

    Fibonacci hashing (Knuth, TAOCP vol. 3, section 6.4): multiply the key
    by an odd constant modulo 2**(2*n_bits) and take the high n_bits of
    the product, so every key bit reaches the result; then reduce mod p.
    Plain integer arithmetic on the key, independent of its x/y layout
    and of hash(), so a cell picks the same instance in every run and
    every process.
    """
    mask = (1 << 2 * n_bits) - 1
    return (((cell * _FIB_MULT) & mask) >> n_bits) % p


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


def _check_radius_and_metric(query: Query) -> None:
    if query.r <= 0:
        raise ConfigError(f"radius must be positive, got {query.r}")
    if query.metric not in _METRICS:
        raise ConfigError(f"unknown metric {query.metric!r}")


@dataclass(frozen=True)
class RangeQuery:
    x: float
    y: float
    r: float
    window: WindowSpec
    metric: str = "euclidean"
    kind: ClassVar[str] = "range"

    def __post_init__(self) -> None:
        _check_radius_and_metric(self)


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
        _check_radius_and_metric(self)
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class JoinQuery:
    r: float
    window: WindowSpec
    metric: str = "euclidean"
    kind: ClassVar[str] = "join"

    def __post_init__(self) -> None:
        _check_radius_and_metric(self)


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


# Query kind -> variant name. Read only by perfbench's traced replay;
# goes with ROADMAP item 4.
GRID_STAGES = dict.fromkeys(("range", "knn", "join"), "grid")
NAIVE_STAGES = dict.fromkeys(("range", "knn", "join"), "naive")


@dataclass(frozen=True)
class PipelineConfig:
    """parallelism is the number of instances, one per logical partition."""

    parallelism: int = 1
    # Read only by perfbench's traced replay; goes with ROADMAP item 4.
    chunk_size: ClassVar[int] = 512

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be >= 1, got {self.parallelism}")


@dataclass
class RuntimeMetrics:
    """Counters gathered from the router and every instance."""

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
# tuple of (dest, key, item): dest is an instance index and key is the
# windower bucket key. placements is None when the record falls outside
# the grid extent, and item is None for a point the layer test pruned:
# it is credited to dest but never windowed.


def _point_records(source: Iterator[SpatialPoint], grid: Grid, u: int,
                   layers: LayerKeys | None):
    """Range/kNN records bucketed by layer (True = guaranteed, False =
    candidate): keyed by cell given layer keys, else rebalanced
    round-robin with every point a candidate."""
    if layers is None:
        rr = itertools.cycle(range(u))
        for p in source:
            if not grid.contains(p.x, p.y):
                yield (p.event_time, None)
                continue
            yield (p.event_time, ((next(rr), False, p),))
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
    """Join records from both streams: ordinary points as (True, point),
    query points as (False, replica). Keyed: an ordinary point goes to
    its cell's instance, a query point to every layer cell's instance,
    bucketed by cell. Naive: ordinary points are rebalanced and each
    query point goes to every instance as one candidate replica, all in
    one bucket."""

    def tagged(src, idx):
        for seq, p in enumerate(src):
            yield (p.event_time, idx, seq, p)

    # Two-source merge ordered by (event_time, source, position) so the
    # interleaving is a pure function of the inputs.
    merged = heapq.merge(tagged(sources[0], 0), tagged(sources[1], 1))
    if not keyed:
        rr = itertools.cycle(range(u))
        for t, src, _seq, p in merged:
            key = grid.key_of(p.x, p.y)
            if key is None:
                yield (t, None)
            elif src == 0:
                yield (t, ((next(rr), None, (True, p)),))
            else:
                item = (False, Replica(key, False, p))
                yield (t, tuple((d, None, item) for d in range(u)))
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
    """Join of one fired window, bucket by bucket."""
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


def _evaluator(query: Query) -> Callable[[WindowInstance], tuple[Any, int]]:
    """One instance's (partial result, distance computations) for a
    fired window, grid or naive alike."""
    dist = _dist_for(query)
    r = query.r
    if query.kind == "join":
        return lambda w: _join_buckets(w, r, dist)
    x, y = query.x, query.y
    if query.kind == "knn":
        return lambda w: knn_local(w.members, x, y, r, query.k, dist)
    return lambda w: range_refine(w.buckets.get(True, ()),
                                  w.buckets.get(False, ()), x, y, r, dist)


def _combiner(query: Query) -> Callable[[list], Any]:
    """One window's result from its per-instance partials."""
    if query.kind == "knn":
        return lambda parts: knn_merge(parts, query.k)
    if query.kind == "join":
        return lambda parts: set().union(*parts)
    return lambda parts: [p for part in parts for p in part]


class _Instance:
    """One logical partition: its windower and its counters."""

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
        self.results: list[ResultBatch] = []
        self.emit = callback or self.results.append

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
        # The window starts and window count below are those of last_t,
        # the last accepted event time: taxi logs repeat a stamp for many
        # records, so they are recomputed only when t changes.
        last_t: int | None = None

        for t, placements in records:
            consumed += 1
            if placements is None:
                dropped += 1
                continue
            if t < watermark:
                late += 1
                continue
            if t != last_t:
                last_t = t
                es = earliest_start(t, length, slide)
                ls = latest_start(t, slide)
                n_windows = (ls - es) // slide + 1
                if first_start is None or es < first_start:
                    # Only before the first firing: afterwards every
                    # accepted record starts at or past the earliest
                    # unfired window.
                    first_start = es
                    next_end = es + length
                if max_start is None or ls > max_start:
                    max_start = ls
            for dest, key, item in placements:
                tuples[dest] += 1
                routed += 1
                if item is None:
                    pruned_members += n_windows
                else:
                    adders[dest](t, item, key)
            if t - lateness > watermark:
                watermark = t - lateness
                if watermark >= next_end:
                    self._fire(watermark, first_start, max_start)
                    next_end = earliest_start(watermark, length,
                                              slide) + length

        if first_start is not None:
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

    def _fire(self, watermark: float, first_start: int,
              max_start: int) -> None:
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
            self.emit(batch)


def run_pipeline(sources: list[Iterator[SpatialPoint]], variant: str,
                 query: Query, grid: Grid,
                 config: PipelineConfig = PipelineConfig(),
                 callback: Callable[[ResultBatch], None] | None = None,
                 ) -> tuple[list[ResultBatch], RuntimeMetrics]:
    """Run one continuous query over the given sources to completion.

    Returns the per-window result batches in window order plus the
    metrics. With a callback, each batch is passed to it as its window
    fires and none is kept: the returned list is empty, so memory stays
    bounded on an unbounded source, and metrics.windows_fired still
    counts them. variant is "grid" or "naive". Raises ConfigError for
    any other variant or a wiring that does not match the query, and
    PipelineError, carrying the original message, if a source, an
    operator or the callback raises.
    """
    if variant not in ("grid", "naive"):
        raise ConfigError(f"unknown variant {variant!r}; use 'grid' or 'naive'")
    n_sources = 2 if query.kind == "join" else 1
    if len(sources) != n_sources:
        raise ConfigError(f"{query.kind} query needs {n_sources} source(s), "
                          f"got {len(sources)}")
    if query.kind in ("range", "knn") and not grid.contains(query.x, query.y):
        raise ConfigError(f"query point ({query.x}, {query.y}) outside "
                          f"the grid extent")

    P = config.parallelism
    metrics = RuntimeMetrics()
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
    executor = _Executor(query, instances, _evaluator(query),
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

"""Benchmark harness: synthetic streams and grid-vs-naive comparisons.

A bench run replays a seeded synthetic stream through both the
grid-based and the naive pipeline for the same query and reports
steady-state throughput, distance-computation counts, the pruning ratio
(fraction of distance work the grid variant avoided), and a hash of the
canonical per-window results. The hash must agree between variants, so
every benchmark doubles as a correctness check.

Sweeps vary exactly one parameter axis, run each cell three times, and
average. The query exercised depends on the axis: the query-stream rate
axis only makes sense for the join, the k axis for nearest neighbors,
everything else uses the range query.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import random
import statistics
from dataclasses import dataclass, replace
from typing import IO, Iterable, Sequence

from .grid import DEFAULT_BBOX, build_grid
from .operators import batch_to_json
from .runtime import (GRID_STAGES, NAIVE_STAGES, ConfigError, JoinQuery,
                      KnnQuery, PipelineConfig, RangeQuery, RuntimeMetrics,
                      run_pipeline)
from .streams import SpatialPoint, format_csv_line
from .windows import WindowSpec

# sweep axis -> BenchConfig field
AXES = {
    "grid": "m",
    "r": "r",
    "window": "window_ms",
    "slide": "slide_ms",
    "rate": "s2_rate",
    "k": "k",
}
AXIS_QUERY = {"rate": "join", "k": "knn"}

BENCH_HEADER = ["param", "value", "variant", "throughput_tps",
                "distance_computations", "pruning_ratio", "result_hash"]


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark cell; sweeps derive variants via dataclasses.replace."""

    bbox: tuple[float, float, float, float] = DEFAULT_BBOX
    m: int = 150
    n_bits: int = 16
    r: float = 0.004
    window_ms: int = 10000
    slide_ms: int = 5000
    k: int = 10
    qx: float | None = None
    qy: float | None = None
    parallelism: int = 4
    s1_n: int = 100_000
    s1_rate: float = 250.0
    s2_rate: float = 8.0
    distribution: str = "uniform"
    seed: int = 7
    reps: int = 3

    def query_point(self) -> tuple[float, float]:
        if self.qx is not None and self.qy is not None:
            return self.qx, self.qy
        x0, y0, x1, y1 = self.bbox
        return (x0 + x1) / 2, (y0 + y1) / 2


def synth_points(n: int, bbox: Sequence[float], rate: float, seed: int,
                 distribution: str = "uniform", clusters: int = 8,
                 cluster_std: float = 0.05,
                 start_ms: int = 1_202_000_000_000) -> list[SpatialPoint]:
    """Deterministic synthetic trajectory points with monotone timestamps.

    rate is in points per event-time second; the i-th point is stamped
    start_ms + i*1000/rate. Object ids cycle over a fleet roughly one
    tenth the stream size.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    rng = random.Random(seed)
    x0, y0, x1, y1 = bbox
    fleet = max(1, min(10000, n // 10))
    pts: list[SpatialPoint] = []
    if distribution == "uniform":
        for i in range(n):
            t = start_ms + round(i * 1000.0 / rate)
            pts.append(SpatialPoint(str(rng.randrange(fleet)),
                                    rng.uniform(x0, x1), rng.uniform(y0, y1), t))
    elif distribution == "gaussian-clusters":
        centers = [(rng.uniform(x0, x1), rng.uniform(y0, y1))
                   for _ in range(clusters)]
        for i in range(n):
            t = start_ms + round(i * 1000.0 / rate)
            cx, cy = centers[rng.randrange(clusters)]
            x = min(max(rng.gauss(cx, cluster_std), x0), x1)
            y = min(max(rng.gauss(cy, cluster_std), y0), y1)
            pts.append(SpatialPoint(str(rng.randrange(fleet)), x, y, t))
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    return pts


def synth_stream(path: str, n: int, bbox: Sequence[float], rate: float,
                 seed: int, distribution: str = "uniform") -> int:
    """Write a synthetic stream as a CSV file; byte-identical per seed.
    Returns the number of records written."""
    pts = synth_points(n, bbox, rate, seed, distribution)
    with open(path, "w", encoding="utf-8") as fh:
        for p in pts:
            fh.write(format_csv_line(p))
            fh.write("\n")
    return len(pts)


def steady_state_throughput(metrics: RuntimeMetrics,
                            tuples_per_second: float | None = None) -> float:
    """Tuples per wall second between the first and the second-to-last
    window completion, so startup and the final drain are excluded.

    When the stream's tuple density (tuples per event-time second) is
    known, progress is measured as event time completed in the interval
    times that density; this stays meaningful even when the source is
    fully consumed before the first window closes. Otherwise the
    router's consumption curve is interpolated. Falls back to whole-run
    throughput when there are too few windows to bracket an interval."""
    cs = metrics.completion_samples
    if len(cs) < 3:
        return metrics.throughput_tps
    (t1, ws1), (t2, ws2) = cs[0], cs[-2]
    if t2 - t1 < max(0.05, 0.1 * metrics.wall_seconds):
        # Completions bunched at the end of the run (the source drained
        # before windows closed): no steady portion to measure.
        return metrics.throughput_tps
    if tuples_per_second is not None:
        return (ws2 - ws1) / 1000.0 * tuples_per_second / (t2 - t1)
    rs = metrics.router_samples
    if len(rs) < 2:
        return metrics.throughput_tps
    times = [s[0] for s in rs]

    def consumed_at(t: float) -> float:
        i = bisect.bisect_right(times, t)
        if i == 0:
            return rs[0][1]
        if i == len(rs):
            return rs[-1][1]
        (ta, ca), (tb, cb) = rs[i - 1], rs[i]
        if tb == ta:
            return cb
        return ca + (cb - ca) * (t - ta) / (tb - ta)

    delta = consumed_at(t2) - consumed_at(t1)
    if delta <= 0:
        return metrics.throughput_tps
    return delta / (t2 - t1)


def run_once(cfg: BenchConfig, kind: str, variant: str,
             s1: list[SpatialPoint],
             s2: list[SpatialPoint] | None = None) -> dict:
    """One pipeline run; returns measurements for a bench row."""
    grid = build_grid(*cfg.bbox, cfg.m, cfg.n_bits)
    window = WindowSpec(cfg.window_ms, cfg.slide_ms)
    qx, qy = cfg.query_point()
    if kind == "range":
        query = RangeQuery(qx, qy, cfg.r, window)
        sources = [iter(s1)]
    elif kind == "knn":
        query = KnnQuery(qx, qy, cfg.r, cfg.k, window)
        sources = [iter(s1)]
    elif kind == "join":
        if s2 is None:
            raise ValueError("join bench needs a query stream")
        query = JoinQuery(cfg.r, window)
        sources = [iter(s1), iter(s2)]
    else:
        raise ValueError(f"unknown query kind {kind!r}")
    stages = (GRID_STAGES if variant == "grid" else NAIVE_STAGES)[kind]
    batches, metrics = run_pipeline(
        sources, stages, query, grid,
        PipelineConfig(parallelism=cfg.parallelism))
    digest = hashlib.sha256(
        "\n".join(batch_to_json(b) for b in batches).encode()).hexdigest()
    density = cfg.s1_rate + (cfg.s2_rate if kind == "join" else 0.0)
    return {
        "variant": variant,
        "throughput_tps": steady_state_throughput(metrics, density),
        "overall_tps": metrics.throughput_tps,
        "distance_computations": metrics.distance_computations,
        "windows_fired": metrics.windows_fired,
        "wall_seconds": metrics.wall_seconds,
        "result_hash": digest,
    }


@dataclass(frozen=True)
class PlannedRun:
    param: str
    value: float
    variant: str
    rep: int


def sweep_plan(axis: str, values: Sequence[float], reps: int = 3,
               base: BenchConfig = BenchConfig()) -> list[PlannedRun]:
    """Expand one sweep axis into an ordered run list, reps per cell."""
    if axis not in AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; "
                          f"choose from {sorted(AXES)}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    for v in values:
        if axis == "slide" and v > base.window_ms:
            raise ConfigError(f"slide {v} exceeds window size {base.window_ms}")
        if axis == "window" and v < base.slide_ms:
            raise ConfigError(f"window {v} below slide {base.slide_ms}")
        if v <= 0:
            raise ConfigError(f"sweep value must be positive, got {v}")
    return [PlannedRun(axis, v, variant, rep)
            for v in values
            for rep in range(reps)
            for variant in ("grid", "naive")]


def _streams_for(cfg: BenchConfig, kind: str
                 ) -> tuple[list[SpatialPoint], list[SpatialPoint] | None]:
    s1 = synth_points(cfg.s1_n, cfg.bbox, cfg.s1_rate, cfg.seed,
                      cfg.distribution)
    if kind != "join":
        return s1, None
    span_s = cfg.s1_n / cfg.s1_rate
    n2 = max(1, int(span_s * cfg.s2_rate))
    s2 = synth_points(n2, cfg.bbox, cfg.s2_rate, cfg.seed + 1,
                      cfg.distribution)
    return s1, s2


def bench_axis(cfg: BenchConfig, axis: str,
               values: Sequence[float]) -> list[dict]:
    """Sweep one axis; returns one averaged row per (value, variant).

    Distance counts must repeat exactly across reps and result hashes
    must agree between variants; either failing is a bug, not noise, so
    it raises.
    """
    plan = sweep_plan(axis, values, cfg.reps, cfg)
    field = AXES[axis]
    kind = AXIS_QUERY.get(axis, "range")
    rows: list[dict] = []
    for value in values:
        cast = int(value) if field in ("m", "window_ms", "slide_ms", "k") \
            else float(value)
        cell_cfg = replace(cfg, **{field: cast})
        s1, s2 = _streams_for(cell_cfg, kind)
        tps: dict[str, list[float]] = {"grid": [], "naive": []}
        dc: dict[str, int] = {}
        hashes: dict[str, str] = {}
        for run in (p for p in plan if p.value == value):
            res = run_once(cell_cfg, kind, run.variant, s1, s2)
            tps[run.variant].append(res["throughput_tps"])
            prev_dc = dc.setdefault(run.variant, res["distance_computations"])
            if prev_dc != res["distance_computations"]:
                raise RuntimeError(
                    f"{axis}={value} {run.variant}: distance count varied "
                    f"across reps ({prev_dc} vs {res['distance_computations']})")
            prev_hash = hashes.setdefault(run.variant, res["result_hash"])
            if prev_hash != res["result_hash"]:
                raise RuntimeError(
                    f"{axis}={value} {run.variant}: results varied across reps")
        if hashes["grid"] != hashes["naive"]:
            raise RuntimeError(
                f"{axis}={value}: grid and naive results disagree")
        ratio = (1.0 - dc["grid"] / dc["naive"]) if dc["naive"] else 0.0
        for variant in ("grid", "naive"):
            rows.append({
                "param": axis,
                "value": value,
                "variant": variant,
                "throughput_tps": statistics.mean(tps[variant]),
                "distance_computations": dc[variant],
                "pruning_ratio": ratio,
                "result_hash": hashes[variant],
            })
    return rows


def bench_default(cfg: BenchConfig,
                  kinds: Iterable[str] = ("range", "knn", "join")) -> list[dict]:
    """No-sweep bench: one averaged grid/naive pair per query kind."""
    rows: list[dict] = []
    for kind in kinds:
        s1, s2 = _streams_for(cfg, kind)
        tps: dict[str, list[float]] = {"grid": [], "naive": []}
        dc: dict[str, int] = {}
        hashes: dict[str, str] = {}
        for _rep in range(cfg.reps):
            for variant in ("grid", "naive"):
                res = run_once(cfg, kind, variant, s1, s2)
                tps[variant].append(res["throughput_tps"])
                dc[variant] = res["distance_computations"]
                hashes[variant] = res["result_hash"]
        if hashes["grid"] != hashes["naive"]:
            raise RuntimeError(f"{kind}: grid and naive results disagree")
        ratio = (1.0 - dc["grid"] / dc["naive"]) if dc["naive"] else 0.0
        for variant in ("grid", "naive"):
            rows.append({
                "param": "query",
                "value": kind,
                "variant": variant,
                "throughput_tps": statistics.mean(tps[variant]),
                "distance_computations": dc[variant],
                "pruning_ratio": ratio,
                "result_hash": hashes[variant],
            })
    return rows


def write_bench_csv(rows: Iterable[dict], fh: IO[str]) -> None:
    writer = csv.DictWriter(fh, fieldnames=BENCH_HEADER)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row[k] for k in BENCH_HEADER})


def write_plot_data(rows: Sequence[dict], fh: IO[str]) -> None:
    """Gnuplot-friendly: one line per sweep value, grid and naive columns."""
    by_value: dict = {}
    for row in rows:
        by_value.setdefault(row["value"], {})[row["variant"]] = \
            row["throughput_tps"]
    fh.write("# value grid_tps naive_tps\n")
    for value in by_value:
        pair = by_value[value]
        fh.write(f"{value} {pair.get('grid', float('nan'))} "
                 f"{pair.get('naive', float('nan'))}\n")

"""Benchmark harness: synthetic streams and grid-vs-naive comparisons.

A bench run replays a seeded synthetic stream through both the
grid-based and the naive pipeline for the same query and reports
steady-state throughput, distance-computation counts, the pruning ratio
(fraction of distance work the grid variant avoided), and a hash of the
canonical per-window results. The hash must agree between variants, so
every benchmark doubles as a correctness check.

Sweeps vary exactly one parameter axis, run each cell three times,
taking the cells in turn rep by rep, and report the median. The query
exercised depends on the axis: the query-stream rate axis only makes
sense for the join, the k axis for nearest neighbors, everything else
uses the range query.
"""

from __future__ import annotations

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
                            tuples_per_second: float) -> float:
    """Tuples per wall second between the first and the second-to-last
    window completion, so startup and the final drain are excluded.

    Progress is measured as event time completed in the interval times
    the stream's tuple density (tuples per event-time second); this
    stays meaningful even when the source is fully consumed before the
    first window closes. Falls back to whole-run throughput when there
    are too few windows to bracket an interval."""
    if metrics.windows_fired < 3:
        return metrics.throughput_tps
    (t1, ws1), (t2, ws2) = (metrics.first_completion,
                            metrics.penultimate_completion)
    if t2 - t1 < max(0.05, 0.1 * metrics.wall_seconds):
        # Completions bunched at the end of the run (the source drained
        # before windows closed): no steady portion to measure.
        return metrics.throughput_tps
    return (ws2 - ws1) / 1000.0 * tuples_per_second / (t2 - t1)


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


def _stream_key(cfg: BenchConfig, kind: str) -> tuple:
    """The fields _streams_for reads, so cells that would draw the same
    streams share one copy."""
    s1 = (cfg.s1_n, cfg.bbox, cfg.s1_rate, cfg.seed, cfg.distribution)
    return s1 + ((cfg.s2_rate,) if kind == "join" else ())


def bench_cells(cells: Sequence[tuple[BenchConfig, str, str, float | str]],
                reps: int) -> list[dict]:
    """Run reps reps of both variants of each (cfg, kind, param, value) cell;
    returns one row per cell and variant, labelled param=value, holding
    the median throughput of its reps.

    Reps run round-robin over the cells (rep 0 of every cell, then rep
    1, ...), so a drift in host speed during the run lands on every
    cell alike instead of on whichever cell ran last.

    Distance counts and result hashes must repeat exactly across reps,
    and result hashes must agree between variants; any of these failing
    is a bug, not noise, so it raises.
    """
    streams: dict[tuple, tuple] = {}
    for cfg, kind, _param, _value in cells:
        key = _stream_key(cfg, kind)
        if key not in streams:
            streams[key] = _streams_for(cfg, kind)
    n = len(cells)
    tps: list[dict[str, list[float]]] = [{"grid": [], "naive": []}
                                         for _ in range(n)]
    dc: list[dict[str, int]] = [{} for _ in range(n)]
    hashes: list[dict[str, str]] = [{} for _ in range(n)]
    for _rep in range(reps):
        for i, (cfg, kind, param, value) in enumerate(cells):
            s1, s2 = streams[_stream_key(cfg, kind)]
            for variant in ("grid", "naive"):
                res = run_once(cfg, kind, variant, s1, s2)
                tps[i][variant].append(res["throughput_tps"])
                prev_dc = dc[i].setdefault(variant,
                                           res["distance_computations"])
                if prev_dc != res["distance_computations"]:
                    raise RuntimeError(
                        f"{param}={value} {variant}: distance count varied "
                        f"across reps ({prev_dc} vs "
                        f"{res['distance_computations']})")
                prev_hash = hashes[i].setdefault(variant, res["result_hash"])
                if prev_hash != res["result_hash"]:
                    raise RuntimeError(
                        f"{param}={value} {variant}: results varied "
                        f"across reps")
    rows: list[dict] = []
    for i, (_cfg, _kind, param, value) in enumerate(cells):
        if hashes[i]["grid"] != hashes[i]["naive"]:
            raise RuntimeError(
                f"{param}={value}: grid and naive results disagree")
        g, nv = dc[i]["grid"], dc[i]["naive"]
        ratio = (1.0 - g / nv) if nv else 0.0
        rows += [{
            "param": param,
            "value": value,
            "variant": variant,
            "throughput_tps": statistics.median(tps[i][variant]),
            "distance_computations": dc[i][variant],
            "pruning_ratio": ratio,
            "result_hash": hashes[i][variant],
        } for variant in ("grid", "naive")]
    return rows


def bench_axis(cfg: BenchConfig, axis: str,
               values: Sequence[float]) -> list[dict]:
    """Sweep one axis; returns bench_cells' two rows per value.

    Raises ConfigError for an unknown axis or a bad value before any run.
    """
    if axis not in AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; "
                          f"choose from {sorted(AXES)}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    for v in values:
        if axis == "slide" and v > cfg.window_ms:
            raise ConfigError(f"slide {v} exceeds window size {cfg.window_ms}")
        if axis == "window" and v < cfg.slide_ms:
            raise ConfigError(f"window {v} below slide {cfg.slide_ms}")
        if v <= 0:
            raise ConfigError(f"sweep value must be positive, got {v}")
    field = AXES[axis]
    kind = AXIS_QUERY.get(axis, "range")
    cells = []
    for value in values:
        cast = int(value) if field in ("m", "window_ms", "slide_ms", "k") \
            else float(value)
        cells.append((replace(cfg, **{field: cast}), kind, axis, value))
    return bench_cells(cells, cfg.reps)


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

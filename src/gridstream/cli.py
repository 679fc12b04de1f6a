"""Command-line front end.

Subcommands ``range``, ``knn`` and ``join`` run one continuous query
over a replayed file, stdin, or a TCP line source and stream one JSON
result line per window to stdout (or --out). ``bench`` compares the
grid-based and naive pipelines across a parameter sweep and writes a
CSV report; ``synth`` generates seeded synthetic trajectory files.

Coordinates are raw stream units (degrees for geo data); the radius is
in the same units, or in meters with --haversine. Defaults follow a
metropolitan-taxi setup: a Beijing bounding box, a 150-cell grid, a 10 s
window sliding by 5 s, k=10, r=0.004 degrees (about 400 m there).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import IO, Iterator

from .grid import DEFAULT_BBOX, build_grid
from .operators import batch_to_json
from .runtime import (ConfigError, JoinQuery, KnnQuery, PipelineConfig,
                      PipelineError, RangeQuery, run_pipeline)
from .streams import (ParseStats, SpatialPoint, parse_lines, replay_file,
                      tcp_source)
from .windows import WindowSpec


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != n:
        raise argparse.ArgumentTypeError(
            f"{what} needs {n} comma-separated numbers, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number in {what}: {text!r}")


def _bbox(text: str) -> tuple[float, float, float, float]:
    a = _parse_floats(text, 4, "--bbox")
    return (a[0], a[1], a[2], a[3])


def _xy(text: str) -> tuple[float, float]:
    a = _parse_floats(text, 2, "--q")
    return (a[0], a[1])


def _sweep(text: str) -> tuple[str, list[float]]:
    axis, sep, rest = text.partition(":")
    if not sep or not rest:
        raise argparse.ArgumentTypeError(
            f"--sweep wants axis:v1,v2,..., got {text!r}")
    try:
        values = [float(v) for v in rest.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sweep value in {text!r}")
    return axis, values


def _add_stream_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="stream file (required for --source file)")
    p.add_argument("--format", choices=("csv", "geojson"), default="csv")
    p.add_argument("--source", default="file",
                   help="file, stdin, or tcp:<port> (default file)")
    p.add_argument("--replay-speed", type=float, default=0.0,
                   help="replay multiplier; 0 = as fast as possible")
    p.add_argument("--loop", type=int, default=1,
                   help="replay the file this many times, shifting "
                        "timestamps (range and knn only)")


def _add_query_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bbox", type=_bbox, default=DEFAULT_BBOX,
                   help="minx,miny,maxx,maxy (default Beijing box)")
    p.add_argument("--grid", type=int, default=150, metavar="M",
                   help="cells along x (default 150)")
    p.add_argument("--r", type=float, required=True,
                   help="radius in coordinate units (meters with --haversine)")
    p.add_argument("--window-size-ms", type=int, default=10000)
    p.add_argument("--window-slide-ms", type=int, default=5000)
    p.add_argument("--lateness-ms", type=int, default=0,
                   help="allowed disorder: a record is dropped as late when "
                        "its time is below the largest time seen minus this, "
                        "or below 0 (default 0)")
    p.add_argument("--parallelism", type=int, default=4)
    p.add_argument("--naive", action="store_true",
                   help="run the no-index variant instead of the grid pipeline")
    p.add_argument("--haversine", action="store_true",
                   help="radius in meters, great-circle distance over lon/lat")
    p.add_argument("--out", help="result file (default stdout)")
    p.add_argument("--metrics-out", help="per-instance counter CSV")


def _replay(args, path: str, stats: ParseStats) -> Iterator[SpatialPoint]:
    """replay_file, which checks its file and speed now rather than at
    the first record, so a bad file, --replay-speed or --loop exits 2
    before --out is opened."""
    if args.loop < 1:
        raise ConfigError(f"--loop must be >= 1, got {args.loop}")
    return replay_file(path, args.format, args.replay_speed, args.loop, stats)


def _open_source(args, path: str | None, stats: ParseStats
                 ) -> Iterator[SpatialPoint]:
    src = args.source
    if src == "file":
        if not path:
            raise ConfigError("--source file needs --input")
        return _replay(args, path, stats)
    if src == "stdin":
        return parse_lines(sys.stdin, args.format, stats)
    if src.startswith("tcp:"):
        try:
            port = int(src[4:])
        except ValueError:
            raise ConfigError(f"bad tcp source {src!r}")
        if not 1 <= port <= 65535:
            raise ConfigError(f"tcp port must be 1-65535, got {port}")
        return tcp_source("127.0.0.1", port, args.format, stats)
    raise ConfigError(f"unknown source {src!r}; use file, stdin, or tcp:<port>")


def _run_query(args, kind: str) -> int:
    grid = build_grid(*args.bbox, args.grid)
    window = WindowSpec(args.window_size_ms, args.window_slide_ms,
                        args.lateness_ms)
    metric = "haversine" if args.haversine else "euclidean"
    if kind == "range":
        query = RangeQuery(args.q[0], args.q[1], args.r, window, metric)
    elif kind == "knn":
        query = KnnQuery(args.q[0], args.q[1], args.r, args.k, window, metric)
    else:
        if not args.query_input:
            raise ConfigError("join needs --query-input for the query stream")
        if args.loop > 1:
            # Each file would loop by its own span, so the two streams
            # would drift apart pass by pass.
            raise ConfigError("join does not support --loop above 1")
        query = JoinQuery(args.r, window, metric)

    stats = ParseStats()
    # The query file is checked first: a tcp: source binds its port as
    # soon as it is opened.
    query_src = [_replay(args, args.query_input, stats)] if kind == "join" \
        else []
    sources = [_open_source(args, args.input, stats), *query_src]

    out_fh: IO[str] = open(args.out, "w", encoding="utf-8") if args.out \
        else sys.stdout
    try:
        def emit(batch):
            out_fh.write(batch_to_json(batch))
            out_fh.write("\n")
            out_fh.flush()

        config = PipelineConfig(parallelism=args.parallelism)
        _batches, metrics = run_pipeline(
            sources, "naive" if args.naive else "grid", query, grid, config,
            emit)
    finally:
        if out_fh is not sys.stdout:
            out_fh.close()

    summary = metrics.summary()
    summary["malformed"] = stats.malformed
    summary["dropped_outside"] = metrics.dropped_outside
    summary["late_dropped"] = metrics.late_dropped
    print(json.dumps(summary), file=sys.stderr)
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write("instance,counter,value\n")
            for name, counter, value in metrics.counter_rows():
                fh.write(f"{name},{counter},{value}\n")
    return 0


def _run_bench(args) -> int:
    # bench and synth import modules a query never needs; load them late.
    from .bench import (BenchConfig, bench_axis, bench_cells, write_bench_csv,
                        write_plot_data)
    cfg = BenchConfig(
        bbox=args.bbox, m=args.grid, r=args.r,
        window_ms=args.window_size_ms, slide_ms=args.window_slide_ms,
        k=args.k, parallelism=args.parallelism, s1_n=args.n,
        s1_rate=args.s1_rate, s2_rate=args.s2_rate,
        distribution=args.distribution, seed=args.seed, reps=args.reps)
    if args.sweep:
        axis, values = args.sweep
        rows = bench_axis(cfg, axis, values)
    else:
        rows = bench_cells([(cfg, kind, "query", kind)
                            for kind in ("range", "knn", "join")], cfg.reps)
    out_fh = open(args.out, "w", encoding="utf-8", newline="") if args.out \
        else sys.stdout
    try:
        write_bench_csv(rows, out_fh)
    finally:
        if out_fh is not sys.stdout:
            out_fh.close()
    if args.plot_data:
        with open(args.plot_data, "w", encoding="utf-8") as fh:
            write_plot_data(rows, fh)
    return 0


def _run_synth(args) -> int:
    from .bench import synth_stream
    n = synth_stream(args.out, args.n, args.bbox, args.rate, args.seed,
                     args.distribution)
    print(f"wrote {n} records to {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridstream",
        description="Continuous spatial queries over windowed point streams "
                    "on a uniform grid index.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_range = sub.add_parser("range", help="continuous range query")
    _add_stream_flags(p_range)
    _add_query_flags(p_range)
    p_range.add_argument("--q", type=_xy, required=True,
                         help="query point x,y")

    p_knn = sub.add_parser("knn", help="continuous k-nearest-neighbors query")
    _add_stream_flags(p_knn)
    _add_query_flags(p_knn)
    p_knn.add_argument("--q", type=_xy, required=True, help="query point x,y")
    p_knn.add_argument("--k", type=int, default=10)

    p_join = sub.add_parser("join", help="continuous join of two streams")
    _add_stream_flags(p_join)
    _add_query_flags(p_join)
    p_join.add_argument("--query-input", required=False,
                        help="query stream file (always file-replayed)")

    p_bench = sub.add_parser("bench", help="grid vs naive benchmark sweeps")
    p_bench.add_argument("--bbox", type=_bbox, default=DEFAULT_BBOX)
    p_bench.add_argument("--grid", type=int, default=150, metavar="M")
    p_bench.add_argument("--r", type=float, default=0.004)
    p_bench.add_argument("--window-size-ms", type=int, default=10000)
    p_bench.add_argument("--window-slide-ms", type=int, default=5000)
    p_bench.add_argument("--k", type=int, default=10)
    p_bench.add_argument("--parallelism", type=int, default=4)
    p_bench.add_argument("--n", type=int, default=100_000,
                         help="ordinary stream size (default 100000)")
    p_bench.add_argument("--s1-rate", type=float, default=250.0,
                         help="ordinary stream points per second")
    p_bench.add_argument("--s2-rate", type=float, default=8.0,
                         help="query stream points per second (join)")
    p_bench.add_argument("--distribution", default="uniform",
                         choices=("uniform", "gaussian-clusters"))
    p_bench.add_argument("--seed", type=int, default=7)
    p_bench.add_argument("--reps", type=int, default=3)
    p_bench.add_argument("--sweep", type=_sweep,
                         help="axis:v1,v2,... over grid, r, window, slide, "
                              "rate, or k")
    p_bench.add_argument("--out", help="bench CSV (default stdout)")
    p_bench.add_argument("--plot-data", help="gnuplot-style data file")

    p_synth = sub.add_parser("synth", help="generate a synthetic stream file")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--bbox", type=_bbox, default=DEFAULT_BBOX)
    p_synth.add_argument("--rate", type=float, default=250.0)
    p_synth.add_argument("--seed", type=int, default=7)
    p_synth.add_argument("--distribution", default="uniform",
                         choices=("uniform", "gaussian-clusters"))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("range", "knn", "join"):
            return _run_query(args, args.command)
        if args.command == "bench":
            return _run_bench(args)
        return _run_synth(args)
    except (ValueError, OSError) as exc:
        # ConfigError, GridError, WindowError and StreamFormatError are
        # all ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"pipeline failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

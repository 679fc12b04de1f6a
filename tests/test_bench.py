"""Benchmark harness: sweep checks, synthetic data, measured rows."""

import io
import statistics

import pytest

from gridstream import bench
from gridstream.bench import (
    AXES,
    BENCH_HEADER,
    BenchConfig,
    bench_axis,
    synth_points,
    write_bench_csv,
    write_plot_data,
)
from gridstream.grid import build_grid
from gridstream.runtime import ConfigError


def test_bench_axis_rejects_bad_sweeps_before_any_run(monkeypatch):
    def no_run(*args):
        raise AssertionError("a run started before the sweep was checked")

    monkeypatch.setattr(bench, "run_once", no_run)
    base = BenchConfig()
    for axis, values in (("velocity", [1.0]),
                         ("r", []),
                         ("r", [0.01, -0.5]),
                         ("slide", [base.window_ms * 2]),
                         ("window", [base.slide_ms // 2])):
        with pytest.raises(ConfigError):
            bench_axis(base, axis, values)


def _scripted_runs(monkeypatch, tps_by_call):
    """Replace run_once; returns the (r, variant) list of calls made.
    The n-th call reports tps_by_call[n] (default 1000.0)."""
    calls = []

    def fake_run(cfg, kind, variant, s1, s2=None):
        tps = tps_by_call.get(len(calls), 1000.0)
        calls.append((cfg.r, variant))
        return {"variant": variant, "throughput_tps": tps,
                "distance_computations": 1 if variant == "grid" else 4,
                "result_hash": "h"}

    monkeypatch.setattr(bench, "run_once", fake_run)
    return calls


def test_bench_axis_takes_turns_rep_by_rep(monkeypatch):
    calls = _scripted_runs(monkeypatch, {})
    bench_axis(BenchConfig(s1_n=50, reps=2), "r", [0.01, 0.02, 0.03])
    one_rep = [(r, v) for r in (0.01, 0.02, 0.03) for v in ("grid", "naive")]
    assert calls == one_rep * 2


def test_bench_axis_reports_the_median_rep(monkeypatch):
    # One stalled rep: call 2 is rep 1's grid run. It would pull a mean
    # of the three grid reps down to 667.
    _scripted_runs(monkeypatch, {2: 1.0})
    rows = bench_axis(BenchConfig(s1_n=50, reps=3), "r", [0.01])
    by_variant = {row["variant"]: row for row in rows}
    assert by_variant["grid"]["throughput_tps"] == 1000.0
    assert by_variant["naive"]["throughput_tps"] == 1000.0
    assert by_variant["grid"]["pruning_ratio"] == pytest.approx(0.75)


def test_synth_points_deterministic_and_monotone():
    box = (115.5, 39.6, 117.6, 41.1)
    a = synth_points(2000, box, 250.0, seed=7)
    b = synth_points(2000, box, 250.0, seed=7)
    c = synth_points(2000, box, 250.0, seed=8)
    assert a == b
    assert a != c
    times = [p.event_time for p in a]
    assert times == sorted(times)
    assert times[250] - times[0] == 1000
    assert all(115.5 <= p.x <= 117.6 and 39.6 <= p.y <= 41.1 for p in a)


def test_synth_uniform_spread_is_flat():
    box = (115.5, 39.6, 117.6, 41.1)
    grid = build_grid(*box, m=50, n_bits=8)
    pts = synth_points(100_000, box, 250.0, seed=7)
    counts: dict = {}
    for p in pts:
        counts[grid.cell_of(p.x, p.y)] = counts.get(grid.cell_of(p.x, p.y),
                                                    0) + 1
    per_cell = [counts.get(c, 0) for c in grid.cells()]
    cv = statistics.pstdev(per_cell) / statistics.mean(per_cell)
    assert cv < 0.2


def test_synth_clusters_are_not_flat():
    box = (115.5, 39.6, 117.6, 41.1)
    grid = build_grid(*box, m=50, n_bits=8)
    pts = synth_points(100_000, box, 250.0, seed=7,
                       distribution="gaussian-clusters")
    counts: dict = {}
    for p in pts:
        counts[grid.cell_of(p.x, p.y)] = counts.get(grid.cell_of(p.x, p.y),
                                                    0) + 1
    per_cell = [counts.get(c, 0) for c in grid.cells()]
    cv = statistics.pstdev(per_cell) / statistics.mean(per_cell)
    assert cv > 0.5


def test_bench_axis_rows_and_pruning_ratio():
    cfg = BenchConfig(s1_n=4000, reps=2, parallelism=2, r=0.05)
    rows = bench_axis(cfg, "r", [0.05, 0.1])
    assert len(rows) == 4
    by_cell = {(row["value"], row["variant"]): row for row in rows}
    for value in (0.05, 0.1):
        g = by_cell[(value, "grid")]
        n = by_cell[(value, "naive")]
        assert g["result_hash"] == n["result_hash"]
        assert 0 < g["distance_computations"] < n["distance_computations"]
        want = 1.0 - g["distance_computations"] / n["distance_computations"]
        assert g["pruning_ratio"] == pytest.approx(want)
        assert n["pruning_ratio"] == pytest.approx(want)
        assert g["throughput_tps"] > 0 and n["throughput_tps"] > 0
    assert set(rows[0]) == set(BENCH_HEADER)


def test_bench_csv_and_plot_data_round_trip():
    rows = [
        {"param": "r", "value": 0.05, "variant": "grid",
         "throughput_tps": 1000.0, "distance_computations": 10,
         "pruning_ratio": 0.9, "result_hash": "aa"},
        {"param": "r", "value": 0.05, "variant": "naive",
         "throughput_tps": 400.0, "distance_computations": 100,
         "pruning_ratio": 0.9, "result_hash": "aa"},
    ]
    buf = io.StringIO()
    write_bench_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(BENCH_HEADER)
    assert lines[1].startswith("r,0.05,grid,1000.0,10,0.9,aa")
    plot = io.StringIO()
    write_plot_data(rows, plot)
    assert plot.getvalue().splitlines()[1] == "0.05 1000.0 400.0"


def test_axis_names_cover_the_documented_sweeps():
    assert set(AXES) == {"grid", "r", "window", "slide", "rate", "k"}

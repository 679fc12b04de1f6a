"""Full-system acceptance checks.

One test per gate; each prints a single PASS/FAIL line with the
measured numbers so a log scrape shows the whole scorecard. Expected
values come from the brute-force oracles or from pinned worked
examples, never from the code under test.
"""

import random
import statistics
import time

from gridstream.bench import BenchConfig, bench_axis, run_once, synth_points
from gridstream.grid import CellCoord, build_grid, layer_params
from gridstream.oracle import oracle_join, oracle_knn, oracle_range
from gridstream.operators import batch_to_json
from gridstream.runtime import (
    JoinQuery,
    KnnQuery,
    PipelineConfig,
    RangeQuery,
    run_pipeline,
)
from gridstream.streams import SpatialPoint
from gridstream.windows import WindowSpec, earliest_start, latest_start

BEIJING = (115.5, 39.6, 117.6, 41.1)
WINDOW = WindowSpec(10000, 5000)


def report(capsys, n, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def uniform_points(rng, n, extent, t_step, prefix="p"):
    x0, y0, x1, y1 = extent
    return [
        SpatialPoint(f"{prefix}{i}", rng.uniform(x0, x1), rng.uniform(y0, y1),
                     i * t_step)
        for i in range(n)
    ]


def window_members(pts, window=WINDOW):
    times = [p.event_time for p in pts]
    first = earliest_start(min(times), window.length, window.slide)
    last = latest_start(max(times), window.slide)
    for s in range(first, last + 1, window.slide):
        yield s, [p for p in pts if s <= p.event_time < s + window.length]


def test_criterion_1_worked_examples(capsys):
    t0 = time.monotonic()
    grid = build_grid(0, 0, 90, 90, m=9, n_bits=4)
    key = grid.key_bits(grid.encode_key(grid.cell_of(25, 42)))
    params = layer_params(30.0, 10.0)
    ok = key == "00100100" and params == (1, 3)
    report(capsys, 1, ok,
           f"cell key for (25,42) is {key!r}, layer params (r=30, l=10) "
           f"are {params}, in {time.monotonic() - t0:.3f}s")


def test_criterion_2_range_matches_oracle_everywhere(capsys):
    t0 = time.monotonic()
    rng = random.Random(2002)
    extent = (0.0, 0.0, 90.0, 90.0)
    windows = mismatches = 0
    for m in (10, 50, 150):
        grid = build_grid(*extent, m=m, n_bits=16)
        l = grid.cell_len
        for corner_q in (False, True):
            for _ in range(2):
                pts = uniform_points(rng, 1200, extent, t_step=50)
                r = rng.uniform(0.3 * l, 5.0 * l)
                if corner_q:
                    qx = l * rng.randrange(1, m)
                    qy = l * rng.randrange(1, m)
                else:
                    qx = rng.uniform(1.0, 89.0)
                    qy = rng.uniform(1.0, 89.0)
                query = RangeQuery(qx, qy, r, WINDOW)
                batches, _ = run_pipeline([iter(pts)], "grid",
                                          query, grid,
                                          PipelineConfig(parallelism=4))
                for batch, (start, members) in zip(batches,
                                                   window_members(pts)):
                    windows += 1
                    want = oracle_range(members, qx, qy, r)
                    if batch.window_start != start or \
                            set(batch.payload) != want:
                        mismatches += 1
    elapsed = time.monotonic() - t0
    ok = windows >= 100 and mismatches == 0 and elapsed < 120
    report(capsys, 2, ok,
           f"range output equals oracle in {windows - mismatches}/{windows} "
           f"randomized windows in {elapsed:.1f}s")


def test_criterion_3_knn_matches_oracle_everywhere(capsys):
    t0 = time.monotonic()
    rng = random.Random(2003)
    extent = (0.0, 0.0, 90.0, 90.0)
    windows = mismatches = 0
    for m in (10, 50, 150):
        grid = build_grid(*extent, m=m, n_bits=16)
        l = grid.cell_len
        for k in (1, 10, 50):
            pts = uniform_points(rng, 1500, extent, t_step=45)
            r = rng.uniform(0.3 * l, 5.0 * l)
            if k == 10:
                qx = l * rng.randrange(1, m)
                qy = l * rng.randrange(1, m)
            else:
                qx = rng.uniform(1.0, 89.0)
                qy = rng.uniform(1.0, 89.0)
            query = KnnQuery(qx, qy, r, k, WINDOW)
            batches, _ = run_pipeline([iter(pts)], "grid",
                                      query, grid,
                                      PipelineConfig(parallelism=4))
            for batch, (start, members) in zip(batches, window_members(pts)):
                windows += 1
                want = [(p.object_id, d)
                        for p, d in oracle_knn(members, qx, qy, r, k)]
                got = [(p.object_id, d) for p, d in batch.payload]
                if batch.window_start != start or got != want:
                    mismatches += 1
    elapsed = time.monotonic() - t0
    ok = windows >= 100 and mismatches == 0 and elapsed < 120
    report(capsys, 3, ok,
           f"knn lists equal oracle in {windows - mismatches}/{windows} "
           f"randomized windows in {elapsed:.1f}s")


def test_criterion_4_join_matches_oracle_everywhere(capsys):
    t0 = time.monotonic()
    rng = random.Random(2004)
    extent = (0.0, 0.0, 90.0, 90.0)
    grid = build_grid(*extent, m=50, n_bits=16)
    l = grid.cell_len
    windows = mismatches = 0
    for s2_size in (1, 10, 100):
        pts = uniform_points(rng, 1000, extent, t_step=100)
        span = 1000 * 100
        qpts = uniform_points(rng, s2_size, extent,
                              t_step=max(1, span // s2_size), prefix="q")
        r = rng.uniform(0.3 * l, 5.0 * l)
        query = JoinQuery(r, WINDOW)
        batches, _ = run_pipeline([iter(pts), iter(qpts)],
                                  "grid", query, grid,
                                  PipelineConfig(parallelism=4))
        both = pts + qpts
        for batch, (start, _) in zip(batches, window_members(both)):
            windows += 1
            end = start + WINDOW.length
            w1 = [p for p in pts if start <= p.event_time < end]
            w2 = [p for p in qpts if start <= p.event_time < end]
            want = oracle_join(w1, w2, r)
            if batch.window_start != start or set(batch.payload) != want:
                mismatches += 1
    elapsed = time.monotonic() - t0
    ok = windows >= 50 and mismatches == 0 and elapsed < 120
    report(capsys, 4, ok,
           f"join pairs equal oracle in {windows - mismatches}/{windows} "
           f"randomized windows in {elapsed:.1f}s")


def test_criterion_5_parallelism_invariance(capsys):
    t0 = time.monotonic()
    s1 = synth_points(100_000, BEIJING, 250.0, seed=7)
    s2 = synth_points(3200, BEIJING, 8.0, seed=8)
    cx = (BEIJING[0] + BEIJING[2]) / 2
    cy = (BEIJING[1] + BEIJING[3]) / 2
    grid = build_grid(*BEIJING, m=150, n_bits=16)
    runs = {
        "range": (RangeQuery(cx, cy, 0.05, WINDOW), [s1]),
        "knn": (KnnQuery(cx, cy, 0.05, 10, WINDOW), [s1]),
        "join": (JoinQuery(0.01, WINDOW), [s1, s2]),
    }
    stable = []
    for kind, (query, streams) in runs.items():
        outputs = set()
        for p in (1, 2, 4, 8):
            batches, _ = run_pipeline([iter(s) for s in streams],
                                      "grid", query, grid,
                                      PipelineConfig(parallelism=p))
            outputs.add("\n".join(batch_to_json(b) for b in batches))
        stable.append(len(outputs) == 1)
    elapsed = time.monotonic() - t0
    ok = all(stable) and elapsed < 300
    report(capsys, 5, ok,
           f"range/knn/join output byte-identical for parallelism 1,2,4,8 "
           f"on a fixed 100000-tuple replay "
           f"({['varied', 'stable'][all(stable)]}) in {elapsed:.1f}s")


def test_criterion_6_pruning_effectiveness(capsys):
    t0 = time.monotonic()
    pts = synth_points(100_000, BEIJING, 250.0, seed=7)
    cx = (BEIJING[0] + BEIJING[2]) / 2
    cy = (BEIJING[1] + BEIJING[3]) / 2
    grid = build_grid(*BEIJING, m=150, n_bits=16)
    query = RangeQuery(cx, cy, 0.004, WINDOW)
    _, mg = run_pipeline([iter(pts)], "grid", query, grid,
                         PipelineConfig(parallelism=4))
    _, mn = run_pipeline([iter(pts)], "naive", query, grid,
                         PipelineConfig(parallelism=4))
    layers = grid.layer_sets(grid.cell_of(cx, cy), query.r)
    layer_cells = len(layers.guaranteed) + len(layers.candidate)
    total_cells = grid.x_cells * grid.y_cells
    bound = layer_cells / total_cells * mn.distance_computations * 1.5
    ratio = 1.0 - mg.distance_computations / mn.distance_computations
    elapsed = time.monotonic() - t0
    ok = mg.distance_computations <= bound and ratio > 0.9
    report(capsys, 6, ok,
           f"grid did {mg.distance_computations} distance computations vs "
           f"naive {mn.distance_computations} "
           f"(bound {bound:.0f} from {layer_cells}/{total_cells} cells), "
           f"pruning ratio {ratio:.4f} in {elapsed:.1f}s")


def test_criterion_7_throughput_advantage(capsys):
    t0 = time.monotonic()
    cfg = BenchConfig(s1_n=1_000_000, reps=3)
    s1 = synth_points(cfg.s1_n, cfg.bbox, cfg.s1_rate, cfg.seed)
    span_s = cfg.s1_n / cfg.s1_rate
    s2 = synth_points(int(span_s * cfg.s2_rate), cfg.bbox, cfg.s2_rate,
                      cfg.seed + 1)
    ratios = {}
    for kind, second in (("range", None), ("join", s2)):
        tps = {"grid": [], "naive": []}
        for _rep in range(cfg.reps):
            for variant in ("grid", "naive"):
                res = run_once(cfg, kind, variant, s1, second)
                tps[variant].append(res["throughput_tps"])
        ratios[kind] = statistics.mean(tps["grid"]) / \
            statistics.mean(tps["naive"])
    elapsed = time.monotonic() - t0
    ok = ratios["range"] >= 1.0 and ratios["join"] >= 1.2 and elapsed < 600
    report(capsys, 7, ok,
           f"grid/naive throughput on a 1000000-tuple replay: "
           f"range {ratios['range']:.2f}x (need >= 1.0), "
           f"join {ratios['join']:.2f}x (need >= 1.2) in {elapsed:.0f}s")


def test_criterion_8_parameter_trends(capsys):
    t0 = time.monotonic()
    base = BenchConfig(s1_n=100_000, reps=3, parallelism=1)
    # Window length and slide move grid throughput only through the work
    # done per window member, and the grid never windows a pruned point.
    # At the default r=0.004 the layers hold 0.06% of the points, so
    # those two trends run at r=0.5, where the layers hold about a third.
    windowed = BenchConfig(s1_n=100_000, reps=3, parallelism=1, r=0.5)
    overlap = BenchConfig(s1_n=100_000, reps=3, parallelism=1, r=0.5,
                          slide_ms=1000)
    join_cfg = BenchConfig(s1_n=20_000, s1_rate=100.0, reps=3, parallelism=1)

    def endpoint_tps(rows, variant):
        picked = [r["throughput_tps"] for r in rows if r["variant"] == variant]
        return picked[0], picked[-1]

    trends = {}
    first, last = endpoint_tps(bench_axis(base, "r", [0.004, 0.25, 0.5]),
                               "grid")
    trends["r up, tps down"] = first > last
    first, last = endpoint_tps(
        bench_axis(overlap, "window", [5000, 20000, 40000]), "grid")
    trends["window up, tps down"] = first > last
    first, last = endpoint_tps(
        bench_axis(windowed, "slide", [1000, 5000, 10000]), "grid")
    trends["slide up, tps up"] = first < last
    rate_rows = bench_axis(join_cfg, "rate", [1, 8, 32])
    for variant in ("grid", "naive"):
        first, last = endpoint_tps(rate_rows, variant)
        trends[f"query rate up, {variant} join tps down"] = first > last
    elapsed = time.monotonic() - t0
    ok = all(trends.values())
    failed = [name for name, good in trends.items() if not good]
    report(capsys, 8, ok,
           f"{len(trends) - len(failed)}/{len(trends)} throughput trends "
           f"have the expected slope sign"
           + (f" (wrong: {', '.join(failed)})" if failed else "")
           + f" in {elapsed:.0f}s")


def test_criterion_9_layer_guarantees_hold(capsys):
    t0 = time.monotonic()
    rng = random.Random(2009)
    draws = 100_000
    guaranteed_checked = pruned_checked = violations = 0
    for _ in range(draws):
        m = rng.randrange(6, 40)
        span = 10.0 ** rng.uniform(-2, 2)
        x0 = rng.uniform(-500.0, 500.0)
        y0 = rng.uniform(-500.0, 500.0)
        grid = build_grid(x0, y0, x0 + span, y0 + span, m, n_bits=6)
        cell = CellCoord(rng.randrange(grid.x_cells),
                         rng.randrange(grid.y_cells))
        r = grid.cell_len * rng.uniform(0.2, 4.0)
        layers = grid.layer_sets(cell, r)
        qx0, qy0, qx1, qy1 = grid.cell_bounds(cell)
        qx = rng.uniform(qx0, qx1)
        qy = rng.uniform(qy0, qy1)
        if layers.guaranteed:
            inside = rng.choice(list(layers.guaranteed))
            px0, py0, px1, py1 = grid.cell_bounds(inside)
            px = rng.uniform(px0, px1)
            py = rng.uniform(py0, py1)
            guaranteed_checked += 1
            if ((px - qx) ** 2 + (py - qy) ** 2) ** 0.5 > r:
                violations += 1
        layer = layers.guaranteed | layers.candidate
        for _attempt in range(20):
            other = CellCoord(rng.randrange(grid.x_cells),
                              rng.randrange(grid.y_cells))
            if other not in layer:
                px0, py0, px1, py1 = grid.cell_bounds(other)
                px = rng.uniform(px0, px1)
                py = rng.uniform(py0, py1)
                pruned_checked += 1
                if ((px - qx) ** 2 + (py - qy) ** 2) ** 0.5 <= r:
                    violations += 1
                break
    elapsed = time.monotonic() - t0
    ok = violations == 0 and guaranteed_checked > 0 and pruned_checked > 0
    report(capsys, 9, ok,
           f"{violations} violations over {draws} random draws "
           f"({guaranteed_checked} guaranteed-cell and {pruned_checked} "
           f"pruned-cell checks) in {elapsed:.0f}s")

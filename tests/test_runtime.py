"""End-to-end checks for the single-thread pipeline runtime.

Every equivalence test compares pipeline output against the brute-force
oracles, so partitioning can never be the reason two implementations
agree.
"""

import heapq
import math
import random

import pytest

from gridstream.geo import haversine_m
from gridstream.grid import build_grid
from gridstream.operators import ResultBatch, batch_to_json
from gridstream.oracle import oracle_join, oracle_knn, oracle_range
from gridstream.runtime import (
    GRID_STAGES,
    NAIVE_STAGES,
    ConfigError,
    JoinQuery,
    KnnQuery,
    PipelineConfig,
    PipelineError,
    RangeQuery,
    route_keyed,
    run_pipeline,
    validate_stages,
)
from gridstream.streams import SpatialPoint
from gridstream.windows import WindowSpec, earliest_start, latest_start

EXTENT = (0.0, 0.0, 90.0, 90.0)
WINDOW = WindowSpec(length=10000, slide=5000)


def make_points(n, seed, extent=EXTENT, t_step=40, prefix="p"):
    """Uniform points with strictly increasing event times."""
    rng = random.Random(seed)
    x0, y0, x1, y1 = extent
    return [
        SpatialPoint(f"{prefix}{i}", rng.uniform(x0, x1), rng.uniform(y0, y1),
                     i * t_step)
        for i in range(n)
    ]


def jittered(pts, seed, spread=1500):
    """pts with each event time moved by up to +-spread ms: out of order,
    and the first records have negative times."""
    rng = random.Random(seed)
    return [SpatialPoint(p.object_id, p.x, p.y,
                         p.event_time + rng.randint(-spread, spread))
            for p in pts]


def consumption_order(pts, query_pts=None):
    """Records in the order the runtime consumes them: a join merges its
    two streams by (event time, stream, position)."""
    if query_pts is None:
        return list(pts)
    return [p for *_, p in heapq.merge(
        ((p.event_time, 0, i, p) for i, p in enumerate(pts)),
        ((p.event_time, 1, i, p) for i, p in enumerate(query_pts)))]


def keep_in_time(records, lateness):
    """The records an event-time watermark keeps: t >= max(largest
    earlier t - lateness, 0)."""
    kept, high = [], None
    for p in records:
        if p.event_time >= max(0 if high is None else high - lateness, 0):
            kept.append(p)
        high = p.event_time if high is None else max(high, p.event_time)
    return kept


def window_members(pts, window, span=None):
    """Expected (start, members) pairs for every window the run fires:
    from the first window of the earliest time in span (default pts) to
    the last window of the latest."""
    times = [p.event_time for p in (pts if span is None else span)]
    first = earliest_start(min(times), window.length, window.slide)
    last = latest_start(max(times), window.slide)
    out = []
    for s in range(first, last + 1, window.slide):
        out.append((s, [p for p in pts if s <= p.event_time < s + window.length]))
    return out


def expected_json(kind, pts, query, query_pts=None):
    """Canonical JSON lines straight from the oracles, one per window."""
    lines = []
    span = list(pts) + list(query_pts or ())
    for s, members in window_members(pts, query.window, span):
        end = s + query.window.length
        if kind == "range":
            payload = oracle_range(members, query.x, query.y, query.r)
        elif kind == "knn":
            payload = oracle_knn(members, query.x, query.y, query.r, query.k)
        else:
            qs = [q for q in query_pts if s <= q.event_time < end]
            payload = oracle_join(members, qs, query.r)
        lines.append(batch_to_json(ResultBatch(s, end, kind, payload)))
    return "\n".join(lines)


def run_json(sources, stages, query, grid, config=PipelineConfig()):
    batches, metrics = run_pipeline(sources, stages, query, grid, config)
    return "\n".join(batch_to_json(b) for b in batches), metrics


# ---------------------------------------------------------------- routing


def test_route_keyed_single_instance_is_zero():
    rng = random.Random(3)
    for _ in range(200):
        assert route_keyed(rng.randrange(1 << 16), 8, 1) == 0


def test_route_keyed_is_deterministic_per_cell():
    rng = random.Random(4)
    for _ in range(200):
        key = rng.randrange(1 << 16)
        p = rng.choice([2, 3, 8])
        first = route_keyed(key, 8, p)
        assert 0 <= first < p
        assert all(route_keyed(key, 8, p) == first for _ in range(3))


def test_route_keyed_balances_uniform_load():
    grid = build_grid(115.5, 39.6, 117.6, 41.1, m=150, n_bits=16)
    rng = random.Random(11)
    counts = [0] * 8
    for _ in range(100_000):
        x = rng.uniform(115.5, 117.6)
        y = rng.uniform(39.6, 41.1)
        counts[route_keyed(grid.encode_key(grid.cell_of(x, y)), 16, 8)] += 1
    assert max(counts) / min(counts) <= 1.25


def test_naive_rebalance_spreads_records_evenly():
    grid = build_grid(*EXTENT, m=9, n_bits=4)
    pts = make_points(1000, 5)
    qpts = make_points(40, 6, t_step=1000, prefix="q")
    for q, sources in ((RangeQuery(45.0, 45.0, 5.0, WINDOW), [pts]),
                       (KnnQuery(45.0, 45.0, 5.0, 3, WINDOW), [pts]),
                       (JoinQuery(5.0, WINDOW), [pts, qpts])):
        _, m = run_pipeline([iter(s) for s in sources], NAIVE_STAGES[q.kind],
                            q, grid, PipelineConfig(parallelism=3))
        loads = [m.instance_tuples[f"worker-{i}"] for i in range(3)]
        assert max(loads) - min(loads) <= 1, (q.kind, loads)
        assert sum(loads) == m.routed, q.kind


# ------------------------------------------------------------- validation


def test_validate_stages_accepts_both_variants():
    w = WINDOW
    for query in (RangeQuery(10, 10, 5, w), KnnQuery(10, 10, 5, 3, w),
                  JoinQuery(5, w)):
        assert validate_stages(GRID_STAGES[query.kind], query) == "grid"
        assert validate_stages(NAIVE_STAGES[query.kind], query) == "naive"


def test_validate_stages_rejects_everything_else():
    q = RangeQuery(10, 10, 5, WINDOW)
    for stages in ([], ["rebalance", "keyed-by-cell"], ["keyed-by-cell"],
                   GRID_STAGES["knn"], ["shuffle"]):
        with pytest.raises(ConfigError):
            validate_stages(stages, q)


def test_query_validation():
    w = WINDOW
    with pytest.raises(ConfigError):
        RangeQuery(1, 1, 0, w)
    with pytest.raises(ConfigError):
        RangeQuery(1, 1, -2.5, w)
    with pytest.raises(ConfigError):
        KnnQuery(1, 1, 5, 0, w)
    with pytest.raises(ConfigError):
        JoinQuery(5, w, metric="manhattan")
    assert issubclass(ConfigError, ValueError)


def test_run_pipeline_config_errors():
    grid = build_grid(*EXTENT, m=9, n_bits=4)
    pts = make_points(10, 0)
    q = RangeQuery(45, 45, 5, WINDOW)
    with pytest.raises(ConfigError):
        run_pipeline([iter(pts), iter(pts)], GRID_STAGES["range"], q, grid)
    with pytest.raises(ConfigError):
        run_pipeline([iter(pts)], GRID_STAGES["join"],
                     JoinQuery(5, WINDOW), grid)
    with pytest.raises(ConfigError):
        run_pipeline([iter(pts)], GRID_STAGES["range"],
                     RangeQuery(120, 45, 5, WINDOW), grid)


# ------------------------------------------------- oracle equivalence


def test_range_pipeline_matches_oracle_for_any_parallelism():
    grid = build_grid(*EXTENT, m=30, n_bits=8)
    pts = make_points(1500, 21)
    q = RangeQuery(40.0, 50.0, 8.0, WINDOW)
    want = expected_json("range", pts, q)
    dcs = {}
    for variant, stages in (("grid", GRID_STAGES["range"]),
                            ("naive", NAIVE_STAGES["range"])):
        for p in (1, 2, 4):
            got, m = run_json([iter(pts)], stages, q, grid,
                              PipelineConfig(parallelism=p))
            assert got == want, (variant, p)
            dcs.setdefault(variant, set()).add(m.distance_computations)
    assert len(dcs["grid"]) == 1 and len(dcs["naive"]) == 1
    assert dcs["grid"].pop() < dcs["naive"].pop()


def test_knn_pipeline_matches_oracle_for_any_parallelism():
    grid = build_grid(*EXTENT, m=30, n_bits=8)
    pts = make_points(1500, 22)
    q = KnnQuery(40.0, 50.0, 12.0, 7, WINDOW)
    want = expected_json("knn", pts, q)
    for stages in (GRID_STAGES["knn"], NAIVE_STAGES["knn"]):
        for p in (1, 3, 4):
            got, _ = run_json([iter(pts)], stages, q, grid,
                              PipelineConfig(parallelism=p))
            assert got == want, (stages, p)


def test_join_pipeline_matches_oracle_for_any_parallelism():
    grid = build_grid(*EXTENT, m=30, n_bits=8)
    pts = make_points(1200, 23)
    qpts = make_points(80, 24, t_step=600, prefix="q")
    q = JoinQuery(4.0, WINDOW)
    want = expected_json("join", pts, q, qpts)
    for stages in (GRID_STAGES["join"], NAIVE_STAGES["join"]):
        for p in (1, 2, 4):
            got, _ = run_json([iter(pts), iter(qpts)], stages, q, grid,
                              PipelineConfig(parallelism=p))
            assert got == want, (stages, p)


def test_naive_distance_count_is_exhaustive():
    grid = build_grid(*EXTENT, m=9, n_bits=4)
    pts = make_points(400, 25)
    q = RangeQuery(45.0, 45.0, 10.0, WINDOW)
    _, m = run_pipeline([iter(pts)], NAIVE_STAGES["range"], q, grid,
                        PipelineConfig(parallelism=2))
    want = sum(len(members) for _, members in window_members(pts, WINDOW))
    assert m.distance_computations == want


def test_join_spreads_work_across_instances():
    grid = build_grid(*EXTENT, m=30, n_bits=8)
    pts = make_points(600, 28)
    qpts = make_points(60, 29, t_step=400, prefix="q")
    q = JoinQuery(4.0, WINDOW)
    want = expected_json("join", pts, q, qpts)
    got, m = run_json([iter(pts), iter(qpts)], GRID_STAGES["join"], q, grid,
                      PipelineConfig(parallelism=3))
    assert got == want
    loads = [m.instance_tuples.get(f"join-{i}", 0) for i in range(3)]
    assert all(v > 0 for v in loads)
    assert sum(loads) == m.routed


# ---------------------------------------------------------- bookkeeping


def test_metrics_accounting_for_keyed_range():
    grid = build_grid(*EXTENT, m=30, n_bits=8)
    pts = make_points(800, 30)
    q = RangeQuery(40.0, 50.0, 8.0, WINDOW)
    batches, m = run_pipeline([iter(pts)], GRID_STAGES["range"], q, grid,
                              PipelineConfig(parallelism=4))
    assert m.consumed == 800
    assert m.routed == 800
    assert m.dropped_outside == 0
    assert m.late_dropped == 0
    stage1 = sum(v for name, v in m.instance_tuples.items()
                 if name.startswith("filter-"))
    assert stage1 == m.routed
    assert m.windows_fired == len(batches)
    assert len(batches) == len(window_members(pts, WINDOW))
    assert set(m.summary()) == {"throughput_tps", "distance_computations",
                                "pruned_tuples", "windows_fired"}
    assert ("router", "consumed", 800) in m.counter_rows()
    assert m.throughput_tps > 0


def test_pruned_tuples_match_brute_force_layer_count():
    grid = build_grid(*EXTENT, m=30, n_bits=8)
    pts = make_points(1500, 34)
    for window in (WINDOW, WindowSpec(length=7000, slide=2000)):
        rq = RangeQuery(40.0, 50.0, 8.0, window)
        layers = grid.layer_sets(grid.cell_of(rq.x, rq.y), rq.r)
        layer = layers.guaranteed | layers.candidate
        want = sum(1 for _, members in window_members(pts, window)
                   for p in members if grid.cell_of(p.x, p.y) not in layer)
        assert want > 0
        for q in (rq, KnnQuery(rq.x, rq.y, rq.r, 5, window)):
            for p in (1, 4):
                _, m = run_pipeline([iter(pts)], GRID_STAGES[q.kind], q, grid,
                                    PipelineConfig(parallelism=p))
                assert m.summary()["pruned_tuples"] == want, (q.kind, p)
                filters = sum(v for name, v in m.instance_tuples.items()
                              if name.startswith("filter-"))
                assert filters == m.routed == len(pts), (q.kind, p)


def test_grid_and_naive_drop_the_same_late_records():
    grid = build_grid(*EXTENT, m=30, n_bits=8)
    rng = random.Random(35)
    pts = [SpatialPoint(p.object_id, p.x, p.y,
                        max(0, p.event_time + rng.randint(-1500, 1500)))
           for p in make_points(2000, 36)]
    w = WindowSpec(length=7000, slide=2000, lateness=300)
    # A small radius prunes most points, so late decisions that ignored
    # pruned records would differ between the variants.
    for q in (RangeQuery(40.0, 50.0, 4.0, w), KnnQuery(40.0, 50.0, 4.0, 3, w)):
        for p in (1, 4):
            cfg = PipelineConfig(parallelism=p)
            got, mg = run_json([iter(pts)], GRID_STAGES[q.kind], q, grid, cfg)
            want, mn = run_json([iter(pts)], NAIVE_STAGES[q.kind], q, grid,
                                cfg)
            assert mg.late_dropped > 0, (q.kind, p)
            assert mg.late_dropped == mn.late_dropped, (q.kind, p)
            assert mg.routed == mn.routed, (q.kind, p)
            assert got == want, (q.kind, p)


def test_out_of_order_runs_match_the_event_time_reference():
    # The reference keeps a record iff its time is not below the
    # watermark of the records before it, then applies the oracles; the
    # grid and naive variants must match it at every parallelism.
    grid = build_grid(*EXTENT, m=30, n_bits=8)
    pts = jittered(make_points(1500, 42), 43)
    qpts = jittered(make_points(120, 44, t_step=500, prefix="q"), 45)
    w = WindowSpec(length=7000, slide=2000, lateness=300)
    for q, query_pts in ((RangeQuery(40.0, 50.0, 8.0, w), None),
                         (KnnQuery(40.0, 50.0, 8.0, 4, w), None),
                         (JoinQuery(4.0, w), qpts)):
        kept = keep_in_time(consumption_order(pts, query_pts), w.lateness)
        assert len(kept) < len(pts) + len(query_pts or ()), q.kind
        kept_p = [p for p in kept if p.object_id.startswith("p")]
        kept_q = None if query_pts is None else \
            [p for p in kept if p.object_id.startswith("q")]
        want = expected_json(q.kind, kept_p, q, kept_q)
        sources = [pts] if query_pts is None else [pts, query_pts]
        for stages in (GRID_STAGES[q.kind], NAIVE_STAGES[q.kind]):
            for p in (1, 3):
                got, _ = run_json([iter(s) for s in sources], stages, q,
                                  grid, PipelineConfig(parallelism=p))
                assert got == want, (q.kind, stages, p)


def test_out_of_order_haversine_range_matches_metric_brute_force():
    grid = build_grid(*HAVERSINE_EXTENT, m=20, n_bits=8)
    pts = jittered(make_points(800, 46, extent=HAVERSINE_EXTENT), 47)
    w = WindowSpec(length=7000, slide=2000, lateness=300)
    q = RangeQuery(116.5, 39.5, 3000.0, w, metric="haversine")
    kept = keep_in_time(pts, w.lateness)
    assert len(kept) < len(pts)
    lines = []
    for s, members in window_members(kept, w):
        hit = {p for p in members if haversine_m(p.x, p.y, q.x, q.y) <= q.r}
        lines.append(batch_to_json(ResultBatch(s, s + w.length, "range",
                                               hit)))
    want = "\n".join(lines)
    for stages in (GRID_STAGES["range"], NAIVE_STAGES["range"]):
        for p in (1, 3):
            got, _ = run_json([iter(pts)], stages, q, grid,
                              PipelineConfig(parallelism=p))
            assert got == want, (stages, p)


def test_every_record_lands_in_one_counter():
    grid = build_grid(*EXTENT, m=30, n_bits=8)
    outliers = [SpatialPoint(f"po{i}", 95.0, -4.0, 3000 + 500 * i)
                for i in range(5)]
    shifts = {
        "ordered": lambda pts, seed: pts,
        "jittered": jittered,
        "negative": lambda pts, seed: [
            SpatialPoint(p.object_id, p.x, p.y, p.event_time - 3000)
            for p in pts],
    }
    w = WindowSpec(length=7000, slide=2000, lateness=300)
    for name, shift in shifts.items():
        # Out-of-extent records never drive the watermark, so their
        # times do not make an input out of order.
        pts = shift(make_points(600, 48), 49) + outliers
        qpts = shift(make_points(50, 50, t_step=480, prefix="q"), 51)
        for q, query_pts in ((RangeQuery(40.0, 50.0, 8.0, w), None),
                             (KnnQuery(40.0, 50.0, 8.0, 4, w), None),
                             (JoinQuery(4.0, w), qpts)):
            accepted = len(keep_in_time(
                [p for p in consumption_order(pts, query_pts)
                 if grid.contains(p.x, p.y)], w.lateness))
            sources = [pts] if query_pts is None else [pts, query_pts]
            for stages in (GRID_STAGES[q.kind], NAIVE_STAGES[q.kind]):
                for p in (1, 3):
                    _, m = run_pipeline([iter(s) for s in sources], stages,
                                        q, grid, PipelineConfig(parallelism=p))
                    ctx = (name, q.kind, stages, p)
                    assert m.consumed == sum(map(len, sources)), ctx
                    assert m.dropped_outside == len(outliers), ctx
                    assert m.consumed == (m.dropped_outside + m.late_dropped
                                          + accepted), ctx
                    if q.kind != "join":
                        assert m.routed == accepted, ctx
                    if name == "ordered":
                        assert m.late_dropped == 0, ctx
                    else:
                        assert m.late_dropped > 0, ctx


def test_points_outside_extent_are_dropped_and_counted():
    grid = build_grid(*EXTENT, m=9, n_bits=4)
    inside = make_points(200, 31)
    outliers = [SpatialPoint(f"o{i}", 95.0 + i, -4.0, 1000 + i)
                for i in range(7)]
    mixed = sorted(inside + outliers, key=lambda p: p.event_time)
    q = RangeQuery(45.0, 45.0, 20.0, WINDOW)
    want = expected_json("range", inside, q)
    got, m = run_json([iter(mixed)], GRID_STAGES["range"], q, grid)
    assert got == want
    assert m.consumed == 207
    assert m.dropped_outside == 7
    assert m.routed == 200


def test_late_records_are_dropped_whole():
    grid = build_grid(*EXTENT, m=9, n_bits=4)
    pts = [SpatialPoint("a", 45.0, 45.0, 0),
           SpatialPoint("b", 46.0, 45.0, 20000),
           SpatialPoint("c", 44.0, 45.0, 5000)]
    q = RangeQuery(45.0, 45.0, 20.0, WINDOW)
    survivors = pts[:2]
    want = expected_json("range", survivors, q)
    got, m = run_json([iter(pts)], GRID_STAGES["range"], q, grid,
                      PipelineConfig(parallelism=2))
    assert got == want
    assert m.late_dropped == 1
    assert m.routed == 2


def test_lateness_bound_keeps_slow_records():
    grid = build_grid(*EXTENT, m=9, n_bits=4)
    pts = [SpatialPoint("a", 45.0, 45.0, 0),
           SpatialPoint("b", 46.0, 45.0, 20000),
           SpatialPoint("c", 44.0, 45.0, 5000)]
    w = WindowSpec(length=10000, slide=5000, lateness=15000)
    q = RangeQuery(45.0, 45.0, 20.0, w)
    want = expected_json("range", pts, q)
    got, m = run_json([iter(pts)], GRID_STAGES["range"], q, grid,
                      PipelineConfig(parallelism=2))
    assert got == want
    assert m.late_dropped == 0


def test_pending_windows_stay_bounded():
    grid = build_grid(*EXTENT, m=9, n_bits=4)
    pts = make_points(3000, 32, t_step=100)
    w = WindowSpec(length=20000, slide=4000)
    q = RangeQuery(45.0, 45.0, 10.0, w)
    _, m = run_pipeline([iter(pts)], GRID_STAGES["range"], q, grid,
                        PipelineConfig(parallelism=2))
    bound = math.ceil(w.length / w.slide) + 1
    assert m.instance_max_pending
    for name, worst in m.instance_max_pending.items():
        assert worst <= bound, (name, worst)


def test_empty_stream_yields_no_windows():
    grid = build_grid(*EXTENT, m=9, n_bits=4)
    q = RangeQuery(45.0, 45.0, 5.0, WINDOW)
    batches, m = run_pipeline([iter([])], GRID_STAGES["range"], q, grid)
    assert batches == []
    assert m.windows_fired == 0
    assert m.consumed == 0


def test_single_point_stream():
    grid = build_grid(*EXTENT, m=9, n_bits=4)
    p = SpatialPoint("only", 45.0, 45.0, 0)
    q = RangeQuery(45.0, 45.0, 5.0, WINDOW)
    batches, m = run_pipeline([iter([p])], GRID_STAGES["range"], q, grid)
    assert [(b.window_start, b.window_end) for b in batches] == [(0, 10000)]
    assert set(batches[0].payload) == {p}
    assert m.windows_fired == 1


def test_empty_windows_inside_a_gap_still_fire():
    grid = build_grid(*EXTENT, m=9, n_bits=4)
    pts = [SpatialPoint("a", 45.0, 45.0, 1000),
           SpatialPoint("b", 45.5, 45.0, 31000)]
    q = RangeQuery(45.0, 45.0, 20.0, WINDOW)
    batches, _ = run_pipeline([iter(pts)], GRID_STAGES["range"], q, grid,
                              PipelineConfig(parallelism=3))
    starts = [b.window_start for b in batches]
    assert starts == [0, 5000, 10000, 15000, 20000, 25000, 30000]
    empties = [b.window_start for b in batches if not b.payload]
    assert empties == [5000, 10000, 15000, 20000]


def test_failing_source_surfaces_as_pipeline_error():
    grid = build_grid(*EXTENT, m=9, n_bits=4)

    def broken():
        yield SpatialPoint("ok", 45.0, 45.0, 0)
        raise OSError("stream cut")

    q = RangeQuery(45.0, 45.0, 5.0, WINDOW)
    with pytest.raises(PipelineError) as exc:
        run_pipeline([broken()], GRID_STAGES["range"], q, grid,
                     PipelineConfig(parallelism=2))
    assert "stream cut" in str(exc.value)


def test_callback_run_keeps_no_batches_but_counts_windows():
    grid = build_grid(*EXTENT, m=30, n_bits=8)
    pts = make_points(900, 37)
    q = RangeQuery(40.0, 50.0, 8.0, WINDOW)
    seen = []
    batches, m = run_pipeline([iter(pts)], GRID_STAGES["range"], q, grid,
                              PipelineConfig(parallelism=2), seen.append)
    assert batches == []
    assert m.windows_fired == len(window_members(pts, WINDOW)) == len(seen)
    assert "\n".join(batch_to_json(b) for b in seen) == \
        expected_json("range", pts, q)


def test_callback_run_holds_bounded_metrics():
    # One 40 ms tumbling window per point: 1,200 windows, none kept, and
    # no metric may grow with them.
    grid = build_grid(*EXTENT, m=9, n_bits=4)
    pts = make_points(1200, 52)
    q = RangeQuery(45.0, 45.0, 5.0, WindowSpec(length=40, slide=40))
    _, m = run_pipeline([iter(pts)], GRID_STAGES["range"], q, grid,
                        PipelineConfig(parallelism=2), lambda batch: None)
    assert m.windows_fired == 1200
    for name, value in vars(m).items():
        if isinstance(value, (list, dict, tuple)):
            assert len(value) <= 2, name
    assert m.first_completion[1] == 0
    assert m.penultimate_completion[1] == 1198 * 40


def test_failing_callback_surfaces_as_pipeline_error():
    grid = build_grid(*EXTENT, m=9, n_bits=4)
    pts = make_points(200, 38)
    q = RangeQuery(45.0, 45.0, 5.0, WINDOW)

    def closed_pipe(_batch):
        raise BrokenPipeError("reader went away")

    with pytest.raises(PipelineError) as exc:
        run_pipeline([iter(pts)], GRID_STAGES["range"], q, grid,
                     PipelineConfig(parallelism=2), closed_pipe)
    assert "reader went away" in str(exc.value)


def test_haversine_range_matches_metric_brute_force():
    grid = build_grid(116.0, 39.0, 117.0, 40.0, m=20, n_bits=8)
    pts = make_points(800, 33, extent=(116.0, 39.0, 117.0, 40.0))
    q = RangeQuery(116.5, 39.5, 3000.0, WINDOW, metric="haversine")
    got, m = run_json([iter(pts)], GRID_STAGES["range"], q, grid,
                      PipelineConfig(parallelism=2))
    lines = []
    for s, members in window_members(pts, WINDOW):
        hit = {p for p in members
               if haversine_m(p.x, p.y, q.x, q.y) <= q.r}
        lines.append(batch_to_json(ResultBatch(s, s + WINDOW.length,
                                               "range", hit)))
    assert got == "\n".join(lines)
    naive, mn = run_json([iter(pts)], NAIVE_STAGES["range"], q, grid)
    assert naive == got
    assert m.distance_computations < mn.distance_computations


HAVERSINE_EXTENT = (116.0, 39.0, 117.0, 40.0)


def test_haversine_knn_matches_metric_brute_force():
    grid = build_grid(*HAVERSINE_EXTENT, m=40, n_bits=8)
    pts = make_points(800, 39, extent=HAVERSINE_EXTENT)
    q = KnnQuery(116.5, 39.5, 15000.0, 5, WINDOW, metric="haversine")
    lines = []
    for s, members in window_members(pts, WINDOW):
        ranked = sorted(((p, haversine_m(p.x, p.y, q.x, q.y))
                         for p in members),
                        key=lambda pd: (pd[1], pd[0].object_id,
                                        pd[0].event_time, pd[0].x, pd[0].y))
        hit = [(p, d) for p, d in ranked if d <= q.r][:q.k]
        lines.append(batch_to_json(ResultBatch(s, s + WINDOW.length,
                                               "knn", hit)))
    want = "\n".join(lines)
    for stages in (GRID_STAGES["knn"], NAIVE_STAGES["knn"]):
        got, _ = run_json([iter(pts)], stages, q, grid,
                          PipelineConfig(parallelism=2))
        assert got == want, stages


def test_haversine_join_matches_metric_brute_force():
    # At r = 15 km the layers hold guaranteed rings, so the replicas come
    # from both of the haversine layer radii.
    grid = build_grid(*HAVERSINE_EXTENT, m=40, n_bits=8)
    pts = make_points(800, 40, extent=HAVERSINE_EXTENT)
    qpts = make_points(60, 41, extent=HAVERSINE_EXTENT, t_step=500,
                       prefix="q")
    q = JoinQuery(15000.0, WINDOW, metric="haversine")
    lines = []
    for s, members in window_members(pts, WINDOW):
        end = s + WINDOW.length
        pairs = {(p.object_id, o.object_id) for p in members for o in qpts
                 if s <= o.event_time < end
                 and haversine_m(p.x, p.y, o.x, o.y) <= q.r}
        lines.append(batch_to_json(ResultBatch(s, end, "join", pairs)))
    want = "\n".join(lines)
    got, m = run_json([iter(pts), iter(qpts)], GRID_STAGES["join"], q, grid,
                      PipelineConfig(parallelism=2))
    assert got == want
    naive, mn = run_json([iter(pts), iter(qpts)], NAIVE_STAGES["join"], q,
                         grid, PipelineConfig(parallelism=2))
    assert naive == want
    assert m.distance_computations < mn.distance_computations

"""Range, kNN, and join operators against brute-force references."""

import math
import random

import pytest

from gridstream.geo import METERS_PER_DEGREE, degree_radius_bounds, haversine_m
from gridstream.grid import CellCoord, build_grid
from gridstream.operators import (Replica, ResultBatch, batch_to_json,
                                  euclidean, join_per_key, knn_local,
                                  knn_merge, range_refine, replicas_for)
from gridstream.oracle import oracle_join, oracle_knn, oracle_range
from gridstream.streams import SpatialPoint


def _pt(oid, x, y, t=0):
    return SpatialPoint(str(oid), x, y, t)


def test_euclidean_values():
    assert euclidean(0.0, 0.0, 3.0, 4.0) == 5.0
    assert euclidean(1.5, -2.0, 1.5, -2.0) == 0.0


def test_euclidean_matches_reference():
    rng = random.Random(17)
    for _ in range(100):
        ax, ay, bx, by = (rng.uniform(-1000, 1000) for _ in range(4))
        want = math.sqrt((ax - bx) ** 2 + (ay - by) ** 2)
        got = euclidean(ax, ay, bx, by)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == euclidean(bx, by, ax, ay)


def _split_by_layer(grid, points, layers):
    """Guaranteed and candidate points by the router's test: the key
    key_of gives, looked up in the layer keys; other points are pruned."""
    guaranteed, candidates = [], []
    for p in points:
        key = grid.key_of(p.x, p.y)
        if key in layers.guaranteed:
            guaranteed.append(p)
        elif key in layers.candidate:
            candidates.append(p)
    return guaranteed, candidates


def _replicas(grid, q, r):
    """A query point's replicas, through the calls the join router makes."""
    coord = grid.decode_key(grid.key_of(q.x, q.y))
    return replicas_for(grid.layer_keys(grid.layer_sets(coord, r)), q)


def test_layer_keys_split_points_by_cell():
    grid = build_grid(0.0, 0.0, 90.0, 90.0, 9, 4)
    layers = grid.layer_keys(grid.layer_sets(CellCoord(4, 4), 30.0))
    ring1 = _pt("g", 35.0, 45.0)  # cell (3,4), ring 1: guaranteed
    own = _pt("c", 45.0, 45.0)    # query cell itself: candidate
    ring3 = _pt("c3", 15.0, 45.0)  # cell (1,4), ring 3: candidate
    far = _pt("x", 85.0, 5.0)     # ring 4: pruned
    guaranteed, candidates = _split_by_layer(grid, [ring1, own, ring3, far],
                                             layers)
    assert [p.object_id for p in guaranteed] == ["g"]
    assert [p.object_id for p in candidates] == ["c", "c3"]


def test_range_refine_counts_only_candidates():
    out, dc = range_refine([_pt("g", 29.7, 0.0)], [], 0.0, 0.0, 30.0)
    assert [p.object_id for p in out] == ["g"]
    assert dc == 0  # guaranteed points skip the distance check
    out, dc = range_refine([], [_pt("near", 3.0, 4.0), _pt("far", 31.0, 0.0)],
                           0.0, 0.0, 30.0)
    assert [p.object_id for p in out] == ["near"]
    assert dc == 2


def test_range_refine_boundary_inclusive():
    out, dc = range_refine([], [_pt("edge", 30.0, 0.0)], 0.0, 0.0, 30.0)
    assert [p.object_id for p in out] == ["edge"]
    assert dc == 1


def test_range_naive_counter_is_window_size():
    # Naive evaluation: every point a candidate.
    pts = [_pt(i, float(i), 0.0) for i in range(10)]
    out, dc = range_refine((), pts, 0.0, 0.0, 4.5)
    assert dc == 10
    assert {p.object_id for p in out} == {"0", "1", "2", "3", "4"}
    assert range_refine((), [], 0.0, 0.0, 4.5) == ([], 0)


def test_grid_range_equals_oracle_on_random_window():
    rng = random.Random(31)
    grid = build_grid(0.0, 0.0, 100.0, 100.0, 20, 8)
    pts = [_pt(i, rng.uniform(0, 100), rng.uniform(0, 100))
           for i in range(10_000)]
    qx, qy, r = 47.3, 52.9, 11.0
    layers = grid.layer_keys(grid.layer_sets(grid.cell_of(qx, qy), r))
    guaranteed, candidates = _split_by_layer(grid, pts, layers)
    out, dc = range_refine(guaranteed, candidates, qx, qy, r)
    naive_out, naive_dc = range_refine((), pts, qx, qy, r)
    want = oracle_range(pts, qx, qy, r)
    assert set(out) == want
    assert set(naive_out) == want
    assert dc == len(candidates) <= naive_dc == len(pts)


def test_knn_local_matches_full_sort():
    rng = random.Random(37)
    pts = [_pt(i, rng.uniform(0, 100), rng.uniform(0, 100))
           for i in range(1000)]
    got, dc = knn_local(pts, 50.0, 50.0, 40.0, 10)
    assert dc == 1000
    assert got == oracle_knn(pts, 50.0, 50.0, 40.0, 10)
    dists = [d for _, d in got]
    assert dists == sorted(dists)
    assert all(d <= 40.0 for d in dists)


def test_knn_local_small_cases():
    pts = [_pt("a", 1.0, 0.0), _pt("b", 2.0, 0.0), _pt("c", 3.0, 0.0)]
    got, _ = knn_local(pts, 0.0, 0.0, 10.0, 10)
    assert [p.object_id for p, _ in got] == ["a", "b", "c"]  # fewer than k
    got, _ = knn_local(pts, 0.0, 0.0, 10.0, 1)
    assert [p.object_id for p, _ in got] == ["a"]
    got, _ = knn_local(pts, 0.0, 0.0, 0.5, 3)
    assert got == []  # nothing within r
    with pytest.raises(ValueError):
        knn_local(pts, 0.0, 0.0, 10.0, 0)


def test_knn_ties_break_by_id():
    pts = [_pt("b", 3.0, 0.0), _pt("a", 0.0, 3.0), _pt("c", -3.0, 0.0)]
    got, _ = knn_local(pts, 0.0, 0.0, 5.0, 2)
    assert [p.object_id for p, _ in got] == ["a", "b"]


def test_knn_merge_two_lists():
    a, b, c = _pt("a", 1.0, 0.0), _pt("b", 3.0, 0.0), _pt("c", 2.0, 0.0)
    merged = knn_merge([[(a, 1.0), (b, 3.0)], [(c, 2.0)]], 2)
    assert [d for _, d in merged] == [1.0, 2.0]
    assert knn_merge([[], []], 5) == []


def test_knn_merge_partition_invariance():
    rng = random.Random(41)
    pts = [_pt(i, rng.uniform(0, 100), rng.uniform(0, 100))
           for i in range(1000)]
    parts = [[], [], [], []]
    for p in pts:
        parts[rng.randrange(4)].append(p)
    partials = [knn_local(part, 50.0, 50.0, 45.0, 10)[0] for part in parts]
    assert knn_merge(partials, 10) == oracle_knn(pts, 50.0, 50.0, 45.0, 10)


def test_replicas_interior_counts():
    grid = build_grid(0.0, 0.0, 90.0, 90.0, 9, 4)
    q = _pt("q", 45.0, 45.0)  # interior cell (4,4)
    reps = _replicas(grid, q, 30.0)
    tags = [rep.guaranteed for rep in reps]
    assert tags.count(True) == 8
    assert tags.count(False) == 41
    assert len({rep.cell for rep in reps}) == len(reps)
    assert all(rep.point is q for rep in reps)


def test_replicas_small_radius_all_candidate():
    grid = build_grid(0.0, 0.0, 90.0, 90.0, 9, 4)
    reps = _replicas(grid, _pt("q", 45.0, 45.0), 5.0)
    assert all(not rep.guaranteed for rep in reps)
    assert len(reps) == 9  # own cell plus ring 1


def test_replicas_corner_smaller():
    grid = build_grid(0.0, 0.0, 90.0, 90.0, 9, 4)
    corner = _replicas(grid, _pt("q", 1.0, 1.0), 30.0)
    interior = _replicas(grid, _pt("q", 45.0, 45.0), 30.0)
    assert len(corner) < len(interior)


def test_join_per_key_three_instance_scenario():
    # Two query points whose candidate cells are c2:{q1}, c3:{q1,q2} and
    # c5:{q2}; six populated ordinary cells. Only the three keys holding
    # replicas are joined; c1, c4, c6 points never appear in any pair.
    s1 = {
        "c1": [_pt(f"p{i}", 0.0, float(i)) for i in (1, 2, 3)],
        "c2": [_pt(f"p{i}", 1.0, float(i)) for i in (4, 5, 6, 7)],
        "c3": [_pt(f"p{i}", 2.0, float(i)) for i in (8, 9)],
        "c4": [_pt(f"p{i}", 3.0, float(i)) for i in (10, 11, 12)],
        "c5": [_pt(f"p{i}", 4.0, float(i)) for i in (13, 14, 15)],
        "c6": [_pt(f"p{i}", 5.0, float(i)) for i in (16, 17, 18, 19, 20)],
    }
    q1, q2 = _pt("q1", 1.5, 8.0), _pt("q2", 3.5, 12.0)
    replicas = {
        "c2": [Replica(2, False, q1)],
        "c3": [Replica(3, False, q1), Replica(3, False, q2)],
        "c5": [Replica(5, False, q2)],
    }
    r = 50.0  # generous: every evaluated pair is within range
    pairs: set = set()
    dc_total = 0
    for key, reps in replicas.items():
        got, dc = join_per_key(s1[key], reps, r)
        pairs |= got
        dc_total += dc
    want = ({(f"p{i}", "q1") for i in (4, 5, 6, 7)}
            | {(f"p{i}", "q1") for i in (8, 9)}
            | {(f"p{i}", "q2") for i in (8, 9)}
            | {(f"p{i}", "q2") for i in (13, 14, 15)})
    assert pairs == want
    assert dc_total == 4 + 4 + 3
    pruned_ids = {f"p{i}" for i in (1, 2, 3, 10, 11, 12, 16, 17, 18, 19, 20)}
    assert not {a for a, _ in pairs} & pruned_ids


def test_join_per_key_guaranteed_skips_distance():
    s1 = [_pt("p1", 0.0, 0.0), _pt("p2", 5.0, 5.0)]
    got, dc = join_per_key(s1, [Replica(9, True, _pt("q", 100.0, 100.0))], 1.0)
    # tag is trusted: pairs emitted with no distance work
    assert got == {("p1", "q"), ("p2", "q")}
    assert dc == 0


def test_join_per_key_empty_bucket():
    assert join_per_key([], [Replica(1, False, _pt("q", 0.0, 0.0))], 5.0) \
        == (set(), 0)


def test_join_per_key_matches_oracle():
    rng = random.Random(43)
    grid = build_grid(0.0, 0.0, 100.0, 100.0, 10, 8)
    s1 = [_pt(f"p{i}", rng.uniform(0, 100), rng.uniform(0, 100))
          for i in range(1000)]
    s2 = [_pt(f"q{i}", rng.uniform(0, 100), rng.uniform(0, 100))
          for i in range(10)]
    r = 12.0
    buckets: dict = {}
    for p in s1:
        buckets.setdefault(grid.key_of(p.x, p.y), []).append(p)
    reps: dict = {}
    for q in s2:
        for rep in _replicas(grid, q, r):
            reps.setdefault(rep.cell, []).append(rep)
    pairs: set = set()
    for cell, cell_reps in reps.items():
        got, _ = join_per_key(buckets.get(cell, []), cell_reps, r)
        pairs |= got
    assert pairs == oracle_join(s1, s2, r)


def test_join_naive_counter_and_oracle():
    rng = random.Random(47)
    s1 = [_pt(f"p{i}", rng.uniform(0, 50), rng.uniform(0, 50))
          for i in range(200)]
    s2 = [_pt(f"q{i}", rng.uniform(0, 50), rng.uniform(0, 50))
          for i in range(7)]
    # Naive evaluation: every query point a candidate replica.
    reps = [Replica(0, False, q) for q in s2]
    pairs, dc = join_per_key(s1, reps, 9.0)
    assert dc == 200 * 7
    assert pairs == oracle_join(s1, s2, 9.0)
    assert join_per_key(s1, [], 9.0) == (set(), 0)
    q = _pt("q", s1[0].x, s1[0].y)
    pairs, _ = join_per_key(s1, [Replica(0, False, q)], 0.001)
    assert ("p0", "q") in pairs


def test_canonical_json_partition_independent():
    rng = random.Random(53)
    pts = [_pt(i, rng.uniform(0, 9), rng.uniform(0, 9), rng.randrange(100))
           for i in range(50)]
    shuffled = pts[:]
    rng.shuffle(shuffled)
    a = batch_to_json(ResultBatch(0, 10_000, "range", pts))
    b = batch_to_json(ResultBatch(0, 10_000, "range", shuffled))
    assert a == b
    pairs = {("p1", "q2"), ("p0", "q1")}
    j = batch_to_json(ResultBatch(0, 10_000, "join", pairs))
    assert '"payload":[["p0","q1"],["p1","q2"]]' in j


def test_haversine_meridian_and_equator_degree():
    # one degree along a meridian or the equator is the same arc:
    # pi/180 times the sphere radius
    assert haversine_m(0.0, 0.0, 0.0, 1.0) == pytest.approx(
        METERS_PER_DEGREE, rel=1e-9)
    assert haversine_m(0.0, 0.0, 1.0, 0.0) == pytest.approx(
        METERS_PER_DEGREE, rel=1e-9)
    assert haversine_m(116.5, 39.9, 116.5, 39.9) == 0.0


def test_haversine_matches_law_of_cosines():
    rng = random.Random(59)
    radius = METERS_PER_DEGREE * 180.0 / math.pi
    for _ in range(100):
        ax, ay = rng.uniform(-180, 180), rng.uniform(-60, 60)
        bx, by = ax + rng.uniform(-2, 2), ay + rng.uniform(-2, 2)
        pa, pb = math.radians(ay), math.radians(by)
        dl = math.radians(bx - ax)
        want = radius * math.acos(
            min(1.0, math.sin(pa) * math.sin(pb)
                + math.cos(pa) * math.cos(pb) * math.cos(dl)))
        assert haversine_m(ax, ay, bx, by) == pytest.approx(want, abs=1e-3)
        assert haversine_m(ax, ay, bx, by) == haversine_m(bx, by, ax, ay)


def test_degree_radius_bounds_bracket():
    r_m = 400.0
    lat0, lat1 = 39.6, 41.1
    under, over = degree_radius_bounds(r_m, lat0, lat1)
    assert under < r_m / METERS_PER_DEGREE < over
    rng = random.Random(61)
    for _ in range(2000):
        lon, lat = rng.uniform(115.5, 117.6), rng.uniform(lat0, lat1)
        ang = rng.uniform(0, 2 * math.pi)
        # inside the conservative planar radius: truly within r_m
        s = rng.uniform(0, under)
        dx, dy = s * math.cos(ang), s * math.sin(ang)
        assert haversine_m(lon, lat, lon + dx, lat + dy) <= r_m
        # truly within r_m: inside the generous planar radius
        s = rng.uniform(0, over)
        dx, dy = s * math.cos(ang), s * math.sin(ang)
        if haversine_m(lon, lat, lon + dx, lat + dy) <= r_m:
            assert math.hypot(dx, dy) <= over

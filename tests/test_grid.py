"""Grid construction, cell-key encoding, rings, and layer sets."""

import math
import random

import pytest

from gridstream.grid import (CellCoord, GridError, OutsideExtentError,
                             build_grid, layer_params)


def test_build_grid_square_domain():
    g = build_grid(0.0, 0.0, 90.0, 90.0, 9, 4)
    assert g.cell_len == 10.0
    assert g.x_cells == 9
    assert g.y_cells == 9


def test_build_grid_rectangular_domain():
    # 2.1 by 1.5 degree box, 150 cells along x: square cells of 0.014,
    # so the y axis needs ceil(1.5 / 0.014) = 108 rows.
    g = build_grid(115.5, 39.6, 117.6, 41.1, 150, 8)
    assert g.cell_len == pytest.approx(0.014)
    assert g.x_cells == 150
    assert g.y_cells == 108


def test_build_grid_single_cell():
    g = build_grid(0.0, 0.0, 1.0, 1.0, 1, 1)
    assert g.cell_len == 1.0
    assert g.x_cells == 1 and g.y_cells == 1
    assert g.cell_of(0.5, 0.5) == CellCoord(0, 0)


def test_build_grid_rejects_bad_config():
    with pytest.raises(GridError):
        build_grid(0.0, 0.0, 0.0, 90.0, 9, 4)
    with pytest.raises(GridError):
        build_grid(0.0, 0.0, 90.0, 90.0, 0, 4)
    with pytest.raises(GridError):
        # 9 cells per axis do not fit in 3 bits
        build_grid(0.0, 0.0, 90.0, 90.0, 9, 3)


def test_cell_of_basic():
    g = build_grid(0.0, 0.0, 90.0, 90.0, 9, 4)
    assert g.cell_of(25.0, 42.0) == CellCoord(2, 4)
    assert g.cell_of(0.0, 0.0) == CellCoord(0, 0)


def test_cell_of_clamps_top_edge():
    g = build_grid(0.0, 0.0, 90.0, 90.0, 9, 4)
    assert g.cell_of(90.0, 90.0) == CellCoord(8, 8)
    # sweep a lattice over the closed extent: no index ever out of range
    for i in range(101):
        for j in range(101):
            c = g.cell_of(i * 0.9, j * 0.9)
            assert 0 <= c.x_index < 9 and 0 <= c.y_index < 9


def test_cell_of_rejects_outside():
    g = build_grid(0.0, 0.0, 90.0, 90.0, 9, 4)
    with pytest.raises(OutsideExtentError):
        g.cell_of(-0.001, 45.0)
    with pytest.raises(OutsideExtentError):
        g.cell_of(45.0, 90.001)


def test_key_encoding_example():
    g = build_grid(0.0, 0.0, 90.0, 90.0, 9, 4)
    key = g.encode_key(CellCoord(2, 4))
    assert g.key_bits(key) == "00100100"
    assert g.key_bits(g.encode_key(CellCoord(0, 0))) == "00000000"


def test_key_round_trip_9x9():
    g = build_grid(0.0, 0.0, 90.0, 90.0, 9, 4)
    keys = set()
    for x in range(9):
        for y in range(9):
            c = CellCoord(x, y)
            k = g.encode_key(c)
            assert g.decode_key(k) == c
            keys.add(k)
    assert len(keys) == 81


def test_key_bijective_up_to_256():
    for m in (16, 256):
        g = build_grid(0.0, 0.0, float(m), float(m), m, 8)
        seen = set()
        for x in range(g.x_cells):
            for y in range(g.y_cells):
                k = g.encode_key(CellCoord(x, y))
                assert g.decode_key(k) == CellCoord(x, y)
                seen.add(k)
        assert len(seen) == g.x_cells * g.y_cells


def test_decode_rejects_out_of_range():
    g = build_grid(0.0, 0.0, 90.0, 90.0, 9, 4)
    with pytest.raises(GridError):
        g.decode_key((12 << 4) | 0)  # x index 12 beyond 8


def test_keys_match_point_cells():
    g = build_grid(0.0, 0.0, 90.0, 90.0, 9, 4)
    rng = random.Random(42)
    for _ in range(1000):
        x, y = rng.uniform(0, 90), rng.uniform(0, 90)
        c = g.cell_of(x, y)
        assert g.decode_key(g.encode_key(c)) == c
        x0, y0, x1, y1 = g.cell_bounds(c)
        assert x0 <= x <= x1 and y0 <= y <= y1


@pytest.mark.parametrize("extent, m", [((0.0, 0.0, 90.0, 90.0), 9),
                                       ((115.5, 39.6, 117.6, 41.1), 150)])
def test_key_of_matches_encoded_cell(extent, m):
    g = build_grid(*extent, m, 8)
    x0, y0, x1, y1 = extent
    rng = random.Random(44)
    points = [(rng.uniform(x0, x1), rng.uniform(y0, y1)) for _ in range(1000)]
    # the top and right edges fold into the last row and column
    points += [(x1, rng.uniform(y0, y1)) for _ in range(50)]
    points += [(rng.uniform(x0, x1), y1) for _ in range(50)]
    for x, y in points:
        assert g.key_of(x, y) == g.encode_key(g.cell_of(x, y)), (x, y)
    top_x, top_y = g.x_cells - 1, g.y_cells - 1
    corners = {(x0, y0): (0, 0), (x1, y0): (top_x, 0),
               (x0, y1): (0, top_y), (x1, y1): (top_x, top_y)}
    for (x, y), coord in corners.items():
        assert g.key_of(x, y) == g.encode_key(g.cell_of(x, y))
        assert g.key_of(x, y) == g.encode_key(CellCoord(*coord)), (x, y)


def test_key_of_is_none_outside_and_for_nan():
    g = build_grid(0.0, 0.0, 90.0, 90.0, 9, 4)
    eps = 1e-9
    for x, y in ((-eps, 45.0), (90.0 + eps, 45.0), (45.0, -eps),
                 (45.0, 90.0 + eps), (math.nan, 45.0), (45.0, math.nan)):
        assert g.key_of(x, y) is None, (x, y)
        with pytest.raises(OutsideExtentError):
            g.cell_of(x, y)


def _brute_ring(grid, coord, n):
    return {CellCoord(x, y)
            for x in range(grid.x_cells)
            for y in range(grid.y_cells)
            if max(abs(x - coord.x_index), abs(y - coord.y_index)) == n}


def test_neighbor_ring_interior():
    g = build_grid(0.0, 0.0, 90.0, 90.0, 9, 4)
    assert len(g.neighbor_ring(CellCoord(4, 4), 1)) == 8
    assert len(g.neighbor_ring(CellCoord(4, 4), 2)) == 16


def test_neighbor_ring_corner():
    g = build_grid(0.0, 0.0, 90.0, 90.0, 9, 4)
    assert g.neighbor_ring(CellCoord(0, 0), 1) == {
        CellCoord(0, 1), CellCoord(1, 0), CellCoord(1, 1)}


def test_neighbor_ring_clipped_matches_brute_force():
    g = build_grid(0.0, 0.0, 90.0, 90.0, 9, 4)
    rng = random.Random(7)
    for _ in range(50):
        coord = CellCoord(rng.randrange(9), rng.randrange(9))
        n = rng.randrange(1, 10)
        assert g.neighbor_ring(coord, n) == _brute_ring(g, coord, n)
    # ring 5 around the center is clipped on all sides
    assert len(g.neighbor_ring(CellCoord(4, 4), 5)) < 40


def test_ring_partition_covers_grid():
    g = build_grid(0.0, 0.0, 90.0, 90.0, 9, 4)
    center = CellCoord(4, 4)
    seen = {center}
    total = 1
    for n in range(1, 9):
        ring = g.neighbor_ring(center, n)
        assert not (ring & seen)
        seen |= ring
        total += len(ring)
    assert total == 81
    assert seen == set(g.cells())


def test_layer_params_examples():
    assert layer_params(30.0, 10.0) == (1, 3)
    assert layer_params(5.0, 10.0) == (-1, 1)
    # floor boundary: r exactly 2*l*sqrt(2)
    g, c = layer_params(2 * 10.0 * math.sqrt(2), 10.0)
    assert g == 1


def test_layer_params_monotone_in_r():
    prev_g, prev_c = layer_params(0.5, 10.0)
    for step in range(1, 200):
        r = 0.5 + step * 0.5
        g, c = layer_params(r, 10.0)
        assert g >= prev_g and c >= prev_c
        assert c >= 1 and c > g
        prev_g, prev_c = g, c


def test_layer_params_rejects_nonpositive():
    with pytest.raises(GridError):
        layer_params(0.0, 10.0)
    with pytest.raises(GridError):
        layer_params(30.0, 0.0)


def test_layer_sets_interior_example():
    g = build_grid(0.0, 0.0, 90.0, 90.0, 9, 4)
    ls = g.layer_sets(CellCoord(4, 4), 30.0)
    assert (ls.g, ls.c) == (1, 3)
    assert ls.guaranteed == g.neighbor_ring(CellCoord(4, 4), 1)
    assert len(ls.guaranteed) == 8
    expected_candidate = ({CellCoord(4, 4)}
                          | g.neighbor_ring(CellCoord(4, 4), 2)
                          | g.neighbor_ring(CellCoord(4, 4), 3))
    assert ls.candidate == expected_candidate
    assert len(ls.candidate) == 1 + 16 + 24


def test_layer_sets_small_radius_all_candidate():
    g = build_grid(0.0, 0.0, 90.0, 90.0, 9, 4)
    ls = g.layer_sets(CellCoord(4, 4), 5.0)
    assert ls.guaranteed == set()
    assert ls.candidate == {CellCoord(4, 4)} | g.neighbor_ring(CellCoord(4, 4), 1)


def test_layer_sets_corner_clipped():
    g = build_grid(0.0, 0.0, 90.0, 90.0, 9, 4)
    corner = g.layer_sets(CellCoord(0, 0), 30.0)
    interior = g.layer_sets(CellCoord(4, 4), 30.0)
    assert len(corner.guaranteed) == 3
    assert len(corner.candidate) < len(interior.candidate)
    assert not (corner.guaranteed & corner.candidate)
    for c in corner.guaranteed | corner.candidate:
        assert 0 <= c.x_index < 9 and 0 <= c.y_index < 9


def test_layer_sets_disjoint_and_ring_bounded():
    g = build_grid(0.0, 0.0, 90.0, 90.0, 9, 4)
    rng = random.Random(13)
    for _ in range(30):
        qc = CellCoord(rng.randrange(9), rng.randrange(9))
        r = rng.uniform(1.0, 60.0)
        ls = g.layer_sets(qc, r)
        assert not (ls.guaranteed & ls.candidate)
        for c in ls.guaranteed:
            d = max(abs(c.x_index - qc.x_index), abs(c.y_index - qc.y_index))
            assert 1 <= d <= max(ls.g, 0)
        for c in ls.candidate:
            d = max(abs(c.x_index - qc.x_index), abs(c.y_index - qc.y_index))
            assert c == qc or max(ls.g, 0) + 1 <= d <= ls.c


def test_layer_sampling_safety_and_soundness():
    # Sampled form of the layer guarantees: a point in a guaranteed cell
    # is within r of any query position inside the query cell, and a
    # point in no layer cell is beyond r from any query position.
    rng = random.Random(99)
    for _ in range(40):
        m = rng.choice((5, 9, 20))
        g = build_grid(0.0, 0.0, 100.0, 100.0, m, 8)
        l = g.cell_len
        qc = CellCoord(rng.randrange(g.x_cells), rng.randrange(g.y_cells))
        r = rng.uniform(0.4 * l, 5 * l)
        ls = g.layer_sets(qc, r)
        layer_cells = ls.guaranteed | ls.candidate
        qx0, qy0, qx1, qy1 = g.cell_bounds(qc)
        for _ in range(60):
            qx, qy = rng.uniform(qx0, qx1), rng.uniform(qy0, qy1)
            cell = CellCoord(rng.randrange(g.x_cells), rng.randrange(g.y_cells))
            x0, y0, x1, y1 = g.cell_bounds(cell)
            px, py = rng.uniform(x0, x1), rng.uniform(y0, y1)
            d = math.hypot(px - qx, py - qy)
            if cell in ls.guaranteed:
                assert d <= r
            elif cell not in layer_cells:
                assert d > r


def test_layer_sets_rejects_out_of_range_cell():
    g = build_grid(0.0, 0.0, 90.0, 90.0, 9, 4)
    with pytest.raises(GridError):
        g.layer_sets(CellCoord(9, 0), 30.0)

"""Logical uniform grid over a rectangular extent.

The grid stores no points. It maps coordinates to square cells, encodes
cells as fixed-width integer keys used for stream partitioning, and
derives the cell neighborhoods a radius query has to inspect: cells whose
contents are guaranteed matches, cells that need distance checks, and
cells that can be skipped outright.

Cells are squares of side ``cell_len = (max_x - min_x) / m``; the y axis
gets ``ceil(extent_y / cell_len)`` rows, so non-square extents work while
keeping the ring arithmetic valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

SQRT2 = math.sqrt(2.0)

# minx, miny, maxx, maxy of the Beijing box: the CLI's and bench's extent.
DEFAULT_BBOX = (115.5, 39.6, 117.6, 41.1)


class GridError(ValueError):
    """Invalid grid construction or cell arithmetic."""


class OutsideExtentError(GridError):
    """Coordinate falls outside the grid extent; callers decide drop vs fail."""


class CellCoord(NamedTuple):
    x_index: int
    y_index: int


@dataclass(frozen=True)
class LayerSets:
    """Cell neighborhoods of a query cell for a given radius.

    ``guaranteed`` cells lie entirely within the radius of every possible
    query position inside the query cell; ``candidate`` cells (always
    including the query cell itself) may hold matches and need distance
    evaluation. Every other cell is provably out of range.
    """

    guaranteed: frozenset[CellCoord]
    candidate: frozenset[CellCoord]
    g: int
    c: int


@dataclass(frozen=True)
class LayerKeys:
    """A LayerSets rendered into encoded-key space for fast membership tests."""

    guaranteed: frozenset[int]
    candidate: frozenset[int]


def layer_params(r: float, cell_len: float) -> tuple[int, int]:
    """Ring bounds for radius ``r``: innermost rings 1..g are guaranteed,
    rings up to c are candidates.

    g can be zero or negative, meaning no ring is fully guaranteed.
    c >= 1 and c > g always hold.
    """
    if r <= 0:
        raise GridError(f"radius must be positive, got {r}")
    if cell_len <= 0:
        raise GridError(f"cell length must be positive, got {cell_len}")
    g = math.floor(r / (cell_len * SQRT2)) - 1
    c = math.ceil(r / cell_len)
    return g, c


@dataclass(frozen=True)
class Grid:
    """Immutable uniform grid; safe to share across threads."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float
    m: int
    cell_len: float
    n_bits: int
    x_cells: int
    y_cells: int

    def contains(self, x: float, y: float) -> bool:
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y

    def cell_of(self, x: float, y: float) -> CellCoord:
        """Cell containing (x, y); the top/right extent edges fold into the
        last row/column."""
        if not (self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y):
            raise OutsideExtentError(f"point ({x}, {y}) outside grid extent")
        xi = int((x - self.min_x) / self.cell_len)
        yi = int((y - self.min_y) / self.cell_len)
        if xi >= self.x_cells:
            xi = self.x_cells - 1
        if yi >= self.y_cells:
            yi = self.y_cells - 1
        return CellCoord(xi, yi)

    def _check_coord(self, coord: CellCoord) -> None:
        x, y = coord
        if not (0 <= x < self.x_cells and 0 <= y < self.y_cells):
            raise GridError(f"cell {coord!r} outside index ranges "
                            f"{self.x_cells}x{self.y_cells}")

    def encode_key(self, coord: CellCoord) -> int:
        """Pack a cell as x_index in the high n_bits, y_index in the low n_bits."""
        self._check_coord(coord)
        return (coord[0] << self.n_bits) | coord[1]

    def decode_key(self, key: int) -> CellCoord:
        if key < 0 or key >> (2 * self.n_bits):
            raise GridError(f"key {key} does not fit in {2 * self.n_bits} bits")
        coord = CellCoord(key >> self.n_bits, key & ((1 << self.n_bits) - 1))
        self._check_coord(coord)
        return coord

    def key_bits(self, key: int) -> str:
        """Binary rendering of a key, exactly 2*n_bits characters."""
        return format(key, f"0{2 * self.n_bits}b")

    def cell_bounds(self, coord: CellCoord) -> tuple[float, float, float, float]:
        x, y = coord
        x0 = self.min_x + x * self.cell_len
        y0 = self.min_y + y * self.cell_len
        return x0, y0, x0 + self.cell_len, y0 + self.cell_len

    def cells(self) -> Iterator[CellCoord]:
        for x in range(self.x_cells):
            for y in range(self.y_cells):
                yield CellCoord(x, y)

    def neighbor_ring(self, coord: CellCoord, n: int) -> set[CellCoord]:
        """All in-range cells at Chebyshev distance exactly ``n``; may be
        empty near the boundary."""
        if n < 1:
            raise GridError(f"ring number must be >= 1, got {n}")
        self._check_coord(coord)
        x, y = coord
        ring: set[CellCoord] = set()
        lo_u, hi_u = max(x - n, 0), min(x + n, self.x_cells - 1)
        for v in (y - n, y + n):
            if 0 <= v < self.y_cells:
                for u in range(lo_u, hi_u + 1):
                    ring.add(CellCoord(u, v))
        lo_v, hi_v = max(y - n + 1, 0), min(y + n - 1, self.y_cells - 1)
        for u in (x - n, x + n):
            if 0 <= u < self.x_cells:
                for v in range(lo_v, hi_v + 1):
                    ring.add(CellCoord(u, v))
        return ring

    def layer_sets(self, query_cell: CellCoord, r: float,
                   candidate_r: float | None = None) -> LayerSets:
        """Guaranteed and candidate cell sets for a query anywhere in
        ``query_cell`` with radius ``r``.

        The query cell itself is always a candidate: its diagonal may
        exceed r, so its own points still need distance checks.
        candidate_r, when given, widens only the candidate boundary;
        metric radii use a smaller guarantee radius and a larger
        candidate radius to stay safe in degree space.
        """
        self._check_coord(query_cell)
        g, c = layer_params(r, self.cell_len)
        if candidate_r is not None:
            if candidate_r < r:
                raise GridError(f"candidate radius {candidate_r} below "
                                f"guarantee radius {r}")
            _, c = layer_params(candidate_r, self.cell_len)
        guaranteed: set[CellCoord] = set()
        for n in range(1, g + 1):
            guaranteed |= self.neighbor_ring(query_cell, n)
        candidate: set[CellCoord] = {query_cell}
        for n in range(max(g, 0) + 1, c + 1):
            candidate |= self.neighbor_ring(query_cell, n)
        return LayerSets(frozenset(guaranteed), frozenset(candidate), g, c)

    def layer_keys(self, layers: LayerSets) -> LayerKeys:
        return LayerKeys(
            frozenset(self.encode_key(cc) for cc in layers.guaranteed),
            frozenset(self.encode_key(cc) for cc in layers.candidate),
        )


def build_grid(min_x: float, min_y: float, max_x: float, max_y: float,
               m: int, n_bits: int = 16) -> Grid:
    """Construct a grid with ``m`` columns of square cells over the extent.

    n_bits is the fixed index width per axis; 2**n_bits must cover both
    index ranges. The default of 16 supports grids up to 65536 cells per
    axis.
    """
    if not (max_x > min_x):
        raise GridError(f"extent width must be positive ({min_x}..{max_x})")
    if not (max_y > min_y):
        raise GridError(f"extent height must be positive ({min_y}..{max_y})")
    if m < 1:
        raise GridError(f"cell count m must be >= 1, got {m}")
    if n_bits < 1:
        raise GridError(f"n_bits must be >= 1, got {n_bits}")
    cell_len = (max_x - min_x) / m
    x_cells = m
    y_cells = math.ceil((max_y - min_y) / cell_len)
    if (1 << n_bits) < max(x_cells, y_cells):
        raise GridError(f"n_bits={n_bits} cannot index {max(x_cells, y_cells)} "
                        f"cells on one axis")
    return Grid(min_x, min_y, max_x, max_y, m, cell_len, n_bits, x_cells, y_cells)

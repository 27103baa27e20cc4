"""The embedding of a representation space into an opposite Schubert cell.

A representation is sent to the d x d matrix [[M, 1],[1, 0]] whose northwest
quadrant is the snake matrix collecting all arrow maps.  Ranks of the
northwest-justified block submatrices form the block rank matrix, computable
two ways: numerically from the embedded matrix, or symbolically from the
rank array alone, through the lacing diagram.  The rank array gives the
multiplicities of M = sum of I_[lo,hi]^m (`reps.rank_to_lace`); each block
of the block permutation holds one multiplicity or one one-arrow rank
(`lacing_counts`), and the block ranks are the 2-D prefix sums of those
counts.  The two routes agree on every representation; the symbolic one is
the production path and the numeric one the validator.

`BlockLayout` owns the block order and sizes of the cell; everything else
(the block permutation in `perms`, the text rendering in `cli`) takes them
from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import add

from .errors import InputError, ShapeError
from .matrices import ExactMatrix, prefix_block_ranks
from .quiver import (
    BipartiteQuiver,
    DimensionVector,
    Interval,
    check_dims,
    d_x,
    d_y,
    interval_table,
    vertex_name,
)
from .reps import RankArray, Representation, assemble_interval_matrix, rank_to_lace


@dataclass(frozen=True)
class BlockLayout:
    """Block row/column structure of the ambient cell.

    Block rows carry the sinks y_0..y_n then the sources x_n..x_1; block
    columns carry x_n..x_1 then y_0..y_n.  Numeric block indices 1..2n+1
    refer to this order; translation to vertex labels happens here and only
    here.  The sizes and cuts are those of the one cell
    [[snake, 1_dy], [1_dx, 0]] that `cell_matrix_from_star` writes.
    """

    n: int
    dims: DimensionVector

    def __post_init__(self):
        if len(self.dims) != 2 * self.n + 1:
            raise InputError("dimension vector does not match n")

    @cached_property
    def row_positions(self) -> tuple[int, ...]:
        ys = tuple(2 * i for i in range(self.n + 1))
        xs = tuple(2 * k - 1 for k in range(self.n, 0, -1))
        return ys + xs

    @cached_property
    def col_positions(self) -> tuple[int, ...]:
        xs = tuple(2 * k - 1 for k in range(self.n, 0, -1))
        ys = tuple(2 * i for i in range(self.n + 1))
        return xs + ys

    @cached_property
    def row_sizes(self) -> tuple[int, ...]:
        return tuple(self.dims[p] for p in self.row_positions)

    @cached_property
    def col_sizes(self) -> tuple[int, ...]:
        return tuple(self.dims[p] for p in self.col_positions)

    @property
    def row_cuts(self) -> tuple[int, ...]:
        return tuple(accumulate(self.row_sizes))

    @property
    def col_cuts(self) -> tuple[int, ...]:
        return tuple(accumulate(self.col_sizes))

    def row_vertex(self, i: int) -> str:
        """Vertex label of numeric block row i (1-based)."""
        return vertex_name(self.row_positions[i - 1])

    def col_vertex(self, j: int) -> str:
        return vertex_name(self.col_positions[j - 1])


def layout_for(q: BipartiteQuiver, dims: DimensionVector) -> BlockLayout:
    check_dims(q, dims)
    return BlockLayout(q.n, dims)


@dataclass(frozen=True)
class ZelevinskyCellMatrix:
    """A d x d matrix of the cell shape: free northwest quadrant, identity
    blocks in the northeast and southwest, zero southeast."""

    matrix: ExactMatrix
    layout: BlockLayout

    def __post_init__(self):
        m, lay = self.matrix, self.layout
        dy = d_y(lay.dims)
        dx = d_x(lay.dims)
        if (m.rows, m.cols) != (dy + dx, dy + dx):
            raise ShapeError("cell matrix has the wrong size")
        f = m.field
        z, o = f.zero(), f.one()
        for i in range(dy):
            for j in range(dy):
                want = o if i == j else z
                if m.data[i][dx + j] != want:
                    raise InputError("northeast quadrant is not an identity block")
        for i in range(dx):
            for j in range(dx):
                want = o if i == j else z
                if m.data[dy + i][j] != want:
                    raise InputError("southwest quadrant is not an identity block")
            for j in range(dy):
                if m.data[dy + i][dx + j] != z:
                    raise InputError("southeast quadrant is not zero")

    @property
    def field(self):
        return self.matrix.field


def snake_matrix(v: Representation) -> ExactMatrix:
    """The d_y x d_x matrix holding every arrow map in its staircase slot."""
    q = v.quiver
    if q.n == 0:
        return ExactMatrix.zeros(v.field, v.dims[0], 0)
    return assemble_interval_matrix(v, Interval(0, 2 * q.n))


def cell_matrix_from_star(star: ExactMatrix, layout: BlockLayout) -> ZelevinskyCellMatrix:
    """Build the cell element [[star, 1_dy], [1_dx, 0]] row by row."""
    dy = d_y(layout.dims)
    dx = d_x(layout.dims)
    if (star.rows, star.cols) != (dy, dx):
        raise ShapeError(f"free block must be {dy}x{dx}")
    f = star.field
    z, o = f.zero(), f.one()
    data = [row + [o if j == i else z for j in range(dy)] for i, row in enumerate(star.data)]
    data += [[o if j == i else z for j in range(dx)] + [z] * dy for i in range(dx)]
    return ZelevinskyCellMatrix(ExactMatrix(f, dy + dx, dy + dx, data), layout)


def zelevinsky_map(v: Representation) -> ZelevinskyCellMatrix:
    """Embed a representation as [[snake, 1],[1, 0]]."""
    lay = layout_for(v.quiver, v.dims)
    return cell_matrix_from_star(snake_matrix(v), lay)


@dataclass(frozen=True)
class BlockRankMatrix:
    """Ranks of all northwest-justified block submatrices; (2n+1) x (2n+1)."""

    n: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = 2 * self.n + 1
        if len(self.entries) != k or any(len(r) != k for r in self.entries):
            raise InputError("block rank matrix has the wrong shape")

    def to_json(self) -> dict:
        return {"n": self.n, "entries": [list(r) for r in self.entries]}


def block_rank_numeric(z: ZelevinskyCellMatrix) -> BlockRankMatrix:
    """Rank every northwest-justified block submatrix of the embedded matrix."""
    lay = z.layout
    grid = prefix_block_ranks(z.matrix, lay.row_cuts, lay.col_cuts)
    return BlockRankMatrix(lay.n, grid)


@lru_cache(maxsize=1)
def _lacing_slots(n: int) -> tuple[int, ...]:
    """For each block, flattened row by row, the index into
    ``lace + rank + (0,)`` of its count, as `lacing_counts` reads it.

    Block (row vertex a, column vertex b) holds m_[b,a] when b <= a and
    r_[a,a+1] when b = a+1; every other block reads the trailing 0 (index
    -1).  The table depends on n alone; only the latest n is kept.
    """
    table = interval_table(n)
    count = len(table)
    lay = BlockLayout(n, DimensionVector((0,) * table.vertex_count))
    slots = []
    for a in lay.row_positions:
        for b in lay.col_positions:
            if b <= a:
                slots.append(a if b == a else table.rank_slot_of_span(b, a))
            elif b == a + 1:
                slots.append(count + table.rank_slot_of_span(a, b))
            else:
                slots.append(-1)
    return tuple(slots)


def lacing_counts(n: int, lace, rank) -> tuple[int, ...]:
    """The block counts of the orbit with this lace array and rank array:
    the number of 1s in each of the (2n+1) x (2n+1) blocks of its block
    permutation, flattened row by row.

    They are its lacing diagram: each indecomposable on [lo, hi] puts one
    1 on the cycle lo -> lo+1 -> ... -> hi -> lo, in blocks (a, a+1) for
    lo <= a < hi and in block (hi, lo), so block (a, b) counts the summands
    on [b, a] when b <= a and those through the arrow a -> a+1, the rank
    r_[a,a+1], when b = a+1.
    """
    vals = (*lace, *rank, 0)
    return tuple([vals[slot] for slot in _lacing_slots(n)])


def block_rank_symbolic(r: RankArray, dims: DimensionVector) -> BlockRankMatrix:
    """Fill the block rank matrix from the rank array alone: the 2-D prefix
    sums of the block counts `lacing_counts` reads off the lacing diagram,
    the lace array `rank_to_lace` recovers from (r, dims).

    A rank array with a negative multiplicity raises NotARankArrayError.
    """
    n = r.n
    if len(dims) != 2 * n + 1:
        raise InputError("dimension vector does not match the rank array")
    counts = lacing_counts(n, rank_to_lace(r, dims).values, r.values)
    k = len(dims)
    rows = []
    above = (0,) * k
    for start in range(0, k * k, k):
        above = tuple(map(add, above, accumulate(counts[start : start + k])))
        rows.append(above)
    return BlockRankMatrix(n, tuple(rows))

"""The embedding of a representation space into an opposite Schubert cell.

A representation is sent to the d x d matrix [[M, 1],[1, 0]] whose northwest
quadrant is the snake matrix collecting all arrow maps.  Ranks of the
northwest-justified block submatrices form the block rank matrix, computable
two ways: numerically from the embedded matrix, or symbolically from the
rank array alone.  The two routes agree on every representation; the
symbolic one is the production path and the numeric one the validator.

`BlockLayout` owns the block order and sizes of the cell; everything else
(the block permutation in `perms`, the text rendering in `cli`) takes them
from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate

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
from .reps import RankArray, Representation, assemble_interval_matrix


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
        out, acc = [], 0
        for s in self.row_sizes:
            acc += s
            out.append(acc)
        return tuple(out)

    @property
    def col_cuts(self) -> tuple[int, ...]:
        out, acc = [], 0
        for s in self.col_sizes:
            acc += s
            out.append(acc)
        return tuple(out)

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

    def entry(self, i: int, j: int) -> int:
        """1-based access; indices outside [1, 2n+1] read as 0."""
        k = 2 * self.n + 1
        if i < 1 or j < 1 or i > k or j > k:
            return 0
        return self.entries[i - 1][j - 1]

    def block_count(self, i: int, j: int) -> int:
        """Second difference: the prescribed number of 1s in block (i, j)."""
        return (
            self.entry(i, j)
            + self.entry(i - 1, j - 1)
            - self.entry(i, j - 1)
            - self.entry(i - 1, j)
        )

    def to_json(self) -> dict:
        return {"n": self.n, "entries": [list(r) for r in self.entries]}


def block_rank_numeric(z: ZelevinskyCellMatrix) -> BlockRankMatrix:
    """Rank every northwest-justified block submatrix of the embedded matrix."""
    lay = z.layout
    grid = prefix_block_ranks(z.matrix, lay.row_cuts, lay.col_cuts)
    return BlockRankMatrix(lay.n, grid)


def _block_formula(n: int, i: int, j: int):
    """Closed form for block (i, j): an offset plus the rank of one interval.

    Identity blocks present in the northwest-justified submatrix pivot away
    whole block rows/columns and contribute the offset, the dimensions of
    x_kx..x_n and of y_0..y_my; what remains of the snake is the staircase
    matrix of a single interval, returned as an edge span (empty when
    lo > hi).  Specializing over the four quadrants gives the forced cell
    values, the forced image values, and the four orbit families with their
    dimension offsets.

    Nothing here depends on the orbit or the dimensions, only on n:
    `_block_plan` reads each offset from prefix sums of the dimensions.
    """
    # rows present: y_0..y_ytop, and x_k for k >= xlow (xlow = n+1 means none)
    if i <= n + 1:
        ytop, xlow = i - 1, n + 1
    else:
        ytop, xlow = n, 2 * n + 2 - i
    # cols present: x_k for k >= xcollow, and y_0..y_ycoltop (-1 means none)
    if j <= n:
        xcollow, ycoltop = n + 1 - j, -1
    else:
        xcollow, ycoltop = 1, j - n - 1
    kx = max(xlow, xcollow)
    my = min(ytop, ycoltop)
    rlo, rhi = my + 1, ytop
    clo, chi = xcollow, kx - 1
    edge_lo = max(2 * rlo, 2 * clo - 1)
    edge_hi = min(2 * rhi + 1, 2 * chi)
    return kx, my, edge_lo, edge_hi


@lru_cache(maxsize=1)
def _block_shape(n: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """`_block_formula` for every block, as a (2n+1) x (2n+1) table of
    (kx, my, rank slot) triples.

    The slot indexes the rank array; -1 means the interval is empty and its
    rank is forced to 0.  The shape depends on n alone, so the plans of
    every dimension vector at one n share it; only the latest n is kept.
    """
    table = interval_table(n)
    k = 2 * n + 1
    shape = []
    for i in range(1, k + 1):
        row = []
        for j in range(1, k + 1):
            kx, my, elo, ehi = _block_formula(n, i, j)
            row.append((kx, my, table.rank_slot_of_span(elo - 1, ehi)))
        shape.append(tuple(row))
    return tuple(shape)


@lru_cache(maxsize=1)
def _block_plan(n: int, dims: DimensionVector) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The block plan: a (2n+1) x (2n+1) table of (offset, rank slot)
    pairs, the slots those of `_block_shape`.

    Each offset, the dims of x_kx..x_n plus those of y_0..y_my, is read
    from prefix sums of the x and y dimensions, so the plan costs O(n**2).
    Only the latest (n, dims) is kept, since callers sweep the orbits of
    one dimension vector at a time.
    """
    xs = list(accumulate(dims.values[1::2], initial=0))  # xs[k]: x_1..x_k
    ys = list(accumulate(dims.values[0::2], initial=0))  # ys[m]: y_0..y_{m-1}
    top = xs[n]
    return tuple(
        tuple([(top - xs[kx - 1] + ys[my + 1], slot) for kx, my, slot in row])
        for row in _block_shape(n)
    )


def block_rank_symbolic(r: RankArray, dims: DimensionVector) -> BlockRankMatrix:
    """Fill the block rank matrix from the rank array alone.

    Entry (i, j) is offset + r[slot] for the (offset, slot) pair of the
    block plan of (n, dims), with slot -1 reading 0.  The plan is cached for
    the latest (n, dims), so a sweep over the orbits of one dimension vector
    costs one pass over it per orbit.
    """
    n = r.n
    if len(dims) != 2 * n + 1:
        raise InputError("dimension vector does not match the rank array")
    vals = (*r.values, 0)  # slot -1 reads the trailing 0
    plan = _block_plan(n, dims)
    return BlockRankMatrix(
        n, tuple([tuple([offset + vals[slot] for offset, slot in row]) for row in plan])
    )

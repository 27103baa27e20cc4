"""Points of the representation space of a type A quiver.

A representation assigns one exact matrix to each arrow, of shape
d(head) x d(tail), in the order of the quiver's ``arrows`` table; the same
class serves the bipartite quiver and every oriented path.  For the
bipartite quiver the ranks of the staircase interval matrices form a
complete orbit invariant; this module computes them and translates back and
forth between rank arrays and Krull-Schmidt multiplicity (lace) arrays.
Other orientations reach the interval calculus through ``reduction``.

Every interval matrix with left endpoint lo is, up to a column permutation,
a northwest block of one matrix M_lo (the arrow maps with both ends at or
right of lo), so ``rank_array`` reads all of its ranks from one pivot
profile per left endpoint; ``assemble_interval_matrix`` builds a single
interval matrix and is the reference the rank array is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add, sub

from .errors import (
    FieldMismatchError,
    InputError,
    NotARankArrayError,
    ShapeError,
)
from .fields import Field, QQ
from .matrices import ExactMatrix, _pivot_profile
from .quiver import (
    BipartiteQuiver,
    DimensionVector,
    Interval,
    TypeAQuiver,
    check_dims,
    field_width,
    interval_table,
    unpack_fields,
    vertex_name,
)


@dataclass(frozen=True)
class Representation:
    """One matrix per arrow, shapes dictated by the dimension vector."""

    quiver: BipartiteQuiver | TypeAQuiver
    dims: DimensionVector
    arrows: tuple[ExactMatrix, ...]  # arrows[k] sits over quiver.arrows[k]

    def __post_init__(self):
        q = self.quiver
        check_dims(q, self.dims)
        if len(self.arrows) != len(q.arrows):
            raise ShapeError(f"expected {len(q.arrows)} arrow matrices, got {len(self.arrows)}")
        d = self.dims.values
        field = None
        for e, (m, (h, t)) in enumerate(zip(self.arrows, q.arrows), start=1):
            if (m.rows, m.cols) != (d[h], d[t]):
                raise ShapeError(
                    f"arrow {e} matrix is {m.rows}x{m.cols}, dims require {d[h]}x{d[t]}"
                )
            if field is None:
                field = m.field
            elif m.field != field:
                raise FieldMismatchError("arrow matrices over mismatched fields")

    @property
    def field(self) -> Field:
        if self.arrows:
            return self.arrows[0].field
        return QQ

    def matrix(self, e: int) -> ExactMatrix:
        return self.arrows[e - 1]

    def key(self):
        return tuple(m.key() for m in self.arrows)


def zero_rep(
    q: BipartiteQuiver | TypeAQuiver, dims: DimensionVector, field: Field = QQ
) -> Representation:
    check_dims(q, dims)
    mats = tuple(ExactMatrix.zeros(field, dims[h], dims[t]) for h, t in q.arrows)
    return Representation(q, dims, mats)


def indecomposable_rep(q: BipartiteQuiver, j: Interval, field: Field = QQ) -> Representation:
    """The indecomposable supported on interval j: K at each vertex of j,
    identity over each arrow of j."""
    if j.lo < 0 or j.hi >= q.vertex_count:
        raise InputError(f"{j} is not an interval of the quiver")
    dims = DimensionVector(tuple(1 if j.lo <= p <= j.hi else 0 for p in range(q.vertex_count)))
    one = ExactMatrix.identity(field, 1)
    mats = []
    for e, (h, t) in enumerate(q.arrows, start=1):
        if j.lo < e <= j.hi:
            mats.append(one)
        else:
            mats.append(ExactMatrix.zeros(field, dims[h], dims[t]))
    return Representation(q, dims, tuple(mats))


def direct_sum(u: Representation, v: Representation) -> Representation:
    """Block-diagonal sum; dimension vectors add."""
    if u.quiver != v.quiver:
        raise InputError("direct sum over different quivers")
    if u.field != v.field and u.arrows and v.arrows:
        raise FieldMismatchError("direct sum over mismatched fields")
    dims = DimensionVector(tuple(a + b for a, b in zip(u.dims, v.dims)))
    field = u.field
    mats = []
    for a, b in zip(u.arrows, v.arrows):
        m = ExactMatrix.zeros(field, a.rows + b.rows, a.cols + b.cols)
        for i in range(a.rows):
            m.data[i][: a.cols] = a.data[i]
        for i in range(b.rows):
            m.data[a.rows + i][a.cols :] = b.data[i]
        mats.append(m)
    return Representation(u.quiver, dims, tuple(mats))


def act(g, v: Representation) -> Representation:
    """Base change action: the matrix over each arrow becomes g_head * M * g_tail^-1.

    ``g`` is a sequence of invertible matrices, one per vertex.
    """
    q = v.quiver
    if len(g) != q.vertex_count:
        raise InputError("need one group element per vertex")
    for z, gz in enumerate(g):
        if gz.rows != gz.cols or gz.rows != v.dims[z]:
            raise ShapeError(f"group element at vertex {z} has wrong size")
    tail_inv = {}
    mats = []
    for m, (h, t) in zip(v.arrows, q.arrows):
        if t not in tail_inv:
            tail_inv[t] = g[t].inverse()
        mats.append(g[h].multiply(m).multiply(tail_inv[t]))
    return Representation(q, v.dims, tuple(mats))


# -- interval matrices and rank arrays --------------------------------------


def assemble_interval_matrix(v: Representation, j: Interval) -> ExactMatrix:
    """The staircase matrix of the interval: block rows are the sink vertices
    of the span (top to bottom), block columns the source vertices (right to
    left), with each arrow's matrix in its (head, tail) slot.

    Phantom arrows of the zero-padded extension are allowed; their blocks
    have a zero dimension, so they never contribute.  A single-vertex
    interval yields a d(v) x 0 matrix.
    """
    q = v.quiver
    field = v.field
    lo, hi = max(j.lo, 0), min(j.hi, 2 * q.n)
    if lo > hi:
        return ExactMatrix.zeros(field, 0, 0)
    if lo == hi:
        return ExactMatrix.zeros(field, v.dims[lo], 0)
    row_pos = [p for p in range(lo, hi + 1) if p % 2 == 0]
    col_pos = [p for p in range(lo, hi + 1) if p % 2 == 1]
    col_pos.reverse()  # matches the snake layout: sources ordered x_n .. x_1
    row_off = {}
    off = 0
    for p in row_pos:
        row_off[p] = off
        off += v.dims[p]
    col_off = {}
    coff = 0
    for p in col_pos:
        col_off[p] = coff
        coff += v.dims[p]
    z = field.zero()
    data = [[z] * coff for _ in range(off)]
    for e in range(lo + 1, hi + 1):
        h, tl = q.arrows[e - 1]
        m = v.arrows[e - 1]
        ro, co = row_off[h], col_off[tl]
        for i in range(m.rows):
            drow = data[ro + i]
            srow = m.data[i]
            for k in range(m.cols):
                drow[co + k] = srow[k]
    return ExactMatrix(field, off, coff, data)


@dataclass(frozen=True)
class RankArray:
    """One rank per interval, stored in the canonical interval order."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(interval_table(self.n)):
            raise InputError("rank array length does not match interval count")

    def __getitem__(self, j: Interval) -> int:
        return self.values[interval_table(self.n).index[j]]

    def as_dict(self):
        table = interval_table(self.n)
        return dict(zip(table.intervals, self.values))


@dataclass(frozen=True)
class LaceArray:
    """Indecomposable multiplicities, one per interval, canonical order."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(interval_table(self.n)):
            raise InputError("lace array length does not match interval count")

    def __getitem__(self, j: Interval) -> int:
        return self.values[interval_table(self.n).index[j]]

    def dims(self) -> DimensionVector:
        """The dimension vector of any representation with these multiplicities."""
        table = interval_table(self.n)
        if min(self.values) < 0:
            raise InputError("lace array has a negative multiplicity")
        vc = table.vertex_count
        covered = _arrow_coverage(table, self.values[vc:])
        return DimensionVector(tuple(map(add, self.values[:vc], covered)))

    def as_dict(self):
        table = interval_table(self.n)
        return dict(zip(table.intervals, self.values))


def _arrow_coverage(table, arrow) -> tuple[int, ...]:
    """Per vertex, the summed multiplicities ``arrow`` gives the arrow
    intervals that hold it: each arrow span adds its multiplicity at lo and
    takes it off past hi, and prefix sums read off the coverage."""
    vc = table.vertex_count
    steps = [0] * (vc + 1)
    for m, (lo, hi) in zip(arrow, table.spans[vc:]):
        if m:
            steps[lo] += m
            steps[hi + 1] -= m
    return tuple(accumulate(steps[:vc]))


def rank_array(v: Representation) -> RankArray:
    """Ranks of every interval matrix; constant on base-change orbits.

    Fix a left endpoint lo and let M_lo hold every arrow map with both ends
    at positions >= lo: its rows are the sinks >= lo and its columns the
    sources >= lo, each in ascending order (the snake matrix's column order
    reversed).  The interval matrix of [lo, hi] is M_lo's northwest block on
    the vertices <= hi, up to a column permutation, so one pivot profile of
    M_lo gives every rank with left endpoint lo: a profile pair counts
    towards [lo, hi] once both its row and its column lie on vertices <= hi.
    That is 2n profiles in place of one elimination per interval.
    """
    q = v.quiver
    if isinstance(q, TypeAQuiver):
        raise InputError(
            f"rank arrays are defined on the bipartite quiver; lift the {q.orientation!r} "
            "representation first (reduction.rank_array_arbitrary)"
        )
    top = 2 * q.n
    d = v.dims.values
    # the vertex of each row (sinks) and column (sources) of M_0, and the
    # first row and column of M_lo
    row_vertex, col_vertex = [], []
    first_row, first_col = [0] * (top + 2), [0] * (top + 2)
    for p in range(top + 1):
        (col_vertex if p % 2 else row_vertex).extend([p] * d[p])
        first_row[p + 1] = len(row_vertex)
        first_col[p + 1] = len(col_vertex)
    field = v.field
    z = field.zero()
    data = [[z] * len(col_vertex) for _ in row_vertex]
    for (h, t), m in zip(q.arrows, v.arrows):
        ro, co = first_row[h], first_col[t]
        for i, srow in enumerate(m.data):
            data[ro + i][co : co + m.cols] = srow
    vals = [0] * (top + 1)
    for lo in range(top):
        r0, c0 = first_row[lo], first_col[lo]
        sub = [row[c0:] for row in data[r0:]]
        profile = _pivot_profile(ExactMatrix(field, len(sub), len(col_vertex) - c0, sub))
        # entering[hi]: profile pairs whose row and column both lie <= hi
        entering = [0] * (top + 1)
        for i, c in profile:
            entering[max(row_vertex[r0 + i], col_vertex[c0 + c])] += 1
        acc = 0
        for hi in range(lo + 1, top + 1):
            acc += entering[hi]
            vals.append(acc)
    return RankArray(q.n, tuple(vals))


def lace_to_rank(s: LaceArray) -> RankArray:
    """Rank array of a direct sum with the given multiplicities: each summand
    supported on J' contributes ceil(shared arrows(J, J') / 2) to the rank at J.

    The sum runs over packed weight rows (`IntervalTable.packed_weight`),
    one integer per interval, so each summand type costs one multiply-add.
    The fields are sized from the input: a rank is at most the total
    dimension, itself at most (2n+1) times the sum of the multiplicities.
    """
    table = interval_table(s.n)
    values = s.values
    if min(values) < 0:
        raise InputError("lace array has a negative multiplicity")
    width = field_width(sum(values) * table.vertex_count)
    packed = 0
    for i, m in enumerate(values):
        if m:
            packed += m * table.packed_weight(i, width)
    return RankArray(s.n, unpack_fields(packed, width, len(table)))


def rank_to_lace(r: RankArray, d: DimensionVector) -> LaceArray:
    """Recover Krull-Schmidt multiplicities from a rank array.

    Multiplicities over arrow intervals come from the signed shift formula
    evaluated with the zero-padded boundary convention: one pass over the
    lookup slots of ``table.shift_rows`` reads the rank values with a 0
    appended, so slot -1 reads 0.  Vertex multiplicities are then fixed by
    the dimension vector, less the arrow summands over each vertex, summed
    by prefix over the arrow spans (`_arrow_coverage`, which
    `LaceArray.dims` also reads).  A negative multiplicity means the input
    was not a valid rank array and raises.
    """
    table = interval_table(r.n)
    if len(d) != table.vertex_count:
        raise InputError("dimension vector does not match the quiver")
    padded = r.values + (0,)
    arrow = [
        sign * (padded[il] + padded[ir] - padded[im] - padded[ij])
        for sign, il, ir, im, ij in table.shift_rows
    ]
    for k, m in enumerate(arrow):
        if m < 0:
            raise NotARankArrayError(f"multiplicity of {table.arrow_intervals[k]} would be {m}")
    vertex = tuple(map(sub, d.values, _arrow_coverage(table, arrow)))
    for p, m in enumerate(vertex):
        if m < 0:
            raise NotARankArrayError(f"vertex multiplicity at {vertex_name(p)} would be {m}")
    return LaceArray(r.n, vertex + tuple(arrow))


def rep_from_lace(q: BipartiteQuiver, s: LaceArray, field: Field = QQ) -> Representation:
    """A concrete direct sum of indecomposables with the given multiplicities."""
    if s.n != q.n:
        raise InputError("lace array does not match the quiver")
    table = interval_table(q.n)
    total = zero_rep(q, DimensionVector(tuple(0 for _ in q.positions())), field)
    for idx, j in enumerate(table.intervals):
        for _ in range(s.values[idx]):
            total = direct_sum(total, indecomposable_rep(q, j, field))
    return total

import random
from itertools import product

import pytest

from qloci import (
    BipartiteQuiver,
    DimensionVector,
    ExactMatrix,
    GF2,
    QQ,
    Representation,
    block_rank_numeric,
    block_rank_symbolic,
    cell_matrix_from_star,
    interval_table,
    layout_for,
    rank_array,
    zelevinsky_map,
    zero_rep,
)
from qloci.errors import InputError, NotARankArrayError, ShapeError
from qloci.perms import block_counts
from qloci.oracle import iter_reps
from qloci.quiver import Interval, d_x, d_y
from qloci.reps import RankArray, rank_to_lace


def rep1(a1, b1, field=QQ):
    q = BipartiteQuiver(1)
    return Representation(
        q,
        DimensionVector.of(1, 1, 1),
        (ExactMatrix.from_rows(field, [[a1]]), ExactMatrix.from_rows(field, [[b1]])),
    )


def rank1(a, b, c):
    table = interval_table(1)
    vals = [0] * len(table)
    vals[table.index[Interval(0, 1)]] = a
    vals[table.index[Interval(1, 2)]] = b
    vals[table.index[Interval(0, 2)]] = c
    return RankArray(1, tuple(vals))


def test_map_zero_rep_n1():
    z = zelevinsky_map(zero_rep(BipartiteQuiver(1), DimensionVector.of(1, 1, 1)))
    assert [[int(v) for v in row] for row in z.matrix.data] == [
        [0, 1, 0],
        [0, 0, 1],
        [1, 0, 0],
    ]


def test_map_dense_rep_n1():
    z = zelevinsky_map(rep1(1, 1))
    assert [[int(v) for v in row] for row in z.matrix.data] == [
        [1, 1, 0],
        [1, 0, 1],
        [1, 0, 0],
    ]


def test_cell_matrix_from_star_antidiagonal_identity_pattern():
    # dims (1, 1, 1): d_y = 2, d_x = 1, so the cell is [[star, 1_2], [1_1, 0]]
    lay = layout_for(BipartiteQuiver(1), DimensionVector.of(1, 1, 1))
    w = cell_matrix_from_star(ExactMatrix.zeros(QQ, 2, 1), lay).matrix
    assert w == ExactMatrix.from_rows(QQ, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    star = ExactMatrix.from_rows(GF2, [[1], [0]])
    w = cell_matrix_from_star(star, lay).matrix
    assert w == ExactMatrix.from_rows(GF2, [[1, 1, 0], [0, 0, 1], [1, 0, 0]])
    with pytest.raises(ShapeError):
        cell_matrix_from_star(ExactMatrix.zeros(QQ, 1, 2), lay)


def test_block_rank_numeric_n1():
    z = zelevinsky_map(zero_rep(BipartiteQuiver(1), DimensionVector.of(1, 1, 1)))
    assert block_rank_numeric(z).entries == ((0, 1, 1), (0, 1, 2), (1, 2, 3))
    z = zelevinsky_map(rep1(1, 1))
    assert block_rank_numeric(z).entries == ((1, 1, 1), (1, 2, 2), (1, 2, 3))


def test_block_rank_symbolic_n1():
    d = DimensionVector.of(1, 1, 1)
    assert block_rank_symbolic(rank1(1, 1, 1), d).entries == (
        (1, 1, 1),
        (1, 2, 2),
        (1, 2, 3),
    )
    zero = zero_rep(BipartiteQuiver(1), d)
    assert block_rank_symbolic(rank1(0, 0, 0), d) == block_rank_numeric(zelevinsky_map(zero))


def test_route_agreement_n1_exhaustive_gf2():
    q = BipartiteQuiver(1)
    for dims in product(range(3), repeat=3):
        d = DimensionVector(dims)
        for v in iter_reps(q, d, 2):
            assert block_rank_symbolic(rank_array(v), d) == block_rank_numeric(zelevinsky_map(v))


def test_cell_conditions_on_random_star():
    # forced entries hold for any element of the cell, not only embedded ones
    rng = random.Random(9)
    q = BipartiteQuiver(2)
    for dims in [(1, 1, 1, 1, 1), (2, 1, 2, 1, 1), (0, 2, 1, 1, 2)]:
        d = DimensionVector(dims)
        lay = layout_for(q, d)
        dy, dx = d_y(d), d_x(d)
        star = ExactMatrix.from_rows(
            QQ, [[rng.randint(-3, 3) for _ in range(dx)] for _ in range(dy)]
        )
        z = cell_matrix_from_star(star, lay)
        b = block_rank_numeric(z)
        n = q.n
        k = 2 * n + 1
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                ri = lay.row_positions[i - 1]
                cj = lay.col_positions[j - 1]
                if ri % 2 == 1 and cj % 2 == 1:
                    # both source blocks: forced once the row index is at or
                    # below the column index, to the total width remaining
                    xi, xj = (ri + 1) // 2, (cj + 1) // 2
                    if xi <= xj:
                        want = sum(d[2 * t - 1] for t in range(xj, n + 1))
                        assert b.entries[i - 1][j - 1] == want
                if ri % 2 == 0 and cj % 2 == 0:
                    yi, yj = ri // 2, cj // 2
                    if yj >= yi:
                        want = sum(d[2 * t] for t in range(0, yi + 1))
                        assert b.entries[i - 1][j - 1] == want
        # bottom block row and last block column are fully pivoted
        assert tuple(b.entries[k - 1]) == lay.col_cuts
        assert tuple(row[k - 1] for row in b.entries) == lay.row_cuts
        assert b.entries[k - 1][k - 1] == dy + dx


def test_image_conditions_characterize_the_image():
    # over F_2 at n=2, a cell matrix is an embedded representation exactly
    # when its block ranks are those of some embedded representation
    q = BipartiteQuiver(2)
    d = DimensionVector.of(1, 1, 1, 1, 1)
    lay = layout_for(q, d)
    dy, dx = d_y(d), d_x(d)
    embedded_keys = set()
    embedded_ranks = set()
    for v in iter_reps(q, d, 2):
        z = zelevinsky_map(v)
        embedded_keys.add(z.matrix.key())
        embedded_ranks.add(block_rank_numeric(z))
    accepted = 0
    total = 0
    for bits in product(range(2), repeat=dy * dx):
        star = ExactMatrix.from_rows(
            GF2, [list(bits[i * dx : (i + 1) * dx]) for i in range(dy)]
        )
        z = cell_matrix_from_star(star, lay)
        total += 1
        if block_rank_numeric(z) in embedded_ranks:
            accepted += 1
            assert z.matrix.key() in embedded_keys
    assert accepted == len(embedded_keys)
    assert total == 2 ** (dy * dx)


def test_monotone_staircase_property():
    q = BipartiteQuiver(2)
    for dims in [(1, 1, 1, 1, 1), (2, 2, 2, 2, 2), (0, 1, 2, 1, 0)]:
        d = DimensionVector(dims)
        count = 0
        for v in iter_reps(q, d, 2):
            b = block_rank_numeric(zelevinsky_map(v))
            k = 2 * q.n + 1
            # the entries with a zero row and column above and left
            e = [(0,) * (k + 1)] + [(0, *row) for row in b.entries]
            counts = block_counts(b)
            for i in range(1, k + 1):
                for j in range(1, k + 1):
                    assert e[i][j] >= e[i - 1][j]
                    assert e[i][j] >= e[i][j - 1]
                    assert counts[(i - 1) * k + j - 1] >= 0
            count += 1
            if count > 200:
                break


def test_cell_matrix_validation():
    q = BipartiteQuiver(1)
    d = DimensionVector.of(1, 1, 1)
    lay = layout_for(q, d)
    bad = ExactMatrix.from_rows(QQ, [[0, 1, 0], [0, 0, 1], [1, 0, 1]])
    with pytest.raises(InputError):
        from qloci.zelevinsky import ZelevinskyCellMatrix

        ZelevinskyCellMatrix(bad, lay)


def random_gf2_rep(q, d, rng):
    mats = []
    for h, t in q.arrows:
        rows, cols = d[h], d[t]
        mats.append(
            ExactMatrix.from_rows(GF2, [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)])
            if rows and cols
            else ExactMatrix.zeros(GF2, rows, cols)
        )
    return Representation(q, d, tuple(mats))


def test_block_rank_symbolic_switches_dims_and_n():
    # the lacing slots are cached for one n at a time: alternate two dims
    # vectors of the same n, then change n, and check every result against
    # the lacing diagram of its lace array, each summand on [lo, hi] adding
    # the cycle lo -> lo+1 -> ... -> hi -> lo, and against the numeric route
    from qloci.zelevinsky import _lacing_slots

    rng = random.Random(17)
    sequence = [
        (2, 1, 2, 1, 1), (1, 2, 1, 2, 2), (2, 1, 2, 1, 1), (1, 2, 1, 2, 2),
        (2, 1, 2), (2, 1, 2, 1, 1), (1, 2, 2, 1, 2, 1, 1),
    ]
    for dims in sequence:
        n = (len(dims) - 1) // 2
        q, d = BipartiteQuiver(n), DimensionVector(dims)
        lay, k = layout_for(q, d), len(dims)
        row = {a: i for i, a in enumerate(lay.row_positions)}
        col = {b: j for j, b in enumerate(lay.col_positions)}
        for _ in range(3):
            v = random_gf2_rep(q, d, rng)
            r = rank_array(v)
            want = [0] * (k * k)
            for (lo, hi), m in zip(interval_table(n).spans, rank_to_lace(r, d).values):
                for a in range(lo, hi):
                    want[row[a] * k + col[a + 1]] += m
                want[row[hi] * k + col[lo]] += m
            b = block_rank_symbolic(r, d)
            assert block_counts(b) == tuple(want)
            assert b == block_rank_numeric(zelevinsky_map(v))
    assert _lacing_slots.cache_info().currsize == 1


def test_block_rank_symbolic_refuses_an_invalid_rank_array():
    # no lace array has these ranks: the shift formula gives the summand on
    # [b1] a negative multiplicity, and with dims (1, 0, 1) the summands
    # through the arrows would need more than x1's dimension 0
    with pytest.raises(NotARankArrayError, match=r"multiplicity of \[b1\] would be -2"):
        block_rank_symbolic(rank1(2, 0, 0), DimensionVector.of(1, 1, 1))
    with pytest.raises(NotARankArrayError, match="vertex multiplicity at x1 would be -1"):
        block_rank_symbolic(rank1(1, 1, 1), DimensionVector.of(1, 0, 1))

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qloci import (
    ExactMatrix,
    FieldMismatchError,
    GF2,
    GF3,
    PrimeField,
    QQ,
    ShapeError,
    SingularMatrixError,
)
from qloci.matrices import prefix_block_ranks


def mat(field, rows):
    return ExactMatrix.from_rows(field, rows)


def naive_fraction_rank(m):
    # independent oracle: plain Gaussian elimination with Fractions
    rows = [[Fraction(v) for v in row] for row in m.data]
    cols = m.cols
    rank = 0
    lead = 0
    for col in range(cols):
        piv = next((r for r in range(lead, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        for r in range(lead + 1, len(rows)):
            if rows[r][col] != 0:
                f = rows[r][col] / rows[lead][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[lead])]
        lead += 1
        rank += 1
    return rank


def naive_mod_p_rank(m, p):
    # independent oracle: column-by-column Gaussian elimination on residues
    rows = [[int(v) % p for v in row] for row in m.data]
    rank = 0
    for col in range(m.cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] * inv % p
            if f:
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_rank_identity():
    assert ExactMatrix.identity(QQ, 2).rank() == 2


def test_rank_zero_columns():
    assert ExactMatrix.zeros(QQ, 3, 0).rank() == 0
    assert ExactMatrix.zeros(GF2, 0, 5).rank() == 0


def test_rank_gf2_example():
    m = mat(GF2, [[1, 0], [0, 1], [1, 0]])
    assert m.rank() == 2


def test_multiply_identity():
    m = mat(QQ, [[2, 3], [5, 7]])
    assert ExactMatrix.identity(QQ, 2).multiply(m) == m


def test_multiply_empty_contraction():
    a = ExactMatrix.zeros(QQ, 2, 0)
    b = ExactMatrix.zeros(QQ, 0, 3)
    prod = a.multiply(b)
    assert (prod.rows, prod.cols) == (2, 3)
    assert prod == ExactMatrix.zeros(QQ, 2, 3)


def test_multiply_example():
    a = mat(QQ, [[1, 1], [0, 1]])
    b = mat(QQ, [[1, 0], [1, 1]])
    assert a.multiply(b) == mat(QQ, [[2, 1], [1, 1]])


def test_multiply_shape_and_field_errors():
    a = mat(QQ, [[1, 2]])
    with pytest.raises(ShapeError):
        a.multiply(mat(QQ, [[1, 2]]))
    with pytest.raises(FieldMismatchError):
        a.multiply(mat(GF2, [[1], [0]]))


def test_inverse_examples():
    for size in range(4):
        ident = ExactMatrix.identity(QQ, size)
        assert ident.inverse() == ident
    assert mat(QQ, [[2]]).inverse() == mat(QQ, [["1/2"]])
    assert mat(QQ, [[1, 1], [0, 1]]).inverse() == mat(QQ, [[1, -1], [0, 1]])


def test_inverse_errors():
    with pytest.raises(ShapeError):
        mat(QQ, [[1, 2]]).inverse()
    with pytest.raises(SingularMatrixError):
        mat(QQ, [[1, 2], [2, 4]]).inverse()


def test_json_round_trip():
    m = mat(QQ, [[Fraction(1, 2), 3], [0, Fraction(-7, 5)]])
    assert ExactMatrix.from_json(m.to_json()) == m
    m2 = mat(GF3, [[1, 2], [0, 1]])
    assert ExactMatrix.from_json(m2.to_json()) == m2
    assert m2.to_json()["field"] == "Fp:3"


small_entries = st.integers(min_value=-9, max_value=9)


@st.composite
def random_matrix(draw, field=QQ, max_dim=5):
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    data = draw(
        st.lists(
            st.lists(small_entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return ExactMatrix.from_rows(field, data)


@given(random_matrix())
def test_rank_equals_transpose_rank(m):
    transpose = [[m.data[i][j] for i in range(m.rows)] for j in range(m.cols)]
    assert m.rank() == ExactMatrix(m.field, m.cols, m.rows, transpose).rank()


@given(random_matrix(max_dim=6))
def test_bareiss_agrees_with_naive_elimination(m):
    assert m.rank() == naive_fraction_rank(m)


@given(random_matrix(field=GF3, max_dim=5))
def test_modp_rank_agrees_with_independent_elimination(m):
    rows = [[int(v) % 3 for v in row] for row in m.data]
    rank = 0
    lead = 0
    for col in range(m.cols):
        piv = next((r for r in range(lead, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        inv = 1 if rows[lead][col] == 1 else 2
        for r in range(lead + 1, len(rows)):
            c = rows[r][col]
            if c:
                f = (c * inv) % 3
                rows[r] = [(a - f * b) % 3 for a, b in zip(rows[r], rows[lead])]
        lead += 1
        rank += 1
    assert m.rank() == rank


def test_block_identity_rank_sums():
    # identity blocks on a random block permutation: block column k holds
    # block row order[k], so every row and every column has exactly one 1
    rng = random.Random(5)
    for _ in range(20):
        sizes = [rng.randrange(0, 3) for _ in range(3)]
        order = rng.sample(range(3), 3)
        d = sum(sizes)
        rows = []
        for i, size in enumerate(sizes):
            at = sum(sizes[k] for k in order[: order.index(i)])
            rows += [[int(c == at + a) for c in range(d)] for a in range(size)]
        assert mat(QQ, rows).rank() == d


def test_inverse_round_trip():
    rng = random.Random(41)
    for size in range(1, 6):
        for _ in range(8):
            while True:
                m = ExactMatrix.from_rows(
                    QQ, [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
                )
                if m.rank() == size:
                    break
            assert m.inverse().multiply(m) == ExactMatrix.identity(QQ, size)
            assert m.multiply(m.inverse()) == ExactMatrix.identity(QQ, size)


def reference_rank(m):
    if m.field == QQ:
        return naive_fraction_rank(m)
    return naive_mod_p_rank(m, m.field.p)


def assert_prefix_ranks(m, row_cuts, col_cuts):
    grid = prefix_block_ranks(m, row_cuts, col_cuts)
    for a, rc in enumerate(row_cuts):
        for b, cc in enumerate(col_cuts):
            sub = ExactMatrix(m.field, rc, cc, [row[:cc] for row in m.data[:rc]])
            assert grid[a][b] == reference_rank(sub), (rc, cc)


def test_prefix_block_ranks_matches_direct_ranks():
    rng = random.Random(11)
    for field in (QQ, GF2, GF3, PrimeField(32003)):
        for _ in range(40):
            rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
            # about half the entries are zero, as in the block matrices ranked elsewhere
            if field == QQ:
                data = [
                    [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) * rng.randrange(2)
                     for _ in range(cols)]
                    for _ in range(rows)
                ]
            else:
                data = [[rng.randrange(0, 5) * rng.randrange(2) for _ in range(cols)]
                        for _ in range(rows)]
            # repeat a row now and then so that some rows fall in the span above them
            if rows > 2 and rng.random() < 0.5:
                data[-1] = list(data[rng.randrange(rows - 1)])
            m = ExactMatrix.from_rows(field, data)
            row_cuts = sorted(rng.sample(range(rows + 1), rng.randrange(1, rows + 2)))
            col_cuts = sorted(rng.sample(range(cols + 1), rng.randrange(1, cols + 2)))
            assert_prefix_ranks(m, row_cuts, col_cuts)
            assert m.rank() == reference_rank(m)


def test_prefix_block_ranks_dense_rational():
    # 32x31 over Q of rank 20: rows 20.. are combinations of rows above them
    rng = random.Random(7)
    cols = 31
    data = [
        [Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(cols)]
        for _ in range(20)
    ]
    for _ in range(12):
        a, b = rng.sample(range(len(data)), 2)
        s = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        data.append([x + s * y for x, y in zip(data[a], data[b])])
    m = ExactMatrix.from_rows(QQ, data)
    assert m.rank() == naive_fraction_rank(m) == 20
    assert_prefix_ranks(m, [0, 5, 13, 19, 20, 21, 26, 32], [0, 1, 7, 15, 19, 20, 24, 31])


def test_prefix_block_ranks_sparse_rational():
    # zeros in the pivot columns let the elimination skip stages; its rows
    # must still come out exact, or a later rank goes wrong
    m = mat(QQ, [
        ["-3", 1, 0, "-3/4", -1, -2],
        [0, 0, "2/3", 0, "-3/4", 0],
        [0, 3, 0, -5, 0, 2],
        ["5/3", 0, 0, 0, 0, 0],
        [0, 5, 0, -2, 0, 0],
        ["-5/3", 0, "2/3", 0, "-3/4", 0],
    ])
    assert_prefix_ranks(m, range(7), range(7))


def test_prime_field_rejects_composite():
    from qloci import InputError

    with pytest.raises(InputError):
        PrimeField(6)


def test_prime_test_is_exact_and_fast():
    from time import perf_counter

    from qloci import InputError
    from qloci.fields import _is_prime

    for p in (2, 3, 32003, 2**61 - 1):
        assert PrimeField(p).p == p
    # 561 is a Carmichael number; 2**64 + 13 is past the supported range
    for p in (0, 1, 6, 561, 2**64 + 13):
        with pytest.raises(InputError):
            PrimeField(p)
    # exact against trial division below 5000, and on a strong pseudoprime
    # to the bases 2, 3, 5 and 7
    for p in range(5000):
        assert _is_prime(p) == (p > 1 and all(p % f for f in range(2, int(p**0.5) + 1)))
    assert not _is_prime(3215031751)
    # trial division would take 5 * 10**7 steps on 10**16 + 61 and 2**31 on the last
    for p in (10**16 + 61, 10**14 + 31, 2**61 - 1, 2**64 - 59, (2**32 - 5) * (2**32 - 17)):
        start = perf_counter()
        assert _is_prime(p) == (p != (2**32 - 5) * (2**32 - 17))
        assert perf_counter() - start < 0.05

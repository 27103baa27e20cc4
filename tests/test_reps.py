import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from qloci import (
    BipartiteQuiver,
    DimensionVector,
    ExactMatrix,
    FieldMismatchError,
    GF2,
    GF3,
    InputError,
    Interval,
    LaceArray,
    NotARankArrayError,
    QQ,
    RankArray,
    Representation,
    ShapeError,
    TypeAQuiver,
    act,
    assemble_interval_matrix,
    direct_sum,
    indecomposable_rep,
    interval_table,
    lace_to_rank,
    rank_array,
    rank_to_lace,
    rep_from_lace,
    zero_rep,
)
from qloci.fields import PrimeField
from qloci.oracle import gl_elements, iter_reps
from qloci.reduction import bipartite_double, lift_rep
from qloci.serde import quiver_to_json, rep_from_json


def J(a, b):
    """The interval spanning edges a..b."""
    return Interval(a - 1, b)


def shared_arrows(a, b):
    """How many arrows the intervals a and b both span."""
    return len(set(range(a.lo + 1, a.hi + 1)) & set(range(b.lo + 1, b.hi + 1)))


@lru_cache(maxsize=None)
def rank_weights(n):
    """weights[j'][j] = ceil(shared arrows(j, j') / 2): the rank at j of the
    indecomposable on j'."""
    ivs = interval_table(n).intervals
    return tuple(tuple((shared_arrows(a, b) + 1) // 2 for b in ivs) for a in ivs)


def rep1(a1, b1, field=QQ):
    q = BipartiteQuiver(1)
    d = DimensionVector.of(1, 1, 1)
    return Representation(
        q,
        d,
        (
            ExactMatrix.from_rows(field, [[a1]]),
            ExactMatrix.from_rows(field, [[b1]]),
        ),
    )


def ranks_by_name(r):
    return {j.name(): v for j, v in r.as_dict().items()}


def test_interval_matrix_staircase_shape():
    # J=[a3,b6] on n=6: five block rows, four block columns, blocks placed
    # on the two staircase diagonals
    q = BipartiteQuiver(6)
    d = DimensionVector(tuple([1] * 13))
    rng = random.Random(3)
    mats = []
    for e in q.edges():
        mats.append(ExactMatrix.from_rows(QQ, [[rng.randint(1, 9)]]))
    v = Representation(q, d, tuple(mats))
    m = assemble_interval_matrix(v, J(5, 12))  # edges a3..b6
    assert (m.rows, m.cols) == (5, 4)
    # rows y2..y6, cols x6..x3; A_k at (y_{k-1}, x_k), B_k at (y_k, x_k)
    def val(e):
        return v.matrix(e).data[0][0]

    expect = [
        [0, 0, 0, val(5)],
        [0, 0, val(7), val(6)],
        [0, val(9), val(8), 0],
        [val(11), val(10), 0, 0],
        [val(12), 0, 0, 0],
    ]
    assert m == ExactMatrix.from_rows(QQ, expect)


def test_interval_matrix_vertex_convention():
    q = BipartiteQuiver(2)
    d = DimensionVector.of(1, 3, 2, 1, 1)
    v = zero_rep(q, d)
    m = assemble_interval_matrix(v, Interval.vertex(1))  # {x1}
    assert (m.rows, m.cols) == (3, 0)


def test_interval_matrix_n1_stack():
    v = rep1(2, 5)
    m = assemble_interval_matrix(v, J(1, 2))
    assert m == ExactMatrix.from_rows(QQ, [[2], [5]])


def test_rank_function_examples():
    ind = indecomposable_rep(BipartiteQuiver(1), J(1, 2))
    assert assemble_interval_matrix(ind, J(1, 1)).rank() == 1
    q = BipartiteQuiver(2)
    z = zero_rep(q, DimensionVector.of(2, 1, 2, 1, 2))
    for j in interval_table(2).intervals:
        assert assemble_interval_matrix(z, j).rank() == 0
    # an indecomposable with four arrows has rank ceil(4/2)=2 on its own interval
    ind4 = indecomposable_rep(q, J(1, 4))
    assert assemble_interval_matrix(ind4, J(1, 4)).rank() == 2


def test_rank_array_examples():
    assert ranks_by_name(rank_array(rep1(1, 1)))["[a1]"] == 1
    r = rank_array(rep1(1, 0))
    by = ranks_by_name(r)
    assert (by["[a1]"], by["[b1]"], by["[a1,b1]"]) == (1, 0, 1)
    z = rank_array(zero_rep(BipartiteQuiver(1), DimensionVector.of(1, 1, 1)))
    assert set(z.values) == {0}


def test_lace_to_rank_examples():
    table = interval_table(1)
    full = table.index[J(1, 2)]
    vals = [0] * len(table)
    vals[full] = 1
    r = lace_to_rank(LaceArray(1, tuple(vals)))
    by = ranks_by_name(r)
    assert (by["[a1]"], by["[b1]"], by["[a1,b1]"]) == (1, 1, 1)

    # multiplicities on vertices only give the zero rank array
    vals = [2, 1, 3] + [0, 0, 0]
    assert set(lace_to_rank(LaceArray(1, tuple(vals))).values) == {0}

    vals = [0] * len(table)
    vals[table.index[J(1, 1)]] = 1
    vals[table.index[Interval.vertex(2)]] = 1
    by = ranks_by_name(lace_to_rank(LaceArray(1, tuple(vals))))
    assert (by["[a1]"], by["[b1]"], by["[a1,b1]"]) == (1, 0, 1)


def rank1(a, b, c):
    table = interval_table(1)
    vals = [0] * len(table)
    vals[table.index[J(1, 1)]] = a
    vals[table.index[J(2, 2)]] = b
    vals[table.index[J(1, 2)]] = c
    return RankArray(1, tuple(vals))


def test_rank_to_lace_examples():
    d = DimensionVector.of(1, 1, 1)
    s = rank_to_lace(rank1(1, 1, 1), d)
    by = {j.name(): v for j, v in s.as_dict().items()}
    assert by["[a1,b1]"] == 1 and sum(s.values) == 1

    s = rank_to_lace(rank1(1, 0, 1), d)
    by = {j.name(): v for j, v in s.as_dict().items()}
    assert by["[a1]"] == 1 and by["y1"] == 1 and sum(s.values) == 2

    s = rank_to_lace(rank1(0, 0, 0), d)
    by = {j.name(): v for j, v in s.as_dict().items()}
    assert (by["y0"], by["x1"], by["y1"]) == (1, 1, 1)


def interval_ranks(v):
    """The per-interval reference: assemble and rank each interval matrix."""
    table = interval_table(v.quiver.n)
    ranks = [0] * table.vertex_count
    ranks += [assemble_interval_matrix(v, j).rank() for j in table.arrow_intervals]
    return RankArray(v.quiver.n, tuple(ranks))


def random_rep(q, dims, field, rng):
    def entry():
        if rng.random() < 0.4:
            return 0
        if field == QQ:
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return rng.randrange(field.p)

    mats = tuple(
        ExactMatrix(
            field,
            dims[h],
            dims[t],
            [[field.normalize(entry()) for _ in range(dims[t])] for _ in range(dims[h])],
        )
        for h, t in q.arrows
    )
    return Representation(q, dims, mats)


@pytest.mark.parametrize("field", [GF2, GF3, PrimeField(32003), QQ], ids=str)
def test_rank_array_matches_interval_matrices_random(field):
    rng = random.Random(field.tag)
    for n in range(5):
        q = BipartiteQuiver(n)
        for _ in range(40):
            # dims 0..3, so zero-dimensional vertices come up often
            dims = DimensionVector(tuple(rng.randint(0, 3) for _ in q.positions()))
            v = random_rep(q, dims, field, rng)
            assert rank_array(v) == interval_ranks(v)


def test_rank_array_matches_interval_matrices_lifted_census():
    ctx = bipartite_double(TypeAQuiver("RRLL"))
    count = 0
    for v in iter_reps(ctx.source, DimensionVector.of(1, 2, 1, 2, 2), 2):
        lifted = lift_rep(ctx, v)
        assert rank_array(lifted) == interval_ranks(lifted)
        count += 1
    assert count == 2**10


def test_rank_array_takes_one_profile_per_left_endpoint():
    # a call-event hook sees every Python call, however the callee is bound
    calls = []

    def hook(frame, event, arg):
        if event == "call":
            calls.append((frame.f_code.co_filename, frame.f_code.co_name))

    rng = random.Random(29)
    for n in range(5):
        q = BipartiteQuiver(n)
        v = random_rep(q, DimensionVector(tuple(rng.randint(1, 2) for _ in q.positions())), GF3, rng)
        calls.clear()
        sys.setprofile(hook)
        try:
            rank_array(v)
        finally:
            sys.setprofile(None)
        profiles = sum(name == "_pivot_profile" for _, name in calls)
        assert profiles <= 2 * n and (profiles > 0) == (n > 0)
        assert not [c for c in calls if c[0].endswith("zelevinsky.py")]


def test_validate_rank_array():
    d = DimensionVector.of(1, 1, 1)
    for r in (rank_array(rep1(1, 1)), rank1(0, 0, 0)):
        assert lace_to_rank(rank_to_lace(r, d)) == r
    with pytest.raises(NotARankArrayError):
        rank_to_lace(rank1(0, 0, 1), d)


def test_rank_to_lace_error_messages_name_the_first_negative_multiplicity():
    cases = [
        (1, (0, 0, 0, 0, 0, 1), (1, 1, 1), "multiplicity of [a1] would be -1"),
        (1, (0, 0, 0, 2, 1, 2), (1, 2, 2), "multiplicity of [a1] would be -1"),
        (1, (0, 0, 0, 1, 2, 0), (2, 0, 0), "multiplicity of [a1,b1] would be -1"),
        (1, (0, 0, 0, 2, 2, 0), (1, 0, 2), "vertex multiplicity at y0 would be -1"),
        (1, (0, 0, 0, 2, 2, 0), (0, 2, 0), "vertex multiplicity at y0 would be -2"),
        (1, (0, 0, 0, 1, 2, 1), (1, 0, 2), "vertex multiplicity at x1 would be -2"),
    ]
    for n, values, dims, message in cases:
        with pytest.raises(NotARankArrayError) as info:
            rank_to_lace(RankArray(n, values), DimensionVector(dims))
        assert str(info.value) == message


def weighted_rank_sum(s):
    """lace_to_rank by the formula, one weights row per summand type."""
    weights = rank_weights(s.n)
    return tuple(
        sum(m * weights[j][i] for j, m in enumerate(s.values)) for i in range(len(weights))
    )


@pytest.mark.parametrize("scale", [1, 300, 70_000, 2**33, 2**70])
def test_lace_rank_round_trip_with_wide_fields(scale):
    # totals from under 256 up past 2**64: one- to ten-byte packed fields
    rng = random.Random(scale)
    for n in (0, 1, 2, 3):
        table = interval_table(n)
        for _ in range(20):
            s = LaceArray(n, tuple(rng.randrange(scale + 1) for _ in range(len(table))))
            r = lace_to_rank(s)
            assert r.values == weighted_rank_sum(s)
            assert rank_to_lace(r, s.dims()) == s


@pytest.mark.parametrize("dims", [(1, 300, 1), (2, 260, 1, 2, 1)])
def test_enumerate_orbits_with_two_byte_rank_fields(dims):
    from qloci.poset import enumerate_orbits

    d = DimensionVector(dims)
    n = (len(dims) - 1) // 2
    nodes = enumerate_orbits(BipartiteQuiver(n), d)
    assert nodes
    for node in nodes:
        assert node.rank.values == weighted_rank_sum(node.lace)
        assert rank_to_lace(node.rank, d) == node.lace


@pytest.mark.parametrize("dims", [(1, 300, 1), (1, 70_000, 2)])
def test_lace_search_packs_wide_rank_fields(dims):
    # the packed rank arrays and block counts the search carries in two- and
    # three-byte fields, against the weight formula and the symbolic block
    # ranks (the permutations of these dims are too large to enumerate orbits)
    from qloci.perms import block_counts
    from qloci.poset import _lace_search
    from qloci.quiver import unpack_fields
    from qloci.zelevinsky import block_rank_symbolic

    d = DimensionVector(dims)
    table = interval_table((len(dims) - 1) // 2)
    count, blocks = len(table), len(dims) ** 2
    found = 0
    for values, packed, width in _lace_search(table, d, 10**7):
        assert 256**width > sum(dims) >= 256 ** (width - 1) >= 256
        assert packed < 256 ** (width * (count + blocks))
        s = LaceArray(table.n, values)
        assert s.dims() == d
        fields = unpack_fields(packed, width, count + blocks)
        assert fields[:count] == weighted_rank_sum(s)
        r = RankArray(table.n, fields[:count])
        assert fields[count:] == block_counts(block_rank_symbolic(r, d))
        found += 1
    assert found > 0


def test_arrow_coverage_matches_the_plain_vertex_sums():
    # the prefix sums over the arrow spans, read through LaceArray.dims and
    # rank_to_lace, against summing each vertex's intervals one by one
    from qloci.poset import iter_lace_values

    for n in range(4):
        q, table = BipartiteQuiver(n), interval_table(n)
        holders = [
            [i for i, j in enumerate(table.intervals) if j.lo <= p <= j.hi]
            for p in range(table.vertex_count)
        ]
        for dims in product(range(3), repeat=2 * n + 1):
            d = DimensionVector(dims)
            for values in iter_lace_values(q, d):
                s = LaceArray(n, values)
                plain = tuple(sum(values[i] for i in held) for held in holders)
                assert s.dims().values == plain == dims
                assert rank_to_lace(lace_to_rank(s), d) == s


def test_lace_to_rank_refuses_negative_multiplicities():
    with pytest.raises(InputError, match="negative"):
        lace_to_rank(LaceArray(1, (1, 0, 0, -1, 0, 0)))
    with pytest.raises(InputError, match="negative"):
        LaceArray(1, (1, 0, 0, -1, 0, 0)).dims()


def test_rank_array_refuses_an_oriented_representation():
    v = zero_rep(TypeAQuiver("RR"), DimensionVector.of(1, 1, 1))
    with pytest.raises(InputError, match="'RR'"):
        rank_array(v)


def test_indecomposable_examples():
    q = BipartiteQuiver(2)
    ind = indecomposable_rep(q, Interval.vertex(0))
    assert list(ind.dims) == [1, 0, 0, 0, 0]
    assert all(m == ExactMatrix.zeros(QQ, m.rows, m.cols) for m in ind.arrows)

    ind = indecomposable_rep(BipartiteQuiver(1), J(1, 2))
    assert list(ind.dims) == [1, 1, 1]
    assert ind.matrix(1) == ExactMatrix.identity(QQ, 1)
    assert ind.matrix(2) == ExactMatrix.identity(QQ, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_indecomposable_rank_is_ceil_of_shared_arrows(n):
    q = BipartiteQuiver(n)
    table = interval_table(n)
    for jp in table.intervals:
        r = rank_array(indecomposable_rep(q, jp))
        for j in table.intervals:
            assert r[j] == (shared_arrows(j, jp) + 1) // 2


def test_direct_sum():
    u = rep1(1, 0)
    z = zero_rep(BipartiteQuiver(1), DimensionVector.of(1, 0, 2))
    s = direct_sum(u, z)
    assert list(s.dims) == [2, 1, 3]
    ru = rank_array(u)
    rz = rank_array(z)
    rs = rank_array(s)
    assert rs.values == tuple(a + b for a, b in zip(ru.values, rz.values))

    q = BipartiteQuiver(1)
    both = direct_sum(indecomposable_rep(q, J(1, 1)), indecomposable_rep(q, Interval.vertex(2)))
    assert list(both.dims) == [1, 1, 1]
    assert both.matrix(1).data == [[1]]
    assert both.matrix(2).data == [[0]]


def test_direct_sum_rank_additivity_random():
    q = BipartiteQuiver(2)
    d = DimensionVector.of(1, 2, 1, 1, 1)
    rng = random.Random(7)
    reps = list(iter_reps(q, d, 2))
    for _ in range(10):
        u, v = rng.choice(reps), rng.choice(reps)
        ru, rv, rs = rank_array(u), rank_array(v), rank_array(direct_sum(u, v))
        assert rs.values == tuple(a + b for a, b in zip(ru.values, rv.values))


def random_group(q, dims, p, rng):
    els = {k: gl_elements(k, p) for k in set(dims)}
    return tuple(rng.choice(els[dims[pos]]) for pos in q.positions())


def test_act_identity_and_invariance():
    q = BipartiteQuiver(2)
    d = DimensionVector.of(1, 2, 2, 1, 1)
    rng = random.Random(13)
    reps = [next(iter_reps(q, d, 3)) for _ in range(1)]
    v = None
    for v in iter_reps(q, d, 3, ceiling=2**25):
        break
    ident = tuple(ExactMatrix.identity(GF3, d[pos]) for pos in q.positions())
    assert act(ident, v) == v
    for _ in range(5):
        g = random_group(q, d, 3, rng)
        assert rank_array(act(g, v)) == rank_array(v)


def test_act_is_group_action():
    q = BipartiteQuiver(1)
    d = DimensionVector.of(2, 1, 2)
    rng = random.Random(17)
    v = zero_rep(q, d, GF3)
    v = Representation(
        q,
        d,
        (
            ExactMatrix.from_rows(GF3, [[1], [2]]),
            ExactMatrix.from_rows(GF3, [[0], [1]]),
        ),
    )
    for _ in range(5):
        g = random_group(q, d, 3, rng)
        h = random_group(q, d, 3, rng)
        gh = tuple(a.multiply(b) for a, b in zip(g, h))
        assert act(g, act(h, v)) == act(gh, v)


def test_round_trip_small_exhaustive():
    # every lace array with per-vertex dimension <= 2 at n <= 2
    from qloci.poset import iter_lace_values

    for n in (0, 1, 2):
        q = BipartiteQuiver(n)
        for dims in product(range(3), repeat=2 * n + 1):
            d = DimensionVector(dims)
            for values in iter_lace_values(q, d):
                s = LaceArray(n, values)
                r = lace_to_rank(s)
                assert rank_to_lace(r, d) == s


def test_krull_schmidt_realization():
    q = BipartiteQuiver(2)
    rng = random.Random(23)
    for v in rng.sample(list(iter_reps(q, DimensionVector.of(1, 1, 2, 1, 1), 2)), 20):
        r = rank_array(v)
        s = rank_to_lace(r, v.dims)
        w = rep_from_lace(q, s, GF2)
        assert w.dims == v.dims
        assert rank_array(w) == r


@pytest.mark.parametrize("q", [BipartiteQuiver(2), TypeAQuiver("RRLL")])
def test_representation_checks_follow_the_arrow_table(q):
    dims = DimensionVector.of(1, 2, 1, 3, 2)
    z = zero_rep(q, dims, GF3)
    assert [(m.rows, m.cols) for m in z.arrows] == [(dims[h], dims[t]) for h, t in q.arrows]
    with pytest.raises(ShapeError):
        Representation(q, dims, z.arrows[:-1])
    h, t = q.arrows[0]
    with pytest.raises(ShapeError):
        Representation(q, dims, (ExactMatrix.zeros(GF3, dims[h] + 1, dims[t]),) + z.arrows[1:])
    with pytest.raises(FieldMismatchError):
        Representation(q, dims, (ExactMatrix.zeros(GF2, dims[h], dims[t]),) + z.arrows[1:])
    # only the first arrow is given; the missing keys become zero matrices
    first = ExactMatrix(GF3, dims[h], dims[t], [[1] * dims[t] for _ in range(dims[h])])
    obj = {
        "quiver": quiver_to_json(q),
        "dims": list(dims.values),
        "arrows": {q.arrow_names[0]: first.to_json()},
    }
    v = rep_from_json(obj)
    assert v == Representation(q, dims, (first,) + z.arrows[1:])

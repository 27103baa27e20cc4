import pytest

from qloci import (
    BipartiteQuiver,
    DimensionVector,
    GuardExceededError,
    Permutation,
    brute_orbit_partition,
    bruhat_via_covers,
    gl_elements,
    orbit_partition,
    rank_array,
    verify_rank_determines_orbit,
)
from qloci import serde
from qloci.oracle import gl_order, iter_reps, space_dimension
from qloci.poset import iter_lace_values


def test_enumerate_reps_counts():
    q = BipartiteQuiver(1)
    d = DimensionVector.of(1, 1, 1)
    assert len(list(iter_reps(q, d, 2))) == 4
    assert len(list(iter_reps(q, d, 3))) == 9
    assert len(list(iter_reps(q, DimensionVector.of(0, 0, 0), 2))) == 1


def test_enumerate_reps_guard():
    q = BipartiteQuiver(1)
    with pytest.raises(GuardExceededError):
        list(iter_reps(q, DimensionVector.of(2, 2, 2), 2, ceiling=10))


def test_enumeration_is_deterministic():
    q = BipartiteQuiver(1)
    d = DimensionVector.of(1, 1, 1)
    a = [rep.key() for rep in iter_reps(q, d, 3)]
    b = [rep.key() for rep in iter_reps(q, d, 3)]
    assert a == b == sorted(a)


def test_gl_orders_and_elements():
    assert gl_order(1, 2) == 1
    assert gl_order(2, 2) == 6
    assert gl_order(1, 3) == 2
    assert gl_order(2, 3) == 48
    assert len(gl_elements(2, 3)) == 48
    assert len(gl_elements(0, 2)) == 1


def test_brute_partition_n1_p2():
    q = BipartiteQuiver(1)
    d = DimensionVector.of(1, 1, 1)
    census = orbit_partition(q, d, 2)
    assert sorted(census.sizes) == [1, 1, 1, 1]


def test_brute_partition_n1_p3():
    q = BipartiteQuiver(1)
    d = DimensionVector.of(1, 1, 1)
    census = orbit_partition(q, d, 3)
    assert sorted(census.sizes) == [1, 2, 2, 4]
    assert sum(census.sizes) == 9


def test_brute_partition_zero_dims():
    q = BipartiteQuiver(1)
    census = orbit_partition(q, DimensionVector.of(0, 0, 0), 2)
    assert census.sizes == (1,)


def test_gl_elements_count_mismatch_is_a_typed_error(monkeypatch):
    import qloci.oracle
    from qloci.errors import InternalCheckError

    monkeypatch.setattr(qloci.oracle, "gl_order", lambda k, p: 7)
    with pytest.raises(InternalCheckError):
        gl_elements(2, 2)


def test_group_guard():
    q = BipartiteQuiver(1)
    d = DimensionVector.of(2, 2, 2)
    points = list(iter_reps(q, d, 3))
    with pytest.raises(GuardExceededError):
        brute_orbit_partition(points, q, d, 3, ceiling=100)


def test_orbit_sizes_divide_group_order():
    q = BipartiteQuiver(1)
    d = DimensionVector.of(2, 1, 1)
    census = orbit_partition(q, d, 3)
    group = 1
    for k in d:
        group *= gl_order(k, 3)
    for size in census.sizes:
        assert group % size == 0


def test_verify_rank_determines_orbit_examples():
    q = BipartiteQuiver(1)
    assert verify_rank_determines_orbit(q, DimensionVector.of(1, 1, 1), 2)
    assert verify_rank_determines_orbit(q, DimensionVector.of(1, 1, 1), 3)
    q2 = BipartiteQuiver(2)
    assert verify_rank_determines_orbit(q2, DimensionVector.of(1, 1, 1, 1, 1), 2)
    assert verify_rank_determines_orbit(q2, DimensionVector.of(1, 2, 1, 1, 1), 2)


def test_orbit_count_matches_lace_count():
    q = BipartiteQuiver(1)
    for dims in [(1, 1, 1), (2, 1, 1), (1, 2, 2)]:
        d = DimensionVector(dims)
        census = orbit_partition(q, d, 2)
        assert len(census.orbits) == sum(1 for _ in iter_lace_values(q, d))


def test_census_sizes_sum_to_space_size():
    q = BipartiteQuiver(2)
    d = DimensionVector.of(1, 1, 2, 1, 0)
    census = orbit_partition(q, d, 2)
    assert sum(census.sizes) == 2 ** space_dimension(q, d)


def test_census_json():
    q = BipartiteQuiver(1)
    census = orbit_partition(q, DimensionVector.of(1, 1, 1), 2)
    payload = serde.census_to_json(census, rank_array)
    assert payload["p"] == 2
    assert len(payload["orbits"]) == 4
    for orbit in payload["orbits"]:
        assert {"size", "rank_array"} <= set(orbit)


def test_bruhat_via_covers_structure():
    order = bruhat_via_covers(2)
    assert order.leq(Permutation((1, 2)), Permutation((2, 1)))

    order3 = bruhat_via_covers(3)
    chains = 0
    from itertools import permutations as iperm

    elems = [Permutation(w) for w in iperm(range(1, 4))]
    top = Permutation((3, 2, 1))
    bottom = Permutation((1, 2, 3))
    for u in elems:
        assert order3.leq(bottom, u)
        assert order3.leq(u, top)
        chains += 1
    assert chains == 6
    mids = [u for u in elems if u not in (top, bottom)]
    incomparable = [
        (u, v) for u in mids for v in mids if u != v and not order3.leq(u, v) and not order3.leq(v, u)
    ]
    assert incomparable  # the two length-1 elements are incomparable


def test_bruhat_via_covers_guard():
    with pytest.raises(GuardExceededError):
        bruhat_via_covers(7)

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qloci import (
    BipartiteQuiver,
    DimensionVector,
    InputError,
    Interval,
    TypeAQuiver,
    interval_join,
    interval_meet,
    interval_table,
)
from qloci.quiver import edge_name, field_width, pack_fields, unpack_fields, vertex_name
from qloci.serde import interval_to_json


def J(first_edge, last_edge):
    """The interval spanning edges first_edge..last_edge."""
    return Interval(first_edge - 1, last_edge)


def test_enumerate_intervals_n1():
    names = [j.name() for j in interval_table(1).intervals]
    assert names == ["y0", "x1", "y1", "[a1]", "[a1,b1]", "[b1]"]


def test_enumerate_intervals_counts():
    assert len(interval_table(2).intervals) == 15
    assert len(interval_table(0).intervals) == 1


@pytest.mark.parametrize("n", range(5))
def test_enumeration_matches_naive_double_loop(n):
    got = set(interval_table(n).intervals)
    want = {Interval.vertex(p) for p in range(2 * n + 1)}
    for a in range(1, 2 * n + 1):
        for b in range(1, 2 * n + 1):
            if a <= b:
                want.add(J(a, b))
    assert got == want


def test_vertex_and_edge_names():
    assert [vertex_name(p) for p in range(5)] == ["y0", "x1", "y1", "x2", "y2"]
    assert [edge_name(e) for e in range(1, 5)] == ["a1", "b1", "a2", "b2"]
    assert edge_name(0) == "b0"  # phantom left edge
    assert interval_to_json(Interval.vertex(0)) == {"vertex": "y0"}
    assert interval_to_json(J(1, 4)) == {"left": "a1", "right": "b2"}


def test_shift_examples():
    assert J(3, 4).shift_left() == J(2, 3)  # [a2,b2] -> [b1,a2]
    assert J(1, 2).shift_left() == J(0, 1)  # [a1,b1] -> [b0,a1], b0 phantom
    assert J(1, 1).shift_right() == J(2, 2)  # [a1] -> [b1]
    with pytest.raises(InputError):
        Interval.vertex(2).shift_left()


def test_meet_join_examples():
    # shifts of J=[a1]: J_L = [b0], J_R = [b1]
    jl, jr = J(1, 1).shift_left(), J(1, 1).shift_right()
    assert interval_meet(jl, jr) is None
    assert interval_join(jl, jr) == J(0, 2)
    assert interval_meet(J(1, 2), J(2, 2)) == J(2, 2)
    assert interval_meet(J(1, 1), J(2, 2)) == Interval.vertex(1)


def test_arrow_count():
    assert Interval.vertex(0).arrow_count == 0
    assert J(1, 2).arrow_count == 2
    assert J(0, 2).arrow_count == 3  # [b0,b1] with phantom b0


spans = st.tuples(st.integers(0, 7), st.integers(0, 7)).map(
    lambda t: Interval(min(t), max(t) + 1)
)


@given(spans)
def test_shift_round_trip(j):
    assert j.shift_left().shift_right() == j
    assert j.shift_right().shift_left() == j


@given(spans)
def test_meet_join_arrow_count_relations(j):
    jl, jr = j.shift_left(), j.shift_right()
    meet = interval_meet(jl, jr)
    join = interval_join(jl, jr)
    assert join.arrow_count == j.arrow_count + 2
    if meet is not None:
        assert join.arrow_count - meet.arrow_count == 4
    # against a single shift the counts differ by two
    meet_l = interval_meet(j, jl)
    assert meet_l is not None
    assert interval_join(j, jl).arrow_count - meet_l.arrow_count == 2


def test_truncate():
    assert J(1, 2).truncate(1) == J(1, 2)
    assert Interval(0, 3).truncate(1) == Interval(0, 2)  # clip phantom a2
    assert Interval(-1, 0).truncate(1) == Interval.vertex(0)
    assert Interval(3, 3).truncate(1) is None or Interval(3, 3).truncate(1).is_vertex


def test_interval_table_shift_rows_signs():
    table = interval_table(2)
    for k, j in enumerate(table.arrow_intervals):
        sign = table.shift_rows[k][0]
        assert sign == (1 if j.arrow_count % 2 == 0 else -1)


def test_type_a_quiver():
    q = TypeAQuiver("RRLL")
    assert q.vertex_count == 5
    assert q.head_vertex(1) == 1 and q.tail_vertex(1) == 0
    assert q.head_vertex(3) == 2 and q.tail_vertex(3) == 3
    with pytest.raises(InputError):
        TypeAQuiver("RX")


def test_arrow_tables_by_hand():
    q = BipartiteQuiver(2)
    assert q.arrows == ((0, 1), (2, 1), (2, 3), (4, 3))
    assert q.arrow_names == ("a1", "b1", "a2", "b2")
    o = TypeAQuiver("RRLL")
    assert o.arrows == ((1, 0), (2, 1), (2, 3), (3, 4))
    assert o.arrow_names == ("g1", "g2", "g3", "g4")
    # computed once per instance
    assert q.arrows is q.arrows and o.arrow_names is o.arrow_names
    assert BipartiteQuiver(0).arrows == () and TypeAQuiver("").arrow_names == ()


def test_dimension_vector():
    d = DimensionVector.of(1, 2, 3)
    assert d[1] == 2 and len(d) == 3
    with pytest.raises(InputError):
        DimensionVector.of(1, -1)


@pytest.mark.parametrize("top, width", [(127, 1), (128, 2), (32767, 2), (32768, 3)])
def test_pack_fields_round_trip_across_the_guard_byte(top, width):
    # 2 * top + 1 needs one byte more from top = 128 and from top = 32768 on
    rows = [(top, 0, 1), (0, top, top - 1), (5, 5, top)]
    packed, guard = pack_fields(rows)
    assert field_width(2 * top + 1) == width
    for i, row in enumerate(rows):
        assert unpack_fields(packed[i], width, len(row)) == row
    # the guard bits are the top bits of the fields, clear in every row
    assert unpack_fields(guard, width, 3) == (1 << 8 * width - 1,) * 3
    assert all(x & guard == 0 for x in packed)


def test_pack_fields_takes_linear_time():
    # as many entries as the rank table of a permutation of 600
    row = [i % 601 for i in range(360_000)]
    start = time.perf_counter()
    packed, _ = pack_fields([row])
    assert time.perf_counter() - start < 1.0
    assert unpack_fields(packed[0], 2, len(row)) == tuple(row)

import time

import pytest

from qloci import (
    BipartiteQuiver,
    DimensionVector,
    InputError,
    Interval,
    TypeAQuiver,
    interval_table,
)
from qloci.quiver import (
    IntervalTable,
    edge_name,
    field_width,
    pack_fields,
    unpack_fields,
    vertex_name,
)
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


def test_arrow_count():
    assert Interval.vertex(0).arrow_count == 0
    assert J(1, 2).arrow_count == 2
    assert J(0, 2).arrow_count == 3  # [b0,b1] with phantom b0


def clipped_slot(table, lo, hi):
    """The slot of a span clipped to the quiver, by lookup; -1 when the
    span is empty or keeps no arrow."""
    lo, hi = max(lo, 0), min(hi, 2 * table.n)
    return table.index[Interval(lo, hi)] if lo < hi else -1


@pytest.mark.parametrize("n", range(6))
def test_rank_slot_of_span_clips_to_the_quiver(n):
    table = interval_table(n)
    for lo in range(-3, 2 * n + 4):
        for hi in range(-3, 2 * n + 4):
            assert table.rank_slot_of_span(lo, hi) == clipped_slot(table, lo, hi), (lo, hi)
    assert table.rank_slot_of_span(-1, 0) == -1  # only the phantom edge 0


@pytest.mark.parametrize("n", range(6))
def test_shift_rows_follow_the_shift_formula(n):
    # per arrow interval J: J_L and J_R are J moved one step left and right,
    # and the row holds the sign of J and the clipped slots of J_L, J_R,
    # their meet (common subpath) and their join (convex hull)
    table = interval_table(n)
    want = []
    for j in table.arrow_intervals:
        left, right = (j.lo - 1, j.hi - 1), (j.lo + 1, j.hi + 1)
        meet = (max(left[0], right[0]), min(left[1], right[1]))
        join = (min(left[0], right[0]), max(left[1], right[1]))
        sign = 1 if j.arrow_count % 2 == 0 else -1
        slots = tuple(clipped_slot(table, *span) for span in (left, right, meet, join))
        want.append((sign,) + slots)
    assert table.shift_rows == tuple(want)


def shared_edges(a, b):
    """How many arrows the intervals a and b both span."""
    return len(set(range(a.lo + 1, a.hi + 1)) & set(range(b.lo + 1, b.hi + 1)))


@pytest.mark.parametrize("n", range(6))
def test_packed_weights_unpack_to_half_the_shared_arrows(n):
    table = interval_table(n)
    count = len(table)
    for width in (1, 2, 3):
        for i, a in enumerate(table.intervals):
            row = table.packed_weight(i, width)
            assert row is table.packed_weight(i, width)  # packed once per width
            want = tuple((shared_edges(a, b) + 1) // 2 for b in table.intervals)
            assert unpack_fields(row, width, count) == want


def test_interval_table_builds_in_linear_time():
    # n = 100 has 20,301 intervals; no table per pair of them is built
    start = time.perf_counter()
    table = IntervalTable(100)
    assert time.perf_counter() - start < 1.0
    assert len(table) == len(table.intervals) == 20_301


def test_interval_table_shift_rows_signs():
    table = interval_table(2)
    for k, j in enumerate(table.arrow_intervals):
        sign = table.shift_rows[k][0]
        assert sign == (1 if j.arrow_count % 2 == 0 else -1)


def test_type_a_quiver():
    q = TypeAQuiver("RRLL")
    assert q.vertex_count == 5
    assert q.arrows[0] == (1, 0)
    assert q.arrows[2] == (2, 3)
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

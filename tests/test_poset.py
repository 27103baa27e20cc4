import pytest

from qloci import (
    BipartiteQuiver,
    DimensionVector,
    GuardExceededError,
    Permutation,
    build_poset,
    dense_orbit,
    enumerate_orbits,
    hasse,
    orbit_dimension,
    order_equivalence_report,
    poset_to_dot,
)
from qloci.poset import iter_lace_values
from qloci.serde import poset_to_json


def diamond():
    return BipartiteQuiver(1), DimensionVector.of(1, 1, 1)


def arrow_ranks(node):
    return node.rank.values[3:]


def test_enumerate_orbits_diamond():
    q, d = diamond()
    nodes = enumerate_orbits(q, d)
    assert len(nodes) == 4
    assert {arrow_ranks(n) for n in nodes} == {(1, 1, 1), (1, 1, 0), (0, 1, 1), (0, 0, 0)}


def test_enumerate_orbits_trivial_cases():
    q = BipartiteQuiver(1)
    assert len(enumerate_orbits(q, DimensionVector.of(0, 0, 0))) == 1
    assert len(enumerate_orbits(q, DimensionVector.of(1, 1, 0))) == 2


def test_hasse_diamond():
    q, d = diamond()
    poset = build_poset(q, d)
    assert len(poset.covers) == 4
    indeg = [0] * 4
    outdeg = [0] * 4
    for a, b in poset.covers:
        outdeg[a] += 1
        indeg[b] += 1
    # one bottom, one top, two middles
    assert sorted(indeg) == [0, 1, 1, 2]
    assert sorted(outdeg) == [0, 1, 1, 2]


def test_hasse_singleton():
    q = BipartiteQuiver(1)
    d = DimensionVector.of(0, 0, 0)
    poset = build_poset(q, d)
    assert len(poset.nodes) == 1 and poset.covers == ()


def test_unique_max_and_min():
    from itertools import product

    q = BipartiteQuiver(2)
    for dims in product(range(2), repeat=5):
        d = DimensionVector(dims)
        nodes = enumerate_orbits(q, d)
        tops = [a for a in nodes if all(b.rank.leq(a.rank) for b in nodes)]
        bottoms = [a for a in nodes if all(a.rank.leq(b.rank) for b in nodes)]
        assert len(tops) == 1 and len(bottoms) == 1


def test_dense_orbit_diamond():
    q, d = diamond()
    node = dense_orbit(q, d)
    assert arrow_ranks(node) == (1, 1, 1)
    assert node.permutation == Permutation.identity(3)
    assert node.dimension == 2


def test_dense_orbit_degenerate_dims():
    from qloci import Interval

    q = BipartiteQuiver(1)
    node = dense_orbit(q, DimensionVector.of(0, 0, 0))
    assert set(node.rank.values) == {0}
    node = dense_orbit(q, DimensionVector.of(1, 1, 0))
    assert node.rank[Interval.from_edges(1, 1)] == 1


def test_dense_orbit_reuses_given_nodes():
    q = BipartiteQuiver(2)
    d = DimensionVector.of(1, 2, 2, 1, 1)
    nodes = enumerate_orbits(q, d)
    assert dense_orbit(q, d, nodes=nodes) == dense_orbit(q, d)
    assert dense_orbit(q, d, nodes=nodes) in nodes


def test_orbit_dimensions_diamond():
    q, d = diamond()
    nodes = enumerate_orbits(q, d)
    dims_by_rank = {arrow_ranks(n): orbit_dimension(n, q, d) for n in nodes}
    assert dims_by_rank[(1, 1, 1)] == 2
    assert dims_by_rank[(0, 0, 0)] == 0
    assert dims_by_rank[(1, 1, 0)] == 1
    assert dims_by_rank[(0, 1, 1)] == 1
    for n in nodes:
        assert orbit_dimension(n, q, d) == n.dimension


def test_covers_strictly_increase_dimension():
    from itertools import product

    q = BipartiteQuiver(2)
    for dims in product(range(2), repeat=5):
        poset = build_poset(q, DimensionVector(dims))
        for a, b in poset.covers:
            assert poset.nodes[a].dimension < poset.nodes[b].dimension


def test_order_equivalence_diamond():
    q, d = diamond()
    report = order_equivalence_report(build_poset(q, d))
    assert report.pairs_checked == 16
    assert report.consistent


def test_order_equivalence_singleton():
    q = BipartiteQuiver(0)
    report = order_equivalence_report(build_poset(q, DimensionVector.of(3)))
    assert report.consistent and report.pairs_checked == 1


def test_guard_triggers():
    q = BipartiteQuiver(2)
    with pytest.raises(GuardExceededError):
        enumerate_orbits(q, DimensionVector.of(2, 2, 2, 2, 2), guard=10)


def test_default_guard_admits_small_instance_with_huge_product_bound():
    # the a-priori product bound of dims 3^5 is about 1.2e21, yet the search
    # visits a few thousand nodes and finds 660 orbits
    nodes = enumerate_orbits(BipartiteQuiver(2), DimensionVector.of(3, 3, 3, 3, 3))
    assert len(nodes) == 660


def test_guard_counts_visited_search_nodes():
    # the search over the 6 intervals of n=1 visits 25 nodes for dims 1,1,1
    q, d = BipartiteQuiver(1), DimensionVector.of(1, 1, 1)
    assert len(list(iter_lace_values(q, d, guard=25))) == 4
    with pytest.raises(GuardExceededError):
        list(iter_lace_values(q, d, guard=24))


def test_lace_values_cover_every_dimension_split():
    q = BipartiteQuiver(1)
    d = DimensionVector.of(1, 1, 1)
    laces = list(iter_lace_values(q, d))
    assert len(laces) == 4
    from qloci.reps import LaceArray

    for values in laces:
        assert LaceArray(1, values).dims() == d


def test_dot_export_shape():
    q, d = diamond()
    dot = poset_to_dot(build_poset(q, d))
    assert dot.startswith("digraph")
    assert dot.count("->") == 4
    assert dot.count("label=") == 4
    assert dot.strip().endswith("}")


def test_json_export_round_trip_fields():
    q, d = diamond()
    payload = poset_to_json(build_poset(q, d))
    assert len(payload["nodes"]) == 4
    assert len(payload["covers"]) == 4
    for node in payload["nodes"]:
        assert {"rank_array", "lace_array", "permutation", "length", "dimension"} <= set(node)

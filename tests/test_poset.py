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
    inversion_length,
    order_equivalence_report,
    poset_to_dot,
)
from qloci.poset import iter_lace_values
from qloci.quiver import check_dims, d_x, d_y, interval_table
from qloci.serde import poset_to_json


def diamond():
    return BipartiteQuiver(1), DimensionVector.of(1, 1, 1)


def arrow_ranks(node):
    return node.rank.values[3:]


def rank_leq(a, b):
    """Componentwise order on the rank arrays of two orbit nodes."""
    return all(x <= y for x, y in zip(a.rank.values, b.rank.values))


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
        tops = [a for a in nodes if all(rank_leq(b, a) for b in nodes)]
        bottoms = [a for a in nodes if all(rank_leq(a, b) for b in nodes)]
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
    assert node.rank[Interval(0, 1)] == 1


def test_dense_orbit_reuses_given_nodes():
    q = BipartiteQuiver(2)
    d = DimensionVector.of(1, 2, 2, 1, 1)
    nodes = enumerate_orbits(q, d)
    assert dense_orbit(q, d, nodes=nodes) == dense_orbit(q, d)
    assert dense_orbit(q, d, nodes=nodes) in nodes


def test_orbit_dimensions_diamond():
    q, d = diamond()
    expected = {(1, 1, 1): 2, (0, 0, 0): 0, (1, 1, 0): 1, (0, 1, 1): 1}
    nodes = enumerate_orbits(q, d)
    assert {arrow_ranks(n): n.dimension for n in nodes} == expected
    # independent route: codimension = length of the Zelevinsky permutation
    product = d_x(d) * d_y(d)
    assert {
        arrow_ranks(n): product - inversion_length(n.permutation) for n in nodes
    } == expected


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
    # the search over the 6 intervals of n=1 packs 6 rows of 6 rank cells
    # and 3**2 block counts, and visits 25 nodes for dims 1,1,1, all on one
    # count
    q, d = BipartiteQuiver(1), DimensionVector.of(1, 1, 1)
    assert len(list(iter_lace_values(q, d, guard=115))) == 4
    with pytest.raises(GuardExceededError, match="90 weight cells and visits 25 nodes"):
        list(iter_lace_values(q, d, guard=114))


def reference_lace_values(q, dims):
    """The lace search as a recursive generator: depth-first over intervals
    sorted by (lo, hi), each multiplicity from its cap down to 0, a node cut
    once the scan passes a vertex with capacity left.  Returns the yielded
    tuples and the search's cost: the nodes visited plus the packed cells,
    one per interval and one per block for each interval over positive
    dims."""
    check_dims(q, dims)
    table = interval_table(q.n)
    order = sorted(range(len(table)), key=lambda i: (table.intervals[i].lo, table.intervals[i].hi))
    spans = [(table.intervals[i].lo, table.intervals[i].hi) for i in order]
    remaining = list(dims.values)
    values = [0] * len(table)
    visited = 0

    def rec(k, frontier):
        nonlocal visited
        visited += 1
        if k == len(order):
            if all(v == 0 for v in remaining[frontier:]):
                yield tuple(values)
            return
        lo, hi = spans[k]
        f = frontier
        while f < lo:
            if remaining[f] != 0:
                return
            f += 1
        cap = min(remaining[p] for p in range(lo, hi + 1))
        idx = order[k]
        for m in range(cap, -1, -1):
            if m:
                for p in range(lo, hi + 1):
                    remaining[p] -= m
            values[idx] = m
            yield from rec(k + 1, f)
            if m:
                for p in range(lo, hi + 1):
                    remaining[p] += m
        values[idx] = 0

    found = list(rec(0, 0))
    live = sum(1 for lo, hi in spans if min(dims.values[lo : hi + 1]) > 0)
    return found, visited + live * (len(table) + len(dims) ** 2)


def test_lace_search_matches_the_recursive_reference():
    # same tuples in the same order, and the same least guard that passes
    from itertools import product

    for n in range(4):
        q = BipartiteQuiver(n)
        for dims in product(range(3), repeat=2 * n + 1):
            d = DimensionVector(dims)
            expected, cost = reference_lace_values(q, d)
            assert list(iter_lace_values(q, d, guard=cost)) == expected, dims
            with pytest.raises(GuardExceededError):
                for _ in iter_lace_values(q, d, guard=cost - 1):
                    pass


def test_enumerate_orbits_ranks_follow_the_weight_formula():
    # the rank array the search carries packed, against the rank formula
    # r_J = sum over J' of m_J' * ceil(|J cap J'| / 2), |J cap J'| counting
    # the arrows both intervals span
    from itertools import product

    for n in range(3):
        q, ivs = BipartiteQuiver(n), interval_table(n).intervals
        arrows = [set(range(j.lo + 1, j.hi + 1)) for j in ivs]
        weights = [[(len(a & b) + 1) // 2 for b in arrows] for a in arrows]
        for dims in product(range(3), repeat=2 * n + 1):
            for node in enumerate_orbits(q, DimensionVector(dims)):
                assert node.rank.values == tuple(
                    sum(m * row[i] for m, row in zip(node.lace.values, weights))
                    for i in range(len(ivs))
                )


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


def reference_covers(nodes):
    """Covers by brute force: a < b with no c strictly between, O(N^3)."""
    count = len(nodes)
    leq = [[rank_leq(a, b) for b in nodes] for a in nodes]
    return tuple(
        (a, b)
        for a in range(count)
        for b in range(count)
        if a != b
        and leq[a][b]
        and not any(c != a and c != b and leq[a][c] and leq[c][b] for c in range(count))
    )


def test_hasse_matches_brute_force_covers():
    from itertools import product

    cases = [(BipartiteQuiver(2), DimensionVector(d)) for d in product(range(3), repeat=5)]
    cases.append((BipartiteQuiver(3), DimensionVector.of(*[1] * 7)))
    for q, d in cases:
        nodes = enumerate_orbits(q, d)
        assert hasse(q, d, nodes).covers == reference_covers(nodes), d


def test_hasse_covers_do_not_depend_on_node_order():
    import random

    q, d = BipartiteQuiver(2), DimensionVector.of(1, 2, 2, 1, 1)
    nodes = enumerate_orbits(q, d)
    shuffled = list(nodes)
    random.Random(3).shuffle(shuffled)
    assert hasse(q, d, shuffled).covers == reference_covers(shuffled)


def test_order_equivalence_reports_swapped_permutations():
    from dataclasses import replace

    q, d = diamond()
    poset = build_poset(q, d)
    nodes = list(poset.nodes)
    # nodes are sorted by rank array: 0 is the zero orbit, 3 the dense one
    assert arrow_ranks(nodes[0]) == (0, 0, 0) and arrow_ranks(nodes[3]) == (1, 1, 1)
    nodes[0], nodes[3] = (
        replace(nodes[0], permutation=nodes[3].permutation),
        replace(nodes[3], permutation=nodes[0].permutation),
    )
    report = order_equivalence_report(replace(poset, nodes=tuple(nodes)))
    assert report.pairs_checked == 16
    assert not report.consistent
    # node 0 now carries the identity and node 3 the longest permutation, so
    # every pair of distinct nodes involving 0 or 3 disagrees; 1 and 2 still
    # agree (incomparable in both orders)
    assert report.counterexamples == (
        (0, 1), (0, 2), (0, 3), (1, 0), (1, 3), (2, 0), (2, 3), (3, 0), (3, 1), (3, 2),
    )


def test_order_equivalence_builds_one_rank_table_per_node(monkeypatch):
    import qloci.perms

    q, d = BipartiteQuiver(2), DimensionVector.of(3, 3, 3, 3, 3)
    poset = build_poset(q, d)
    calls = []
    original = qloci.perms.rank_table

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(qloci.perms, "rank_table", counting)
    report = order_equivalence_report(poset)
    assert report.consistent and report.pairs_checked == 660**2
    assert len(calls) == 660


def test_build_poset_guards_the_node_pairs():
    # the N orbits charge N**2 pairs, N rank tables of 10 x 10 cells and N
    # nodes of 2 * 15 + 5**2 fields
    q, d = BipartiteQuiver(2), DimensionVector.of(2, 2, 2, 2, 2)
    count = len(enumerate_orbits(q, d))
    charge = count * (count + 100 + 55)
    assert len(build_poset(q, d, guard=charge).nodes) == count
    with pytest.raises(GuardExceededError, match=f"{count**2} pairs, {count * 100} rank-table"):
        build_poset(q, d, guard=charge - 1)


def test_enumerate_orbits_charges_no_pairs():
    # the library call compares no nodes, so the guard meters its search
    # alone: 65,213 orbits would give about 4.25e9 pairs
    q, d = BipartiteQuiver(4), DimensionVector.of(2, 3, 2, 3, 2, 3, 2, 3, 2)
    assert len(enumerate_orbits(q, d, guard=10**9)) == 65_213


def numeric_permutation(q, lace, lay):
    """The block permutation of the embedded direct sum over GF(2) with the
    given lace array, from its numerically ranked blocks."""
    from qloci import GF2, block_rank_numeric, rep_from_lace, zelevinsky_map, zelevinsky_permutation

    b = block_rank_numeric(zelevinsky_map(rep_from_lace(q, lace, GF2)))
    return zelevinsky_permutation(b, lay.row_sizes, lay.col_sizes)


def test_carried_block_counts_match_the_symbolic_route():
    # the block counts the lace search carries, summed from those of each
    # indecomposable, against the second differences of each orbit's
    # symbolic block rank matrix; each node's permutation against the
    # symbolic route and its length against its inversions.  The vectors
    # are those of criterion 2 and n = 3 with dims 3^7 (24,180 orbits).  The
    # carried counts and the symbolic route both read `lacing_counts`, so
    # each node's permutation is also checked against the numeric block
    # ranks of a direct sum with its lace array: every node of the
    # criterion-2 vectors, and a seeded sample of 2,000 of the 3^7 orbits
    import random
    from itertools import product

    from qloci import block_rank_symbolic, layout_for, zelevinsky_permutation
    from qloci.perms import block_counts
    from qloci.poset import _lace_search
    from qloci.quiver import unpack_fields

    cases = [
        (n, dims) for n in (0, 1, 2) for dims in product(range(3), repeat=2 * n + 1)
    ] + [(3, (3,) * 7)]
    numeric = 0
    for n, dims in cases:
        q, d = BipartiteQuiver(n), DimensionVector(dims)
        table = interval_table(n)
        count, nb = len(table), 2 * n + 1
        carried = {}
        for _, packed, width in _lace_search(table, d, 10**9):
            fields = unpack_fields(packed, width, count + nb * nb)
            carried[fields[:count]] = fields[count:]
        lay = layout_for(q, d)
        nodes = enumerate_orbits(q, d, guard=10**9)
        assert len(nodes) == len(carried)
        for node in nodes:
            b = block_rank_symbolic(node.rank, d)
            assert carried[node.rank.values] == block_counts(b)
            assert node.permutation == zelevinsky_permutation(b, lay.row_sizes, lay.col_sizes)
            assert node.length == inversion_length(node.permutation)
            assert node.dimension == d_x(d) * d_y(d) - node.length
        sample = nodes if n < 3 else random.Random(23).sample(nodes, 2_000)
        for node in sample:
            assert node.permutation == numeric_permutation(q, node.lace, lay)
            numeric += 1
    assert len(nodes) == 24_180  # the last case, 3^7
    assert numeric > 2_000


def test_build_poset_nodes_match_the_symbolic_route():
    # through the bipartite double, restricted to the open locus: each
    # node's permutation against the symbolic route on the double and
    # against the numeric block ranks of a direct sum with its lace array,
    # and its length against its inversions
    from itertools import product

    from qloci import TypeAQuiver, block_rank_symbolic, layout_for, zelevinsky_permutation

    checked = 0
    for word in ("RR", "RRLL", "LRRL"):
        q = TypeAQuiver(word)
        for dims in product(range(3), repeat=len(word) + 1):
            poset = build_poset(q, DimensionVector(dims))
            lay = layout_for(poset.quiver, poset.dims)
            for node in poset.nodes:
                b = block_rank_symbolic(node.rank, poset.dims)
                assert node.permutation == zelevinsky_permutation(
                    b, lay.row_sizes, lay.col_sizes
                )
                assert node.permutation == numeric_permutation(poset.quiver, node.lace, lay)
                assert node.length == inversion_length(node.permutation)
                checked += 1
    assert checked == 4_552


def test_no_orbit_rebuilds_its_block_counts(monkeypatch):
    # once the packed rows of (n, field width) are built, the orbits come
    # from the carried counts alone: no lacing diagram, block rank matrix,
    # second difference or block-rank length per orbit
    q, d = BipartiteQuiver(2), DimensionVector.of(1, 2, 2, 1, 1)
    expected = enumerate_orbits(q, d)

    def refuse(*args):
        raise AssertionError("an orbit rebuilt its block counts")

    for target in (
        "qloci.poset.lacing_counts",
        "qloci.zelevinsky.lacing_counts",
        "qloci.zelevinsky.block_rank_symbolic",
        "qloci.perms.block_counts",
        "qloci.perms.zelevinsky_permutation",
        "qloci.perms.length_from_blocks",
    ):
        monkeypatch.setattr(target, refuse)
    assert enumerate_orbits(q, d) == expected


def test_carried_count_half_is_the_cycle_of_each_interval():
    # the block counts each packed row carries are the one cycle
    # lo -> lo+1 -> ... -> hi -> lo of its interval: a 1 in block (a, a+1)
    # for lo <= a < hi and in block (hi, lo), and 0 elsewhere
    from qloci import BlockLayout
    from qloci.poset import _packed_row
    from qloci.quiver import unpack_fields

    for n in range(9):
        table = interval_table(n)
        count, nb = len(table), 2 * n + 1
        lay = BlockLayout(n, DimensionVector((1,) * nb))
        row = {a: i for i, a in enumerate(lay.row_positions)}
        col = {b: j for j, b in enumerate(lay.col_positions)}
        for slot, (lo, hi) in enumerate(table.spans):
            want = [0] * (nb * nb)
            for a in range(lo, hi):
                want[row[a] * nb + col[a + 1]] = 1
            want[row[hi] * nb + col[lo]] = 1
            fields = unpack_fields(_packed_row(n, slot, 1), 1, count + nb * nb)
            assert list(fields[count:]) == want

"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check is exact; the only tolerances are the stated runtime budgets.
The heavy sweeps are exhaustive over their stated ranges, so this module
takes a few minutes end to end.
"""

import random
import time
from itertools import permutations as iter_permutations
from itertools import product

from qloci import (
    BipartiteQuiver,
    DimensionVector,
    ExactMatrix,
    LaceArray,
    Permutation,
    QQ,
    Representation,
    TypeAQuiver,
    act,
    bipartite_double,
    block_rank_numeric,
    block_rank_symbolic,
    bruhat_leq,
    bruhat_via_covers,
    enumerate_orbits,
    essential_set,
    gl_elements,
    interval_table,
    inversion_length,
    is_block_minimal,
    lace_to_rank,
    layout_for,
    length_from_blocks,
    lift_dimension,
    lift_rep,
    orbit_partition,
    order_equivalence_report,
    project,
    project_group,
    rank_array,
    rank_array_arbitrary,
    rank_to_lace,
    verify_rank_determines_orbit,
    w_of,
    zelevinsky_map,
    zelevinsky_permutation,
)
from qloci.poset import hasse, iter_lace_values
from qloci.quiver import d_x, d_y
from qloci.reduction import in_open_locus

PAPER_EXAMPLE_DIMS = (1, 2, 3, 2, 3, 2, 1)

PAPER_EXAMPLE_ARROWS = {
    "a1": [[1, 0]],
    "b1": [[0, 1], [0, 0], [1, 0]],
    "a2": [[0, 1], [0, 0], [0, 0]],
    "b2": [[1, 0], [0, 1], [0, 0]],
    "a3": [[0, 0], [0, 0], [0, 0]],
    "b3": [[0, 1]],
}

PAPER_EXAMPLE_BLOCK_RANKS = (
    (0, 0, 1, 1, 1, 1, 1),
    (0, 1, 2, 3, 4, 4, 4),
    (0, 2, 4, 5, 6, 7, 7),
    (1, 3, 5, 6, 7, 8, 8),
    (2, 4, 6, 7, 8, 9, 10),
    (2, 4, 6, 7, 8, 11, 12),
    (2, 4, 6, 7, 10, 13, 14),
)

PAPER_EXAMPLE_PERMUTATION = (5, 3, 7, 8, 4, 6, 11, 1, 2, 14, 12, 13, 9, 10)


def _passed(k, name):
    print(f"ACCEPTANCE {k} ({name}): PASS")


def criterion2_cases():
    for n in (0, 1, 2):
        q = BipartiteQuiver(n)
        for dims in product(range(3), repeat=2 * n + 1):
            yield q, DimensionVector(dims)


def test_criterion_1_paper_example_reproduction():
    start = time.perf_counter()
    q = BipartiteQuiver(3)
    d = DimensionVector(PAPER_EXAMPLE_DIMS)
    mats = []
    for e in range(1, 7):
        key = f"{'ab'[1 - e % 2]}{(e + 1) // 2}"
        mats.append(ExactMatrix.from_rows(QQ, PAPER_EXAMPLE_ARROWS[key]))
    v = Representation(q, d, tuple(mats))
    b = block_rank_numeric(zelevinsky_map(v))
    assert b.entries == PAPER_EXAMPLE_BLOCK_RANKS
    lay = layout_for(q, d)
    perm = zelevinsky_permutation(b, lay.row_sizes, lay.col_sizes)
    assert perm.word == PAPER_EXAMPLE_PERMUTATION
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, "paper example reproduction")


def test_criterion_2_route_agreement_exhaustive():
    from qloci.oracle import iter_reps

    start = time.perf_counter()
    total = 0
    for q, d in criterion2_cases():
        symbolic_cache = {}
        for v in iter_reps(q, d, 2):
            r = rank_array(v)
            sym = symbolic_cache.get(r.values)
            if sym is None:
                sym = block_rank_symbolic(r, d)
                symbolic_cache[r.values] = sym
            assert block_rank_numeric(zelevinsky_map(v)) == sym
            total += 1
    elapsed = time.perf_counter() - start
    assert total == 146353
    assert elapsed < 60.0
    _passed(2, f"route agreement on {total} representations in {elapsed:.1f}s")


def test_criterion_3_rank_determines_orbit():
    q1 = BipartiteQuiver(1)
    for dims in product(range(3), repeat=3):
        d = DimensionVector(dims)
        for p in (2, 3):
            assert verify_rank_determines_orbit(q1, d, p)
    q2 = BipartiteQuiver(2)
    checked = 0
    for dims in product(range(3), repeat=5):
        d = DimensionVector(dims)
        assert verify_rank_determines_orbit(q2, d, 2)
        checked += 1
    assert checked == 243
    _passed(3, "brute orbits equal rank-array fibers")


def test_criterion_4_lace_round_trip_exhaustive():
    total = 0
    for n in range(4):
        q = BipartiteQuiver(n)
        for dims in product(range(4), repeat=2 * n + 1):
            d = DimensionVector(dims)
            for values in iter_lace_values(q, d, guard=10**60):
                s = LaceArray(n, values)
                r = lace_to_rank(s)
                assert rank_to_lace(r, d) == s
                assert lace_to_rank(rank_to_lace(r, d)) == r
                total += 1
    _passed(4, f"lace round trip on {total} lace arrays")


def test_criterion_5_length_consistency():
    for q, d in criterion2_cases():
        product_dim = d_x(d) * d_y(d)
        for node in enumerate_orbits(q, d):
            b = block_rank_symbolic(node.rank, d)
            l_blocks = length_from_blocks(b)
            l_inv = inversion_length(node.permutation)
            assert l_blocks == l_inv
            assert node.length == l_inv
            assert node.dimension == product_dim - l_inv
            assert node.dimension >= 0
    for n in (0, 1, 2):
        for dims in product(range(4), repeat=2 * n + 1):
            d = DimensionVector(dims)
            assert inversion_length(w_of(d)) == d_x(d) * d_y(d)
    _passed(5, "length formulas agree and dimensions are nonnegative")


def test_criterion_6_block_minimality_and_essential_corners():
    for q, d in criterion2_cases():
        lay = layout_for(q, d)
        row_cuts, col_cuts = set(lay.row_cuts), set(lay.col_cuts)
        for node in enumerate_orbits(q, d):
            assert is_block_minimal(node.permutation, lay.row_sizes, lay.col_sizes)
            for (i, j) in essential_set(node.permutation):
                assert i in row_cuts and j in col_cuts
    _passed(6, "permutations block-minimal with essential boxes in block corners")


def test_criterion_7_order_anti_isomorphism():
    for q, d in criterion2_cases():
        nodes = enumerate_orbits(q, d)
        report = order_equivalence_report(hasse(q, d, nodes))
        assert report.consistent, (d, report.counterexamples)

    cover_order = bruhat_via_covers(4)
    for u_word in iter_permutations(range(1, 5)):
        for v_word in iter_permutations(range(1, 5)):
            u, v = Permutation(u_word), Permutation(v_word)
            assert bruhat_leq(u, v) == cover_order.leq(u, v)

    cover_order6 = bruhat_via_covers(6)
    rng = random.Random(0)
    words = list(iter_permutations(range(1, 7)))
    for _ in range(1000):
        u = Permutation(rng.choice(words))
        v = Permutation(rng.choice(words))
        assert bruhat_leq(u, v) == cover_order6.leq(u, v)
    _passed(7, "rank order anti-isomorphic to Bruhat order; criteria agree")


def test_criterion_8_orientation_reduction():
    q = TypeAQuiver("RRLL")
    ctx = bipartite_double(q)
    for dims in product(range(3), repeat=5):
        d = DimensionVector(dims)
        census = orbit_partition(q, d, 2)
        fibers = {}
        for idx, rep in enumerate(census.points):
            fibers.setdefault(rank_array_arbitrary(ctx, rep).values, []).append(idx)
        assert {tuple(sorted(v)) for v in fibers.values()} == set(census.orbits)

    d = DimensionVector.of(1, 2, 2, 1, 1)
    dl = lift_dimension(ctx, d)
    rng = random.Random(1)
    elements = {k: gl_elements(k, 3) for k in set(dl)}
    from qloci.fields import GF3

    for _ in range(100):
        mats = []
        for i in range(1, 5):
            h, t = q.arrows[i - 1]
            mats.append(
                ExactMatrix(
                    GF3,
                    d[h],
                    d[t],
                    [[rng.randrange(3) for _ in range(d[t])] for _ in range(d[h])],
                )
            )
        v = Representation(q, d, tuple(mats))
        vt = lift_rep(ctx, v)
        gt = tuple(rng.choice(elements[dl[pos]]) for pos in ctx.target.positions())
        moved = act(gt, vt)
        assert in_open_locus(ctx, moved)
        assert project(ctx, moved) == act(project_group(ctx, gt), project(ctx, vt))
    _passed(8, "reduction bijection and projection equivariance")


def test_criterion_9_census_sanity():
    from qloci.oracle import space_dimension

    instances = [
        (BipartiteQuiver(1), DimensionVector.of(1, 1, 1), 2),
        (BipartiteQuiver(1), DimensionVector.of(1, 1, 1), 3),
        (BipartiteQuiver(1), DimensionVector.of(2, 1, 2), 2),
        (BipartiteQuiver(1), DimensionVector.of(2, 2, 2), 3),
        (BipartiteQuiver(2), DimensionVector.of(1, 1, 1, 1, 1), 2),
        (BipartiteQuiver(2), DimensionVector.of(1, 2, 2, 1, 1), 2),
    ]
    for q, d, p in instances:
        census = orbit_partition(q, d, p)
        assert sum(census.sizes) == p ** space_dimension(q, d)
        lace_count = sum(1 for _ in iter_lace_values(q, d))
        assert len(census.orbits) == lace_count
    _passed(9, "census sizes and orbit counts check out")

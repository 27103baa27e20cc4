import random
from itertools import permutations as iter_permutations

import pytest

from qloci import (
    BipartiteQuiver,
    DimensionVector,
    Permutation,
    bruhat_leq,
    diagram,
    essential_set,
    inversion_length,
    is_block_minimal,
    layout_for,
    length_from_blocks,
    w_of,
    zelevinsky_permutation,
)
from qloci.errors import InputError, ShapeError
from qloci.oracle import bruhat_via_covers
from qloci.perms import block_counts, packed_rank_tables, permutation_from_counts, rank_table
from qloci.quiver import pack_fields
from qloci.poset import enumerate_orbits
from qloci.zelevinsky import block_rank_symbolic


def P(*word):
    return Permutation(tuple(word))


def test_permutation_validation():
    with pytest.raises(InputError):
        P(1, 1, 2)
    assert P(2, 3, 1).inverse() == P(3, 1, 2)


def test_inversion_length_examples():
    assert inversion_length(Permutation.identity(5)) == 0
    assert inversion_length(P(2, 3, 1)) == 2
    assert inversion_length(P(1, 3, 2)) == 1


def test_w_of_examples():
    assert w_of(DimensionVector.of(1, 1, 1)) == P(2, 3, 1)
    assert w_of(DimensionVector.of(2, 0, 1)) == Permutation.identity(3)
    for dims in [(1, 1, 1), (2, 1, 3), (3, 2, 1, 2, 3), (0, 3, 2)]:
        d = DimensionVector(dims)
        from qloci.quiver import d_x, d_y

        assert inversion_length(w_of(d)) == d_x(d) * d_y(d)


def test_diagram_examples():
    assert diagram(Permutation.identity(4)) == frozenset()
    assert essential_set(Permutation.identity(4)) == frozenset()
    assert diagram(P(2, 1)) == frozenset({(1, 1)})
    assert essential_set(P(2, 1)) == frozenset({(1, 1)})


def test_diagram_size_is_length_exhaustive():
    for d in range(1, 6):
        for word in iter_permutations(range(1, d + 1)):
            p = Permutation(word)
            assert len(diagram(p)) == inversion_length(p)


def test_diagram_size_is_length_sampled_s6():
    rng = random.Random(19)
    words = list(iter_permutations(range(1, 7)))
    for word in rng.sample(words, 60):
        p = Permutation(word)
        assert len(diagram(p)) == inversion_length(p)


def test_bruhat_examples():
    assert bruhat_leq(Permutation.identity(3), P(3, 2, 1))
    assert bruhat_leq(P(1, 3, 2), P(2, 3, 1))
    assert not bruhat_leq(P(2, 1, 3), P(1, 3, 2))
    with pytest.raises(ShapeError):
        bruhat_leq(P(1, 2), P(1, 2, 3))


def dominance_leq(u, v):
    """u <= v in Bruhat order by a plain loop over the rank-table entries."""
    ru, rv = rank_table(u), rank_table(v)
    d = u.size
    return all(ru[i][j] >= rv[i][j] for i in range(1, d + 1) for j in range(1, d + 1))


def test_pack_fields_dominance():
    rows = [(0, 3, 5), (5, 3, 0), (5, 5, 5), (0, 0, 0), (4, 3, 5)]
    packed, guard = pack_fields(rows)
    # 2 * 5 + 1 fits one byte: 1-byte fields, lowest entry first
    assert guard == 0x80_80_80
    assert packed[0] == 0x05_03_00
    for x, xs in zip(packed, rows):
        for y, ys in zip(packed, rows):
            expected = all(a >= b for a, b in zip(xs, ys))
            assert (((x | guard) - y) & guard == guard) == expected
    assert pack_fields([]) == ([], 0)
    assert pack_fields([(0, 0)]) == ([0], 0x80_80)
    with pytest.raises(ShapeError):
        pack_fields([(1, 2), (1,)])


def test_packed_bruhat_matches_plain_dominance_on_s5():
    perms = [Permutation(w) for w in iter_permutations(range(1, 6))]
    for u in perms:
        for v in perms:
            assert bruhat_leq(u, v) == dominance_leq(u, v)


def test_packed_bruhat_matches_plain_dominance_across_field_widths():
    # rank-table entries reach d and `pack_fields` sizes its byte fields to
    # hold 2 * d + 1, so the top bit of each field is a clear guard bit:
    # d = 7, 8, 15, 16 and 127 pack into 1-byte fields, d = 128 into 2-byte
    # fields (fewer draws there, since each table has d**2 entries)
    rng = random.Random(23)
    for d, draws in ((7, 150), (8, 150), (15, 150), (16, 150), (127, 20), (128, 20)):
        outcomes = set()
        for _ in range(draws):
            word = list(range(1, d + 1))
            rng.shuffle(word)
            u = Permutation(tuple(word))
            # a chain of length-raising transpositions puts v above u
            for _ in range(rng.randrange(4)):
                i, j = sorted(rng.sample(range(d), 2))
                if word[i] < word[j]:
                    word[i], word[j] = word[j], word[i]
            if rng.random() < 0.3:
                rng.shuffle(word)
            v = Permutation(tuple(word))
            for x, y in ((u, v), (v, u)):
                expected = dominance_leq(x, y)
                assert bruhat_leq(x, y) == expected
                outcomes.add(expected)
        assert outcomes == {True, False}
        # the guard bit of the last of the d**2 fields is the top bit
        _, guard = packed_rank_tables([Permutation.identity(d)])
        assert guard.bit_length() == 8 * (1 if d < 128 else 2) * d * d


def test_bruhat_is_partial_order_on_s4():
    perms = [Permutation(w) for w in iter_permutations(range(1, 5))]
    for u in perms:
        assert bruhat_leq(u, u)
    for u in perms:
        for v in perms:
            if bruhat_leq(u, v) and bruhat_leq(v, u):
                assert u == v
    for u in perms:
        for v in perms:
            if not bruhat_leq(u, v):
                continue
            for w in perms:
                if bruhat_leq(v, w):
                    assert bruhat_leq(u, w)


def test_bruhat_agrees_with_cover_closure_on_s4():
    order = bruhat_via_covers(4)
    perms = [Permutation(w) for w in iter_permutations(range(1, 5))]
    for u in perms:
        for v in perms:
            assert bruhat_leq(u, v) == order.leq(u, v)


def test_cover_closure_small_structure():
    order = bruhat_via_covers(2)
    assert order.leq(P(1, 2), P(2, 1))
    assert not order.leq(P(2, 1), P(1, 2))
    order3 = bruhat_via_covers(3)
    top = P(3, 2, 1)
    for word in iter_permutations(range(1, 4)):
        assert order3.leq(Permutation(word), top)


def diamond():
    return BipartiteQuiver(1), DimensionVector.of(1, 1, 1)


def test_zelevinsky_permutation_examples():
    q, d = diamond()
    nodes = enumerate_orbits(q, d)
    by_rank = {node.rank.values[3:]: node for node in nodes}
    assert by_rank[(0, 0, 0)].permutation == P(2, 3, 1)
    assert by_rank[(1, 1, 1)].permutation == Permutation.identity(3)
    assert by_rank[(1, 1, 0)].permutation == P(1, 3, 2)


def test_zelevinsky_permutation_row_column_budgets():
    q = BipartiteQuiver(2)
    d = DimensionVector.of(1, 2, 2, 1, 1)
    lay = layout_for(q, d)
    for node in enumerate_orbits(q, d):
        counts = block_counts(block_rank_symbolic(node.rank, d))
        p = node.permutation
        k = 2 * q.n + 1
        for bi in range(1, k + 1):
            total = sum(counts[(bi - 1) * k + bj - 1] for bj in range(1, k + 1))
            assert total == lay.row_sizes[bi - 1]
        for bj in range(1, k + 1):
            total = sum(counts[(bi - 1) * k + bj - 1] for bi in range(1, k + 1))
            assert total == lay.col_sizes[bj - 1]
        assert is_block_minimal(p, lay.row_sizes, lay.col_sizes)


def test_length_from_blocks_examples():
    q, d = diamond()
    nodes = enumerate_orbits(q, d)
    by_rank = {node.rank.values[3:]: node for node in nodes}
    dense_b = block_rank_symbolic(by_rank[(1, 1, 1)].rank, d)
    zero_b = block_rank_symbolic(by_rank[(0, 0, 0)].rank, d)
    assert length_from_blocks(dense_b) == 0
    assert length_from_blocks(zero_b) == 2


def test_length_from_blocks_matches_inversions_exhaustively():
    from itertools import product

    for n in (1, 2):
        q = BipartiteQuiver(n)
        for dims in product(range(3), repeat=2 * n + 1):
            d = DimensionVector(dims)
            for node in enumerate_orbits(q, d):
                b = block_rank_symbolic(node.rank, d)
                assert length_from_blocks(b) == inversion_length(node.permutation)


def test_block_sizes_must_partition_one_total():
    b = hand_built((1, 1, 1), (1, 2, 2), (1, 2, 3))
    with pytest.raises(ShapeError, match="row and column blocks partition different totals"):
        zelevinsky_permutation(b, (1, 1, 1), (1, 1, 2))
    with pytest.raises(ShapeError, match="block spec does not match the block rank matrix"):
        zelevinsky_permutation(b, (1, 2), (1, 2))
    with pytest.raises(ShapeError, match="block spec does not match the block counts"):
        permutation_from_counts((1, 0, 0, 0, 1, 0, 0, 0), (1, 1, 1), (1, 1, 1))
    with pytest.raises(ShapeError, match="row and column blocks partition different totals"):
        is_block_minimal(Permutation.identity(3), (2, 1), (2, 2))
    with pytest.raises(ShapeError, match="block spec does not match the permutation size"):
        is_block_minimal(Permutation.identity(3), (2, 2), (2, 2))


def test_is_block_minimal_counterexample():
    assert is_block_minimal(Permutation.identity(3), (2, 1), (2, 1))
    # two swapped 1s inside the first 2x2 block
    assert not is_block_minimal(P(2, 1, 3), (2, 1), (2, 1))


def test_essential_boxes_sit_in_block_corners():
    q = BipartiteQuiver(2)
    d = DimensionVector.of(1, 2, 2, 1, 1)
    lay = layout_for(q, d)
    for node in enumerate_orbits(q, d):
        for (i, j) in essential_set(node.permutation):
            assert i in lay.row_cuts and j in lay.col_cuts


def hand_built(*rows):
    from qloci.zelevinsky import BlockRankMatrix

    return BlockRankMatrix((len(rows) - 1) // 2, tuple(tuple(r) for r in rows))


def test_zelevinsky_permutation_rejects_negative_block_count():
    # block (1, 2) has second difference 0 + 0 - 1 - 0 = -1
    b = hand_built((1, 0, 0), (1, 1, 1), (1, 2, 3))
    with pytest.raises(InputError, match=r"negative block count at \(1,2\)"):
        zelevinsky_permutation(b, (1, 1, 1), (1, 1, 1))


def test_zelevinsky_permutation_rejects_block_column_overflow():
    # block (1, 1) asks for two 1s; its block row has room, its column not
    b = hand_built((2, 2, 2), (2, 2, 3), (2, 3, 4))
    with pytest.raises(InputError, match="block column 1 cannot hold 2 more 1s"):
        zelevinsky_permutation(b, (2, 1, 1), (1, 1, 2))


def test_zelevinsky_permutation_rejects_block_row_overflow():
    # block (1, 1) asks for two 1s; its block column has room, its row not
    b = hand_built((2, 2, 2), (2, 2, 3), (2, 3, 4))
    with pytest.raises(InputError, match="block row 1 cannot hold 2 more 1s"):
        zelevinsky_permutation(b, (1, 1, 2), (2, 1, 1))


def test_zelevinsky_permutation_rejects_unfilled_permutation():
    b = hand_built((0, 0, 0), (0, 0, 0), (0, 0, 0))
    with pytest.raises(InputError, match="block counts do not fill the permutation"):
        zelevinsky_permutation(b, (1, 1, 1), (1, 1, 1))

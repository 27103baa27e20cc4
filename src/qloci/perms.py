"""Permutation combinatorics: lengths, diagrams, essential sets, Bruhat
order, and the block-structured permutation attached to a block rank matrix.

The block permutation takes two steps: `block_counts`, the one
second-difference routine, reads the number of 1s in each block off the
block rank matrix, and `permutation_from_counts`, the one greedy fill,
places them; `length_from_counts` gives the length.  The orbit enumeration
carries each orbit's block counts, its lacing diagram
(`zelevinsky.lacing_counts`), through its search, so it takes only the
second step; `zelevinsky_permutation` and `length_from_blocks` start from a
block rank matrix, such as the numeric one of an embedded representation.
The block permutation functions take plain row and column block sizes;
`zelevinsky.BlockLayout` owns the block order and sizes of the cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import sub

from .errors import InputError, ShapeError
from .quiver import DimensionVector, d_x, d_y, pack_fields


@dataclass(frozen=True)
class Permutation:
    """One-line notation: ``word[i-1]`` is the image of i (all 1-based).

    The matrix view has a 1 in position (i, word[i-1]).
    """

    word: tuple[int, ...]

    def __post_init__(self):
        d = len(self.word)
        if sorted(self.word) != list(range(1, d + 1)):
            raise InputError(f"{self.word} is not a permutation of 1..{d}")

    @staticmethod
    def identity(d: int) -> "Permutation":
        return Permutation(tuple(range(1, d + 1)))

    @property
    def size(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        return self.word[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, v in enumerate(self.word, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))


def inversion_length(p: Permutation) -> int:
    """Number of pairs i < j with p(i) > p(j)."""
    w = p.word
    d = len(w)
    return sum(1 for i in range(d) for j in range(i + 1, d) if w[i] > w[j])


def diagram(p: Permutation) -> frozenset[tuple[int, int]]:
    """Boxes (i, j) with no 1 weakly north in the column or weakly west in
    the row; the box count equals the length."""
    w = p.word
    inv = p.inverse().word
    d = len(w)
    return frozenset(
        (i, j)
        for i in range(1, d + 1)
        for j in range(1, d + 1)
        if w[i - 1] > j and inv[j - 1] > i
    )


def essential_set(p: Permutation) -> frozenset[tuple[int, int]]:
    """Southeast-maximal boxes of the diagram."""
    dia = diagram(p)
    return frozenset((i, j) for (i, j) in dia if (i + 1, j) not in dia and (i, j + 1) not in dia)


def rank_table(p: Permutation):
    """r[i][j] = number of k <= i with p(k) <= j, with padding row/col 0."""
    d = p.size
    r = [[0] * (d + 1) for _ in range(d + 1)]
    for i in range(1, d + 1):
        pi = p.word[i - 1]
        for j in range(1, d + 1):
            r[i][j] = r[i - 1][j] + (1 if pi <= j else 0)
    return r


def packed_rank_tables(perms) -> tuple[list[int], int]:
    """The rank tables (rows and columns 1..d) of equal-size permutations,
    packed together by `quiver.pack_fields` (which raises ShapeError for
    sizes that differ): one integer per table, and the guard mask."""
    return pack_fields([x for row in rank_table(p)[1:] for x in row[1:]] for p in perms)


def bruhat_leq(u: Permutation, v: Permutation) -> bool:
    """Dominance criterion: u <= v iff every northwest rank count of u is at
    least the corresponding count of v.

    Both full d x d rank tables are packed by `quiver.pack_fields`, so a
    single guard-bit subtract compares all d**2 entries at once.
    """
    (ru, rv), guard = packed_rank_tables((u, v))
    return ((ru | guard) - rv) & guard == guard


def w_of(dims: DimensionVector) -> Permutation:
    """The block antidiagonal [[0, 1_dy],[1_dx, 0]] as a permutation."""
    dx = d_x(dims)
    dy = d_y(dims)
    word = tuple(range(dx + 1, dx + dy + 1)) + tuple(range(1, dx + 1))
    return Permutation(word)


def block_counts(b) -> tuple[int, ...]:
    """The second differences of the block rank matrix: the number of 1s
    in block (i, j), for the (2n+1) x (2n+1) blocks flattened row by row.

    Row i of counts is the difference of the differences along block rows
    i and i-1 (zero above and left); a negative count raises InputError.
    """
    counts = []
    prev = (0,) * len(b.entries)  # differences along the block row above
    for bi, cur in enumerate(b.entries, start=1):
        diff = list(map(sub, cur, (0, *cur[:-1])))
        row = list(map(sub, diff, prev))
        if min(row) < 0:
            bj = next(j for j, count in enumerate(row, start=1) if count < 0)
            raise InputError(f"negative block count at ({bi},{bj})")
        counts += row
        prev = diff
    return tuple(counts)


def permutation_from_counts(counts, row_sizes, col_sizes) -> Permutation:
    """The unique permutation with ``counts`` 1s in its blocks (non-negative,
    flattened row by row as `block_counts` gives them), with 1s running
    northwest to southeast along every block row and down every block
    column.

    ``row_sizes`` and ``col_sizes`` are the block sizes in the order of
    `zelevinsky.BlockLayout`.  Sweeping blocks in reading order and greedily
    assigning the lowest unused row of the block row and lowest unused
    column of the block column realizes that arrangement; the rows are then
    taken in order, so the word is written left to right, and rows a block
    row leaves without a 1 read 0.
    """
    nb = len(row_sizes)
    if len(col_sizes) != nb or len(counts) != nb * nb:
        raise ShapeError("block spec does not match the block counts")
    if sum(col_sizes) != sum(row_sizes):
        raise ShapeError("row and column blocks partition different totals")
    word = []
    bounds = list(accumulate(col_sizes, initial=1))
    next_col, col_ends = bounds[:-1], bounds[1:]  # next free column per block column
    for bi, (start, room) in enumerate(zip(range(0, nb * nb, nb), row_sizes), start=1):
        for bj, count in enumerate(counts[start : start + nb]):
            if not count:
                continue
            col = next_col[bj]
            end = col + count
            if end > col_ends[bj]:
                raise InputError(f"block column {bj + 1} cannot hold {count} more 1s")
            if count > room:
                raise InputError(f"block row {bi} cannot hold {count} more 1s")
            word += range(col, end)
            room -= count
            next_col[bj] = end
        word += [0] * room
    if 0 in word:
        raise InputError("block counts do not fill the permutation")
    return Permutation(tuple(word))


def zelevinsky_permutation(b, row_sizes, col_sizes) -> Permutation:
    """The block permutation of a block rank matrix: its `block_counts`
    filled in by `permutation_from_counts`."""
    nb = len(row_sizes)
    if len(col_sizes) != nb or nb != 2 * b.n + 1:
        raise ShapeError("block spec does not match the block rank matrix")
    return permutation_from_counts(block_counts(b), row_sizes, col_sizes)


def length_from_counts(counts, nb: int) -> int:
    """Length of the block permutation with the given ``nb`` x ``nb`` block
    counts (flattened row by row): over all blocks, (1s strictly northeast)
    times (1s inside).

    ``above`` holds the running column sums of the block rows already
    passed; summed from the east along a row, they give the 1s strictly
    northeast of each of its blocks.
    """
    above = [0] * nb
    total = 0
    for start in range(0, nb * nb, nb):
        ne = 0
        for j in range(nb - 1, -1, -1):
            count = counts[start + j]
            if count:
                total += ne * count
                ne += above[j]
                above[j] += count
            else:
                ne += above[j]
    return total


def length_from_blocks(b) -> int:
    """Length of the block permutation straight from the block rank matrix:
    `length_from_counts` of its `block_counts`."""
    return length_from_counts(block_counts(b), 2 * b.n + 1)


def is_block_minimal(p: Permutation, row_sizes, col_sizes) -> bool:
    """True when the 1s run northwest to southeast within every block row
    and every block column (block sizes as for `zelevinsky_permutation`)."""
    total = sum(row_sizes)
    if sum(col_sizes) != total:
        raise ShapeError("row and column blocks partition different totals")
    if total != p.size:
        raise ShapeError("block spec does not match the permutation size")
    return _rises_within_blocks(p.word, row_sizes) and _rises_within_blocks(
        p.inverse().word, col_sizes
    )


def _rises_within_blocks(word, sizes) -> bool:
    """True when ``word`` increases along each consecutive run of the given sizes."""
    start = 0
    for size in sizes:
        run = word[start : start + size]
        if any(a > b for a, b in zip(run, run[1:])):
            return False
        start += size
    return True

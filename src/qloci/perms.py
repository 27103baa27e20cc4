"""Permutation combinatorics: lengths, diagrams, essential sets, Bruhat
order, and the block-structured permutation attached to a block rank matrix.

The block permutation functions take plain row and column block sizes;
`zelevinsky.BlockLayout` owns the block order and sizes of the cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

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


def zelevinsky_permutation(b, row_sizes, col_sizes) -> Permutation:
    """The unique permutation whose block (i, j) holds the second difference
    of the block rank matrix, with 1s running northwest to southeast along
    every block row and down every block column.

    ``row_sizes`` and ``col_sizes`` are the block sizes in the order of
    `zelevinsky.BlockLayout`.  Sweeping blocks in reading order and greedily
    assigning the lowest unused row of the block row and lowest unused
    column of the block column realizes that arrangement.  Second
    differences come from the current and the previous row of block ranks
    (zero above and left).
    """
    nb = len(row_sizes)
    if len(col_sizes) != nb or nb != 2 * b.n + 1:
        raise ShapeError("block spec does not match the block rank matrix")
    total = sum(row_sizes)
    if sum(col_sizes) != total:
        raise ShapeError("row and column blocks partition different totals")
    word = [0] * total
    bounds = list(accumulate(col_sizes, initial=1))
    next_col, col_ends = bounds[:-1], bounds[1:]  # next free column per block column
    prev = (0,) * nb
    row_end = 1
    for bi, (cur, size) in enumerate(zip(b.entries, row_sizes), start=1):
        row, row_end = row_end, row_end + size
        left = up_left = 0
        for bj, (here, up) in enumerate(zip(cur, prev)):
            count = here + up_left - left - up
            left, up_left = here, up
            if count <= 0:
                if count < 0:
                    raise InputError(f"negative block count at ({bi},{bj + 1})")
                continue
            col = next_col[bj]
            if col + count > col_ends[bj]:
                raise InputError(f"block column {bj + 1} cannot hold {count} more 1s")
            if row + count > row_end:
                raise InputError(f"block row {bi} cannot hold {count} more 1s")
            word[row - 1 : row - 1 + count] = range(col, col + count)
            row += count
            next_col[bj] = col + count
        prev = cur
    if 0 in word:
        raise InputError("block counts do not fill the permutation")
    return Permutation(tuple(word))


def length_from_blocks(b) -> int:
    """Length of the block permutation straight from the block rank matrix:
    over all blocks, (1s strictly northeast) times (1s inside).

    The block count of (i, j) is the second difference of rows i-1 and i;
    the 1s strictly northeast of it number prev[-1] - prev[j].
    """
    rows = b.entries
    total = 0
    for prev, cur in zip(rows, rows[1:]):
        last = prev[-1]
        left = up_left = 0
        for here, up in zip(cur, prev[:-1]):
            ne = last - up
            if ne:
                total += ne * (here + up_left - left - up)
            left, up_left = here, up
    return total


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

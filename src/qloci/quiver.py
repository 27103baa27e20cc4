"""Type A quivers, dimension vectors, and the interval calculus.

The bipartite quiver with parameter n has 2n+1 vertices along a path,
labeled y_0, x_1, y_1, ..., x_n, y_n; every x is a source and every y a
sink.  We index vertices by their path position 0..2n (y_i at 2i, x_i at
2i-1) and arrows by edge positions 1..2n (odd e is the arrow x->y pointing
left of x, even e points right).  An interval is a contiguous span of
vertex positions; spans may reach one step past each end of the quiver,
where the phantom edges 0 and 2n+1 belong to a zero-padded extension.

Both quiver classes describe their arrows the same way: ``arrows`` holds the
(head, tail) vertex indices of each arrow in storage order and
``arrow_names`` the matching JSON keys.  Representations, the oracle and
the codecs read only these, so they serve every orientation alike.

Packed rows have one layout: entry i of a row of non-negative ints is a
field of ``width`` bytes at byte offset ``width * i`` (`pack_row`,
`unpack_fields`).  `pack_fields` keeps each field's top bit, its guard bit,
clear; with G the mask of guard bits, X >= Y entrywise iff
``((X | G) - Y) & G == G``, since a field of X | G exceeds every y and
keeps its guard bit exactly when x >= y.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import InputError, ShapeError


@dataclass(frozen=True)
class TypeAQuiver:
    """A path quiver with one orientation character per arrow.

    ``orientation[i-1] == "R"`` means arrow i points from z_{i-1} to z_i;
    ``"L"`` means it points from z_i to z_{i-1}.
    """

    orientation: str

    def __post_init__(self):
        if not re.fullmatch(r"[LR]*", self.orientation):
            raise InputError(f"orientation word must match [LR]*, got {self.orientation!r}")

    @property
    def arrow_count(self) -> int:
        return len(self.orientation)

    @property
    def vertex_count(self) -> int:
        return len(self.orientation) + 1

    @cached_property
    def arrows(self) -> tuple[tuple[int, int], ...]:
        """(head, tail) vertex indices of gamma_i at index i-1."""
        return tuple(
            (i, i - 1) if c == "R" else (i - 1, i) for i, c in enumerate(self.orientation, 1)
        )

    @cached_property
    def arrow_names(self) -> tuple[str, ...]:
        return tuple(f"g{i}" for i in range(1, self.arrow_count + 1))


@dataclass(frozen=True)
class BipartiteQuiver:
    """The alternating-orientation type A quiver with 2n+1 vertices."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise InputError("n must be nonnegative")

    @property
    def vertex_count(self) -> int:
        return 2 * self.n + 1

    @property
    def edge_count(self) -> int:
        return 2 * self.n

    def positions(self):
        return range(2 * self.n + 1)

    def edges(self):
        return range(1, 2 * self.n + 1)

    @cached_property
    def arrows(self) -> tuple[tuple[int, int], ...]:
        """(head, tail) positions of edge e at index e-1: the head is the y
        vertex, e-1 for odd e and e for even e."""
        return tuple((e - 1, e) if e % 2 else (e, e - 1) for e in self.edges())

    @cached_property
    def arrow_names(self) -> tuple[str, ...]:
        return tuple(edge_name(e) for e in self.edges())


def vertex_name(pos: int) -> str:
    if pos % 2 == 0:
        return f"y{pos // 2}"
    return f"x{(pos + 1) // 2}"


def edge_name(e: int) -> str:
    """Arrow label for edge position e: odd e -> a_(e+1)/2, even e -> b_e/2."""
    if e % 2:
        return f"a{(e + 1) // 2}"
    return f"b{e // 2}"


@dataclass(frozen=True, order=True)
class Interval:
    """A contiguous vertex span [lo, hi] of the (possibly extended) path."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise InputError(f"empty span ({self.lo}, {self.hi})")

    @staticmethod
    def vertex(pos: int) -> "Interval":
        return Interval(pos, pos)

    @property
    def is_vertex(self) -> bool:
        return self.lo == self.hi

    @property
    def arrow_count(self) -> int:
        return self.hi - self.lo

    @property
    def left_edge(self) -> int:
        return self.lo + 1

    @property
    def right_edge(self) -> int:
        return self.hi

    def name(self) -> str:
        if self.is_vertex:
            return vertex_name(self.lo)
        if self.arrow_count == 1:
            return f"[{edge_name(self.left_edge)}]"
        return f"[{edge_name(self.left_edge)},{edge_name(self.right_edge)}]"

    def __str__(self):
        return self.name()


class IntervalTable:
    """Interval data for the bipartite quiver with parameter n.

    ``spans`` holds the (lo, hi) vertex spans in the canonical order:
    vertex intervals by position, then arrow intervals by left endpoint and
    length.  ``intervals``, ``index`` and ``arrow_intervals`` are read from
    it, and ``shift_rows`` holds, per arrow interval, the sign and the rank
    slots of the shift formula: J_L, J_R, their meet and their join, each
    clipped by `rank_slot_of_span`.  Each of these is built when first read,
    so a caller that needs only the spans (the lace search) pays for nothing
    else.  The weights of the rank formula are packed row by row where they
    are read, by `packed_weight`.
    """

    def __init__(self, n: int):
        self.n = n
        top = 2 * n
        self.vertex_count = top + 1
        self.spans = tuple((p, p) for p in range(top + 1)) + tuple(
            (lo, hi) for lo in range(top) for hi in range(lo + 1, top + 1)
        )
        self._packed = {}

    @cached_property
    def intervals(self) -> tuple[Interval, ...]:
        return tuple(Interval(lo, hi) for lo, hi in self.spans)

    @cached_property
    def index(self) -> dict[Interval, int]:
        return {j: i for i, j in enumerate(self.intervals)}

    @cached_property
    def arrow_intervals(self) -> tuple[Interval, ...]:
        return self.intervals[self.vertex_count :]

    @cached_property
    def shift_rows(self) -> tuple[tuple[int, int, int, int, int], ...]:
        slot = self.rank_slot_of_span
        return tuple(
            (
                -1 if (hi - lo) % 2 else 1,
                slot(lo - 1, hi - 1),
                slot(lo + 1, hi + 1),
                slot(lo + 1, hi - 1),
                slot(lo - 1, hi + 1),
            )
            for lo, hi in self.spans[self.vertex_count :]
        )

    def packed_weight(self, slot: int, width: int) -> int:
        """For J' the interval at ``slot``, the row of ceil(shared arrows(J,
        J') / 2) over every interval J, packed by `pack_row` with fields of
        ``width`` bytes; each row is packed once per width, when first read.

        Adding m times row J' to a packed rank array adds the ranks of m
        copies of the indecomposable on J'; no field carries into the next
        while every value stays below 256**width.
        """
        key = slot, width
        if key not in self._packed:
            lo, hi = self.spans[slot]
            weights = [(max(0, min(hi, h) - max(lo, l)) + 1) // 2 for l, h in self.spans]
            self._packed[key] = pack_row(weights, width)
        return self._packed[key]

    def rank_slot_of_span(self, lo: int, hi: int) -> int:
        """Slot of the span clipped to [0, 2n]; -1 when no arrow is left,
        so the rank is forced 0."""
        top = self.vertex_count - 1
        lo, hi = max(lo, 0), min(hi, top)
        if lo >= hi:
            return -1
        return top + lo * (2 * top - lo + 1) // 2 + hi - lo

    def __len__(self):
        return len(self.spans)


@lru_cache(maxsize=None)
def interval_table(n: int) -> IntervalTable:
    return IntervalTable(n)


def field_width(bound: int) -> int:
    """Bytes per packed field that holds every value in 0..bound."""
    return max(1, (bound.bit_length() + 7) // 8)


def pack_row(row, width: int) -> int:
    """The entries of ``row``, each below 256**width, packed lowest first."""
    if width == 1:
        return int.from_bytes(bytes(row), "little")
    return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in row), "little")


def pack_fields(rows) -> tuple[list[int], int]:
    """Rows packed with fields of ``field_width(2 * max + 1)`` bytes, and the guard-bit mask."""
    rows = list(rows)
    length = len(rows[0]) if rows else 0
    if any(len(row) != length for row in rows):
        raise ShapeError("packed rows of different lengths")
    width = field_width(2 * max((max(row, default=0) for row in rows), default=0) + 1)
    guard = int.from_bytes((bytes(width - 1) + b"\x80") * length, "little")
    return [pack_row(row, width) for row in rows], guard


def unpack_fields(x: int, width: int, count: int) -> tuple[int, ...]:
    """The ``count`` fields of ``width`` bytes packed into x, lowest first."""
    raw = x.to_bytes(width * count, "little")
    if width == 1:
        return tuple(raw)
    return tuple(int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width))


@dataclass(frozen=True)
class DimensionVector:
    """Nonnegative dimensions, one per vertex, in path order."""

    values: tuple[int, ...]

    def __post_init__(self):
        if any(v < 0 for v in self.values):
            raise InputError("dimensions must be nonnegative")

    @staticmethod
    def of(*values: int) -> "DimensionVector":
        return DimensionVector(tuple(int(v) for v in values))

    def __getitem__(self, pos: int) -> int:
        return self.values[pos]

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def d_x(dims: DimensionVector) -> int:
    """Total dimension over the source vertices x_1..x_n."""
    return sum(dims.values[1::2])


def d_y(dims: DimensionVector) -> int:
    """Total dimension over the sink vertices y_0..y_n."""
    return sum(dims.values[0::2])


def check_dims(q: BipartiteQuiver | TypeAQuiver, dims: DimensionVector):
    if len(dims) != q.vertex_count:
        raise InputError(
            f"dimension vector has {len(dims)} entries, quiver has {q.vertex_count} vertices"
        )

"""Enumeration of all orbits for a fixed quiver and dimension vector, the
degeneration poset under the componentwise rank order, and its comparison
with the reversed Bruhat order on the attached permutations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .errors import GuardExceededError, InternalCheckError
from .fields import PrimeField, DEFAULT_SAMPLING_PRIME
from .matrices import ExactMatrix
from .perms import (
    Permutation,
    length_from_counts,
    packed_rank_tables,
    permutation_from_counts,
)
from .quiver import (
    BipartiteQuiver,
    DimensionVector,
    TypeAQuiver,
    check_dims,
    d_x,
    d_y,
    field_width,
    interval_table,
    pack_fields,
    pack_row,
    unpack_fields,
)
from .reduction import bipartite_double, lift_dimension
from .reps import LaceArray, RankArray, Representation, rank_array
from .zelevinsky import lacing_counts, layout_for

# Ceiling on the lace-search nodes visited; the search visits a few nodes
# per orbit it finds (about 8 for dims 3^5 or 2^7).
DEFAULT_LACE_GUARD = 10**7


@dataclass(frozen=True)
class OrbitNode:
    """One orbit: its rank array, multiplicities, permutation, and size data."""

    rank: RankArray
    lace: LaceArray
    permutation: Permutation
    length: int
    dimension: int


@dataclass(frozen=True)
class DegenerationPoset:
    """All orbit nodes plus the covering relations of the rank-array order.

    ``covers`` holds index pairs (a, b) meaning node a is covered by node b,
    i.e. orbit closure a sits inside closure b with nothing between.
    """

    quiver: BipartiteQuiver
    dims: DimensionVector
    nodes: tuple[OrbitNode, ...]
    covers: tuple[tuple[int, int], ...]


def iter_lace_values(q: BipartiteQuiver, dims: DimensionVector, guard: int = DEFAULT_LACE_GUARD):
    """Yield every multiplicity tuple with the prescribed per-vertex totals.

    The tuples come in the order of `_lace_search`, which also meters the
    search against the guard: GuardExceededError is raised as soon as its
    packed weight cells and visited nodes pass it.
    """
    check_dims(q, dims)
    for values, _, _ in _lace_search(interval_table(q.n), dims, guard):
        yield values


@lru_cache(maxsize=None)
def _packed_row(n: int, slot: int, width: int) -> int:
    """What one copy of the indecomposable I_J on interval ``slot`` adds to
    an orbit's packed row: its rank array, `IntervalTable.packed_weight`,
    followed in the same integer and field width by its (2n+1)**2 block
    counts, the `lacing_counts` of the unit lace array at ``slot``: the one
    cycle lo -> lo+1 -> ... -> hi -> lo of J.

    Ranks and block counts are linear in the lace array, so an orbit's
    counts are the sum of these over its summands, its lacing diagram; each
    is at most sum(dims), which the field width holds.  Built once per (n,
    slot, width).
    """
    table = interval_table(n)
    count = len(table)
    weight = table.packed_weight(slot, width)
    unit = [0] * count
    unit[slot] = 1
    counts = lacing_counts(n, unit, unpack_fields(weight, width, count))
    return weight | pack_row(counts, width) << 8 * width * count


def _lace_search(table, dims: DimensionVector, guard: int, allowed: int = -1):
    """Depth-first search over the multiplicity tuples with the given
    per-vertex totals, yielding (tuple, packed row, field width) triples.
    The packed row holds the orbit's rank array followed by its
    (2n+1) x (2n+1) block counts, flattened row by row, in the layout of
    `quiver.pack_fields` without guard bits.

    Intervals are taken in order of their spans (lo, hi), each multiplicity
    from its largest possible value down to 0; intervals whose bit in
    ``allowed`` is clear stay at 0 and are not searched.  Once the scan
    passes a vertex, its remaining capacity must be exactly zero, or the
    node is cut.  The search reads only ``table.spans`` and keeps its own
    stack: per depth the current multiplicity and the frontier (the first
    vertex that may still have capacity).  Alongside the tuple it carries
    the packed row as a sum of `_packed_row`s, with fields wide enough for
    sum(dims), the largest a rank or a block count can be: setting interval
    j to m adds m times row j, and each step of m down subtracts the row
    once.  An interval over a zero-dimension vertex keeps m = 0, so its row
    is never packed.  One counter meters the search against the guard: the
    cells of the rows it packs (per row, a field per interval of the table
    and one per block), charged before any row is packed, then every node
    visited.
    """
    width = field_width(sum(dims.values))
    spans = table.spans
    order = sorted((i for i in range(len(table)) if allowed >> i & 1), key=spans.__getitem__)
    depth = len(order)
    los = [spans[i][0] for i in order]
    his = [spans[i][1] + 1 for i in order]
    remaining = list(dims.values)
    zeros = list(accumulate((not v for v in remaining), initial=0))  # zero dims before each vertex
    live = [zeros[lo] == zeros[hi] for lo, hi in zip(los, his)]
    cells = sum(live) * (len(table) + table.vertex_count**2)
    if cells > guard:
        raise GuardExceededError(f"lace search packs {cells} weight cells, more than {guard}")
    packed_rows = [_packed_row(table.n, i, width) if ok else 0 for i, ok in zip(order, live)]
    values = [0] * len(table)
    mults = [0] * depth
    frontiers = [0] * depth
    packed = 0
    spent = cells
    k = f = 0  # the node to visit: its depth and its frontier
    while True:
        spent += 1
        if spent > guard:
            raise GuardExceededError(
                f"lace search packs {cells} weight cells and visits {spent - cells} nodes,"
                f" more than {guard}"
            )
        if k == depth:
            if not any(remaining[f:]):
                yield tuple(values), packed, width
        else:
            lo = los[k]
            while f < lo and not remaining[f]:
                f += 1
            if f == lo:
                hi = his[k]
                m = min(remaining[lo:hi])
                mults[k] = m
                frontiers[k] = f
                if m:
                    for p in range(lo, hi):
                        remaining[p] -= m
                    values[order[k]] = m
                    packed += m * packed_rows[k]
                k += 1
                continue
        # back up to the deepest interval whose multiplicity can still drop
        while True:
            k -= 1
            if k < 0:
                return
            m = mults[k]
            if m:
                break
        m -= 1
        mults[k] = m
        for p in range(los[k], his[k]):
            remaining[p] += 1
        values[order[k]] = m
        packed -= packed_rows[k]
        f = frontiers[k]
        k += 1


def _node_factory(q: BipartiteQuiver, dims: DimensionVector, smooth: int = 0):
    """The function that turns one triple of `_lace_search` into its
    OrbitNode: one unpack of the packed row gives the rank array and the
    block counts, which give the permutation (`permutation_from_counts`)
    and its length (`length_from_counts`); the dimension is d_x * d_y less
    the length, less ``smooth``."""
    layout = layout_for(q, dims)
    row_sizes, col_sizes = layout.row_sizes, layout.col_sizes
    count = len(interval_table(q.n))
    nb = len(dims)
    top = d_x(dims) * d_y(dims) - smooth

    def node(values, packed, width) -> OrbitNode:
        fields = unpack_fields(packed, width, count + nb * nb)
        counts = fields[count:]
        length = length_from_counts(counts, nb)
        return OrbitNode(
            rank=RankArray(q.n, fields[:count]),
            lace=LaceArray(q.n, values),
            permutation=permutation_from_counts(counts, row_sizes, col_sizes),
            length=length,
            dimension=top - length,
        )

    return node


def enumerate_orbits(
    q: BipartiteQuiver, dims: DimensionVector, guard: int = DEFAULT_LACE_GUARD
) -> list[OrbitNode]:
    """One node per isomorphism class with the given dimension vector,
    sorted by rank array.

    Classes are enumerated through their multiplicity arrays, so the list is
    complete and exact; the lace search hands over each orbit's rank array
    and block counts in one packed row, from which `_node_factory` reads
    the permutation, length and dimension, with no block rank matrix built
    per orbit.  The guard meters the lace search alone (`_lace_search`):
    the nodes are not compared here, so their pairs are not charged.
    """
    node = _node_factory(q, dims)
    nodes = [node(*found) for found in _lace_search(interval_table(q.n), dims, guard)]
    nodes.sort(key=lambda node: node.rank.values)
    return nodes


def hasse(q: BipartiteQuiver, dims: DimensionVector, nodes) -> DegenerationPoset:
    """Covering relations of the componentwise order on rank arrays.

    Nodes are visited in lexicographic order of their rank arrays, a linear
    extension of the order.  The rank arrays are packed by
    `quiver.pack_fields`, so one guard-bit subtract decides r_a <= r_b, and
    each node b keeps the bitmask down(b) of the earlier nodes a with
    r_a <= r_b.  The covers of b are down(b) & ~(OR of down(c) over c in
    down(b)).  They are taken highest first: the highest bit c still set is
    maximal in what is left, hence a cover, and clearing c together with
    down(c) removes everything below it, so each cover costs one mask
    update.  Covers are returned sorted by (a, b).
    """
    nodes = tuple(nodes)
    order = sorted(range(len(nodes)), key=lambda i: nodes[i].rank.values)
    packed, guard = pack_fields(nodes[i].rank.values for i in order)
    down = []
    covers = []
    for t, x in enumerate(packed):
        xg = x | guard
        below = 0
        for s, y in enumerate(packed[:t]):
            if (xg - y) & guard == guard:
                below |= 1 << s
        down.append(below)
        while below:
            c = below.bit_length() - 1
            covers.append((order[c], order[t]))
            below &= ~(down[c] | 1 << c)
    covers.sort()
    return DegenerationPoset(q, dims, nodes, tuple(covers))


def build_poset(
    q: BipartiteQuiver | TypeAQuiver, dims: DimensionVector, guard: int = DEFAULT_LACE_GUARD
) -> DegenerationPoset:
    """Enumerate the orbits of a type A quiver and their covering relations,
    on its bipartite double (`reduction.bipartite_double`; a bipartite
    quiver is its own).

    The lifts of the source orbits are the orbits of the double whose delta
    maps are invertible: the rank on each delta edge e's one-arrow interval
    [e-1, e] is the junction's dimension d_i, which both ends carry.  That
    rank counts the summands holding both e-1 and e, so it reaches d_i iff
    no summand ends at e-1 or starts at e (the second follows from the
    first, since the summands through e-1 then fill e, but forbidding it
    cuts the search sooner).  The lace search is restricted to the other
    intervals and finds exactly these orbits; rank >= d_i is
    upward closed, so they form an upper set of the rank order and their
    covers are the double's covers between them.  A lifted orbit is the
    source orbit times a GL(d_i) per junction, so each dimension drops by
    the sum of d_i**2.  Quiver, dims, rank and lace arrays stay those of the
    double, whose intervals index the arrays.  With no delta edge nothing is
    restricted and every orbit of the double is kept as it is.

    The guard meters the lace search (the rank arrays and block counts it
    packs, and the nodes it visits), then, as each orbit is kept and before
    its node is built from the search's packed row by `_node_factory`, what
    the N orbits kept so far cost: the N**2 node pairs and N d x d rank
    tables (d the lifted total dimension) that `hasse` and
    `order_equivalence_report` spend, and per node the fields it fills, its
    rank and lace arrays and its (2n+1) x (2n+1) block counts.
    """
    check_dims(q, dims)
    ctx = bipartite_double(q)
    target, lifted = ctx.target, lift_dimension(ctx, dims)
    table = interval_table(target.n)
    edges = ctx.delta_edges.values()
    allowed = -1
    if edges:
        allowed = sum(
            1 << i
            for i, (lo, hi) in enumerate(table.spans)
            if all(hi != e - 1 and lo != e for e in edges)
        )
    node = _node_factory(target, lifted, sum(dims[i] ** 2 for i in ctx.delta_edges))
    table_cells = sum(lifted.values) ** 2
    node_fields = 2 * len(table) + len(lifted) ** 2  # rank and lace arrays, block counts
    nodes = []
    for found in _lace_search(table, lifted, guard, allowed):
        count = len(nodes) + 1
        if count * (count + table_cells + node_fields) > guard:
            raise GuardExceededError(
                f"{count} orbits give {count * count} pairs, {count * table_cells} rank-table"
                f" cells and {count * node_fields} node fields, more than {guard}"
            )
        nodes.append(node(*found))
    nodes.sort(key=lambda node: node.rank.values)
    return hasse(target, lifted, nodes)


def _random_rep(q: BipartiteQuiver, dims: DimensionVector, rng: random.Random) -> Representation:
    field = PrimeField(DEFAULT_SAMPLING_PRIME)
    mats = []
    for h, t in q.arrows:
        data = [[rng.randrange(field.p) for _ in range(dims[t])] for _ in range(dims[h])]
        mats.append(ExactMatrix(field, dims[h], dims[t], data))
    return Representation(q, dims, tuple(mats))


def dense_orbit(
    q: BipartiteQuiver,
    dims: DimensionVector,
    guard: int = DEFAULT_LACE_GUARD,
    seed: int = 0,
    nodes=None,
) -> OrbitNode:
    """The unique maximal node, cross-checked against the rank array of a
    randomly sampled representation; one resample is allowed before failing.

    ``nodes`` are the orbits of (q, dims) when the caller has enumerated
    them already; otherwise they are enumerated here under the guard.
    """
    if nodes is None:
        nodes = enumerate_orbits(q, dims, guard)
    count = len(interval_table(q.n))
    best = tuple(max(node.rank.values[i] for node in nodes) for i in range(count))
    top = [node for node in nodes if node.rank.values == best]
    if len(top) != 1:
        raise InternalCheckError("componentwise maximum is not attained by an orbit")
    rng = random.Random(seed)
    for _ in range(2):
        sample = rank_array(_random_rep(q, dims, rng))
        if sample == top[0].rank:
            return top[0]
    raise InternalCheckError("sampled generic rank array disagrees with the maximal node")


@dataclass(frozen=True)
class OrderReport:
    """Outcome of checking rank order against reversed Bruhat order."""

    pairs_checked: int
    consistent: bool
    counterexamples: tuple[tuple[int, int], ...]


def order_equivalence_report(poset: DegenerationPoset) -> OrderReport:
    """Check r_a <= r_b iff v_a >= v_b in Bruhat order over all N**2 ordered
    node pairs, listing every pair where the two orders disagree.

    Each node's rank array and the full d x d rank table of its permutation
    are packed once by `quiver.pack_fields` (N rank tables, by
    `packed_rank_tables`); each side of a pair is then one guard-bit
    subtract.  v_b <= v_a in Bruhat order iff the rank table of v_b
    dominates that of v_a.
    """
    nodes = poset.nodes
    ranks, rank_guard = pack_fields(node.rank.values for node in nodes)
    tables, table_guard = packed_rank_tables(node.permutation for node in nodes)
    ranks_g = [x | rank_guard for x in ranks]
    tables_g = [x | table_guard for x in tables]
    bad = []
    for a, (ra, ta) in enumerate(zip(ranks, tables)):
        for b, (rbg, tbg) in enumerate(zip(ranks_g, tables_g)):
            if ((rbg - ra) & rank_guard == rank_guard) != (
                (tbg - ta) & table_guard == table_guard
            ):
                bad.append((a, b))
    return OrderReport(len(nodes) ** 2, not bad, tuple(bad))


def poset_to_dot(poset: DegenerationPoset) -> str:
    """DOT digraph with degeneration arrows pointing at the bigger orbit."""
    lines = ["digraph degeneration {", "  rankdir=BT;", "  node [shape=box];"]
    for idx, node in enumerate(poset.nodes):
        ranks = ",".join(str(v) for v in node.rank.values)
        perm = ",".join(str(v) for v in node.permutation.word)
        label = f"r=({ranks})\\nv=({perm})\\ndim={node.dimension}"
        lines.append(f'  n{idx} [label="{label}"];')
    for a, b in poset.covers:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"

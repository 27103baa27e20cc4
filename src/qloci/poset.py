"""Enumeration of all orbits for a fixed quiver and dimension vector, the
degeneration poset under the componentwise rank order, and its comparison
with the reversed Bruhat order on the attached permutations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import GuardExceededError, InternalCheckError
from .fields import PrimeField, DEFAULT_SAMPLING_PRIME
from .matrices import ExactMatrix
from .perms import (
    Permutation,
    bruhat_leq,
    inversion_length,
    length_from_blocks,
    zelevinsky_permutation,
)
from .quiver import BipartiteQuiver, DimensionVector, check_dims, d_x, d_y, interval_table
from .reps import LaceArray, RankArray, Representation, lace_to_rank, rank_array
from .zelevinsky import BlockRankMatrix, block_rank_symbolic, layout_for

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

    Depth-first over intervals sorted by left endpoint; once the scan passes
    a vertex, its remaining capacity must be exactly zero.  The guard bounds
    the search nodes actually visited: GuardExceededError is raised as soon
    as the count passes it.
    """
    check_dims(q, dims)
    table = interval_table(q.n)
    order = sorted(range(len(table)), key=lambda i: (table.intervals[i].lo, table.intervals[i].hi))
    spans = [(table.intervals[i].lo, table.intervals[i].hi) for i in order]
    remaining = list(dims.values)
    values = [0] * len(table)
    visited = 0

    def rec(k: int, frontier: int):
        nonlocal visited
        visited += 1
        if visited > guard:
            raise GuardExceededError(f"lace search visited more than {guard} nodes")
        if k == len(order):
            if all(v == 0 for v in remaining[frontier:]):
                yield tuple(values)
            return
        lo, hi = spans[k]
        # positions strictly left of lo can no longer be covered
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

    yield from rec(0, 0)


def enumerate_orbits(
    q: BipartiteQuiver, dims: DimensionVector, guard: int = DEFAULT_LACE_GUARD
) -> list[OrbitNode]:
    """One node per isomorphism class with the given dimension vector.

    Classes are enumerated through their multiplicity arrays, so the list is
    complete and exact; rank arrays, permutations, and dimensions follow by
    the symbolic pipeline.
    """
    spec = layout_for(q, dims).block_spec()
    product = d_x(dims) * d_y(dims)
    nodes = []
    for values in iter_lace_values(q, dims, guard):
        lace = LaceArray(q.n, values)
        r = lace_to_rank(lace)
        b = block_rank_symbolic(r, dims)
        v = zelevinsky_permutation(b, spec)
        nodes.append(
            OrbitNode(
                rank=r,
                lace=lace,
                permutation=v,
                length=inversion_length(v),
                dimension=product - length_from_blocks(b),
            )
        )
    nodes.sort(key=lambda node: node.rank.values)
    return nodes


def orbit_dimension(node: OrbitNode, q: BipartiteQuiver, dims: DimensionVector) -> int:
    """Dimension of the orbit closure from the block formula."""
    b = block_rank_symbolic(node.rank, dims)
    return d_x(dims) * d_y(dims) - length_from_blocks(b)


def hasse(q: BipartiteQuiver, dims: DimensionVector, nodes) -> DegenerationPoset:
    """Covering relations of the componentwise order on rank arrays."""
    nodes = tuple(nodes)
    leq = [
        [a.rank.leq(b.rank) for b in nodes]
        for a in nodes
    ]
    covers = []
    count = len(nodes)
    for a in range(count):
        for b in range(count):
            if a == b or not leq[a][b]:
                continue
            if any(c != a and c != b and leq[a][c] and leq[c][b] for c in range(count)):
                continue
            covers.append((a, b))
    return DegenerationPoset(q, dims, nodes, tuple(covers))


def build_poset(q: BipartiteQuiver, dims: DimensionVector, guard: int = DEFAULT_LACE_GUARD):
    return hasse(q, dims, enumerate_orbits(q, dims, guard))


def _random_rep(q: BipartiteQuiver, dims: DimensionVector, rng: random.Random) -> Representation:
    field = PrimeField(DEFAULT_SAMPLING_PRIME)
    mats = []
    for e in q.edges():
        rows = dims[q.head_pos(e)]
        cols = dims[q.tail_pos(e)]
        data = [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)]
        mats.append(ExactMatrix(field, rows, cols, data))
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
    """Check r' <= r iff v(r') >= v(r) in Bruhat order over all node pairs."""
    nodes = poset.nodes
    bad = []
    pairs = 0
    for a, na in enumerate(nodes):
        for b, nb in enumerate(nodes):
            pairs += 1
            rank_le = na.rank.leq(nb.rank)
            bruhat_ge = bruhat_leq(nb.permutation, na.permutation)
            if rank_le != bruhat_ge:
                bad.append((a, b))
    return OrderReport(pairs, not bad, tuple(bad))


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

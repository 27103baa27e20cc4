"""Brute-force ground truth at desk scale.

Exhaustive enumeration of representation points over a small prime field,
orbit partitioning by closing the base-change action, and Bruhat order by
transitive closure of covers.  Everything here is independent of the rank
machinery it validates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations as iter_permutations, product
from math import isqrt

from .errors import GuardExceededError, InputError, InternalCheckError
from .fields import PrimeField
from .matrices import ExactMatrix
from .perms import Permutation, inversion_length
from .quiver import BipartiteQuiver, DimensionVector, check_dims
from .reps import Representation, rank_array

DEFAULT_POINT_GUARD = DEFAULT_GROUP_GUARD = 2**20
MAX_COVER_SYMMETRIC = 6


def space_dimension(q, dims: DimensionVector) -> int:
    check_dims(q, dims)
    return sum(dims[h] * dims[t] for h, t in q.arrows)


def iter_reps(q, dims: DimensionVector, p: int, ceiling: int = DEFAULT_POINT_GUARD):
    """Yield every point of the representation space over F_p, in
    lexicographic order of the concatenated entry lists.  Before any point is
    built, the ceiling is charged p^E x (1 + A + R) for E entries, and per point
    a Representation, its A arrow matrices and their R = sum d(head) rows."""
    field = PrimeField(p)
    entries = space_dimension(q, dims)
    shapes = [(dims[h], dims[t]) for h, t in q.arrows]
    per_point = 1 + len(shapes) + sum(rows for rows, _ in shapes)
    # p**e >= 2**e exceeds the ceiling once e reaches its bit length, so a
    # huge power is never formed
    if entries >= ceiling.bit_length() or p**entries * per_point > ceiling:
        raise GuardExceededError(f"{p}^{entries} points x {per_point} objects exceed {ceiling}")
    for digits in product(range(p), repeat=entries):
        mats = []
        pos = 0
        for rows, cols in shapes:
            data = [list(digits[pos + i * cols : pos + (i + 1) * cols]) for i in range(rows)]
            pos += rows * cols
            mats.append(ExactMatrix(field, rows, cols, data))
        yield Representation(q, dims, tuple(mats))


def gl_order(k: int, p: int) -> int:
    total = 1
    for i in range(k):
        total *= p**k - p**i
    return total


def gl_generators(k: int, p: int):
    """A small generating set of GL_k(F_p) as ExactMatrix objects."""
    field = PrimeField(p)
    if k == 0:
        return []
    gens = []
    # a generator of the multiplicative group, scaling the first coordinate
    g = _primitive_root(p)
    if g != 1:
        m = ExactMatrix.identity(field, k)
        m.data[0][0] = g
        gens.append(m)
    if k >= 2:
        t = ExactMatrix.identity(field, k)
        t.data[0][1] = 1
        gens.append(t)
        cyc = ExactMatrix.zeros(field, k, k)
        for i in range(k):
            cyc.data[i][(i + 1) % k] = 1
        gens.append(cyc)
    return gens


@cache
def _primitive_root(p: int) -> int:
    """The least generator of F_p^*: the least g with g^((p-1)/f) != 1 for
    every prime f of p - 1, the primes found by trial division."""
    primes, m, f = set(), p - 1, 2
    while f * f <= m:
        if m % f:
            f += 1
        else:
            primes.add(f)
            m //= f
    if m > 1:
        primes.add(m)
    g = 1
    while any(pow(g, (p - 1) // f, p) == 1 for f in primes):
        g += 1
    return g


def gl_elements(k: int, p: int):
    """The full element list of GL_k(F_p), by closure of the generators."""
    field = PrimeField(p)
    ident = ExactMatrix.identity(field, k)
    elems = {ident.key(): ident}
    frontier = [ident]
    gens = gl_generators(k, p)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = m.multiply(g)
                key = prod.key()
                if key not in elems:
                    elems[key] = prod
                    nxt.append(prod)
        frontier = nxt
    out = list(elems.values())
    if len(out) != gl_order(k, p):
        raise InternalCheckError(
            f"generator closure gave {len(out)} elements, |GL_{k}(F_{p})| = {gl_order(k, p)}"
        )
    return out


@dataclass(frozen=True)
class OrbitCensus:
    """The full orbit partition of a representation space over F_p."""

    p: int
    quiver: object
    dims: DimensionVector
    points: tuple
    orbits: tuple[tuple[int, ...], ...]  # indices into points

    @property
    def sizes(self):
        return tuple(len(o) for o in self.orbits)

    def is_partitioned_by(self, invariant) -> bool:
        """True iff the fibers of ``invariant`` over the points are the orbits."""
        fibers = {}
        for idx, rep in enumerate(self.points):
            fibers.setdefault(invariant(rep), []).append(idx)
        # indices were appended in increasing order, as in each orbit
        return {tuple(v) for v in fibers.values()} == set(self.orbits)


def _tuple_mats(rep):
    return tuple(tuple(tuple(row) for row in m.data) for m in rep.arrows)


def _mat_mul(a, b, p):
    if not a or not b:
        return tuple(() for _ in a)
    cols = len(b[0])
    inner = len(b)
    return tuple(
        tuple(sum(arow[k] * b[k][j] for k in range(inner)) % p for j in range(cols))
        for arow in a
    )


def brute_orbit_partition(
    points,
    q,
    dims: DimensionVector,
    p: int,
    ceiling: int = DEFAULT_GROUP_GUARD,
) -> OrbitCensus:
    """Partition the points into base-change orbits.

    The orbit of a point is closed under a generating set of the product
    group, which reaches exactly the full-group sweep's partition.  The
    ceiling is charged 3 * sum k^3 before the generators are built (at most 3
    per vertex of dimension k, each with its Gauss-Jordan inverse), plus
    isqrt(p) for the root search when some k > 0, then points x generators
    before the closure, which applies every generator to every point once.
    """
    PrimeField(p)  # a typed refusal of a bad p, before isqrt(p) is charged
    check_dims(q, dims)
    specs = q.arrows
    setup = 3 * sum(k**3 for k in dims) + (isqrt(p) if any(dims) else 0)
    if setup > ceiling:
        raise GuardExceededError(f"{setup} generator entries and root steps exceed {ceiling}")

    # per-vertex generator actions: (vertex, g, g_inverse) as raw tuples
    actions = []
    for z, k in enumerate(dims):
        for g in gl_generators(k, p):
            gt = tuple(tuple(row) for row in g.data)
            gi = tuple(tuple(row) for row in g.inverse().data)
            actions.append((z, gt, gi))
    if setup + len(points) * len(actions) > ceiling:
        raise GuardExceededError(
            f"{len(points)} points x {len(actions)} generators + {setup} exceed {ceiling}"
        )

    keys = [_tuple_mats(rep) for rep in points]
    index_of = {key: i for i, key in enumerate(keys)}
    if len(index_of) != len(points):
        raise InputError("duplicate points in the orbit sweep")

    assigned = [-1] * len(points)
    orbits = []
    for start in range(len(points)):
        if assigned[start] >= 0:
            continue
        orbit_id = len(orbits)
        members = [start]
        assigned[start] = orbit_id
        stack = [keys[start]]
        while stack:
            cur = stack.pop()
            for z, gt, gi in actions:
                new = list(cur)
                for a, (h, t) in enumerate(specs):
                    m = new[a]
                    if h == z:
                        m = _mat_mul(gt, m, p)
                    if t == z:
                        m = _mat_mul(m, gi, p)
                    new[a] = m
                key = tuple(new)
                idx = index_of[key]
                if assigned[idx] < 0:
                    assigned[idx] = orbit_id
                    members.append(idx)
                    stack.append(key)
        orbits.append(tuple(sorted(members)))
    return OrbitCensus(p, q, dims, tuple(points), tuple(orbits))


def orbit_partition(
    q, dims: DimensionVector, p: int, ceiling: int = DEFAULT_POINT_GUARD
) -> OrbitCensus:
    """The census of the whole space: both meters charge the one ceiling."""
    return brute_orbit_partition(list(iter_reps(q, dims, p, ceiling)), q, dims, p, ceiling)


def verify_rank_determines_orbit(
    q: BipartiteQuiver, dims: DimensionVector, p: int, ceiling: int = DEFAULT_POINT_GUARD
) -> bool:
    """True iff the rank-array fibers coincide with the brute orbit partition."""
    return orbit_partition(q, dims, p, ceiling).is_partitioned_by(rank_array)


def bruhat_via_covers(d_sym: int):
    """Bruhat order on S_d as the transitive closure of length-increasing
    transposition covers.  Returns an object with a ``leq`` method."""
    if d_sym > MAX_COVER_SYMMETRIC:
        raise GuardExceededError(f"cover closure limited to S_{MAX_COVER_SYMMETRIC}")
    perms = [Permutation(w) for w in iter_permutations(range(1, d_sym + 1))]
    index = {pm.word: i for i, pm in enumerate(perms)}
    lengths = [inversion_length(pm) for pm in perms]
    up = [0] * len(perms)  # bitmask of immediate successors
    for i, pm in enumerate(perms):
        w = list(pm.word)
        for a in range(d_sym):
            for b in range(a + 1, d_sym):
                w[a], w[b] = w[b], w[a]
                j = index[tuple(w)]
                if lengths[j] == lengths[i] + 1:
                    up[i] |= 1 << j
                w[a], w[b] = w[b], w[a]
    # close upward, visiting by decreasing length
    order = sorted(range(len(perms)), key=lambda i: -lengths[i])
    reach = [1 << i for i in range(len(perms))]
    for i in order:
        m = up[i]
        acc = reach[i]
        while m:
            low = m & -m
            j = low.bit_length() - 1
            acc |= reach[j]
            m ^= low
        reach[i] = acc
    return _CoverOrder(index, reach)


class _CoverOrder:
    def __init__(self, index, reach):
        self._index = index
        self._reach = reach

    def leq(self, u: Permutation, v: Permutation) -> bool:
        i = self._index[u.word]
        j = self._index[v.word]
        return bool(self._reach[i] >> j & 1)

"""Reduction of an arbitrarily oriented type A quiver to a bipartite one.

Every run of two equally oriented arrows through an intermediate vertex z_i
(a junction) gets a doubling vertex w_i wedged between z_{i-1} and z_i,
together with a new arrow delta_i joined to z_i: a sink pair when both
arrows point away from z_0, a source pair when both point toward it.  The
doubled path is alternating; padding a zero-dimensional sink onto either
end when needed puts it in the standard bipartite labeling.  So the double
is one vertex map, built by one recurrence: z_0 sits at 1 behind the left
pad when the first arrow points right, else at 0, and each z_i one step
past z_{i-1}, two at a junction, where w_i takes the step between.  Every
other field of the context is read from that map, in this module only.
Representations lift by placing identities over the new arrows, and
project back by composing them out; the lift lands in the open locus where
every delta map is invertible.  An alternating orientation has no
junction, so a bipartite quiver is its own double: its context maps every
vertex and arrow to itself, and lifting returns the representation
unchanged.  Both sides use the one ``reps.Representation`` class, and the
interval calculus, the Zelevinsky map and the degeneration poset reach
every quiver through its context.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from .errors import InputError, NotInOpenLocusError, SingularMatrixError
from .matrices import ExactMatrix
from .quiver import BipartiteQuiver, DimensionVector, TypeAQuiver
from .reps import RankArray, Representation, rank_array


@dataclass(frozen=True)
class ReductionContext:
    """Correspondence between an oriented path quiver and its bipartite double.

    ``vertex_map[i]`` is the position of z_i in the double, by the recurrence
    ``vertex_map[0] = 1`` iff the first arrow is R (the left pad) and
    ``vertex_map[i] = vertex_map[i-1] + 1 + [word[i-1] == word[i]]``, which
    puts w_i just before each junction z_i; ``arrow_map[i-1] =
    vertex_map[i-1] + 1`` is the edge carrying gamma_i.  The rest is read
    from these: w_i sits at ``doubled_vertex[i] = vertex_map[i] - 1``, delta_i
    is the edge ``delta_edges[i] = vertex_map[i]`` between w_i and z_i, and
    w_i is a sink iff gamma_i points right.  Padded positions carry dimension
    zero.  A bipartite source is its own target, its maps are ranges and it
    has no junction.
    """

    source: TypeAQuiver | BipartiteQuiver
    target: BipartiteQuiver
    vertex_map: Sequence[int]
    arrow_map: Sequence[int]
    junctions: tuple[int, ...]  # the i with word[i-1] == word[i]

    @cached_property
    def doubled_vertex(self) -> dict:
        """Junction index i -> position of w_i."""
        return {i: self.vertex_map[i] - 1 for i in self.junctions}

    @cached_property
    def delta_edges(self) -> dict:
        """Junction index i -> edge position of delta_i."""
        return {i: self.vertex_map[i] for i in self.junctions}

    @cached_property
    def junction_kind(self) -> dict:
        """Junction index i -> "sink" | "source", the kind of w_i."""
        return {
            i: "sink" if self.source.orientation[i - 1] == "R" else "source"
            for i in self.junctions
        }

    @property
    def pad_left(self) -> bool:
        return self.vertex_map[0] == 1

    @property
    def pad_right(self) -> bool:
        return self.vertex_map[-1] == self.target.vertex_count - 2


def bipartite_double(q: TypeAQuiver | BipartiteQuiver) -> ReductionContext:
    """Build the bipartite double and the bookkeeping to move across it; a
    bipartite quiver gets its identity context, in constant time."""
    if isinstance(q, BipartiteQuiver):
        return ReductionContext(q, q, range(q.vertex_count), range(1, q.edge_count + 1), ())
    word = q.orientation
    junctions = tuple(i for i in range(1, len(word)) if word[i - 1] == word[i])
    vertex_map = [int(word[:1] == "R")]
    for i in range(1, q.vertex_count):  # word[n : n + 1] is empty: z_n is no junction
        vertex_map.append(vertex_map[-1] + 1 + (word[i - 1] == word[i : i + 1]))
    n = (vertex_map[-1] + (word[-1:] == "L")) // 2
    arrow_map = tuple(pos + 1 for pos in vertex_map[:-1])
    return ReductionContext(q, BipartiteQuiver(n), tuple(vertex_map), arrow_map, junctions)


def lift_dimension(ctx: ReductionContext, dims: DimensionVector) -> DimensionVector:
    """Copy each junction's dimension onto its doubling vertex; pads get zero."""
    if len(dims) != ctx.source.vertex_count:
        raise InputError("dimension vector does not match the source quiver")
    out = [0] * ctx.target.vertex_count
    for i, pos in enumerate(ctx.vertex_map):
        out[pos] = dims[i]
    for i, pos in ctx.doubled_vertex.items():
        out[pos] = dims[i]
    return DimensionVector(tuple(out))


def lift_rep(ctx: ReductionContext, v: Representation) -> Representation:
    """Place each original matrix over its image edge and identities over the
    inserted arrows; the result lies in the open locus by construction.  On
    an identity context it is v itself."""
    if v.quiver != ctx.source:
        raise InputError("representation does not match the reduction context")
    if ctx.source == ctx.target:
        return v
    q = ctx.target
    dims = lift_dimension(ctx, v.dims)
    field = v.field
    mats = [None] * q.edge_count
    for i, e in enumerate(ctx.arrow_map):
        mats[e - 1] = v.arrows[i]
    for i, e in ctx.delta_edges.items():
        mats[e - 1] = ExactMatrix.identity(field, v.dims[i])
    for k, (h, t) in enumerate(q.arrows):
        if mats[k] is None:
            mats[k] = ExactMatrix.zeros(field, dims[h], dims[t])
    return Representation(q, dims, tuple(mats))


def in_open_locus(ctx: ReductionContext, vt: Representation) -> bool:
    for i, e in ctx.delta_edges.items():
        m = vt.matrix(e)
        if m.rows != m.cols or m.rank() != m.rows:
            return False
    return True


def project(ctx: ReductionContext, vt: Representation) -> Representation:
    """Compose out the inserted arrows: over a sink junction the original
    arrow becomes delta^-1 * gamma, over a source junction gamma * delta^-1."""
    if vt.quiver != ctx.target:
        raise InputError("representation does not match the reduction context")
    delta_inv = {}
    for i, e in ctx.delta_edges.items():
        m = vt.matrix(e)
        if m.rows != m.cols:
            raise NotInOpenLocusError(f"delta map at junction {i} is not square")
        try:
            delta_inv[i] = m.inverse()
        except SingularMatrixError as exc:
            raise NotInOpenLocusError(f"delta map at junction {i} is singular") from exc
    dims = DimensionVector(tuple(vt.dims[pos] for pos in ctx.vertex_map))
    mats = []
    for i, e in enumerate(ctx.arrow_map, start=1):
        g = vt.matrix(e)
        kind = ctx.junction_kind.get(i)
        if kind == "sink":
            mats.append(delta_inv[i].multiply(g))
        elif kind == "source":
            mats.append(g.multiply(delta_inv[i]))
        else:
            mats.append(g)
    return Representation(ctx.source, dims, tuple(mats))


def project_group(ctx: ReductionContext, gt):
    """Restrict a base-change tuple over the double to the original vertices."""
    return tuple(gt[pos] for pos in ctx.vertex_map)


def rank_array_arbitrary(ctx: ReductionContext, v: Representation) -> RankArray:
    """Rank array of the lift: a complete orbit invariant for the source."""
    return rank_array(lift_rep(ctx, v))

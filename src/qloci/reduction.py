"""Reduction of an arbitrarily oriented type A quiver to a bipartite one.

Every run of two equally oriented arrows through an intermediate vertex z_i
gets a doubling vertex w_i wedged between z_{i-1} and z_i, together with a
new arrow delta_i joined to z_i: a sink pair when both arrows point away
from z_0, a source pair when both point toward it.  The doubled path is
alternating; padding a zero-dimensional sink onto either end when needed
puts it in the standard bipartite labeling.  Representations lift by
placing identities over the new arrows, and project back by composing them
out; the lift lands in the open locus where every delta map is invertible.
An alternating orientation has no junction, so a bipartite quiver is its
own double: its context maps every vertex and arrow to itself, and lifting
returns the representation unchanged.  Both sides use the one
``reps.Representation`` class, and the interval calculus, the Zelevinsky
map and the degeneration poset reach every quiver through its context.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .errors import (
    FieldMismatchError,
    InputError,
    NotInOpenLocusError,
    SingularMatrixError,
)
from .matrices import ExactMatrix
from .quiver import BipartiteQuiver, DimensionVector, TypeAQuiver
from .reps import RankArray, Representation, rank_array


@dataclass(frozen=True)
class ReductionContext:
    """Correspondence between an oriented path quiver and its bipartite double.

    ``vertex_map[i]`` is the position of z_i in the double; ``arrow_map[i-1]``
    the edge carrying gamma_i; ``delta_edges[i]``, when present, the edge of
    the inserted arrow tied to the doubling vertex of z_i.  Padded positions
    carry dimension zero.  A bipartite source is its own target, and its
    maps are ranges.
    """

    source: TypeAQuiver | BipartiteQuiver
    target: BipartiteQuiver
    vertex_map: Sequence[int]
    arrow_map: Sequence[int]
    doubled_vertex: dict  # junction index i -> position of w_i
    delta_edges: dict  # junction index i -> edge position of delta_i
    junction_kind: dict  # junction index i -> "sink" | "source"
    pad_left: bool
    pad_right: bool


def bipartite_double(q: TypeAQuiver | BipartiteQuiver) -> ReductionContext:
    """Build the bipartite double and the bookkeeping to move across it; a
    bipartite quiver gets its identity context, in constant time."""
    if isinstance(q, BipartiteQuiver):
        return ReductionContext(
            q, q, range(q.vertex_count), range(1, q.edge_count + 1), {}, {}, {}, False, False
        )
    word = q.orientation
    n = q.arrow_count
    # walk the path, inserting a doubling vertex before each equioriented junction
    labels = [("z", 0)]
    segments = []  # (direction, kind, payload) per edge of the doubled path
    for i in range(1, n + 1):
        junction = i < n and word[i - 1] == word[i]
        if junction:
            labels.append(("w", i))
            segments.append((word[i - 1], "gamma", i))
            delta_dir = "L" if word[i - 1] == "R" else "R"
            segments.append((delta_dir, "delta", i))
            labels.append(("z", i))
        else:
            segments.append((word[i - 1], "gamma", i))
            labels.append(("z", i))
    # normalize: the alternating word must read LRLR...; pad zero sinks as needed
    pad_left = bool(segments) and segments[0][0] == "R"
    pad_right = bool(segments) and segments[-1][0] == "L"
    if not segments:
        pad_left = pad_right = False
    if pad_left:
        labels.insert(0, ("pad", -1))
        segments.insert(0, ("L", "pad", -1))
    if pad_right:
        labels.append(("pad", -2))
        segments.append(("R", "pad", -2))
    count = len(labels)
    if count % 2 == 0:
        raise InputError("doubled path failed to normalize")  # unreachable
    target = BipartiteQuiver((count - 1) // 2)
    for pos, (dirn, _, _) in enumerate(segments):
        want = "L" if pos % 2 == 0 else "R"
        if dirn != want:
            raise InputError("doubled path is not alternating")  # unreachable
    vertex_map = [0] * q.vertex_count
    doubled_vertex = {}
    for pos, (kind, i) in enumerate(labels):
        if kind == "z":
            vertex_map[i] = pos
        elif kind == "w":
            doubled_vertex[i] = pos
    arrow_map = [0] * n
    delta_edges = {}
    junction_kind = {}
    for pos, (dirn, kind, i) in enumerate(segments, start=1):
        if kind == "gamma":
            arrow_map[i - 1] = pos
        elif kind == "delta":
            delta_edges[i] = pos
            junction_kind[i] = "sink" if dirn == "L" else "source"
    return ReductionContext(
        source=q,
        target=target,
        vertex_map=tuple(vertex_map),
        arrow_map=tuple(arrow_map),
        doubled_vertex=doubled_vertex,
        delta_edges=delta_edges,
        junction_kind=junction_kind,
        pad_left=pad_left,
        pad_right=pad_right,
    )


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
    field = vt.field
    delta_inv = {}
    for i, e in ctx.delta_edges.items():
        m = vt.matrix(e)
        if m.rows != m.cols:
            raise NotInOpenLocusError(f"delta map at junction {i} is not square")
        try:
            delta_inv[i] = m.inverse()
        except SingularMatrixError as exc:
            raise NotInOpenLocusError(f"delta map at junction {i} is singular") from exc
    src = ctx.source
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
    out = Representation(src, dims, tuple(mats))
    if out.field != field and out.arrows:
        raise FieldMismatchError("projection changed fields")  # unreachable
    return out


def project_group(ctx: ReductionContext, gt):
    """Restrict a base-change tuple over the double to the original vertices."""
    return tuple(gt[pos] for pos in ctx.vertex_map)


def rank_array_arbitrary(ctx: ReductionContext, v: Representation) -> RankArray:
    """Rank array of the lift: a complete orbit invariant for the source."""
    return rank_array(lift_rep(ctx, v))

"""JSON codecs for the stable file formats.

Quivers: {"type": "bipartiteA", "n": n} or {"type": "A", "orientation": "RRLL"}.
Dimension vectors are ordered arrays (path order for bipartite quivers,
z_0..z_n for oriented ones).  Intervals are {"vertex": "y0"} or
{"left": "a1", "right": "b3"}.  Representations have one format for both
quiver kinds: their quiver, dims, and an arrow table keyed by the quiver's
``arrow_names`` ("a1"/"b1"... bipartite, "g1"... oriented); missing keys
mean zero matrices, and a key the quiver lacks is refused.  Before any
matrix is built, a representation is refused (GuardExceededError) when it
needs more than MAX_MATRIX_CELLS matrix cells and rows: the sum of
d(head) * d(tail) over the arrows, plus the total dimension d.
"""

from __future__ import annotations

from .errors import GuardExceededError, InputError
from .fields import QQ, int_from_json
from .matrices import ExactMatrix
from .perms import Permutation
from .quiver import (
    BipartiteQuiver,
    DimensionVector,
    Interval,
    TypeAQuiver,
    edge_name,
    interval_table,
    vertex_name,
)
from .reps import LaceArray, RankArray, Representation
from .reduction import ReductionContext

MAX_MATRIX_CELLS = 10**7


def quiver_to_json(q) -> dict:
    if isinstance(q, BipartiteQuiver):
        return {"type": "bipartiteA", "n": q.n}
    if isinstance(q, TypeAQuiver):
        return {"type": "A", "orientation": q.orientation}
    raise InputError(f"unsupported quiver {q!r}")


def quiver_from_json(obj) -> BipartiteQuiver | TypeAQuiver:
    try:
        kind = obj["type"]
    except (KeyError, TypeError) as exc:
        raise InputError("quiver object needs a 'type' key") from exc
    if kind == "bipartiteA":
        return BipartiteQuiver(int_from_json(obj.get("n"), "bipartiteA quiver 'n'"))
    if kind == "A":
        try:
            return TypeAQuiver(str(obj["orientation"]))
        except KeyError as exc:
            raise InputError("type A quiver needs an 'orientation' word") from exc
    raise InputError(f"unknown quiver type {kind!r}")


def dims_to_json(d: DimensionVector) -> list:
    return list(d.values)


def dims_from_json(obj) -> DimensionVector:
    if not isinstance(obj, list):
        raise InputError(f"dimension vector must be a list, got {obj!r}")
    return DimensionVector(tuple(int_from_json(v, "dimension") for v in obj))


def interval_to_json(j: Interval) -> dict:
    if j.is_vertex:
        return {"vertex": vertex_name(j.lo)}
    return {"left": edge_name(j.left_edge), "right": edge_name(j.right_edge)}


def rep_from_json(obj) -> Representation:
    try:
        q = quiver_from_json(obj["quiver"])
        dims = dims_from_json(obj["dims"])
        arrows = obj.get("arrows", {})
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad representation object: {exc}") from exc
    if not isinstance(arrows, dict):
        raise InputError("'arrows' must be an object keyed by arrow name")
    if len(dims) != q.vertex_count:
        raise InputError("dimension vector does not match the quiver")
    unknown = sorted(set(arrows) - set(q.arrow_names))
    if unknown:
        raise InputError(
            f"unknown arrow keys {', '.join(map(repr, unknown))} for this quiver; "
            f"its arrows are {', '.join(q.arrow_names) or 'none'}"
        )
    size = sum(dims[h] * dims[t] for h, t in q.arrows) + sum(dims.values)
    if size > MAX_MATRIX_CELLS:
        raise GuardExceededError(
            f"the representation needs {size} matrix cells and rows, more than {MAX_MATRIX_CELLS}"
        )
    mats = {key: ExactMatrix.from_json(mobj) for key, mobj in arrows.items()}
    field = next(iter(mats.values())).field if mats else QQ
    for m in mats.values():
        if m.field != field:
            raise InputError("arrow matrices declare different fields")
    out = []
    for key, (h, t) in zip(q.arrow_names, q.arrows):
        if key in mats:
            out.append(mats[key])
        else:
            out.append(ExactMatrix.zeros(field, dims[h], dims[t]))
    return Representation(q, dims, tuple(out))


def rank_array_to_json(r: RankArray) -> list:
    table = interval_table(r.n)
    return [
        {"interval": interval_to_json(j), "rank": r.values[i]}
        for i, j in enumerate(table.intervals)
    ]


def lace_array_to_json(s: LaceArray) -> list:
    table = interval_table(s.n)
    return [
        {"interval": interval_to_json(j), "multiplicity": s.values[i]}
        for i, j in enumerate(table.intervals)
        if s.values[i]
    ]


def permutation_to_json(p: Permutation) -> list:
    return list(p.word)


def boxes_to_json(boxes) -> list:
    return [list(b) for b in sorted(boxes)]


def reduction_context_to_json(ctx: ReductionContext) -> dict:
    return {
        "source": quiver_to_json(ctx.source),
        "target": quiver_to_json(ctx.target),
        "vertices": {
            f"z{i}": vertex_name(pos) for i, pos in enumerate(ctx.vertex_map)
        },
        "inserted": [
            {
                "junction": f"z{i}",
                "vertex": vertex_name(ctx.doubled_vertex[i]),
                "delta": edge_name(ctx.delta_edges[i]),
                "kind": ctx.junction_kind[i],
            }
            for i in sorted(ctx.delta_edges)
        ],
        "arrows": {
            f"g{i + 1}": edge_name(e) for i, e in enumerate(ctx.arrow_map)
        },
        "padding": {"left": ctx.pad_left, "right": ctx.pad_right},
    }


def census_to_json(census, invariant) -> dict:
    """Each orbit's size and the rank array ``invariant`` gives its first point."""
    out = [
        {"size": len(orbit), "rank_array": rank_array_to_json(invariant(census.points[orbit[0]]))}
        for orbit in census.orbits
    ]
    return {"p": census.p, "orbits": out}


def poset_to_json(poset) -> dict:
    nodes = []
    for node in poset.nodes:
        nodes.append(
            {
                "rank_array": rank_array_to_json(node.rank),
                "lace_array": lace_array_to_json(node.lace),
                "permutation": permutation_to_json(node.permutation),
                "length": node.length,
                "dimension": node.dimension,
            }
        )
    return {
        "quiver": quiver_to_json(poset.quiver),
        "dims": dims_to_json(poset.dims),
        "nodes": nodes,
        "covers": [list(c) for c in poset.covers],
    }

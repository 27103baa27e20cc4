"""Command-line surface: qloci <decompose|zelevinsky|poset|reduce|oracle>.

Each command declares only the options it reads:

    decompose   --rep F [--format json|text]
    zelevinsky  --rep F [--format json|text]
    poset       --quiver F --dims CSV [--format json|dot|text] [--seed S] [--guard N]
    reduce      --quiver F [--dims CSV] [--format json|text]
    oracle      --quiver F --dims CSV [--p P] [--format json|text] [--guard N]

The poset guard (default ``poset.DEFAULT_LACE_GUARD``) is one budget, and
each meter charges it with the work its own code does, before doing it:
the lace search its packed rows (rank arrays and block counts) and
visited nodes, `build_poset` the node pairs, rank tables and node fields of
each orbit it keeps.  The intervals are bounded by MAX_INTERVALS whatever
the guard.  The oracle guard (default ``oracle.DEFAULT_POINT_GUARD``) is
one budget too: `iter_reps` charges the points it builds and
`brute_orbit_partition` its generators and closure.  The other bounds are
fixed, each checked before the work it bounds:

    decompose, zelevinsky   sum(d(head) * d(tail)) over the arrows plus the
                            total dimension d <= serde.MAX_MATRIX_CELLS
    decompose, zelevinsky,  the (n+1)(2n+1) intervals of the bipartite
    poset, oracle           quiver, or of its double, <= MAX_INTERVALS
    zelevinsky              d**2 <= MAX_CELL_ENTRIES for its d x d cell (d
                            of the double)
    reduce                  bipartite n <= MAX_REDUCE_N

Exit codes are a stable contract: 0 success, 2 input error, 3 guard
exceeded, 4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .errors import (
    GuardExceededError,
    InputError,
    InternalCheckError,
    QlociError,
)
from .oracle import DEFAULT_POINT_GUARD, orbit_partition, space_dimension
from .perms import essential_set, inversion_length, zelevinsky_permutation
from .poset import (
    DEFAULT_LACE_GUARD,
    build_poset,
    dense_orbit,
    order_equivalence_report,
    poset_to_dot,
)
from .quiver import BipartiteQuiver, DimensionVector, TypeAQuiver, d_x, d_y, interval_table
from .reps import rank_array, rank_to_lace
from .reduction import bipartite_double, lift_dimension, lift_rep, rank_array_arbitrary
from .zelevinsky import block_rank_numeric, block_rank_symbolic, zelevinsky_map
from . import serde

# Largest bipartite n that `reduce` accepts: it writes out the whole double,
# and n = 10**5 takes about 1 s and 170 MB.
MAX_REDUCE_N = 10**5
# Most intervals (n+1)(2n+1) that `decompose`, `zelevinsky`, `poset` and `oracle`
# accept: n <= 222, where zero dims take up to 4 s (zelevinsky) on 2 vCPUs.
MAX_INTERVALS = 10**5
# Most entries of the d x d cell `zelevinsky` builds: d = 1000 takes about
# 4.3 s and 32 MB.
MAX_CELL_ENTRIES = 10**6


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qloci",
        description="Orbit structure of type A quiver representation spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--quiver": dict(metavar="F", help="path to a quiver JSON file"),
        "--rep": dict(metavar="F", help="path to a representation JSON file"),
        "--dims": dict(metavar="CSV", help="comma-separated dimension vector"),
        "--p": dict(type=int, default=2, help="prime for Fp"),
        "--seed": dict(type=int, default=0),
    }

    text = ("json", "text")
    for name, doc, names, formats, guard in [
        ("decompose", "Krull-Schmidt multiplicities and rank array of a representation",
         ["--rep"], text, None),
        ("zelevinsky", "embedded matrix, block ranks, permutation, essential set, dimension",
         ["--rep"], text, None),
        ("poset", "degeneration poset for a quiver and dimension vector",
         ["--quiver", "--dims", "--seed"], ("json", "dot", "text"), DEFAULT_LACE_GUARD),
        ("reduce", "bipartite double of an arbitrarily oriented quiver",
         ["--quiver", "--dims"], text, None),
        ("oracle", "brute-force verification report over a small prime field",
         ["--quiver", "--dims", "--p"], text, DEFAULT_POINT_GUARD),
    ]:
        p = sub.add_parser(name, help=doc)
        for opt in names:
            p.add_argument(opt, **options[opt])
        p.add_argument("--format", choices=formats, default="text")
        if guard is not None:
            p.add_argument("--guard", type=int, default=guard, help="enumeration ceiling")
    return parser


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _need(args, attr, what):
    val = getattr(args, attr)
    if val is None:
        raise InputError(f"--{attr} is required for {what}")
    return val


def _parse_dims(text: str) -> DimensionVector:
    try:
        return DimensionVector(tuple(int(v) for v in text.split(",")))
    except ValueError as exc:
        raise InputError(f"bad --dims value {text!r}") from exc


def _check_intervals(q: BipartiteQuiver):
    """Refuse a bipartite quiver with more than MAX_INTERVALS intervals."""
    count = (q.n + 1) * (2 * q.n + 1)
    if count > MAX_INTERVALS:
        raise GuardExceededError(
            f"bipartite n = {q.n} has {count} intervals, more than {MAX_INTERVALS}"
        )


def _emit(obj):
    print(json.dumps(obj, indent=2))


def _render_cell_text(z, layout) -> str:
    """Block-structured rendering with identity blocks shown as 1_k."""
    n = layout.n
    k = 2 * n + 1
    rows = []
    rstart = 0
    for i in range(k):
        rsize = layout.row_sizes[i]
        cells = []
        cstart = 0
        for j in range(k):
            csize = layout.col_sizes[j]
            block = [
                [z.matrix.data[rstart + a][cstart + b] for b in range(csize)]
                for a in range(rsize)
            ]
            cells.append(_block_text(block, rsize, csize))
            cstart += csize
        rows.append(" | ".join(cells))
        rstart += rsize
    header = " | ".join(
        f"{layout.col_vertex(j + 1)}({layout.col_sizes[j]})" for j in range(k)
    )
    labeled = [
        f"{layout.row_vertex(i + 1)}({layout.row_sizes[i]}): {line}"
        for i, line in enumerate(rows)
    ]
    return "cols: " + header + "\n" + "\n".join(labeled)


def _block_text(block, rsize, csize) -> str:
    if rsize == 0 or csize == 0:
        return "."
    if all(v == 0 for row in block for v in row):
        return "0"
    if rsize == csize and all(
        block[a][b] == (1 if a == b else 0) for a in range(rsize) for b in range(csize)
    ):
        return f"1_{rsize}"
    return "[" + "; ".join(" ".join(str(v) for v in row) for row in block) + "]"


def cmd_decompose(args) -> int:
    rep = serde.rep_from_json(_load_json(_need(args, "rep", "decompose")))
    ctx = bipartite_double(rep.quiver)
    if ctx.source != ctx.target:
        raise InputError("decompose expects a bipartite representation")
    _check_intervals(ctx.target)
    r = rank_array(rep)
    s = rank_to_lace(r, rep.dims)
    if args.format == "json":
        _emit(
            {
                "rank_array": serde.rank_array_to_json(r),
                "lace_array": serde.lace_array_to_json(s),
            }
        )
    else:
        table = interval_table(rep.quiver.n)
        print("multiplicities:")
        for i, j in enumerate(table.intervals):
            if s.values[i]:
                print(f"  {j}: {s.values[i]}")
        print("rank array:")
        for i, j in enumerate(table.intervals):
            if not j.is_vertex:
                print(f"  {j}: {r.values[i]}")
    return 0


def cmd_zelevinsky(args) -> int:
    rep = serde.rep_from_json(_load_json(_need(args, "rep", "zelevinsky")))
    ctx = bipartite_double(rep.quiver)
    _check_intervals(ctx.target)
    d = sum(lift_dimension(ctx, rep.dims).values)
    if d * d > MAX_CELL_ENTRIES:
        raise GuardExceededError(
            f"dimension {d} gives {d * d} table cells, more than {MAX_CELL_ENTRIES}"
        )
    rep = lift_rep(ctx, rep)
    z = zelevinsky_map(rep)
    layout = z.layout
    b = block_rank_numeric(z)
    r = rank_array(rep)
    if block_rank_symbolic(r, rep.dims) != b:
        raise InternalCheckError("symbolic and numeric block ranks disagree")
    v = zelevinsky_permutation(b, layout.row_sizes, layout.col_sizes)
    ess = essential_set(v)
    dim = d_x(rep.dims) * d_y(rep.dims) - inversion_length(v)
    if args.format == "json":
        _emit(
            {
                "matrix": z.matrix.to_json(),
                "block_ranks": b.to_json(),
                "permutation": serde.permutation_to_json(v),
                "essential_set": serde.boxes_to_json(ess),
                "dimension": dim,
            }
        )
    else:
        print(_render_cell_text(z, layout))
        print("block ranks:")
        for row in b.entries:
            print("  " + " ".join(f"{x:3d}" for x in row))
        print(f"permutation: {list(v.word)}")
        print(f"essential set: {serde.boxes_to_json(ess)}")
        print(f"orbit closure dimension: {dim}")
    return 0


def cmd_poset(args) -> int:
    """Degeneration poset of a quiver and dimension vector.

    Every quiver is carried by its bipartite double, itself when bipartite,
    and only the double's orbits in the open locus are kept (`build_poset`):
    one node per orbit of the given quiver, with that orbit's dimension.
    The output's quiver and dims stay those of the double, because the rank
    and lace arrays are indexed by its intervals.  The double's intervals
    are bounded by MAX_INTERVALS, and the work of `build_poset` by the
    guard.
    """
    q = serde.quiver_from_json(_load_json(_need(args, "quiver", "poset")))
    dims = _parse_dims(_need(args, "dims", "poset"))
    _check_intervals(bipartite_double(q).target)
    poset = build_poset(q, dims, args.guard)
    q, dims = poset.quiver, poset.dims
    report = order_equivalence_report(poset)
    if not report.consistent:
        raise InternalCheckError(f"order equivalence failed: {report.counterexamples}")
    # cross-checks the maximal node against a sampled generic representation
    dense_orbit(q, dims, seed=args.seed, nodes=poset.nodes)
    if args.format == "dot":
        sys.stdout.write(poset_to_dot(poset))
        sys.stdout.write(
            f"// order equivalence: {report.pairs_checked} pairs checked, consistent\n"
        )
    elif args.format == "json":
        out = serde.poset_to_json(poset)
        out["order_equivalence"] = {
            "pairs_checked": report.pairs_checked,
            "consistent": report.consistent,
        }
        _emit(out)
    else:
        print(f"{len(poset.nodes)} orbits, {len(poset.covers)} covering relations")
        for idx, node in enumerate(poset.nodes):
            ranks = ",".join(str(x) for x in node.rank.values)
            print(f"  node {idx}: r=({ranks}) dim={node.dimension}")
        for a, b in poset.covers:
            print(f"  {a} < {b}")
        print(f"order equivalence: checked {report.pairs_checked} pairs, consistent")
    return 0


def cmd_reduce(args) -> int:
    q = serde.quiver_from_json(_load_json(_need(args, "quiver", "reduce")))
    if isinstance(q, BipartiteQuiver):
        if q.n > MAX_REDUCE_N:
            raise GuardExceededError(f"bipartite n = {q.n} is more than {MAX_REDUCE_N}")
        q = TypeAQuiver("LR" * q.n)
    ctx = bipartite_double(q)
    payload = serde.reduction_context_to_json(ctx)
    if args.dims:
        dims = _parse_dims(args.dims)
        payload["lifted_dims"] = serde.dims_to_json(lift_dimension(ctx, dims))
    if args.format == "json":
        _emit(payload)
    else:
        print(f"target: bipartite quiver with n={ctx.target.n}")
        for z, name in sorted(payload["vertices"].items()):
            print(f"  {z} -> {name}")
        for item in payload["inserted"]:
            print(
                f"  inserted {item['vertex']} ({item['kind']}) doubling {item['junction']},"
                f" delta arrow {item['delta']}"
            )
        if "lifted_dims" in payload:
            print(f"  lifted dims: {payload['lifted_dims']}")
    return 0


def cmd_oracle(args) -> int:
    q = serde.quiver_from_json(_load_json(_need(args, "quiver", "oracle")))
    dims = _parse_dims(_need(args, "dims", "oracle"))
    p = args.p
    ctx = bipartite_double(q)
    _check_intervals(ctx.target)
    if ctx.source == ctx.target:
        name = "rank_array determines orbits"
    else:
        name = "lifted rank array determines orbits"
    invariant = partial(rank_array_arbitrary, ctx)
    census = orbit_partition(q, dims, p, args.guard)
    checks = [
        (name, census.is_partitioned_by(invariant)),
        ("orbit sizes sum to p^dim", sum(census.sizes) == p ** space_dimension(q, dims)),
    ]

    failed = [name for name, ok in checks if not ok]
    if args.format == "json":
        _emit(
            {
                "census": serde.census_to_json(census, invariant),
                "checks": [{"name": name, "pass": ok} for name, ok in checks],
            }
        )
    else:
        print(f"{len(census.orbits)} orbits over F_{p}, sizes {list(census.sizes)}")
        for name, ok in checks:
            print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    if failed:
        raise InternalCheckError(f"oracle checks failed: {failed}")
    return 0


COMMANDS = {
    "decompose": cmd_decompose,
    "zelevinsky": cmd_zelevinsky,
    "poset": cmd_poset,
    "reduce": cmd_reduce,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except GuardExceededError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 4
    except (InputError, QlociError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

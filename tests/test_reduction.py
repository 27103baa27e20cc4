import random
import time
from itertools import product

import pytest

from qloci import (
    BipartiteQuiver,
    DimensionVector,
    ExactMatrix,
    GF2,
    GF3,
    NotInOpenLocusError,
    QQ,
    Representation,
    TypeAQuiver,
    act,
    bipartite_double,
    build_poset,
    enumerate_orbits,
    hasse,
    lift_dimension,
    lift_rep,
    project,
    project_group,
    rank_array,
    rank_array_arbitrary,
    zero_rep,
)
from qloci.oracle import gl_elements, iter_reps, orbit_partition
from qloci.quiver import vertex_name
from qloci.reduction import in_open_locus

QCOVER = TypeAQuiver("RRLL")


def random_typea_rep(q, dims, p, rng):
    from qloci.fields import PrimeField

    field = PrimeField(p)
    mats = []
    for h, t in q.arrows:
        mats.append(
            ExactMatrix(
                field,
                dims[h],
                dims[t],
                [[rng.randrange(p) for _ in range(dims[t])] for _ in range(dims[h])],
            )
        )
    return Representation(q, dims, tuple(mats))


def random_group(dims, p, rng):
    els = {k: gl_elements(k, p) for k in set(dims)}
    return tuple(rng.choice(els[k]) for k in dims)


def test_double_of_qcover_quiver():
    ctx = bipartite_double(QCOVER)
    assert ctx.target.n == 4
    assert ctx.pad_left and ctx.pad_right
    # inserted sink w1 doubling z1, inserted source w3 doubling z3
    assert ctx.junction_kind == {1: "sink", 3: "source"}
    assert vertex_name(ctx.doubled_vertex[1]) == "y1"
    assert vertex_name(ctx.doubled_vertex[3]) == "x3"
    assert sorted(ctx.delta_edges) == [1, 3]
    # original vertices alternate sides: z0->x1, z1->x2, z2->y2, z3->y3, z4->x4
    assert [vertex_name(p) for p in ctx.vertex_map] == ["x1", "x2", "y2", "y3", "x4"]


def test_double_of_bipartite_word_is_trivial():
    ctx = bipartite_double(TypeAQuiver("LR"))
    assert ctx.target.n == 1
    assert len(ctx.delta_edges) == 0
    assert not ctx.pad_left and not ctx.pad_right
    assert ctx.arrow_map == (1, 2)


def test_double_of_equioriented_a3():
    ctx = bipartite_double(TypeAQuiver("RR"))
    assert len(ctx.delta_edges) == 1
    assert ctx.junction_kind == {1: "sink"}


def test_double_of_empty_quiver():
    ctx = bipartite_double(TypeAQuiver(""))
    assert ctx.target.n == 0
    assert len(ctx.delta_edges) == 0


@pytest.mark.parametrize("n", range(5))
def test_bipartite_quiver_is_its_own_double(n):
    q = BipartiteQuiver(n)
    ctx = bipartite_double(q)
    walk = bipartite_double(TypeAQuiver("LR" * n))
    assert ctx.source == ctx.target == walk.target == q
    assert tuple(ctx.vertex_map) == walk.vertex_map == tuple(range(2 * n + 1))
    assert tuple(ctx.arrow_map) == walk.arrow_map == tuple(range(1, 2 * n + 1))
    assert q.arrows == walk.source.arrows
    for c in (ctx, walk):
        assert c.doubled_vertex == c.delta_edges == c.junction_kind == {}
        assert not c.pad_left and not c.pad_right


@pytest.mark.parametrize("length", range(11))
def test_the_double_follows_the_construction(length):
    # every word of the given length, checked edge by edge against the
    # construction: w_i before each junction z_i, delta_i between them,
    # zero sinks padding the ends
    for letters in product("LR", repeat=length):
        word = "".join(letters)
        q = TypeAQuiver(word)
        ctx = bipartite_double(q)
        t, z, w = ctx.target, ctx.vertex_map, ctx.doubled_vertex
        junctions = {i for i in range(1, length) if word[i - 1] == word[i]}
        assert set(w) == set(ctx.delta_edges) == set(ctx.junction_kind) == junctions
        assert len(set(z) | set(w.values())) == len(z) + len(w)
        for i, ((h, tail), e) in enumerate(zip(q.arrows, ctx.arrow_map), start=1):
            # gamma_i runs from the image of z_{i-1} to w_i at a junction
            image = {i - 1: z[i - 1], i: w.get(i, z[i])}
            assert t.arrows[e - 1] == (image[h], image[tail])
        for i, e in ctx.delta_edges.items():
            into_w = ctx.junction_kind[i] == "sink"
            assert t.arrows[e - 1] == ((w[i], z[i]) if into_w else (z[i], w[i]))
            assert into_w == (word[i - 1] == "R")
        pads = set(t.positions()) - set(z) - set(w.values())
        assert (ctx.pad_left, ctx.pad_right) == (0 in pads, 2 * t.n in pads)
        assert pads <= {0, 2 * t.n}
        used = set(ctx.arrow_map) | set(ctx.delta_edges.values())
        assert len(used) == length + len(junctions)
        for e in set(t.edges()) - used:
            assert pads & set(t.arrows[e - 1])
        lifted = lift_dimension(ctx, DimensionVector(tuple(range(1, length + 2))))
        assert [lifted[p] for p in z] == list(range(1, length + 2))
        assert all(lifted[w[i]] == i + 1 for i in junctions)
        assert all(lifted[p] == 0 for p in pads)


def test_identity_context_is_built_at_once():
    start = time.perf_counter()
    ctx = bipartite_double(BipartiteQuiver(10**12))
    assert time.perf_counter() - start < 0.1
    assert len(ctx.vertex_map) == 2 * 10**12 + 1 and len(ctx.arrow_map) == 2 * 10**12


def test_identity_context_lifts_and_projects_to_itself():
    q = BipartiteQuiver(2)
    ctx = bipartite_double(q)
    d = DimensionVector.of(1, 2, 1, 1, 1)
    assert lift_dimension(ctx, d) == d
    for v in iter_reps(q, d, 2):
        assert lift_rep(ctx, v) is v
        assert project(ctx, v) == v
        assert rank_array_arbitrary(ctx, v) == rank_array(v)


def test_build_poset_on_a_bipartite_quiver_is_the_plain_hasse_diagram():
    # no interval is masked and no orbit dimension moves
    for n in (0, 1, 2):
        q = BipartiteQuiver(n)
        for dims in product(range(3), repeat=2 * n + 1):
            d = DimensionVector(dims)
            assert build_poset(q, d) == hasse(q, d, enumerate_orbits(q, d))


def test_lift_dimension_examples():
    ctx = bipartite_double(QCOVER)
    d = DimensionVector.of(1, 2, 2, 1, 1)
    lifted = lift_dimension(ctx, d)
    assert lifted[ctx.doubled_vertex[1]] == 2
    assert lifted[ctx.doubled_vertex[3]] == 1
    assert sum(lifted) == sum(d) + 2 + 1
    assert list(lift_dimension(bipartite_double(TypeAQuiver("LR")), DimensionVector.of(1, 2, 1))) == [1, 2, 1]
    assert set(lift_dimension(ctx, DimensionVector.of(0, 0, 0, 0, 0))) == {0}


def test_lift_and_project_round_trip():
    ctx = bipartite_double(QCOVER)
    d = DimensionVector.of(1, 2, 2, 1, 1)
    rng = random.Random(3)
    for _ in range(25):
        v = random_typea_rep(QCOVER, d, 3, rng)
        lifted = lift_rep(ctx, v)
        assert in_open_locus(ctx, lifted)
        assert project(ctx, lifted) == v


def test_lift_identity_blocks():
    ctx = bipartite_double(QCOVER)
    d = DimensionVector.of(1, 2, 2, 1, 1)
    lifted = lift_rep(ctx, zero_rep(QCOVER, d, GF3))
    for i, e in ctx.delta_edges.items():
        assert lifted.matrix(e) == ExactMatrix.identity(GF3, d[i])


def test_project_rejects_singular_delta():
    ctx = bipartite_double(QCOVER)
    d = DimensionVector.of(1, 1, 1, 1, 1)
    lifted = lift_rep(ctx, zero_rep(QCOVER, d, GF2))
    mats = list(lifted.arrows)
    e = ctx.delta_edges[1]
    mats[e - 1] = ExactMatrix.zeros(GF2, 1, 1)
    from qloci.reps import Representation

    broken = Representation(lifted.quiver, lifted.dims, tuple(mats))
    assert not in_open_locus(ctx, broken)
    with pytest.raises(NotInOpenLocusError):
        project(ctx, broken)


def test_projection_equivariance_random():
    ctx = bipartite_double(QCOVER)
    d = DimensionVector.of(1, 2, 2, 1, 1)
    dl = lift_dimension(ctx, d)
    rng = random.Random(11)
    for _ in range(20):
        v = random_typea_rep(QCOVER, d, 3, rng)
        vt = lift_rep(ctx, v)
        gt = random_group(dl, 3, rng)
        moved = act(gt, vt)
        assert in_open_locus(ctx, moved)
        left = project(ctx, moved)
        right = act(project_group(ctx, gt), project(ctx, vt))
        assert left == right


def test_rank_array_arbitrary_is_isomorphism_invariant():
    ctx = bipartite_double(QCOVER)
    d = DimensionVector.of(1, 2, 1, 1, 2)
    rng = random.Random(17)
    for _ in range(10):
        v = random_typea_rep(QCOVER, d, 3, rng)
        g = random_group(d, 3, rng)
        assert rank_array_arbitrary(ctx, act(g, v)) == rank_array_arbitrary(ctx, v)


def test_rank_array_arbitrary_on_bipartite_word_matches_direct():
    q = TypeAQuiver("LRLR")
    ctx = bipartite_double(q)
    assert len(ctx.delta_edges) == 0
    d = DimensionVector.of(1, 1, 2, 1, 1)
    rng = random.Random(19)
    v = random_typea_rep(q, d, 2, rng)
    lifted = lift_rep(ctx, v)
    assert rank_array_arbitrary(ctx, v) == rank_array(lifted)
    assert lifted.dims == d


def test_orbit_bijection_small():
    # fibers of the lifted rank array match brute orbits for small shapes
    ctx = bipartite_double(QCOVER)
    for dims in [(1, 1, 1, 1, 1), (1, 2, 1, 1, 1), (2, 1, 1, 2, 1)]:
        d = DimensionVector(dims)
        census = orbit_partition(QCOVER, d, 2)
        fibers = {}
        for idx, rep in enumerate(census.points):
            fibers.setdefault(rank_array_arbitrary(ctx, rep).values, []).append(idx)
        assert {tuple(sorted(v)) for v in fibers.values()} == set(census.orbits)


def test_fiber_transitivity_exhaustive_small():
    # any two lifts with the same projection differ by the inserted-vertex group
    q = TypeAQuiver("RR")
    ctx = bipartite_double(q)
    d = DimensionVector.of(1, 2, 1)
    dl = lift_dimension(ctx, d)
    qb = ctx.target
    ident = {pos: ExactMatrix.identity(GF2, dl[pos]) for pos in qb.positions()}
    star = [
        g
        for g in product(*[gl_elements(dl[ctx.doubled_vertex[1]], 2)])
    ]
    points = [vt for vt in iter_reps(qb, dl, 2) if in_open_locus(ctx, vt)]
    by_proj = {}
    for vt in points:
        by_proj.setdefault(project(ctx, vt).key(), []).append(vt)
    for group in by_proj.values():
        base = group[0]
        reachable = set()
        for (gw,) in star:
            g = list(ident[pos] for pos in qb.positions())
            g[ctx.doubled_vertex[1]] = gw
            reachable.add(act(tuple(g), base).key())
        assert reachable == {vt.key() for vt in group}


def post_filter_poset(ctx, dims):
    """The open-locus poset by its definition: enumerate every orbit of the
    double, keep those whose rank on each delta edge's one-arrow interval
    equals the junction's dimension, then take the covers among them."""
    from dataclasses import replace

    from qloci.poset import enumerate_orbits, hasse
    from qloci.quiver import Interval, interval_table

    q, lifted = ctx.target, lift_dimension(ctx, dims)
    index = interval_table(q.n).index
    slots = [(index[Interval(e - 1, e)], dims[i]) for i, e in ctx.delta_edges.items()]
    smooth = sum(dims[i] ** 2 for i in ctx.delta_edges)
    nodes = [
        replace(node, dimension=node.dimension - smooth)
        for node in enumerate_orbits(q, lifted, 10**60)
        if all(node.rank.values[s] == d for s, d in slots)
    ]
    return hasse(q, lifted, nodes)


def selftest_oriented_cases():
    import json
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "poset_oriented.json"
    return [(job["quiver"], tuple(job["dims"])) for job in json.loads(path.read_text("utf-8"))]


OPEN_LOCUS_CASES = (
    [("RR", d) for d in product(range(3), repeat=3)]
    + [(w, d) for w in ("RRLL", "LRRL", "RRRR") for d in product(range(2), repeat=5)]
    + [("RRLL", (3, 3, 3, 3, 3)), ("RRRR", (2, 2, 2, 2, 2)), ("LRRL", (1, 2, 2, 1, 2))]
)


@pytest.mark.parametrize("word, dims", OPEN_LOCUS_CASES + selftest_oriented_cases())
def test_open_locus_search_matches_the_post_filter(word, dims):
    from qloci import build_poset

    ctx = bipartite_double(TypeAQuiver(word))
    d = DimensionVector(dims)
    got = build_poset(ctx.source, d, 10**60)
    want = post_filter_poset(ctx, d)
    assert (got.quiver, got.dims) == (want.quiver, want.dims)
    assert got.nodes == want.nodes
    assert got.covers == want.covers


def test_open_locus_guard_counts_only_the_restricted_search():
    # RRRR 2^5: the double has 5,875 orbits, found in 48,299 search nodes;
    # the search for the 125 orbits of the open locus packs 1,890 cells
    # (15 allowed rows of 45 rank cells and 9**2 block counts) and visits
    # 980 nodes, and the orbits charge 15,625 pairs, 125 rank tables of
    # 16 x 16 cells and 125 nodes of 2 * 45 + 9**2 = 171 fields
    from qloci import GuardExceededError, build_poset

    ctx = bipartite_double(TypeAQuiver("RRRR"))
    d = DimensionVector.of(2, 2, 2, 2, 2)
    assert len(build_poset(ctx.source, d, guard=69_000).nodes) == 125
    # the search passes that guard, and the charge exceeds it at the last orbit kept
    with pytest.raises(GuardExceededError, match="125 orbits give 15625 pairs, 32000 rank"):
        build_poset(ctx.source, d, guard=68_999)
    # RRRR 1^5: the same 1,890 cells, then 153 nodes for the open locus's
    # 16 orbits, which charge 16 * (16 + 8**2 + 171) = 4,016; under a guard
    # of 1,915 the 26th node comes before the 8th orbit, whose charge is
    # 8 * (8 + 8**2 + 171) = 1,944
    d = DimensionVector.of(1, 1, 1, 1, 1)
    assert len(build_poset(ctx.source, d, guard=4_016).nodes) == 16
    with pytest.raises(GuardExceededError, match="16 orbits give 256 pairs, 1024 rank"):
        build_poset(ctx.source, d, guard=4_015)
    with pytest.raises(GuardExceededError, match="1890 weight cells and visits 27 nodes"):
        build_poset(ctx.source, d, guard=1_916)
    with pytest.raises(GuardExceededError, match="1890 weight cells and visits 26 nodes"):
        build_poset(ctx.source, d, guard=1_915)
    with pytest.raises(GuardExceededError, match="1890 weight cells and visits 1 nodes"):
        build_poset(ctx.source, d, guard=1_890)
    with pytest.raises(GuardExceededError, match="packs 1890 weight cells, more than 1889"):
        build_poset(ctx.source, d, guard=1_889)

"""Workload definitions for the qloci benchmark: job populations, seeded
job draws, input files, job execution, and the output checks.

Every check is independent of output order: rank arrays, lace arrays and
covers are compared as canonical digests, keyed by interval names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

WORKLOADS = ("orbits", "poset", "classify", "census")

# The strata of each workload's population and how many jobs of each a
# block holds.  A run repeats whole rounds of blocks, so every run has the
# same size mix whatever the seed.  make_expected.py selects each stratum's
# population by the rule given here and stores it, with expected outputs,
# in expected/<workload>.json; classify inputs are drawn fresh from the seed.
STRATA = {
    # enumerate_orbits + rank_to_lace: dims with entries in `entries` and an
    # orbit count in `items`; at most `sample` of them, drawn with seed 0.
    # The narrow orbit band keeps each n's job times apart, so job_p50_ms
    # falls among the n=3 jobs and job_p90_ms among the n=4 ones.
    "orbits": [
        {"name": "n2", "quiver": "bip2", "entries": [0, 3], "items": [80, 120], "sample": 150, "per_block": 2},
        {"name": "n3", "quiver": "bip3", "entries": [0, 3], "items": [80, 120], "sample": 150, "per_block": 2},
        {"name": "n4", "quiver": "bip4", "entries": [0, 3], "items": [80, 120], "sample": 150, "per_block": 2},
    ],
    # qloci poset: every dims vector in the box; n=2 is split at 40 nodes,
    # since the hasse and order-check cost grows with the node count squared.
    # The whole population takes about 5 s, so a block holds all of it and
    # the seed sets the order.
    "poset": [
        {"name": "n1", "quiver": "bip1", "entries": [1, 4], "items": [1, 10**9], "per_block": 64},
        {"name": "n2-small", "quiver": "bip2", "entries": [1, 2], "items": [1, 40], "per_block": 23},
        {"name": "n2-large", "quiver": "bip2", "entries": [1, 2], "items": [41, 10**9], "per_block": 9},
        {"name": "n3", "quiver": "bip3", "entries": [0, 1], "items": [1, 10**9], "per_block": 128},
    ],
    # qloci oracle: dims entries 0..2 on bip1, bip2 (p = 2, 3) and RRLL
    # (p = 2), at most 2**10 points for p = 2 and 3**7 for p = 3, and a group
    # order within the CLI's default guard.  Most strata hold one quiver and
    # one point count (`items`), so that the share of points per quiver and
    # prime is the same in every run; None matches any quiver or prime.
    # The four jobs of bip2-p3-2187 and RRLL-1024 (about 1 s each) are the
    # slowest of a block of 24, so job_p90_ms falls among them and not on
    # the heavy tail of bip2-p2-1024; job_p50_ms falls mid-bip2-p3-81.
    "census": [
        {"name": "bip2-p3-2187", "quiver": "bip2", "p": 3, "items": [2187, 2187], "per_block": 2},
        {"name": "RRLL-1024", "quiver": "RRLL", "p": 2, "items": [1024, 1024], "per_block": 2},
        {"name": "bip2-p2-1024", "quiver": "bip2", "p": 2, "items": [1024, 1024], "per_block": 1},
        {"name": "bip2-p3-729", "quiver": "bip2", "p": 3, "items": [729, 729], "per_block": 1},
        {"name": "bip2-p2-256", "quiver": "bip2", "p": 2, "items": [256, 256], "per_block": 1},
        {"name": "RRLL-256", "quiver": "RRLL", "p": 2, "items": [256, 256], "per_block": 1},
        {"name": "bip2-p3-81", "quiver": "bip2", "p": 3, "items": [81, 81], "per_block": 10},
        {"name": "tiny", "quiver": None, "p": None, "items": [2, 32], "per_block": 6},
    ],
    # qloci decompose + zelevinsky on a random direct sum of indecomposables
    # with the given dimension vector, moved by a random base change;
    # p = None is the field Q.  Job times rise from f2-n4 through q-n3,
    # fp-n5 and q-n4 to q-n5.  Per block, seven jobs are faster and seven
    # slower than the four q-n3 ones, so job_p50_ms falls mid-q-n3, and
    # job_p90_ms falls mid-q-n5, away from the gaps between strata.
    "classify": [
        {"name": "q-n3", "n": 3, "p": None, "dims": [2] * 7, "per_block": 4},
        {"name": "q-n4", "n": 4, "p": None, "dims": [3] * 9, "per_block": 2},
        {"name": "q-n5", "n": 5, "p": None, "dims": [3] * 11, "per_block": 3},
        {"name": "fp-n5", "n": 5, "p": 32003, "dims": [4] * 11, "per_block": 2},
        {"name": "f2-n4", "n": 4, "p": 2, "dims": [3] * 9, "per_block": 7},
    ],
}

# Explicit lace-search guard for `poset` and `orbits` jobs.  The seed's
# default guard (10**18) is a loose a-priori product bound that refuses
# small instances such as dims 1^7 at n=3 (bound ~1.9e25, 64 orbits); this
# value admits every job of both populations (ROADMAP item 2, still open).
LACE_GUARD = 10**100


# -- interval names (the CLI's JSON convention, computed independently) -----


def vertex_name(pos: int) -> str:
    return f"y{pos // 2}" if pos % 2 == 0 else f"x{(pos + 1) // 2}"


def edge_name(e: int) -> str:
    return f"a{(e + 1) // 2}" if e % 2 else f"b{e // 2}"


@lru_cache(maxsize=None)
def span_name(lo: int, hi: int) -> str:
    return vertex_name(lo) if lo == hi else f"{edge_name(lo + 1)}-{edge_name(hi)}"


def json_interval_name(obj: dict) -> str:
    if "vertex" in obj:
        return obj["vertex"]
    return f"{obj['left']}-{obj['right']}"


def canon_counts(pairs) -> tuple:
    """Sorted (interval name, value) pairs with zero values dropped."""
    return tuple(sorted((k, v) for k, v in pairs if v))


def digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


# -- canonical forms of outputs ---------------------------------------------


def orbits_canon(nodes, laces) -> list:
    """Library output of one `orbits` job: the nodes of enumerate_orbits and
    the lace arrays rank_to_lace recovered from their rank arrays."""
    out = []
    for node, lace in zip(nodes, laces):
        out.append(
            [
                canon_counts((span_name(j.lo, j.hi), v) for j, v in node.rank.as_dict().items()),
                canon_counts((span_name(j.lo, j.hi), v) for j, v in lace.as_dict().items()),
                canon_counts((span_name(j.lo, j.hi), v) for j, v in node.lace.as_dict().items()),
                list(node.permutation.word),
                node.length,
                node.dimension,
            ]
        )
    out.sort()
    return out


def _json_ranks(items, field) -> tuple:
    return canon_counts((json_interval_name(it["interval"]), it[field]) for it in items)


def poset_canon(payload: dict) -> dict:
    """Nodes sorted by rank array; covers as pairs of rank arrays."""
    ranks = [_json_ranks(nd["rank_array"], "rank") for nd in payload["nodes"]]
    nodes = sorted(
        [
            r,
            _json_ranks(nd["lace_array"], "multiplicity"),
            nd["permutation"],
            nd["length"],
            nd["dimension"],
        ]
        for r, nd in zip(ranks, payload["nodes"])
    )
    covers = sorted([ranks[a], ranks[b]] for a, b in payload["covers"])
    return {"nodes": nodes, "covers": covers}


def census_canon(payload: dict) -> dict:
    """Orbit sizes with their rank arrays, sorted."""
    orbits = sorted([o["size"], _json_ranks(o["rank_array"], "rank")] for o in payload["census"]["orbits"])
    return {"p": payload["census"]["p"], "orbits": orbits}


# -- populations --------------------------------------------------------------


def load_population(workload: str) -> dict:
    """The stored job population of a workload: per stratum name, the jobs
    with their expected item count and output digest."""
    with open(EXPECTED_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def quiver_json(name: str) -> dict:
    """`bip<n>` is the bipartite quiver with parameter n; any other name is
    the orientation word of a type A quiver."""
    if name.startswith("bip"):
        return {"type": "bipartiteA", "n": int(name[3:])}
    return {"type": "A", "orientation": name}


def write_quivers(directory: Path, names) -> dict:
    """One quiver JSON file per name; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    files = {}
    for name in sorted(names):
        path = directory / f"{name}.json"
        path.write_text(json.dumps(quiver_json(name)), encoding="utf-8")
        files[name] = str(path)
    return files


def bipartite_n(quiver: str) -> int:
    """n of the bipartite quiver the program works on: for an oriented word,
    that of its bipartite double (one vertex per equioriented junction, plus
    a zero sink padded at each end that needs one)."""
    if quiver.startswith("bip"):
        return int(quiver[3:])
    junctions = sum(1 for a, b in zip(quiver, quiver[1:]) if a == b)
    vertices = len(quiver) + 1 + junctions + (quiver[0] == "R") + (quiver[-1] == "L")
    return (vertices - 1) // 2


def interval_ns(workload: str) -> list:
    """The quiver sizes whose interval tables a workload's jobs use."""
    if workload == "classify":
        return sorted({s["n"] for s in STRATA[workload]})
    population = load_population(workload)
    return sorted({bipartite_n(job["quiver"]) for jobs in population.values() for job in jobs})


def draw_jobs(workload: str, seed: int, blocks: int) -> list:
    """`blocks` blocks of jobs; each block holds the fixed count of jobs of
    every stratum, in seeded order.  Within a stratum the jobs come from a
    seeded permutation of its stored population, so a new seed changes the
    instances and their order but not the size mix."""
    rng = random.Random(f"{workload}:{seed}")
    population = load_population(workload)
    streams = []
    for stratum in STRATA[workload]:
        pool = list(population[stratum["name"]])
        rng.shuffle(pool)
        streams.append((stratum, pool))
    jobs = []
    for b in range(blocks):
        block = []
        for stratum, pool in streams:
            per = stratum["per_block"]
            for k in range(per):
                entry = pool[(b * per + k) % len(pool)]
                block.append({"workload": workload, "stratum": stratum["name"], **entry})
        rng.shuffle(block)
        jobs.extend(block)
    return jobs


# -- classify inputs: seeded representations --------------------------------


def _random_invertible(rng: random.Random, k: int, p: int | None):
    """A k x k matrix with entries in -2..2 (residues mod p over F_p) and
    nonzero determinant, with its inverse."""
    while True:
        g = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        if p is not None:
            g = [[v % p for v in row] for row in g]
        inv = _inverse(g, p)
        if inv is not None:
            return g, inv


def _inverse(g, p):
    k = len(g)
    if p is None:
        work = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(g)]
    else:
        work = [[v % p for v in row] + [int(i == j) for j in range(k)] for i, row in enumerate(g)]
    for col in range(k):
        piv = next((r for r in range(col, k) if work[r][col] != 0), None)
        if piv is None:
            return None
        work[col], work[piv] = work[piv], work[col]
        if p is None:
            inv_p = 1 / work[col][col]
            work[col] = [v * inv_p for v in work[col]]
        else:
            inv_p = pow(work[col][col], p - 2, p)
            work[col] = [(v * inv_p) % p for v in work[col]]
        for r in range(k):
            c = work[r][col]
            if r != col and c:
                if p is None:
                    work[r] = [a - c * b for a, b in zip(work[r], work[col])]
                else:
                    work[r] = [(a - c * b) % p for a, b in zip(work[r], work[col])]
    return [row[k:] for row in work]


def _matmul(a, b, p):
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        orow = []
        for j in range(cols):
            acc = sum(row[t] * b[t][j] for t in range(inner))
            orow.append(acc % p if p is not None else acc)
        out.append(orow)
    return out


def _scalar_json(v, p):
    if p is not None:
        return v % p
    v = Fraction(v)
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def random_lace(rng: random.Random, dims) -> list:
    """Spans [lo, hi] of a random direct sum of indecomposables with the
    given dimension vector: repeatedly take the leftmost vertex with room
    left and an interval from it over a random stretch of vertices that
    all have room.  Every lace array with these dims can come out."""
    room = list(dims)
    spans = []
    while any(room):
        lo = next(p for p, r in enumerate(room) if r)
        hi = lo
        while hi + 1 < len(room) and room[hi + 1]:
            hi += 1
        hi = rng.randint(lo, hi)
        for p in range(lo, hi + 1):
            room[p] -= 1
        spans.append((lo, hi))
    return spans


def rep_from_lace(rng: random.Random, n: int, lace_spans, p: int | None) -> dict:
    """A representation JSON: the direct sum of the indecomposables on the
    given spans, moved by a random invertible base change at every vertex."""
    top = 2 * n
    dims = [0] * (top + 1)
    basis = [[] for _ in range(top + 1)]  # summand index per basis vector
    for s, (lo, hi) in enumerate(lace_spans):
        for pos in range(lo, hi + 1):
            basis[pos].append(s)
            dims[pos] += 1
    change = [_random_invertible(rng, d, p) if d else ([], []) for d in dims]
    arrows = {}
    tag = "Q" if p is None else f"Fp:{p}"
    for e in range(1, top + 1):
        head, tail = (e - 1, e) if e % 2 else (e, e - 1)
        rows, cols = dims[head], dims[tail]
        if not rows or not cols:
            continue
        m = [[int(basis[head][i] == basis[tail][j]) for j in range(cols)] for i in range(rows)]
        moved = _matmul(_matmul(change[head][0], m, p), change[tail][1], p)
        arrows[edge_name(e)] = {
            "rows": rows,
            "cols": cols,
            "field": tag,
            "entries": [[_scalar_json(v, p) for v in row] for row in moved],
        }
    return {"quiver": {"type": "bipartiteA", "n": n}, "dims": dims, "arrows": arrows}


def classify_inputs(seed: int, blocks: int) -> list:
    """Seeded classify jobs: per block, `per_block` representations from
    every stratum (quiver size, field, dimension vector)."""
    rng = random.Random(f"classify:{seed}")
    jobs = []
    for _ in range(blocks):
        block = []
        for stratum in STRATA["classify"]:
            for _ in range(stratum["per_block"]):
                spans = random_lace(rng, stratum["dims"])
                lace = Counter(span_name(lo, hi) for lo, hi in spans)
                rep = rep_from_lace(rng, stratum["n"], spans, stratum["p"])
                block.append(
                    {
                        "workload": "classify",
                        "stratum": stratum["name"],
                        "items": 1,
                        "lace": sorted(lace.items()),
                        "dims": rep["dims"],
                        "rep": rep,
                    }
                )
        rng.shuffle(block)
        jobs.extend(block)
    return jobs


# -- running one job ----------------------------------------------------------


class JobFailed(Exception):
    """A CLI call exited nonzero, or a job's output failed its check."""


def cli_output(qloci, argv) -> str:
    """Call qloci.cli.main in-process; its stdout, or JobFailed on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qloci.cli.main(argv)
    if code != 0:
        raise JobFailed(f"exit {code}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


def run_job(qloci, job: dict, files: dict):
    """Run one job through the program and return its raw output."""
    wl = job["workload"]
    if wl == "orbits":
        q = qloci.quiver.BipartiteQuiver((len(job["dims"]) - 1) // 2)
        dims = qloci.quiver.DimensionVector(tuple(job["dims"]))
        nodes = qloci.poset.enumerate_orbits(q, dims, LACE_GUARD)
        return nodes, [qloci.reps.rank_to_lace(nd.rank, dims) for nd in nodes]
    if wl == "classify":
        rep = job["rep_file"]
        return (
            cli_output(qloci, ["decompose", "--rep", rep, "--format", "json"]),
            cli_output(qloci, ["zelevinsky", "--rep", rep, "--format", "json"]),
        )
    dims = ",".join(str(d) for d in job["dims"])
    if wl == "poset":
        return cli_output(
            qloci,
            ["poset", "--quiver", files[job["quiver"]], "--dims", dims,
             "--format", "json", "--guard", str(LACE_GUARD)],
        )
    return cli_output(
        qloci,
        ["oracle", "--quiver", files[job["quiver"]], "--dims", dims,
         "--p", str(job["p"]), "--format", "json"],
    )


def check_job(job: dict, output) -> None:
    """Raise JobFailed unless the output is the right answer."""
    wl = job["workload"]
    if wl == "orbits":
        got = digest(orbits_canon(*output))
    elif wl == "poset":
        payload = json.loads(output)
        if payload.get("order_equivalence", {}).get("consistent") is not True:
            raise JobFailed("order equivalence not reported consistent")
        got = digest(poset_canon(payload))
    elif wl == "census":
        payload = json.loads(output)
        if not all(c["pass"] for c in payload["checks"]):
            raise JobFailed("oracle self-checks failed")
        got = digest(census_canon(payload))
    else:
        check_classify(job, *output)
        return
    if got != job["digest"]:
        raise JobFailed(f"digest {got} != expected {job['digest']}")


def check_classify(job: dict, decompose_out: str, zelevinsky_out: str) -> None:
    dec = json.loads(decompose_out)
    got = canon_counts((json_interval_name(it["interval"]), it["multiplicity"]) for it in dec["lace_array"])
    if got != canon_counts(job["lace"]):
        raise JobFailed(f"lace array {got} != built {canon_counts(job['lace'])}")
    zel = json.loads(zelevinsky_out)
    word = zel["permutation"]
    if sorted(word) != list(range(1, len(word) + 1)):
        raise JobFailed("zelevinsky permutation is not a permutation")
    dims = job["dims"]
    dx, dy = sum(dims[1::2]), sum(dims[0::2])
    if len(word) != dx + dy:
        raise JobFailed("zelevinsky permutation has the wrong size")
    inversions = sum(1 for i in range(len(word)) for j in range(i + 1, len(word)) if word[i] > word[j])
    if zel["dimension"] != dx * dy - inversions:
        raise JobFailed(f"dimension {zel['dimension']} != d_x*d_y - l(v) = {dx * dy - inversions}")

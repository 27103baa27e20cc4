"""Build the stored job populations and their expected outputs.

Run once, from the repository root, at the commit whose outputs define
correctness:

    python3 perfbench/make_expected.py [WORKLOAD ...]

It selects every stratum's jobs by the rules in workloads.STRATA, runs each
job through qloci exactly as the benchmark does, and writes the jobs with
their item counts and output digests to perfbench/expected/<workload>.json.
It also writes expected/poset_oriented.json: oriented type A poset jobs with
the orbit count the brute-force oracle finds, which selftest.py compares
against `qloci poset`.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import time

import run
import workloads as W

POINT_CAP = 2**12


def quiver_of(qloci, name: str):
    return qloci.serde.quiver_from_json(W.quiver_json(name))


def vertex_count(qloci, quiver: str) -> int:
    return quiver_of(qloci, quiver).vertex_count


def space_points(qloci, quiver: str, dims, p: int) -> int:
    dv = qloci.quiver.DimensionVector(tuple(dims))
    return p ** qloci.oracle.space_dimension(quiver_of(qloci, quiver), dv)


def group_order(qloci, dims, p: int) -> int:
    out = 1
    for k in dims:
        out *= qloci.oracle.gl_order(k, p)
    return out


def lace_count(qloci, quiver: str, dims, cap: int):
    """Number of orbits, or None once it passes `cap`."""
    q = quiver_of(qloci, quiver)
    count = 0
    for _ in qloci.poset.iter_lace_values(q, qloci.quiver.DimensionVector(tuple(dims)), W.LACE_GUARD):
        count += 1
        if count > cap:
            return None
    return count


def box(qloci, stratum):
    lo, hi = stratum["entries"]
    return itertools.product(range(lo, hi + 1), repeat=vertex_count(qloci, stratum["quiver"]))


def select_orbits(qloci, stratum) -> list:
    lo, hi = stratum["items"]
    rng = random.Random(0)
    candidates = list(box(qloci, stratum))
    rng.shuffle(candidates)
    chosen = []
    for dims in candidates:
        count = lace_count(qloci, stratum["quiver"], dims, hi)
        if count is not None and count >= lo:
            chosen.append({"quiver": stratum["quiver"], "dims": list(dims)})
            if len(chosen) == stratum["sample"]:
                break
    return chosen


def select_poset(qloci, stratum) -> list:
    lo, hi = stratum["items"]
    out = []
    for dims in box(qloci, stratum):
        count = lace_count(qloci, stratum["quiver"], dims, hi)
        if count is not None and count >= lo:
            out.append({"quiver": stratum["quiver"], "dims": list(dims)})
    return out


def census_candidates(qloci):
    """Jobs within POINT_CAP points and the CLI's default group guard."""
    for quiver, primes in (("bip1", (2, 3)), ("bip2", (2, 3)), ("RRLL", (2,))):
        for p in primes:
            for dims in itertools.product(range(3), repeat=vertex_count(qloci, quiver)):
                points = space_points(qloci, quiver, dims, p)
                if 1 < points <= POINT_CAP and group_order(qloci, dims, p) <= qloci.oracle.DEFAULT_GROUP_GUARD:
                    yield {"quiver": quiver, "p": p, "dims": list(dims), "items": points}


def select_census(qloci, stratum) -> list:
    lo, hi = stratum["items"]
    return [
        c for c in census_candidates(qloci)
        if stratum["quiver"] in (None, c["quiver"])
        and stratum["p"] in (None, c["p"])
        and lo <= c["items"] <= hi
    ]


def expected_outputs(qloci, workload: str, jobs: list, files: dict) -> list:
    out = []
    for job in jobs:
        job = {"workload": workload, **job}
        output = W.run_job(qloci, job, files)
        if workload == "orbits":
            job["items"] = len(output[0])
            canon = W.orbits_canon(*output)
        elif workload == "poset":
            payload = json.loads(output)
            job["items"] = len(payload["nodes"])
            canon = W.poset_canon(payload)
        else:
            payload = json.loads(output)
            if sum(o["size"] for o in payload["census"]["orbits"]) != job["items"]:
                raise SystemExit(f"census of {job} does not cover the space")
            canon = W.census_canon(payload)
        job["digest"] = W.digest(canon)
        del job["workload"]
        out.append(job)
    return out


def oriented_poset_jobs(qloci, files: dict) -> list:
    """Oriented quivers with dims in {1,2}, small enough for the oracle,
    with the brute-force orbit count over F_2 (the number of orbits of a
    type A quiver does not depend on the field)."""
    rng = random.Random(0)
    out = []
    for quiver, take in (("RR", 8), ("LRRL", 6), ("RRLL", 6)):
        cands = [
            list(d) for d in itertools.product((1, 2), repeat=vertex_count(qloci, quiver))
            if space_points(qloci, quiver, d, 2) <= POINT_CAP
        ]
        rng.shuffle(cands)
        for dims in sorted(cands[:take]):
            text = W.cli_output(qloci, [
                "oracle", "--quiver", files[quiver], "--dims", ",".join(map(str, dims)),
                "--p", "2", "--format", "json",
            ])
            out.append({"quiver": quiver, "dims": dims, "items": len(json.loads(text)["census"]["orbits"])})
    return out


def main() -> int:
    qloci = run.import_qloci()
    files = W.write_quivers(run.work_dir("make_expected"), ("bip1", "bip2", "bip3", "bip4", "RRLL", "RR", "LRRL"))
    W.EXPECTED_DIR.mkdir(exist_ok=True)
    chosen = sys.argv[1:] or ["orbits", "poset", "census", "poset_oriented"]
    for workload in ("orbits", "poset", "census"):
        if workload not in chosen:
            continue
        population = {}
        for stratum in W.STRATA[workload]:
            t0 = time.perf_counter()
            if workload == "orbits":
                jobs = select_orbits(qloci, stratum)
            elif workload == "poset":
                jobs = select_poset(qloci, stratum)
            else:
                jobs = select_census(qloci, stratum)
            population[stratum["name"]] = expected_outputs(qloci, workload, jobs, files)
            items = sum(j["items"] for j in population[stratum["name"]])
            print(f"{workload}/{stratum['name']}: {len(jobs)} jobs, {items} items, "
                  f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
        with open(W.EXPECTED_DIR / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(population, fh, separators=(",", ":"))
            fh.write("\n")
    if "poset_oriented" not in chosen:
        return 0
    oriented = oriented_poset_jobs(qloci, files)
    with open(W.EXPECTED_DIR / "poset_oriented.json", "w", encoding="utf-8") as fh:
        json.dump(oriented, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

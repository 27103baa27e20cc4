"""Measure the baseline and write perfbench/BASELINE.json.

    python3 perfbench/baseline.py

Runs the benchmark as its acceptance check does: two sets of ten untraced
runs per workload (seeds 1-10, then 11-20; the first set of every workload
before the second set of any), each BENCHMARK.json's run_seconds long.  It
records every run; each set's median, quartiles and spread (quartile
distance over median) per end-to-end metric; and whether the two sets agree
within the metric's bound.  One traced run per workload (seed 1) gives
every layer's share of the summed self time of all traced calls, and the
tracing overhead.  Also records the oriented-poset probe of selftest.py and
the table of which layer metric should move which end-to-end metric on
which workload.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

import run
import selftest
import workloads as W

# Which end-to-end metrics a change to each layer should move, on which
# workloads, and where it should change nothing.
LAYER_TABLE = [
    {"layer": "matrices.rank.{gf2,fp,q}.{calls,cells,self_s}, matrices.prefix_block_ranks.{gf2,fp,q}."
              "{calls,cells,self_s}, matrices.inverse.self_s, matrices.multiply.self_s",
     "moves": ["items_per_s", "job_p90_ms"], "on": ["classify (q, fp)", "census (gf2, fp)"],
     "not_on": ["orbits", "poset"]},
    {"layer": "reps.assemble_interval_matrix.{calls,cells,self_s}, reps.rank_array.{calls,self_s}",
     "moves": ["items_per_s"], "on": ["census", "classify"], "not_on": ["orbits", "poset"]},
    {"layer": "poset.enumerate_orbits.{calls,self_s}, poset.iter_lace_values.{yielded,self_s}, "
              "reps.lace_to_rank.{calls,self_s}, reps.rank_to_lace.{calls,self_s}, "
              "zelevinsky.block_rank_symbolic.{calls,self_s}, perms.zelevinsky_permutation.{calls,self_s}, "
              "perms.inversion_length.self_s, perms.length_from_blocks.self_s",
     "moves": ["items_per_s"], "on": ["orbits", "poset (smaller share)"], "not_on": ["classify", "census"]},
    {"layer": "poset.hasse.{pairs,self_s}, poset.order_equivalence_report.{pairs,self_s}, "
              "perms.bruhat_leq.{calls,self_s}, poset.dense_orbit.self_s",
     "moves": ["items_per_s", "job_p90_ms"], "on": ["poset"], "not_on": ["orbits", "classify", "census"]},
    {"layer": "zelevinsky.zelevinsky_map.self_s, zelevinsky.block_rank_numeric.self_s, perms.essential_set.self_s",
     "moves": ["job_p90_ms"], "on": ["classify"], "not_on": ["orbits", "poset", "census"]},
    {"layer": "oracle.iter_reps.{yielded,self_s}, oracle.brute_orbit_partition.{calls,self_s}, "
              "oracle.verify_rank_determines_orbit.self_s, reduction.lift_rep.{calls,self_s}, "
              "reduction.rank_array_arbitrary.{calls,self_s}",
     "moves": ["items_per_s", "peak_rss_mb"], "on": ["census"], "not_on": ["orbits", "poset", "classify"]},
    {"layer": "serde.rep_from_json.self_s, serde.poset_to_json.self_s, cli.main.self_s",
     "moves": ["job_p50_ms"], "on": ["classify", "poset"], "not_on": ["orbits"]},
]


SETS = (list(range(1, 11)), list(range(11, 21)))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "runs": len(values)}


def agreement(first: dict, second: dict, spec: dict) -> dict:
    """How much worse the second set's median is than the first's, as a
    share of it, and whether that and both spreads (except set-up time's)
    stay within the metric's bound."""
    worse = (second["median"] - first["median"]) / first["median"]
    if spec["better"] == "higher":
        worse = -worse
    spreads_ok = spec["name"] == "setup_s" or max(first["spread"], second["spread"]) <= spec["bound"]
    return {"second_worse_by": worse, "bound": spec["bound"],
            "within_bound": worse <= spec["bound"] and spreads_ok}


def measure_set(workload: str, seeds: list, seconds: int) -> dict:
    runs = []
    for seed in seeds:
        result = one_run(workload, seed, seconds, 0)
        values = {name: m["value"] for name, m in result["metrics"].items()}
        runs.append({"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
                     "correct": result["correct"], "metrics": values})
        print(workload, seed, {k: round(v, 4) for k, v in values.items()}, file=sys.stderr)
    names = runs[0]["metrics"]
    return {"runs": runs, "end_to_end": {name: summary([r["metrics"][name] for r in runs]) for name in names}}


def traced(workload: str, seconds: int) -> dict:
    metrics = one_run(workload, SETS[0][0], seconds, 1)["metrics"]
    busy = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    return {
        "seed": SETS[0][0],
        "overhead_frac": metrics["trace.overhead_frac"]["value"],
        "items_per_s_untraced": metrics["trace.items_per_s_untraced"]["value"],
        "items_per_s_traced": metrics["trace.items_per_s_traced"]["value"],
        "self_s_share": {
            k[: -len(".self_s")]: round(v["value"] / busy, 4)
            for k, v in sorted(metrics.items(), key=lambda kv: -kv[1]["value"])
            if k.endswith(".self_s") and v["value"] > 0
        },
        "counts": {k: v["value"] for k, v in metrics.items()
                   if not k.endswith(".self_s") and not k.startswith("trace.")},
    }


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    sets = {w: [] for w in W.WORKLOADS}
    for seeds in SETS:
        for workload in W.WORKLOADS:
            sets[workload].append(measure_set(workload, seeds, seconds))
    out = {"seconds": seconds, "sets": [{"seeds": s} for s in SETS], "workloads": {}}
    for workload, (first, second) in sets.items():
        runs = first["runs"] + second["runs"]
        attempted = sum(r["attempted"] for r in runs)
        out["workloads"][workload] = {
            "sets": [first, second],
            "agreement": {m["name"]: agreement(first["end_to_end"][m["name"]], second["end_to_end"][m["name"]], m)
                          for m in spec["end_to_end"]},
            "jobs_attempted": attempted,
            "fail_frac": sum(r["failed"] for r in runs) / attempted,
            "jobs_per_run": attempted / len(runs),
            "trace": traced(workload, seconds),
        }
    qloci = run.import_qloci()
    wrong, total = selftest.oriented_poset_probe(qloci)
    out["poset_oriented"] = {
        "jobs": total,
        "node_count_differs_from_oracle": wrong,
        "cause": "ROADMAP item 4: cmd_poset lifts an oriented quiver to its bipartite double and "
                 "enumerates every orbit there, including those whose delta maps are singular",
    }
    out["machine"] = {"platform": platform.platform(), "python": platform.python_version(),
                      "cpus": os.cpu_count()}
    out["layer_table"] = LAYER_TABLE
    path = run.HERE / "BASELINE.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark and its checker, plus the oriented-poset probe.

    python3 perfbench/selftest.py

1. Runs every workload briefly with --trace 0 and --trace 1 and confirms
   that each metric BENCHMARK.json names is printed, with its unit.
2. Feeds the checker wrong outputs (a perturbed lace array, a wrong
   dimension, a dropped cover, a dropped orbit, a wrong orbit size) in
   place of the program's real ones, and confirms each counts as a failure
   while the real outputs pass.
3. Runs `qloci poset` on the oriented type A jobs of
   expected/poset_oriented.json and reports how many node counts differ
   from the brute-force orbit count.  At the seed commit every one does
   (ROADMAP item 4); this is reported, not treated as a checker fault.

Exits nonzero if (1) or (2) finds a problem.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import workloads as W

BENCHMARK = run.ROOT / "BENCHMARK.json"


def metrics_emitted(problems: list) -> None:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    for workload in W.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "0",
                 "--seconds", "0.1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=170,
            )
            if proc.returncode != 0:
                problems.append(f"{workload} --trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} --trace {trace}: outputs failed their checks")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            if got != want:
                problems.append(f"{workload} --trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                                f"or their units differ from BENCHMARK.json")
            print(f"{workload} --trace {trace}: {len(got)} metrics, {result['attempted']} jobs")


def _perturb_lace(out):
    dec, zel = out
    payload = json.loads(dec)
    payload["lace_array"][0]["multiplicity"] += 1
    return json.dumps(payload), zel


def _perturb_dimension(out):
    dec, zel = out
    payload = json.loads(zel)
    payload["dimension"] += 1
    return dec, json.dumps(payload)


def _drop_cover(out):
    payload = json.loads(out)
    payload["covers"].pop()
    return json.dumps(payload)


def _drop_orbit(out):
    nodes, laces = out
    return nodes[1:], laces[1:]


def _wrong_size(out):
    payload = json.loads(out)
    orbits = payload["census"]["orbits"]
    orbits[0]["size"], orbits[-1]["size"] = orbits[0]["size"] + 1, orbits[-1]["size"] - 1
    return json.dumps(payload)


PERTURBATIONS = {
    "classify": [("perturbed lace array", _perturb_lace), ("wrong dimension", _perturb_dimension)],
    "poset": [("dropped cover", _drop_cover)],
    "orbits": [("dropped orbit", _drop_orbit)],
    "census": [("moved orbit size", _wrong_size)],
}


def checker_counts_failures(qloci, problems: list) -> None:
    """Run one job with its real output, then with that output made wrong."""
    real_run_job = W.run_job
    for workload, cases in PERTURBATIONS.items():
        (inputs,) = run.generate(workload, 0, run.work_dir(f"selftest-{workload}"))
        if workload == "census":  # a small job whose census has several orbits
            target = next(j for j in inputs["jobs"] if j["stratum"] == "bip2-p3-81")
        elif workload == "poset":
            target = next(j for j in inputs["jobs"] if j["items"] > 4)
        else:
            target = inputs["jobs"][0]
        inputs = {**inputs, "jobs": [target]}
        clean = run.run_round(qloci, inputs)
        if clean.failures:
            problems.append(f"{workload}: the real output failed: {clean.failures}")
        for label, perturb in cases:
            W.run_job = lambda q, job, files, perturb=perturb: perturb(real_run_job(q, job, files))
            try:
                wrong = run.run_round(qloci, inputs)
            finally:
                W.run_job = real_run_job
            counted = len(wrong.failures) == 1 and wrong.items == 0
            print(f"{workload}: {label}: {'counted as a failure' if counted else 'NOT COUNTED'}")
            if not counted:
                problems.append(f"{workload}: {label} was not counted as a failure")


def oriented_poset_probe(qloci) -> tuple[int, int]:
    """(node counts that differ from the oracle's orbit count, jobs)."""
    files = W.write_quivers(run.work_dir("selftest-oriented"), ("RR", "RRLL", "LRRL"))
    jobs = json.loads((W.EXPECTED_DIR / "poset_oriented.json").read_text(encoding="utf-8"))
    wrong = 0
    for job in jobs:
        dims = ",".join(map(str, job["dims"]))
        out = W.cli_output(qloci, ["poset", "--quiver", files[job["quiver"]], "--dims", dims,
                                   "--format", "json", "--guard", str(W.LACE_GUARD)])
        nodes = len(json.loads(out)["nodes"])
        wrong += nodes != job["items"]
        print(f"oriented poset {job['quiver']} {dims}: {nodes} nodes, oracle {job['items']} orbits")
    print(f"oriented poset: {wrong} of {len(jobs)} node counts differ from the oracle's orbit count")
    return wrong, len(jobs)


def main() -> int:
    qloci = run.import_qloci()
    problems: list[str] = []
    metrics_emitted(problems)
    checker_counts_failures(qloci, problems)
    oriented_poset_probe(qloci)
    for p in problems:
        print(f"PROBLEM {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

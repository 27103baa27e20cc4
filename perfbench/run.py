"""The qloci benchmark.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the repository root.  Steps:

1. gen.py writes the seeded inputs for workload W: several distinct rounds
   of jobs, each made of blocks of a fixed size mix (a separate process, so
   input generation counts neither in the timings nor in peak memory);
2. with --trace 0, setup_probe.py measures set-up time in fresh processes;
3. this process imports qloci from ./src and runs rounds on one thread,
   checking every output after its job's clock stops.

With --trace 0 it runs the rounds in turn, tracing off, until the summed
job time reaches T seconds, and reports the end-to-end metrics: items_per_s
is checked items over the summed job time of the whole run, the job
percentiles are over every job run.
With --trace 1 it runs the first round once untraced and twice traced,
checks that both traced passes give identical work counts, and reports the
per-layer metrics and the tracing overhead.  The last line of stdout is one
JSON object; the lines before it give every metric with its unit and sample
count.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as T
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

# Blocks in a round: about 2.5 s of job time at the seed commit (poset: the
# whole population, and census: one block, each about 5 s).
ROUND_BLOCKS = {"orbits": 8, "poset": 1, "classify": 4, "census": 1}
# Distinct rounds drawn for an untraced run, which cycles through them, so
# that a run averages over many instances of every stratum instead of
# repeating a few.
DRAWN_ROUNDS = 10
SETUP_REPEATS = 9
# Jobs a timed run holds at least, so that job_p90_ms has ten beyond it.
MIN_JOBS = 100

END_TO_END = [
    ("items_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _layer_metrics():
    out = []
    for prefix in ("matrices.rank", "matrices.prefix_block_ranks"):
        for field in ("gf2", "fp", "q"):
            out += [f"{prefix}.{field}.{s}" for s in ("calls", "cells", "self_s")]
    out += ["matrices.inverse.self_s", "matrices.multiply.self_s"]
    out += [f"reps.assemble_interval_matrix.{s}" for s in ("calls", "cells", "self_s")]
    for name in (
        "reps.rank_array", "poset.enumerate_orbits", "reps.lace_to_rank", "reps.rank_to_lace",
        "zelevinsky.block_rank_symbolic", "perms.zelevinsky_permutation", "perms.bruhat_leq",
        "oracle.brute_orbit_partition", "reduction.lift_rep", "reduction.rank_array_arbitrary",
    ):
        out += [f"{name}.calls", f"{name}.self_s"]
    out += ["poset.iter_lace_values.yielded", "poset.iter_lace_values.self_s"]
    out += ["oracle.iter_reps.yielded", "oracle.iter_reps.self_s"]
    out += ["poset.hasse.pairs", "poset.hasse.self_s"]
    out += ["poset.order_equivalence_report.pairs", "poset.order_equivalence_report.self_s"]
    out += [
        f"{name}.self_s"
        for name in (
            "perms.inversion_length", "perms.length_from_blocks", "poset.dense_orbit",
            "zelevinsky.zelevinsky_map", "zelevinsky.block_rank_numeric", "perms.essential_set",
            "oracle.verify_rank_determines_orbit", "serde.rep_from_json", "serde.poset_to_json",
            "cli.main",
        )
    ]
    return [(m, "s" if m.endswith("self_s") else "count") for m in out]


PER_LAYER = _layer_metrics() + [
    ("trace.items_per_s_untraced", "1/s"),
    ("trace.items_per_s_traced", "1/s"),
    ("trace.overhead_frac", "ratio"),
]


def import_qloci():
    """qloci from ./src of this checkout, never from anywhere else."""
    if not (SRC / "qloci" / "__init__.py").is_file():
        raise SystemExit(f"error: no qloci sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qloci
    import qloci.cli

    if not Path(qloci.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported qloci from {qloci.__file__}, not {SRC}")
    return qloci


def work_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def generate(workload: str, seed: int, work: Path, rounds: int = 1) -> list:
    """`rounds` seeded rounds of jobs, each {"files": ..., "jobs": [...]}."""
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed),
         "--blocks", str(ROUND_BLOCKS[workload] * rounds), "--out", str(work)],
        check=True, timeout=150,
    )
    with open(work / "jobs.json", encoding="utf-8") as fh:
        inputs = json.load(fh)
    size = len(inputs["jobs"]) // rounds
    return [{"files": inputs["files"], "jobs": inputs["jobs"][k * size:(k + 1) * size]} for k in range(rounds)]


def measure_setup(workload: str) -> list:
    """Set-up seconds of SETUP_REPEATS fresh processes, after one warm-up."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    argv += [str(n) for n in W.interval_ns(workload)]
    out = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(argv, check=True, timeout=60, capture_output=True, text=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out[1:]


class Pass:
    """Outcome of running some jobs: per-job times, items and failures."""

    def __init__(self):
        self.times: list[float] = []
        self.latencies: list[float] = []  # as times, but a failed job is infinite
        self.items = 0
        self.failures: list[str] = []

    @property
    def busy(self) -> float:
        return sum(self.times)

    def items_per_s(self) -> float:
        return self.items / self.busy if self.busy > 0 else 0.0


def run_round(qloci, inputs: dict, tr=None) -> Pass:
    """Run every job once.  Each job is timed alone; its check runs after
    the clock stops."""
    files = inputs["files"]
    result = Pass()
    for idx, job in enumerate(inputs["jobs"]):
        if tr is not None:
            tr.job_id = idx
        error = None
        t0 = time.perf_counter()
        try:
            output = W.run_job(qloci, job, files)
        except Exception as exc:  # a job that raises is a failed job
            error = exc
        elapsed = time.perf_counter() - t0
        result.times.append(elapsed)
        if error is None:
            try:
                W.check_job(job, output)
            except Exception as exc:  # malformed output fails the check too
                error = exc
            del output
        if error is None:
            result.items += job["items"]
            result.latencies.append(elapsed)
        else:
            result.latencies.append(math.inf)
            result.failures.append(f"job {idx} ({job['stratum']}): {type(error).__name__}: {error}")
    return result


def run_rounds(qloci, rounds: list, seconds: float) -> list:
    """Whole rounds, in turn, until their summed job time reaches `seconds`
    and they hold at least MIN_JOBS jobs."""
    passes = []
    while sum(r.busy for r in passes) < seconds or sum(len(r.times) for r in passes) < MIN_JOBS:
        passes.append(run_round(qloci, rounds[len(passes) % len(rounds)]))
    return passes


def job_percentiles(latencies: list):
    """Nearest-rank p50 and p90 per-job wall time in ms; a failed job counts
    as infinite."""
    ordered = sorted(latencies)
    return tuple(1000 * ordered[math.ceil(q * len(ordered)) - 1] for q in (0.5, 0.9))


def warm_up(qloci, workload: str, inputs: dict) -> None:
    for n in W.interval_ns(workload):
        qloci.quiver.interval_table(n)
    try:
        W.run_job(qloci, inputs["jobs"][0], inputs["files"])
    except Exception:  # counted when the job runs in the measured phase
        pass


def untraced_run(qloci, args):
    drawn = generate(args.workload, args.seed, work_dir(args.workload), DRAWN_ROUNDS)
    setup = measure_setup(args.workload)
    warm_up(qloci, args.workload, drawn[0])
    rounds = run_rounds(qloci, drawn, args.seconds)
    latencies = [t for r in rounds for t in r.latencies]
    failures = [f for r in rounds for f in r.failures]
    p50, p90 = job_percentiles(latencies)
    busy = sum(r.busy for r in rounds)
    metrics = {
        "items_per_s": sum(r.items for r in rounds) / busy,
        "job_p50_ms": p50,
        "job_p90_ms": p90,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "items_per_s": f"{len(rounds)} rounds of {len(drawn[0]['jobs'])} jobs, {busy:.3f} s of job time",
        "job_p50_ms": f"{len(latencies)} jobs",
        "job_p90_ms": f"{len(latencies)} jobs",
        "setup_s": f"median of {len(setup)} fresh processes",
        "peak_rss_mb": "ru_maxrss of the measuring process",
    }
    for name, unit in END_TO_END:
        print(f"{args.workload:9s} {name:14s} {metrics[name]:14.6g} {unit:4s} ({samples[name]})")
    print(f"{args.workload:9s} {'fail_frac':14s} {len(failures) / len(latencies):14.6g} {'1':4s} "
          f"({len(failures)} of {len(latencies)} jobs)")
    return failures, [], len(latencies), {name: (metrics[name], unit) for name, unit in END_TO_END}


def traced_run(qloci, args):
    (inputs,) = generate(args.workload, args.seed, work_dir(args.workload))
    warm_up(qloci, args.workload, inputs)
    base = run_round(qloci, inputs)
    passes, tracers = [], []
    for _ in range(2):
        tr = T.Tracer()
        restore = T.install(qloci, tr)
        try:
            passes.append(run_round(qloci, inputs, tr=tr))
        finally:
            restore()
        tracers.append(tr)
    counts = [tr.counts() for tr in tracers]
    failures = base.failures + passes[0].failures + passes[1].failures
    problems = []
    if counts[0] != counts[1]:
        diff = sorted(k for k in set(counts[0]) | set(counts[1]) if counts[0].get(k) != counts[1].get(k))
        problems.append(f"traced passes disagree on work counts: {diff[:10]}")
    selfs = [tr.self_seconds() for tr in tracers]
    metrics = {}
    for name, unit in PER_LAYER:
        if name.endswith(".self_s"):
            key = name[: -len(".self_s")]
            metrics[name] = sum(s.get(key, 0.0) for s in selfs) / 2
        elif not name.startswith("trace."):
            metrics[name] = counts[0].get(name, 0)
    traced_ips = sum(p.items for p in passes) / sum(p.busy for p in passes)
    metrics["trace.items_per_s_untraced"] = base.items_per_s()
    metrics["trace.items_per_s_traced"] = traced_ips
    metrics["trace.overhead_frac"] = base.items_per_s() / traced_ips - 1
    traced_busy = sum(p.busy for p in passes) / 2
    for name, unit in PER_LAYER:
        share = ""
        if name.endswith(".self_s") and traced_busy > 0:
            share = f" ({100 * metrics[name] / traced_busy:.1f}% of traced job time)"
        print(f"{args.workload:9s} {name:44s} {metrics[name]:14.6g} {unit}{share}")
    for i, tr in enumerate(tracers, start=1):
        tr.write(WORK / args.workload / f"spans-{i}")
    attempted = len(base.times) + sum(len(p.times) for p in passes)
    return failures, problems, attempted, {name: (metrics[name], unit) for name, unit in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    qloci = import_qloci()
    run = traced_run if args.trace else untraced_run
    failures, problems, attempted, metrics = run(qloci, args)
    for line in failures[:20] + problems:
        print(f"FAILED {line}")
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

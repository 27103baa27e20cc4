"""Input generation, the benchmark's separate first step.

    python3 perfbench/gen.py --workload W --seed S --blocks B --out DIR

Writes DIR/jobs.json (the seeded round of jobs, `blocks` blocks long), the
quiver files the jobs name, and for `classify` one representation file per
job.  Imports nothing from qloci: the program only ever sees these files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import workloads as W


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--blocks", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    out = Path(args.out)

    if args.workload == "classify":
        jobs = W.classify_inputs(args.seed, args.blocks)
        (out / "reps").mkdir(parents=True, exist_ok=True)
        for i, job in enumerate(jobs):
            path = out / "reps" / f"{i}.json"
            path.write_text(json.dumps(job.pop("rep")), encoding="utf-8")
            job["rep_file"] = str(path)
    else:
        jobs = W.draw_jobs(args.workload, args.seed, args.blocks)

    files = W.write_quivers(out / "quivers", {job["quiver"] for job in jobs if "quiver" in job})
    payload = {"files": files, "jobs": jobs}
    (out / "jobs.json").write_text(json.dumps(payload), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

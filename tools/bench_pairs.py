"""Run the benchmark on two checkouts in alternating pairs and write a
BENCH_<PR>.json record.

    python3 tools/bench_pairs.py --parent DIR --change DIR --parent-rev SHA \
        --change-text TEXT --seeds 3101-3110 --seconds 40 --out BENCH_31.json \
        [--workloads corpus,tables,adaptive] [--claim WORKLOAD:METRIC:THRESHOLD]

Each side runs `python3 bench/run.py --workload W --seed S --seconds T
--trace 0` from its own directory, which should be a clean export of its
commit with the same `bench/` files.  Pair k of a workload uses the k-th
seed; the parent runs first in odd-numbered pairs and the change first in
even ones.  The record keeps every run and, per workload and end-to-end
metric, each side's median and quartiles (`statistics.quantiles`, default
method), the relative change of the medians and the number of pairs the
change won (ties count for neither side).  It lives outside `bench/` so
that running it never changes the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

METRICS = {"pass_s": "lower", "setup_s": "lower", "peak_rss_mb": "lower", "verified_share": "higher"}


def run_side(directory: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=directory, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    row = {key: result[key] for key in ("correct", "attempted", "failed")}
    row.update({name: result["metrics"][name]["value"] for name in METRICS})
    return row


def side_summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summary(runs: list[dict]) -> dict:
    out = {}
    for name, better in METRICS.items():
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        out[name] = {
            "parent": side_summary(parent),
            "change": side_summary(change),
            "relative_change": (c_med - p_med) / p_med if p_med else 0.0,
            "change_wins": wins,
            "pairs": len(runs),
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--parent-rev", required=True)
    ap.add_argument("--change-text", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workloads", default="corpus,tables,adaptive")
    ap.add_argument("--claim", help="WORKLOAD:METRIC:THRESHOLD")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    workloads = {}
    for workload in args.workloads.split(","):
        runs = []
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            run = {"seed": seed, "first": order[0]}
            for side in order:
                run[side] = run_side(getattr(args, side), workload, seed, args.seconds)
            runs.append(run)
            print(workload, seed, {side: run[side]["pass_s"] for side in order}, flush=True)
        workloads[workload] = {"summary": summary(runs), "runs": runs}
    claim = None
    if args.claim:
        workload, metric, threshold = args.claim.split(":", 2)
        claim = {"workload": workload, "metric": metric, "better": METRICS[metric], "threshold": threshold}
    record = {
        "change": args.change_text,
        "parent": args.parent_rev,
        "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "protocol": (
            f"{len(seeds)} parent/change pairs per workload, the parent first in odd-numbered pairs and "
            f"the change first in even ones; seeds {first}-{last} for every workload; run one after another "
            f"({', then '.join(workloads)}), each side from its own clean export with the same bench/ files"
        ),
        "claim": claim,
        "workloads": workloads,
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(), "vm": "shared VM, no machine tuning"},
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One-off input to the `--jobs` decision: the `corpus` pass under
`cli.run(jobs=1)` and under `cli.run(jobs=2)`, the same number of passes on
each side, alternating which side goes first.  Both sides must produce the
same report bytes.  Not a workload: its result is recorded in NOTES.md.

    python3 bench/jobs_probe.py [--passes N]

Run it from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(Path(__file__).resolve().parent), str(ROOT / "src")]

from run import fresh_import  # noqa: E402
from workloads import SPEC_FILES  # noqa: E402


def corpus_pass(C, texts: list[str], jobs: int) -> tuple[float, list[str]]:
    start = time.perf_counter()
    reports = []
    for text in texts:
        result = C.cli.run(C.cli.parse_spec(text), no_meta=True, jobs=jobs)
        reports.append(json.dumps(result.report, sort_keys=True, default=C.scalars.scalar_str))
    return time.perf_counter() - start, reports


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args()
    C = fresh_import()
    texts = [(ROOT / "specs" / name).read_text() for name in SPEC_FILES]
    times: dict[int, list[float]] = {1: [], 2: []}
    reference = None
    for k in range(args.passes):
        for jobs in ((1, 2) if k % 2 == 0 else (2, 1)):
            gc.collect()
            seconds, reports = corpus_pass(C, texts, jobs)
            reference = reference or reports
            if reports != reference:
                sys.stderr.write(f"jobs_probe: jobs={jobs} changed a report\n")
                return 1
            times[jobs].append(seconds)
    print(
        json.dumps(
            {
                "machine": {"cores": os.cpu_count(), "python": platform.python_version(), "gc_threshold": gc.get_threshold()},
                "passes": args.passes,
                "pass_s": {f"jobs={j}": t for j, t in times.items()},
                "median_pass_s": {f"jobs={j}": statistics.median(t) for j, t in times.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

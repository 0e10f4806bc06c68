"""Run one workload of the composec benchmark and print its metrics.

    python3 bench/run.py --workload corpus|tables|adaptive --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports `composec` from
`src/` and reads `specs/`.  It sets up the workload `SETUP_REPEATS` times,
then decides every check of the workload once per pass, pass after pass,
while the next pass would likely end within `--seconds` (one pass at
least).  Every answer is checked by the benchmark's own code
(`answers.py`), and every pass also checks that each of those checks
rejects a corrupted copy of a correct answer.

Times (`pass_s`, `setup_s`) are reported at a fixed reference speed: each
is scaled by a speed probe run before, after and every half second during
the work timed (`speed.py`), because the wall time of the same work on a
shared machine drifts by up to twice between phases.  The wall times are
kept in the record line.

With `--trace 0` it reports the end-to-end metrics listed in
BENCHMARK.json; with `--trace 1` it alternates untraced and traced passes
and reports the per-layer metrics of the traced ones (medians over passes)
and the tracing overhead.  The last line of standard output is the result
object; the line before it records the machine and every sample.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_REPEATS = 9

sys.path.insert(0, str(HERE))

from speed import REFERENCE_S, SpeedClock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fresh_import():
    """Import composec as a new process would, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "composec" or n.startswith("composec.")]:
        del sys.modules[name]
    package = importlib.import_module("composec")
    importlib.import_module("composec.cli")
    return package


def run_pass(C, workload, ctx, tracer=None):
    """Decide every check once.  Returns the pass's wall seconds, the same
    at the reference speed (`speed.py`), and each check with its answer, or
    with the exception it raised."""
    clock = SpeedClock(tracer.record_probe if tracer else None)
    results = []
    wall = at_reference = 0.0
    for check in workload.checks(C, ctx):
        run = functools.partial(tracer.run_check, check.id, check.run) if tracer else check.run
        seconds, scaled_seconds, answer = clock.time(run)  # a check that raises fails; the pass goes on
        wall += seconds
        at_reference += scaled_seconds
        results.append((check, answer))
    return wall, at_reference, results


def problems_of(check, answer) -> list[str]:
    if isinstance(answer, Exception):
        return [f"raised {type(answer).__name__}: {answer}"] * check.size
    try:
        return check.verify(answer)
    except Exception as exc:  # an answer the check cannot read is wrong
        return [f"unreadable answer ({type(exc).__name__}: {exc})"] * check.size


def judge(results) -> tuple[int, int, list[str]]:
    """(decisions attempted, decisions failed, messages), including the
    self-test: each check must reject a corrupted copy of a correct answer."""
    attempted = failed = 0
    messages = []
    for check, answer in results:
        attempted += check.size
        problems = problems_of(check, answer)
        failed += min(len(problems), check.size)
        messages += [f"{check.id}: {p}" for p in problems]
        if not problems and not problems_of(check, check.corrupt(answer)):
            messages.append(f"{check.id}: self-test: a corrupted answer was accepted")
            failed += check.size
    return attempted, failed, messages


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "composec" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no composec sources under {ROOT / 'src'}; run from a checkout root\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    specs = metric_specs()
    workload = WORKLOADS[args.workload]

    def set_up():
        C = fresh_import()
        return C, workload.setup(C, ROOT, args.seed)

    setup_wall, setup_s = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        wall, seconds, outcome = SpeedClock().time(set_up)
        if isinstance(outcome, Exception):
            raise outcome
        C, ctx = outcome
        setup_wall.append(wall)
        setup_s.append(seconds)

    pass_wall, pass_s, traced_s, layers = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        traced = bool(args.trace) and len(traced_s) < len(pass_s)
        tracer = Tracer() if traced else None
        gc.collect()
        if traced:
            tracer.install()
        try:
            wall, seconds, results = run_pass(C, workload, ctx, tracer)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_s.append(seconds)
            layers.append(tracer.metrics())
        else:
            pass_wall.append(wall)
            pass_s.append(seconds)
        a, f, messages = judge(results)
        attempted += a
        failed += f
        for line in messages[:20]:
            sys.stderr.write(f"bench: {line}\n")
        del results, tracer
        # stop before a pass that would likely end past the time given
        now = time.perf_counter()
        if pass_s and (traced_s or not args.trace) and now - start + (now - pass_start) > args.seconds:
            break

    if args.trace:
        values = {name: statistics.median(run[name] for run in layers) for name in layers[0]}
        values["trace.overhead_share"] = statistics.median(traced_s) / statistics.median(pass_s) - 1
        wanted = specs["per_layer"]
    else:
        values = {
            "pass_s": statistics.median(pass_s),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "verified_share": (attempted - failed) / attempted,
        }
        wanted = specs["end_to_end"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "gc_threshold": gc.get_threshold(),
            "gc_enabled": gc.isenabled(),
        },
        "probe_reference_s": REFERENCE_S,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall,
        "pass_s": pass_s,
        "pass_wall_s": pass_wall,
        "traced_pass_s": traced_s,
    }
    print(json.dumps(record))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

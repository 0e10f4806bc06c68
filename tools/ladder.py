"""Run the scaling ladder rows on two checkouts, each row in a fresh
process, and print each run's wall time and max RSS.

    python3 tools/ladder.py --parent DIR --change DIR

The rows are `hopf_axiom_suite` over Z64, Z96 and Z128 (`hopf64`,
`hopf96`, `hopf128`), the secure `check otp` over Z128 and Z256
(`otp128`, `otp256`), the latter through `cli.run(no_meta=True)` on a
one-check spec, as `composec otp --group 'cyclic N'` runs it, and
`min_epsilon` for Eve over Z5 and Z8 (`eps5`, `eps8`), the key 0 at
probability 1/2 and the others uniform, whose time is mostly the exact
simplex in `lp`, and `check broadcast` through `cli.run(no_meta=True)` on
a fixed one-round resource whose Bob sends a trit and whose Alice and
Charlie each receive a bit (`bcast`): its tripartite program has 87
variables and 138 rows, past the bit-sized ones of the benchmark.  Each
side imports `composec` from its own `DIR/src`.
The script makes three passes over all rows on each side; the parent
runs first in odd-numbered passes and the change first in even ones, and
each side's range over its three processes closes the output.  The wall
time covers the call alone, not the interpreter's start or the imports;
the max RSS is the child's `getrusage` peak, so it includes the
interpreter and the imports.  It lives outside `bench/` so that running
it never changes the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

PASSES = 3

HOPF = """
from composec.hopf import group_make, hopf_axiom_suite
group = group_make(("cyclic", {n}))
start = time.perf_counter()
report = hopf_axiom_suite(group)
seconds = time.perf_counter() - start
result = "all pass" if report.all_pass else "failed " + ", ".join(report.failed())
"""

OTP = """
from composec.cli import parse_spec, run
spec = parse_spec("group g cyclic {n}\\ncheck otp g expect secure\\n")
start = time.perf_counter()
outcome = run(spec, no_meta=True)
seconds = time.perf_counter() - start
result = "secure" if outcome.exit_code == 0 else "exit " + str(outcome.exit_code)
"""

EPS = """
from fractions import Fraction
from composec.attacks import min_epsilon
from composec.hopf import build_otp, group_make
key = (Fraction(1, 2),) + (Fraction(1, 2 * ({n} - 1)),) * ({n} - 1)
inst = build_otp(group_make(("cyclic", {n})), key)
start = time.perf_counter()
report = min_epsilon(inst.protocol, inst.source, inst.target, ("eve",))
seconds = time.perf_counter() - start
result = "epsilon " + str(report.epsilon)
"""

BCAST = """
from composec.cli import parse_spec, run
spec = parse_spec(
    "alphabet bit size 2\\nalphabet trit size 3\\n"
    "resource r parties alice,bob,charlie rounds 1 ports b:bob:in:trit@1 a:alice:out:bit@1 c:charlie:out:bit@1 "
    "rows 1/2 1/6 1/3 ; 1/6 1/6 1/6 ; 1/6 1/6 1/6 ; 1/6 1/2 1/3\\n"
    "check broadcast r\\n"
)
start = time.perf_counter()
outcome = run(spec, no_meta=True)
seconds = time.perf_counter() - start
entry = outcome.report["checks"][0]
result = entry["verdict"] + (", pass" if entry["pass"] else ", fail")
"""

CHILD = """
import json, resource, time
{body}
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({{"seconds": seconds, "max_rss_mb": rss, "result": result}}))
"""

ROWS = {
    "hopf64": HOPF.format(n=64),
    "hopf96": HOPF.format(n=96),
    "hopf128": HOPF.format(n=128),
    "otp128": OTP.format(n=128),
    "otp256": OTP.format(n=256),
    "eps5": EPS.format(n=5),
    "eps8": EPS.format(n=8),
    "bcast": BCAST,
}


def run_row(checkout: str, row: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    code = CHILD.format(body=ROWS[row])
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def span(values: list[float], fmt: str) -> str:
    low, high = format(min(values), fmt), format(max(values), fmt)
    return low if low == high else f"{low}–{high}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    args = ap.parse_args()
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    runs: dict[tuple[str, str], list[dict]] = {(side, row): [] for side in sides for row in ROWS}
    for k in range(1, PASSES + 1):
        order = ["parent", "change"] if k % 2 else ["change", "parent"]
        for side in order:
            for row in ROWS:
                r = run_row(sides[side], row)
                runs[side, row].append(r)
                print(f"{k} {side:6} {row:8} {r['seconds']:8.3f} s {r['max_rss_mb']:8.1f} MB  {r['result']}", flush=True)
    for row in ROWS:
        for side in sides:
            rs = runs[side, row]
            seconds = span([r["seconds"] for r in rs], ".2f")
            rss = span([r["max_rss_mb"] for r in rs], ".0f")
            results = ", ".join(sorted({r["result"] for r in rs}))
            print(f"{row:8} {side:6} {seconds} s / {rss} MB  {results}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

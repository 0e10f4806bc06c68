"""`composec verify --no-meta` reports must keep their bytes.

`tests/golden/` holds the report of every spec file (`<spec>.json`), as
written by `composec verify --no-meta specs/<spec>.spec`.  Verdicts, Farkas
vectors, simulator digests and epsilons are all in those bytes, and every
number in them is an exact rational.  The same bytes come out under
`python -O`, which strips `assert`, so no check rests on one.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from composec.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = [p.stem for p in sorted((ROOT / "specs").glob("*.spec"))]


def test_every_spec_has_a_golden_report():
    assert {f"{name}.json" for name in CASES} == {p.name for p in GOLDEN.glob("*.json")}


# a case is named after its spec and the exact rational numbers of its report
@pytest.mark.parametrize("name", CASES, ids=[f"{name}-rational" for name in CASES])
def test_report_bytes_match_golden(name, capsysbinary):
    assert main(["verify", "--no-meta", str(ROOT / "specs" / f"{name}.spec")]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / f"{name}.json").read_bytes()


# one interpreter for every spec: the reports written back to back, then the
# worst exit code; `__debug__` is False only when `-O` took effect
UNDER_O = """
import sys
from composec.cli import main
if __debug__:
    sys.exit("not optimized")
sys.exit(max([main(["verify", "--no-meta", spec]) for spec in sys.argv[1:]]))
"""


def test_report_bytes_match_golden_under_python_O():
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    specs = [str(ROOT / "specs" / f"{name}.spec") for name in CASES]
    proc = subprocess.run([sys.executable, "-O", "-c", UNDER_O, *specs], capture_output=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == b"".join((GOLDEN / f"{name}.json").read_bytes() for name in CASES)

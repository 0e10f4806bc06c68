"""`composec verify --no-meta` reports must keep their bytes.

`tests/golden/` holds the report of every spec file (`<spec>.json`), as
written by `composec verify --no-meta specs/<spec>.spec`.  Verdicts, Farkas
vectors, simulator digests and epsilons are all in those bytes, and every
number in them is an exact rational.
"""

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

"""`composec verify --no-meta` reports must keep their bytes.

`tests/golden/` holds the reports of every spec file in rational mode
(`<spec>.json`) and of two in float mode (`<spec>.float.json`), as written
by `composec verify --no-meta [--mode float] specs/<spec>.spec`.  Verdicts,
Farkas vectors, simulator digests and epsilons are all in those bytes.
"""

from pathlib import Path

import pytest

from composec.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = [(p.stem, "rational") for p in sorted((ROOT / "specs").glob("*.spec"))] + [
    ("otp_z2", "float"),
    ("otp_degraded_key", "float"),
]


def test_every_spec_has_a_golden_report():
    assert {f"{name}.json" for name, mode in CASES if mode == "rational"} == {
        p.name for p in GOLDEN.glob("*.json") if not p.name.endswith(".float.json")
    }


@pytest.mark.parametrize("name,mode", CASES, ids=[f"{n}-{m}" for n, m in CASES])
def test_report_bytes_match_golden(name, mode, capsysbinary):
    suffix = ".json" if mode == "rational" else ".float.json"
    assert main(["verify", "--no-meta", "--mode", mode, str(ROOT / "specs" / f"{name}.spec")]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / f"{name}{suffix}").read_bytes()

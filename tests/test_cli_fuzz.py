"""Fuzzing of spec lines: every statement line of the corpus, truncated,
extended by one token, or with one token replaced, must end `composec
verify` with an exit code of 0-3 and no traceback, and a parse error must
name the mutated line.  Only the mutated line's check runs."""

import json
import re
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from composec.cli import main, parse_spec  # noqa: E402

ALL_SPECS = sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.spec"))

# `unit`, `identity` and `res` are the spec language's built-in names
FUZZ_POOL = ["0", "-1", "x", "1/0", ";", "expect", "rows", "junk", "unit", "identity", "res"]


@st.composite
def mutated_specs(draw):
    path = draw(st.sampled_from(ALL_SPECS))
    statements = parse_spec(path.read_text()).statements
    # every name the spec declares, so that one can stand where another kind is read
    declared = [s.tokens[2 if s.tokens[0] == "converter" else 1] for s in statements if s.tokens[0] != "check"]
    k = draw(st.integers(0, len(statements) - 1))
    tokens = list(statements[k].tokens)
    how = draw(st.sampled_from(["truncate", "append", "substitute"]))
    if how == "truncate":
        tokens = tokens[: draw(st.integers(1, len(tokens) - 1))]
    else:
        token = draw(st.sampled_from(FUZZ_POOL + declared + tokens))
        if how == "append":
            tokens.append(token)
        else:
            tokens[draw(st.integers(0, len(tokens) - 1))] = token
    lines = [" ".join(s.tokens) for s in statements[:k] if s.tokens[0] != "check"]
    after = [" ".join(s.tokens) for s in statements[k + 1 :] if s.tokens[0] != "check"]
    return how, len(lines) + 1, tokens[0] == "check", "\n".join(lines + [" ".join(tokens)] + after) + "\n"


@seed(20261018)
@settings(max_examples=150, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated=mutated_specs())
def test_mutated_spec_lines_end_in_an_exit_code_naming_the_line(mutated, tmp_path, capsys):
    how, line, is_check, text = mutated
    spec = tmp_path / "fuzz.spec"
    spec.write_text(text)
    code = main(["verify", "--no-meta", str(spec)])
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    if how == "append":
        assert code != 0, text
    if code == 2:
        named = re.match(r"composec: line (\d+)(, col 1: expected)?", captured.err)
        assert named, captured.err
        assert not named.group(2) or int(named.group(1)) == line, captured.err
    elif code in (1, 3):
        assert is_check
        (entry,) = json.loads(captured.out)["checks"]
        assert entry["line"] == line
        if ", col 1: expected" in entry.get("error", ""):
            assert entry["error"].startswith(f"line {line}, col 1:"), entry["error"]

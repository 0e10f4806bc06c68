import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import composec.cli
from composec.cli import BUILTINS, DECLARATIONS, EXPECTS, Env, elaborate, main, parse_spec, run, run_check
from composec.comb import Network
from composec.stoch import SIZE_CAP
from composec.errors import ComposecError, DuplicateName, ParseError, UnresolvedName

from tests.helpers import format_ast

SPECS = Path(__file__).resolve().parent.parent / "specs"

ALL_SPECS = sorted(SPECS.glob("*.spec"))


def test_corpus_exists():
    assert len(ALL_SPECS) >= 6


@pytest.mark.parametrize("path", ALL_SPECS, ids=[p.stem for p in ALL_SPECS])
def test_parse_print_roundtrip(path):
    text = path.read_text()
    ast = parse_spec(text)
    printed = format_ast(ast)
    assert format_ast(parse_spec(printed)) == printed


def test_parse_error_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_spec("alphabet bit size 2\nbogus three four\n")
    assert exc.value.line == 2


def test_two_line_file():
    ast = parse_spec("alphabet bit size 2\ngroup g2 cyclic 2\n")
    assert len(ast.statements) == 2
    env = Env()
    for stmt in ast.statements:
        elaborate(env, stmt)
    assert env.get("alphabet", "bit", 3).size == 2
    assert env.get("group", "g2", 3).order == 2


def test_unresolved_name():
    ast = parse_spec("resource r parties a rounds 1 ports x:a:in:nope@1 rows 1\n")
    env = Env()
    with pytest.raises(UnresolvedName):
        elaborate(env, ast.statements[0])


def test_duplicate_name():
    ast = parse_spec("alphabet bit size 2\nalphabet bit size 3\n")
    env = Env()
    elaborate(env, ast.statements[0])
    with pytest.raises(DuplicateName):
        elaborate(env, ast.statements[1])


@pytest.mark.parametrize("first, second", [("alphabet x size 3", "group x cyclic 2"), ("group x cyclic 2", "alphabet x size 3")])
def test_an_alphabet_and_a_group_share_one_namespace(first, second):
    # a port names its alphabet by either kind of declaration
    result = run(parse_spec(f"{first}\n{second}\n"), no_meta=True)
    assert result.exit_code == 2
    assert result.report["error"] == "line 2: name 'x' already declared"


def test_a_name_declared_as_two_kinds_is_refused():
    result = run(parse_spec("kernel x gen uniform unit\nresource x builtin commitment\n"), no_meta=True)
    assert result.exit_code == 2
    assert result.report["error"] == "line 2: name 'x' already declared"


RESERVED = {
    # a declared `unit` would give every later `unit@1` port its 3 values
    "unit-alphabet": (
        "alphabet unit size 3\nresource r parties a rounds 1 ports y:a:out:unit@1 rows 1 ; 0 ; 0\n",
        "line 1: name 'unit' is built in",
    ),
    "unit-group": ("group unit cyclic 2\n", "line 1: name 'unit' is built in"),
    # the built-in identity expander would shadow this kernel, `exp24` of
    # specs/stream_cipher.spec, whose expansion epsilon is 1/2, not 0
    "identity-kernel": (
        "group z4 cyclic 4\nalphabet h2 size 2\nkernel identity dom h2 cod z4 rows 1 0 ; 0 0 ; 0 1 ; 0 0\n"
        "check stream z4 expander identity expect_at_most 0\n",
        "line 3: name 'identity' is built in",
    ),
    # `res` is the resource node of a schedule: a party or a converter of
    # that name would make `res.1` name two nodes
    "res-party": (
        "alphabet bit size 2\n"
        "resource r parties res,b rounds 1 ports x:res:out:bit@1 y:b:out:bit@1 rows 1/2 ; 0 ; 0 ; 1/2\n"
        "converter res c ports xc:in:bit@1:wire=x xo:out:bit@1 rows 0 1 ; 1 0\n",
        "line 2: name 'res' is built in",
    ),
    "res-converter": (
        "alphabet bit size 2\nresource r parties a rounds 1 ports x:a:out:bit@1 rows 1/2 ; 1/2\n"
        "converter a res ports xc:in:bit@1:wire=x xo:out:bit@1 rows 1 0 ; 0 1\n"
        "protocol p from r to r converters res schedule res.1,res.1\n",
        "line 3: name 'res' is built in",
    ),
    # a check line pops `expect VALUE` wherever it stands, so a resource or
    # a party of that name could be declared but never checked
    "expect-resource": (
        "resource expect builtin commitment\ncheck split expect\n",
        "line 1: name 'expect' is built in",
    ),
    "expect-party": (
        "alphabet bit size 2\nresource r parties expect,b rounds 1 ports x:expect:out:bit@1 rows 1/2 ; 1/2\n",
        "line 2: name 'expect' is built in",
    ),
    "expect_at_most-converter": (
        "alphabet bit size 2\nconverter expect_at_most c ports x:in:bit@1 y:out:bit@1 rows 1 0 ; 0 1\n",
        "line 2: name 'expect_at_most' is built in",
    ),
    "expect_at_most-kernel": (
        "alphabet bit size 2\nkernel expect_at_most gen uniform bit\n",
        "line 2: name 'expect_at_most' is built in",
    ),
}


@pytest.mark.parametrize("case", list(RESERVED))
def test_a_built_in_name_cannot_be_declared(case, tmp_path, capsys):
    text, message = RESERVED[case]
    spec = tmp_path / "reserved.spec"
    spec.write_text(text)
    code = main(["verify", str(spec), "--no-meta"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"composec: {message}\n"


def test_run_reports_check_failure_exit_code():
    text = "group g2 cyclic 2\ncheck axioms g2 expect fail\n"
    result = run(parse_spec(text), no_meta=True)
    assert result.exit_code == 1
    assert result.report["failed"] == 1


def test_broken_group_declaration_gives_exit_2():
    text = "group bad table 0 1 ; 0 1\ncheck axioms bad\n"
    result = run(parse_spec(text), no_meta=True)
    assert result.exit_code == 2


def test_deterministic_output_no_meta(tmp_path):
    text = (SPECS / "commitment_nogo.spec").read_text()
    outs = []
    for _ in range(2):
        result = run(parse_spec(text), no_meta=True)
        outs.append(json.dumps(result.report, indent=2, sort_keys=True, default=str))
    assert outs[0] == outs[1]


def test_cli_matches_library_verdicts():
    from composec.nogo import commitment_resource, split_check

    text = "resource commit builtin commitment\ncheck split commit expect infeasible\n"
    result = run(parse_spec(text), no_meta=True)
    entry = result.report["checks"][0]
    assert entry["verdict"] == ("infeasible" if not split_check(commitment_resource()).feasible else "feasible")
    assert result.exit_code == 0


# a noisy broadcast whose tripartite program is infeasible although the
# oracle, a sufficient condition only, finds no contradiction
NOISY_BROADCAST = (
    "alphabet bit size 2\n"
    "resource noisy parties alice,bob,charlie rounds 1 ports b_in:bob:in:bit@1 a_out:alice:out:bit@1 "
    "c_out:charlie:out:bit@1 rows 1/2 0 ; 1/2 2/9 ; 0 2/3 ; 0 1/9\n"
    "check broadcast noisy\n"
)


def test_broadcast_passes_a_certified_infeasible_verdict_the_oracle_misses():
    result = run(parse_spec(NOISY_BROADCAST), no_meta=True)
    (entry,) = result.report["checks"]
    assert entry["verdict"] == "infeasible" and entry["certificate"].startswith("sha256:")
    assert entry["oracle_contradiction"] is False and entry["methods_agree"] is True and entry["pass"] is True
    assert result.exit_code == 0


def test_broadcast_fails_a_feasible_verdict_the_oracle_contradicts(monkeypatch):
    from composec.nogo import NogoVerdict

    monkeypatch.setattr(composec.cli, "tripartite_split_check", lambda r: NogoVerdict(True))
    result = run(parse_spec("resource bc builtin broadcast\ncheck broadcast bc\n"), no_meta=True)
    (entry,) = result.report["checks"]
    assert entry["oracle_contradiction"] is True and entry["methods_agree"] is False and entry["pass"] is False
    assert result.exit_code == 1


def test_lp_size_is_the_size_of_the_program_solved(monkeypatch):
    reports = []
    for name in ("search_simulator", "split_check"):
        check = getattr(composec.cli, name)
        monkeypatch.setattr(composec.cli, name, lambda *args, check=check: reports.append(check(*args)) or reports[-1])
    text = "".join((SPECS / name).read_text() for name in ("otp_z2.spec", "commitment_nogo.spec"))
    checks = run(parse_spec(text), no_meta=True).report["checks"]
    sizes = [entry["lp_size"] for entry in checks if "lp_size" in entry]
    assert len(sizes) == 7 and sizes == [[rep.lp.n, rep.lp.m] for rep in reports]


def test_main_subcommand_axioms(capsys):
    code = main(["axioms", "--group", "cyclic 5"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["ok"]


def test_main_subcommand_split(capsys):
    code = main(["split", "--resource", "channel"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["ok"]


def test_main_missing_file():
    assert main(["verify", "/nonexistent/x.spec"]) == 2


def _non_utf8_spec(tmp_path):
    spec = tmp_path / "bad.spec"
    spec.write_bytes(b"group z2 cyclic 2\n\xff\n")
    return [str(spec)]


FILE_FAILURES = {
    "missing-file": lambda tmp_path: [str(tmp_path / "missing.spec")],
    "directory": lambda tmp_path: [str(tmp_path)],
    "not-utf-8": _non_utf8_spec,
    "unwritable-json": lambda tmp_path: [str(SPECS / "otp_z2.spec"), "--json", str(tmp_path / "no" / "r.json")],
}


def _verify(*args):
    return subprocess.run([sys.executable, "-m", "composec.cli", "verify", *args, "--no-meta"], capture_output=True)


@pytest.mark.parametrize("case", list(FILE_FAILURES))
def test_a_file_that_cannot_be_read_or_written_exits_2_with_one_line(case, tmp_path):
    args = FILE_FAILURES[case](tmp_path)
    proc = _verify(*args)
    err = proc.stderr.decode()
    assert proc.returncode == 2
    assert len(err.splitlines()) == 1 and err.startswith("composec: ") and "Traceback" not in err
    if "--json" in args:
        # the report was made: stdout holds it as a run without --json does
        plain = _verify(args[0])
        assert plain.returncode == 0 and proc.stdout == plain.stdout
    else:
        assert proc.stdout == b""


def test_main_verify_json(tmp_path, capsys):
    spec = tmp_path / "t.spec"
    spec.write_text("group g cyclic 3\ncheck axioms g expect pass\n")
    out_json = tmp_path / "r.json"
    code = main(["verify", str(spec), "--no-meta", "--json", str(out_json)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out_json.read_text())["ok"]


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "composec.cli", "axioms", "--group", "cyclic 2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"]


def test_quasigroup_axioms_check_fails_with_exit_1():
    text = (
        "quasigroup q5 table 0 1 2 3 4 ; 1 0 3 4 2 ; 2 3 4 0 1 ; 3 4 1 2 0 ; 4 2 0 1 3\n"
        "check axioms q5\n"
    )
    result = run(parse_spec(text), no_meta=True)
    assert result.exit_code == 1
    assert result.report["checks"][0]["verdict"] == "fail"


def _wide_spec(n: int) -> str:
    """An axioms check, then an epsilon check on a 2-round resource over Z_n:
    round 1 hands Alice and Bob the same uniform key (n^2 joint outputs),
    round 2 passes Alice's input to Bob."""
    return (
        "group z2 cyclic 2\n"
        "check axioms z2\n"
        f"group zn cyclic {n}\n"
        "resource wide parties alice,bob rounds 2 ports ka:alice:out:zn@1 kb:bob:out:zn@1"
        " cin:alice:in:zn@2 cout:bob:out:zn@2 rows "
        + " ; ".join(
            " ".join(
                (f"1/{n}" if (ka == kb and co == ci) else "0") for ci in range(n)
            )
            for ka in range(n)
            for kb in range(n)
            for co in range(n)
        )
        + "\n"
        "protocol pid from wide to wide converters none schedule res.1,res.2\n"
        "check epsilon pid dishonest bob\n"
    )


# over Z5 the epsilon check's LP keeps 2652 variables x 1501 rows after
# presolve, past the 2x10^6 LP cap; the small axioms check before it keeps its
# entry in the report
LIMIT_SPEC = _wide_spec(5)


def test_resource_limit_gives_exit_3():
    result = run(parse_spec(LIMIT_SPEC), no_meta=True)
    assert result.exit_code == 3
    assert "error" in result.report
    axioms, epsilon = result.report["checks"]
    assert axioms["kind"] == "axioms" and axioms["pass"]
    assert epsilon["kind"] == "epsilon" and "error" in epsilon
    assert result.report["total"] == 2 and result.report["failed"] == 1 and not result.report["ok"]


def test_main_resource_limit_emits_report(tmp_path, capsys):
    spec = tmp_path / "limit.spec"
    spec.write_text(LIMIT_SPEC)
    code = main(["verify", str(spec), "--no-meta"])
    captured = capsys.readouterr()
    assert code == 3
    assert "LP has 2652 vars x 1501 rows after presolve" in captured.err
    assert "composec: line 6: epsilon check: LP has" in captured.err
    assert [e["kind"] for e in json.loads(captured.out)["checks"]] == ["axioms", "epsilon"]


def test_otp_attacks_are_transferred_on_a_secure_verdict():
    result = run(parse_spec("group z2 cyclic 2\ncheck otp z2 attacks 50 seed 7 expect secure\n"), no_meta=True)
    assert result.exit_code == 0
    entry = result.report["checks"][0]
    assert entry["verdict"] == "secure" and entry["attacks_checked"] == 50 and entry["pass"]


def test_otp_attacks_evaluate_no_more_networks_than_the_check_alone(monkeypatch):
    # the transfer claim rests on the secure verdict: no attack is linked
    counts = []
    prepare = Network._prepare

    def counted(net, into=None):
        counts[-1] += 1
        return prepare(net, into)

    monkeypatch.setattr(Network, "_prepare", counted)
    for check in ("check otp z2 attacks 50 seed 7", "check otp z2"):
        counts.append(0)
        assert run(parse_spec(f"group z2 cyclic 2\n{check}\n"), no_meta=True).exit_code == 0
    assert counts[0] == counts[1]


def test_otp_attacks_on_an_insecure_key_leave_the_expected_verdict_passing():
    # an insecure verdict has no simulator to transfer: no attack is checked
    spec = "group z3 cyclic 3\ncheck otp z3 key 1/2 1/2 0 attacks 5 expect insecure\n"
    result = run(parse_spec(spec), no_meta=True)
    assert result.exit_code == 0
    entry = result.report["checks"][0]
    assert entry["verdict"] == "insecure" and entry["attacks_checked"] == 0 and entry["pass"]


def test_the_limit_spec_over_z4_solves_with_epsilon_0():
    # 1106 variables x 641 rows: within the cap once it counts kept rows
    result = run(parse_spec(_wide_spec(4)), no_meta=True)
    assert result.exit_code == 0
    epsilon = result.report["checks"][1]
    assert epsilon["verdict"] == "secure" and epsilon["epsilon"] == "0"


# a check line that names an unknown group, misses an operand or expects a
# value its kind cannot give becomes an error entry after a passing check,
# instead of a traceback; an expectation is checked before the operands are
# resolved, so before the check runs
@pytest.mark.parametrize(
    "bad, message",
    [
        ("check lift nope", "unknown group 'nope'"),
        ("check stream nope expander identity", "unknown group 'nope'"),
        ("check split", "expected a resource name"),
        ("check otp g attacks", "expected an attack count"),
        ("check otp g attacks x", "expected an attack count"),
        ("check axioms g expect", "expected a value after 'expect'"),
        ("check otp g key 1/2 x", "expected a number, got 'x'"),
        ("check otp g key 1/2 1/4 1/4", "3 key weights for alphabet g of size 2"),
        ("check split coin expect feasible junk", "expected end of line, got 'junk'"),
        ("check axioms g expect fail 7", "expected end of line, got '7'"),
        ("check otp g seed 3", "expected end of line, got 'seed'"),
        ("check stream g expander identity expect 1/2", "expected end of line, got 'expect'"),
        ("check axioms g expect_at_most pass", "expected end of line, got 'expect_at_most'"),
        ("check otp g attacks -1", "expected an attack count of at least 0, got -1"),
        ("check split coin expect feasibel", "expected 'feasible' or 'infeasible' after 'expect', got 'feasibel'"),
        ("check advantage coin expect x", "expected a number, got 'x'"),
        ("check axioms g expect maybe", "expected 'pass' or 'fail' after 'expect', got 'maybe'"),
        ("check lift g expect fail", "expected 'pass' after 'expect', got 'fail'"),
    ],
    ids=[
        "lift-unknown-group",
        "stream-unknown-group",
        "split-no-operand",
        "otp-attacks-no-count",
        "otp-attacks-bad-count",
        "expect-no-value",
        "otp-key-not-a-number",
        "otp-key-longer-than-group",
        "split-stray-token",
        "axioms-stray-number",
        "otp-seed-without-attacks",
        "stream-takes-only-expect_at_most",
        "axioms-takes-only-expect",
        "otp-negative-attack-count",
        "split-misspelt-verdict",
        "advantage-not-a-number",
        "axioms-unknown-verdict",
        "lift-takes-only-pass",
    ],
)
def test_malformed_check_line_gives_an_error_entry(bad, message, tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_text(f"group g cyclic 2\ncheck axioms g\n{bad}\n")
    code = main(["verify", str(spec), "--no-meta"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert report["total"] == 2 and report["failed"] == 1 and not report["ok"]
    axioms, entry = report["checks"]
    assert axioms["kind"] == "axioms" and axioms["pass"]
    assert entry["line"] == 3 and not entry["pass"]
    assert message in entry["error"]


# a truncated or malformed declaration, or one with a token left over, is a
# parse error naming its line (the last one given) and what was expected:
# exit 2, no report, no traceback
TRUNCATED = [
    ("alphabet", "an alphabet name"),
    ("alphabet a size", "a size after 'size'"),
    ("alphabet a size x", "a size after 'size'"),
    ("alphabet a size 0", "a positive size after 'size'"),
    ("group g", "'cyclic N', 'symmetric3' or 'table ...'"),
    ("group g cyclic", "an order after 'cyclic'"),
    ("group g cyclic x", "an order after 'cyclic'"),
    ("group g table 0 1 ; 1 x", "an element index"),
    ("kernel k gen", "a generator kind after 'gen'"),
    ("kernel k gen mult", "a group name"),
    ("resource r builtin", "a builtin resource after 'builtin'"),
    ("resource r parties a rounds x ports", "a round count after 'rounds'"),
    ("resource r parties a rounds 1 ports x:a:in", "a port 'id:party:dir:alpha@round'"),
    ("resource r parties a rounds 1 ports x:a:in:unit@one", "a port 'id:party:dir:alpha@round'"),
    ("resource r parties a rounds 1 ports y:a:out:unit@1 rows x", "a number, got 'x'"),
    ("converter alice", "a converter name"),
    ("converter alice c ports x:in kernel k", "a port 'id:dir:alpha@round'"),
    ("protocol p from r", "'from R to S'"),
    ("kernel k gen bogus unit", "a generator kind after 'gen', got 'bogus'"),
    ("resource r parties a rounds 0 ports y:a:out:unit@1 rows 1", "a positive round count after 'rounds'"),
    (
        "resource r parties a rounds 1 ports y:a:sideways:unit@1 rows 1",
        "a port direction 'in' or 'out', got 'sideways'",
    ),
    ("resource r parties a rounds 1 ports y:a:out:unit@0 rows 1", "a port round of at least 1"),
    ("resource r parties a rounds 1 ports y:a:out:unit@2 rows 1", "a port round of at most 1, got 2"),
    ("converter alice c ports x:sideways:unit@1 rows 1", "a port direction 'in' or 'out', got 'sideways'"),
    ("converter alice c ports x:out:unit@0 rows 1", "a port round of at least 1"),
    ("alphabet a size 2 junk", "end of line, got 'junk'"),
    ("group g cyclic 2 junk", "end of line, got 'junk'"),
    ("group s3 symmetric3 7", "end of line, got '7'"),
    ("kernel k gen identity unit 7 3", "end of line, got '7'"),
    ("group z2 cyclic 2\nkernel xor gen mult z2 junk", "end of line, got 'junk'"),
    ("resource r builtin commitment junk", "end of line, got 'junk'"),
    (
        "group z2 cyclic 2\nkernel xor gen mult z2\n"
        "converter alice fA ports msg:in:z2@1 ka_c:in:z2@1 c_out:out:z2@1 kernel xor junk",
        "end of line, got 'junk'",
    ),
    ("resource r builtin channel\nprotocol p from r to r converters none schedule res.1 junk", "end of line, got 'junk'"),
    ("converter alice c ports x:in:unit@1:wire=y:z rows 1", "a port 'id:dir:alpha@round'"),
    ("group g table 0 1 ; 1 0 ;", "rows of numbers separated by ';'"),
]


@pytest.mark.parametrize(
    "bad, expected", TRUNCATED, ids=[bad.splitlines()[-1].replace(" ", "-") for bad, _e in TRUNCATED]
)
def test_truncated_declaration_is_a_parse_error(bad, expected, tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_text(f"{bad}\ncheck axioms g\n")
    code = main(["verify", str(spec), "--no-meta"])
    captured = capsys.readouterr()
    assert code == 2
    line = bad.count("\n") + 1
    assert captured.err == f"composec: line {line}, col 1: expected {expected}\n"
    assert captured.out == ""


def test_port_of_an_undeclared_party_is_an_unresolved_name(tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_text("resource r parties a rounds 1 ports y:b:out:unit@1 rows 1\n")
    code = main(["verify", str(spec), "--no-meta"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "composec: line 1: unknown party 'b'\n"
    assert captured.out == ""


def test_a_unicode_digit_is_not_a_generator_digit(tmp_path, capsys):
    # str.isdigit accepts '²' but int() does not
    spec = tmp_path / "bad.spec"
    spec.write_text("kernel k gen point unit ²\n")
    code = main(["verify", str(spec), "--no-meta"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "composec: line 1: unknown alphabet '²'\n"


def test_bare_check_is_a_parse_error():
    result = run(parse_spec("group g cyclic 2\ncheck\n"), no_meta=True)
    assert result.exit_code == 2
    assert result.report["error"] == "line 2, col 1: expected a check kind"


def test_verify_help_lists_only_file_json_and_no_meta(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    out = capsys.readouterr().out
    assert "--json" in out and "--no-meta" in out
    assert "--mode" not in out and "--tol" not in out


def test_permutation_generator_takes_its_digits():
    env = Env()
    text = "alphabet bit size 2\nkernel p gen permutation bit bit 1 0\nkernel s gen swap bit bit\n"
    for stmt in parse_spec(text).statements:
        elaborate(env, stmt)
    assert env.get("kernel", "p", 4) == env.get("kernel", "s", 4)


def test_permutation_generator_without_digits_gives_exit_2(tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_text("alphabet bit size 2\nkernel p gen permutation bit bit\n")
    code = main(["verify", str(spec), "--no-meta"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("composec: line 2: ") and "not a permutation" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("parties", ["a,a", "a,"], ids=["repeated", "empty"])
def test_repeated_or_empty_party_names_give_exit_2(parties, tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_text(f"alphabet bit size 2\nresource r parties {parties} rounds 1 ports x:a:out:bit@1 rows 1/2 ; 1/2\n")
    code = main(["verify", str(spec), "--no-meta"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("composec: line 2: parties must be distinct nonempty names")


def test_a_generated_kernel_over_the_size_cap_gives_exit_2(tmp_path, capsys):
    # refused before a column is built, as a `rows` table of that size is
    spec = tmp_path / "big.spec"
    spec.write_text(f"alphabet a size {SIZE_CAP + 1}\nkernel k gen uniform a\n")
    code = main(["verify", str(spec), "--no-meta"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"composec: line 2: uniform kernel over {SIZE_CAP + 1} port values exceeds size cap {SIZE_CAP}\n"


@pytest.mark.parametrize(
    "text",
    ["group g cyclic 1025\n", "quasigroup q table " + " ; ".join(["0"] * 1025) + "\n"],
    ids=["cyclic", "table"],
)
def test_a_group_over_the_order_cap_gives_exit_2(text, tmp_path, capsys):
    # refused before its table is built or read, as a kernel of that size is
    spec = tmp_path / "big.spec"
    spec.write_text(text)
    code = main(["verify", str(spec), "--no-meta"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"composec: line 1: order 1025 needs a table of {1025 * 1025} entries, over size cap {SIZE_CAP}\n"


def test_the_largest_cyclic_group_elaborates():
    # a cyclic table is associative by construction: no n^3 check runs
    env = Env()
    elaborate(env, parse_spec("group g cyclic 1024\n").statements[0])
    g = env.get("group", "g", 1)
    assert (g.order, g.identity, g.inverse[1], g.cayley[1023][2]) == (1024, 0, 1023, 1)


def _two_converters(name_a, name_b):
    """A protocol whose converters, named `name_a` (party a) and `name_b`
    (party b), each copy their party's bit, scheduled `res.1,a.1,b.1`."""
    return (
        "alphabet bit size 2\n"
        "resource r parties a,b rounds 1 ports x:a:out:bit@1 y:b:out:bit@1 rows 1/2 ; 0 ; 0 ; 1/2\n"
        f"converter a {name_a} ports ai:in:bit@1:wire=x ao:out:bit@1 rows 1 0 ; 0 1\n"
        f"converter b {name_b} ports bi:in:bit@1:wire=y bo:out:bit@1 rows 1 0 ; 0 1\n"
        "resource t parties a,b rounds 1 ports ao:a:out:bit@1 bo:b:out:bit@1 rows 1/2 ; 0 ; 0 ; 1/2\n"
        f"protocol p from r to t converters {name_a},{name_b} schedule res.1,a.1,b.1\n"
    )


def test_a_converter_named_like_another_converters_party_gives_exit_2(tmp_path, capsys):
    # `a.1` would name converter `a`, of party b, and run b before a
    spec = tmp_path / "swapped.spec"
    spec.write_text(_two_converters("b", "a"))
    code = main(["verify", str(spec), "--no-meta"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "composec: line 6: converter 'b' is named like another converter's party\n"
    # converters named after their own parties are not ambiguous
    env = Env()
    for stmt in parse_spec(_two_converters("a", "b")).statements:
        elaborate(env, stmt)
    assert env.get("protocol", "p", 6).schedule == (("res", 1), ("a", 1), ("b", 1))


def test_library_error_in_a_declaration_names_its_line(tmp_path, capsys):
    text = (SPECS / "otp_z2.spec").read_text()
    assert "schedule res.1," in text
    spec = tmp_path / "bad.spec"
    spec.write_text(text.replace("schedule res.1,", "schedule res.0,"))
    code = main(["verify", str(spec), "--no-meta"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("composec: line 10: ")
    assert "does not cover each node round exactly once" in captured.err


def test_a_converter_wired_to_a_port_its_source_lacks_gives_exit_2(tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_text(
        "alphabet b size 2\n"
        "resource r parties a,b rounds 1 ports x:a:in:b@1 y:b:out:b@1 rows 1 0 ; 0 1\n"
        "converter a c ports u:in:b@1 v:out:b@1:wire=nosuch rows 1 0 ; 0 1\n"
        "protocol p from r to r converters c schedule res.1,a.1\n"
    )
    code = main(["verify", str(spec), "--no-meta"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "composec: line 4: converter for 'a' wires port 'nosuch', which its source lacks\n"


def _q5():
    """The order-5 loop the corpus ships."""
    return next(s for s in (SPECS / "axioms_groups.spec").read_text().splitlines() if s.startswith("quasigroup q5 "))


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "group g cyclic 2\nkernel k gen uniform g\ncheck stream g expander k\n",
            "expander must map one short-key port to the one-time-pad key alphabet of g",
        ),
        (f"{_q5()}\ncheck stream q5 expander identity\n", "the one-time pad over q5 is insecure: "),
    ],
    ids=["expander-without-a-domain-port", "pad-over-a-loop"],
)
def test_a_stream_check_that_cannot_compose_gives_a_failed_entry(text, message, tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_text(text)
    code = main(["verify", str(spec), "--no-meta"])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    (entry,) = json.loads(captured.out)["checks"]
    assert entry["kind"] == "stream" and entry["pass"] is False
    assert entry["error"].startswith(message), entry


def test_docstring_grammar_matches_what_the_parser_accepts():
    doc = composec.cli.__doc__
    grammar = [line.split() for line in doc.splitlines() if line.startswith("    ")]
    built_in = next(p for p in doc.split("\n\n") if "built in" in p)
    assert re.findall(r"`(\w+)` \(", built_in) == list(BUILTINS)
    # the words a check line pops wherever they stand can name nothing
    assert {tokens[-2].lstrip("[") for tokens in grammar if tokens[0] == "check"} <= set(BUILTINS)
    heads = [tokens[0] for tokens in grammar]
    assert set(heads) == set(DECLARATIONS)
    for head in DECLARATIONS:
        parse_spec(f"{head} x\n")
    with pytest.raises(ParseError, match="a declaration keyword, got 'bogus'"):
        parse_spec("bogus x\n")
    kinds = [tokens[1] for tokens in grammar if tokens[0] == "check"]
    assert len(kinds) == len(set(kinds)) == 10
    assert set(EXPECTS) == set(kinds)
    for tokens in grammar:
        if tokens[0] == "check":
            assert tokens[-2] in ("[expect", "[expect_at_most"), tokens
            words = tokens[-1].rstrip("]")
            assert EXPECTS[tokens[1]] == (None if words == "VALUE" else tuple(words.split("|"))), tokens
    for kind in kinds:
        with pytest.raises(ComposecError) as exc:
            run_check(Env(), 1, (kind,))
        assert "unknown check kind" not in str(exc.value), kind
    for kind in ("bogus", "otp-epsilon", "expect_at_most"):
        with pytest.raises(ParseError, match=f"unknown check kind {kind!r}"):
            run_check(Env(), 1, (kind,))


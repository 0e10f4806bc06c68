import json
import subprocess
import sys
from pathlib import Path

import pytest

from composec.cli import Env, elaborate, format_ast, main, parse_spec, run
from composec.errors import DuplicateName, ParseError, UnresolvedName

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
    assert env.alphabets["bit"].size == 2
    assert env.groups["g2"][0].order == 2


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


def test_jobs_parallel_same_report():
    text = (SPECS / "broadcast_nogo.spec").read_text()
    seq = run(parse_spec(text), no_meta=True, jobs=1)
    par = run(parse_spec(text), no_meta=True, jobs=4)
    assert seq.report == par.report


def test_cli_matches_library_verdicts():
    from composec.nogo import commitment_resource, split_check

    text = "resource commit builtin commitment\ncheck split commit expect infeasible\n"
    result = run(parse_spec(text), no_meta=True)
    entry = result.report["checks"][0]
    assert entry["verdict"] == ("infeasible" if not split_check(commitment_resource()).feasible else "feasible")
    assert result.exit_code == 0


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


def test_main_verify_json(tmp_path, capsys):
    spec = tmp_path / "t.spec"
    spec.write_text("group g cyclic 3\ncheck axioms g expect pass\n")
    out_json = tmp_path / "r.json"
    code = main(["verify", str(spec), "--no-meta", "--json", str(out_json)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out_json.read_text())["ok"]


def test_float_mode_epsilon(tmp_path, capsys):
    spec = tmp_path / "f.spec"
    spec.write_text(
        "group z2 cyclic 2\n"
        "kernel xor gen mult z2\n"
        "resource src parties alice,bob,eve rounds 2 ports ka:alice:out:z2@1 kb:bob:out:z2@1"
        " cin:alice:in:z2@2 cb:bob:out:z2@2 ce:eve:out:z2@2 rows 1/2 0 ; 0 0 ; 0 0 ; 0 1/2 ;"
        " 0 0 ; 0 0 ; 0 0 ; 0 0 ; 0 0 ; 0 0 ; 0 0 ; 0 0 ; 1/2 0 ; 0 0 ; 0 0 ; 0 1/2\n"
        "resource tgt parties alice,bob,eve rounds 1 ports msg:alice:in:z2@1"
        " eve_flag:eve:out:unit@1 m_out:bob:out:z2@1 rows 1 0 ; 0 1\n"
        "converter alice fA ports msg:in:z2@1 ka_c:in:z2@1:wire=ka c_out:out:z2@1:wire=cin kernel xor\n"
        "converter bob fB ports cb_c:in:z2@1:wire=cb kb_c:in:z2@1:wire=kb m_out:out:z2@1 kernel xor\n"
        "converter eve fE ports ce_c:in:z2@1:wire=ce eve_flag:out:unit@1 rows 1 1\n"
        "protocol otp2 from src to tgt converters fA,fB,fE schedule res.1,fA.1,res.2,fE.1,fB.1\n"
        "check epsilon otp2 dishonest eve expect 0\n"
    )
    code = main(["verify", str(spec), "--mode", "float", "--no-meta"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0, out
    assert out["ok"]


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


def test_float_mode_secure_check():
    text = (SPECS / "otp_z2.spec").read_text()
    result = run(parse_spec(text), no_meta=True, mode="float")
    assert result.exit_code == 0 and result.report["ok"]


# an epsilon check over a 2-round view with a 16-value first-round output
# builds an LP of 1106 variables x 641 rows, past the 2x10^5 LP cap; the small
# axioms check before it keeps its entry in the report
LIMIT_SPEC = (
    "group z2 cyclic 2\n"
    "check axioms z2\n"
    "group z4 cyclic 4\n"
    "resource wide parties alice,bob rounds 2 ports ka:alice:out:z4@1 kb:bob:out:z4@1"
    " cin:alice:in:z4@2 cout:bob:out:z4@2 rows "
    + " ; ".join(
        " ".join(
            ("1/4" if (ka == kb and co == ci) else "0") for ci in range(4)
        )
        for ka in range(4)
        for kb in range(4)
        for co in range(4)
    )
    + "\n"
    "protocol pid from wide to wide converters none schedule res.1,res.2\n"
    "check epsilon pid dishonest bob\n"
)


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
    assert "LP has 1106 vars x 641 rows" in captured.err
    assert [e["kind"] for e in json.loads(captured.out)["checks"]] == ["axioms", "epsilon"]

"""Command-line front end: a small declarative language for alphabets,
groups, kernels, resources, converters and protocols, plus check directives
that drive the library's verifiers and emit deterministic JSON reports.

Grammar (one statement per line; `#` starts a comment; `;` separates table
rows; numbers are exact rationals written `p/q` or as decimals):

    alphabet NAME size N
    group NAME cyclic N | symmetric3 | table R ; R ; ...
    quasigroup NAME table R ; R ; ...
    kernel NAME dom A B cod C rows p p ; p p
    kernel NAME gen KIND args...
    resource NAME parties P1,P2 rounds K ports id:party:dir:alpha@r ... rows ...
    resource NAME builtin BUILTIN
    converter PARTY NAME ports id:dir:alpha@r[:wire=RESPORT] ... rows ...
    protocol NAME from R to S converters C1,C2|none schedule res.1,PARTY.1,...
    check secure PROTO from R to S dishonest P1,P2 [expect secure|insecure]
    check epsilon PROTO from R to S dishonest P1,P2 [expect VALUE]
    check split R [expect feasible|infeasible]
    check advantage R [expect VALUE]
    check broadcast R [expect feasible|infeasible]
    check axioms GROUP [expect pass|fail]
    check otp GROUP [key w w ...] [attacks N seed S] [expect secure|insecure]
    check lift GROUP [expect pass]
    check stream GROUP expander KERNEL [expect_at_most VALUE]

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or parse error,
3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .attacks import SecurityReport, min_epsilon, search_simulator
from .comb import (
    IN,
    OUT,
    Network,
    PortSpec,
    behavior_equal,
    canonical,
    make_behavior,
    make_signature,
    merge_asap,
)
from .errors import (
    ComposecError,
    DuplicateName,
    ParseError,
    ProblemTooLarge,
    UnresolvedName,
)
from .hopf import (
    build_otp,
    group_alphabet,
    group_make,
    hopf_axiom_suite,
    loop_make,
    otp_correctness,
    otp_security,
    stream_cipher_demo,
)
from .nogo import (
    broadcast_contradiction_oracle,
    broadcast_resource,
    coin_commitment_resource,
    commitment_resource,
    constant_output_resource,
    identity_channel_resource,
    min_split_advantage,
    ot_resource,
    product_uniform_resource,
    shared_bit_resource,
    split_check,
    tripartite_split_check,
)
from .resources import Converter, Protocol, Resource
from .scalars import parse_number, scalar_str
from .stoch import Alphabet, Kernel, make_kernel, structural

BUILTIN_RESOURCES = {
    "commitment": commitment_resource,
    "coin_commitment": coin_commitment_resource,
    "ot": ot_resource,
    "broadcast": broadcast_resource,
    "constant": constant_output_resource,
    "product_uniform": product_uniform_resource,
    "shared_bit": shared_bit_resource,
    "channel": identity_channel_resource,
}


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Statement:
    line: int
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class SpecFileAst:
    statements: tuple[Statement, ...]


def parse_spec(text: str) -> SpecFileAst:
    """Tokenize the line-oriented grammar; structural validation happens
    during elaboration, with statement line numbers in every error."""
    statements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = tuple(line.split())
        head = tokens[0]
        if head not in (
            "alphabet",
            "group",
            "quasigroup",
            "kernel",
            "resource",
            "converter",
            "protocol",
            "check",
        ):
            raise ParseError(lineno, 1, f"a declaration keyword, got {head!r}")
        statements.append(Statement(lineno, tokens))
    return SpecFileAst(tuple(statements))


def format_ast(ast: SpecFileAst) -> str:
    return "\n".join(" ".join(s.tokens) for s in ast.statements) + "\n"


# ---------------------------------------------------------------------------
# elaboration: names -> library objects


class Env:
    def __init__(self) -> None:
        self.alphabets: dict[str, Alphabet] = {}
        self.groups: dict[str, tuple] = {}  # name -> (group, is_group)
        self.kernels: dict[str, Kernel] = {}
        self.resources: dict[str, Resource] = {}
        self.converters: dict[str, Converter] = {}
        self.protocols: dict[str, Protocol] = {}
        self.checks: list[tuple[int, tuple[str, ...]]] = []

    def define(self, table: dict, name: str, value, line: int) -> None:
        if name in table:
            raise DuplicateName(f"line {line}: name {name!r} already declared")
        table[name] = value

    def alphabet(self, name: str, line: int) -> Alphabet:
        if name in self.alphabets:
            return self.alphabets[name]
        if name in self.groups:
            return group_alphabet(self.groups[name][0])
        if name == "unit":
            from .stoch import UNIT

            return UNIT
        raise UnresolvedName(f"line {line}: unknown alphabet {name!r}")


def _split_rows(tokens: Sequence[str]) -> list[list[Fraction]]:
    rows: list[list[Fraction]] = [[]]
    for tok in tokens:
        if tok == ";":
            rows.append([])
        else:
            rows[-1].append(parse_number(tok))
    return [r for r in rows if r]


def _split_int_rows(tokens: Sequence[str]) -> list[list[int]]:
    rows: list[list[int]] = [[]]
    for tok in tokens:
        if tok == ";":
            rows.append([])
        else:
            rows[-1].append(int(tok))
    return [r for r in rows if r]


def _take_section(tokens: list[str], keyword: str, line: int) -> list[str]:
    if not tokens or tokens[0] != keyword:
        raise ParseError(line, 1, f"{keyword!r} section")
    tokens.pop(0)
    out = []
    stops = {"dom", "cod", "rows", "ports", "parties", "rounds", "kernel", "gen", "table"}
    while tokens and tokens[0] not in stops:
        out.append(tokens.pop(0))
    return out


def elaborate(env: Env, stmt: Statement) -> None:
    line = stmt.line
    tokens = list(stmt.tokens)
    head = tokens.pop(0)
    if head == "alphabet":
        name = tokens.pop(0)
        if tokens[:1] != ["size"]:
            raise ParseError(line, 1, "'size N'")
        env.define(env.alphabets, name, Alphabet(name, int(tokens[1])), line)
    elif head in ("group", "quasigroup"):
        name = tokens.pop(0)
        kind = tokens.pop(0)
        if head == "group" and kind == "cyclic":
            g = group_make(("cyclic", int(tokens[0])), name)
        elif head == "group" and kind == "symmetric3":
            g = group_make("symmetric3", name)
        elif kind == "table":
            rows = _split_int_rows(tokens)
            g = group_make(rows, name) if head == "group" else loop_make(rows, name)
        else:
            raise ParseError(line, 1, "'cyclic N', 'symmetric3' or 'table ...'")
        env.define(env.groups, name, (g, head == "group"), line)
    elif head == "kernel":
        name = tokens.pop(0)
        if tokens and tokens[0] == "gen":
            tokens.pop(0)
            kind = tokens.pop(0)
            if kind in ("mult", "inv", "unit"):
                gname = tokens.pop(0)
                if gname not in env.groups:
                    raise UnresolvedName(f"line {line}: unknown group {gname!r}")
                from .hopf import group_kernels

                env.define(env.kernels, name, group_kernels(env.groups[gname][0])[kind], line)
            else:
                alphas = [env.alphabet(t, line) for t in tokens if not t.isdigit()]
                values = [int(t) for t in tokens if t.isdigit()]
                kw = {"values": values} if kind == "point" else {}
                env.define(env.kernels, name, structural(kind, alphas, **kw), line)
        else:
            dom = [env.alphabet(t, line) for t in _take_section(tokens, "dom", line)]
            cod = [env.alphabet(t, line) for t in _take_section(tokens, "cod", line)]
            if not tokens or tokens[0] != "rows":
                raise ParseError(line, 1, "'rows ...'")
            rows = _split_rows(tokens[1:])
            env.define(env.kernels, name, make_kernel(dom, cod, rows), line)
    elif head == "resource":
        name = tokens.pop(0)
        if tokens and tokens[0] == "builtin":
            builder = BUILTIN_RESOURCES.get(tokens[1])
            if builder is None:
                raise UnresolvedName(f"line {line}: unknown builtin resource {tokens[1]!r}")
            env.define(env.resources, name, builder(), line)
            return
        parties = _take_section(tokens, "parties", line)[0].split(",")
        rounds = int(_take_section(tokens, "rounds", line)[0])
        port_specs = []
        for spec in _take_section(tokens, "ports", line):
            pid, party, direction, rest = spec.split(":", 3)
            alpha_name, rnd = rest.split("@")
            port_specs.append(
                PortSpec(pid, party, env.alphabet(alpha_name, line), direction, int(rnd))
            )
        sig = make_signature(parties, rounds, port_specs)
        if tokens and tokens[0] == "kernel":
            kern = env.kernels.get(tokens[1])
            if kern is None:
                raise UnresolvedName(f"line {line}: unknown kernel {tokens[1]!r}")
        elif tokens and tokens[0] == "rows":
            ins = tuple(p.alphabet for p in sig.ins())
            outs = tuple(p.alphabet for p in sig.outs())
            kern = make_kernel(ins, outs, _split_rows(tokens[1:]))
        else:
            raise ParseError(line, 1, "'kernel NAME' or 'rows ...'")
        env.define(env.resources, name, Resource(make_behavior(sig, kern), name=name), line)
    elif head == "converter":
        party = tokens.pop(0)
        name = tokens.pop(0)
        port_specs = []
        wiring = []
        max_round = 1
        for spec in _take_section(tokens, "ports", line):
            parts = spec.split(":")
            pid, direction, rest = parts[0], parts[1], parts[2]
            alpha_name, rnd = rest.split("@")
            if len(parts) > 3:
                if not parts[3].startswith("wire="):
                    raise ParseError(line, 1, "'wire=RESPORT'")
                wiring.append((pid, parts[3][5:]))
            port_specs.append(
                PortSpec(pid, party, env.alphabet(alpha_name, line), direction, int(rnd))
            )
            max_round = max(max_round, int(rnd))
        sig = make_signature([party], max_round, port_specs)
        if tokens and tokens[0] == "kernel":
            kern = env.kernels.get(tokens[1])
            if kern is None:
                raise UnresolvedName(f"line {line}: unknown kernel {tokens[1]!r}")
        elif tokens and tokens[0] == "rows":
            ins = tuple(p.alphabet for p in sig.ins())
            outs = tuple(p.alphabet for p in sig.outs())
            kern = make_kernel(ins, outs, _split_rows(tokens[1:]))
        else:
            raise ParseError(line, 1, "'kernel NAME' or 'rows ...'")
        env.define(
            env.converters, name, Converter(party, make_behavior(sig, kern), tuple(wiring)), line
        )
    elif head == "protocol":
        name = tokens.pop(0)
        if tokens[:1] != ["from"]:
            raise ParseError(line, 1, "'from R to S'")
        src = env.resources.get(tokens[1])
        tgt = env.resources.get(tokens[3])
        if src is None:
            raise UnresolvedName(f"line {line}: unknown resource {tokens[1]!r}")
        if tgt is None:
            raise UnresolvedName(f"line {line}: unknown resource {tokens[3]!r}")
        if tokens[4] != "converters":
            raise ParseError(line, 1, "'converters C1,C2' (or 'converters none')")
        convs = []
        if tokens[5] != "none":
            for cname in tokens[5].split(","):
                if cname not in env.converters:
                    raise UnresolvedName(f"line {line}: unknown converter {cname!r}")
                convs.append(env.converters[cname])
        if tokens[6] != "schedule":
            raise ParseError(line, 1, "'schedule res.1,...'")
        names = tokens[5].split(",") if convs else []
        by_name = {names[i]: c.party for i, c in enumerate(convs)}
        schedule = []
        for item in tokens[7].split(","):
            lab, rnd = item.rsplit(".", 1)
            schedule.append((by_name.get(lab, lab), int(rnd)))
        env.define(
            env.protocols,
            name,
            Protocol(src, tgt, tuple(convs), tuple(schedule), name=name),
            line,
        )
    elif head == "check":
        env.checks.append((line, tuple(tokens)))
    else:
        raise ParseError(line, 1, f"unknown statement {head!r}")


# ---------------------------------------------------------------------------
# running checks


def _digest(payload) -> str:
    canon = json.dumps(payload, sort_keys=True, default=scalar_str)
    return "sha256:" + hashlib.sha256(canon.encode()).hexdigest()[:16]


def _cert_payload(report: SecurityReport):
    if report.farkas is not None:
        return {"farkas": [scalar_str(v) for v in report.farkas.y]}
    if report.cert is not None:
        return {
            "simulator": [
                [[scalar_str(v) for v in row] for row in node.kernel.matrix]
                for _lab, node in report.cert.simulator.nodes
            ]
        }
    return {}


def _expectation(tokens: list[str]):
    for key in ("expect", "expect_at_most"):
        if key in tokens:
            i = tokens.index(key)
            value = tokens[i + 1]
            del tokens[i : i + 2]
            return key, value
    return None, None


def run_check(env: Env, line: int, tokens: tuple[str, ...], mode: str = "rational", tol: Optional[float] = None) -> dict:
    toks = list(tokens)
    kind = toks.pop(0)
    expect_kind, expected = _expectation(toks)
    entry: dict = {"kind": kind, "line": line, "args": " ".join(tokens)}

    def value_matches(got, want) -> bool:
        if mode == "float":
            return abs(float(got) - float(want)) <= (tol if tol is not None else 1e-9)
        return got == want

    def resolve_resource(name):
        if name not in env.resources:
            raise UnresolvedName(f"line {line}: unknown resource {name!r}")
        return env.resources[name]

    if kind in ("secure", "epsilon"):
        pname = toks.pop(0)
        if pname not in env.protocols:
            raise UnresolvedName(f"line {line}: unknown protocol {pname!r}")
        proto = env.protocols[pname]
        if toks[:1] == ["from"]:
            src = resolve_resource(toks[1])
            tgt = resolve_resource(toks[3])
            del toks[:4]
        else:
            src, tgt = proto.source, proto.target
        if toks[:1] != ["dishonest"]:
            raise ParseError(line, 1, "'dishonest P1,P2'")
        j = tuple(toks[1].split(","))
        if mode == "float":
            from .resources import to_float_protocol, to_float_resource

            proto = to_float_protocol(proto)
            src, tgt = to_float_resource(src), to_float_resource(tgt)
        if kind == "secure":
            rep = search_simulator(proto, src, tgt, j)
            entry["verdict"] = rep.verdict
            entry["lp_size"] = list(rep.lp_size)
            entry["certificate"] = _digest(_cert_payload(rep))
            entry["pass"] = rep.verdict == (expected or "secure")
        else:
            rep = min_epsilon(proto, src, tgt, j)
            entry["verdict"] = rep.verdict
            entry["epsilon"] = scalar_str(rep.epsilon)
            entry["certificate"] = _digest(_cert_payload(rep))
            entry["pass"] = expected is None or value_matches(rep.epsilon, parse_number(expected))
    elif kind == "split":
        r = resolve_resource(toks.pop(0))
        verdict = split_check(r)
        entry["verdict"] = "feasible" if verdict.feasible else "infeasible"
        entry["lp_size"] = list(verdict.lp_size)
        if verdict.cert is not None:
            entry["certificate"] = _digest({"farkas": [scalar_str(v) for v in verdict.cert.y]})
        entry["pass"] = expected is None or entry["verdict"] == expected
    elif kind == "advantage":
        r = resolve_resource(toks.pop(0))
        adv = min_split_advantage(r)
        entry["advantage"] = scalar_str(adv)
        entry["pass"] = expected is None or adv == parse_number(expected)
    elif kind == "broadcast":
        r = resolve_resource(toks.pop(0))
        verdict = tripartite_split_check(r)
        oracle = broadcast_contradiction_oracle(r)
        entry["verdict"] = "feasible" if verdict.feasible else "infeasible"
        entry["oracle_contradiction"] = oracle.contradiction
        entry["methods_agree"] = (not verdict.feasible) == oracle.contradiction
        if verdict.cert is not None:
            entry["certificate"] = _digest({"farkas": [scalar_str(v) for v in verdict.cert.y]})
        entry["pass"] = bool(entry["methods_agree"]) and (
            expected is None or entry["verdict"] == expected
        )
    elif kind == "axioms":
        gname = toks.pop(0)
        if gname not in env.groups:
            raise UnresolvedName(f"line {line}: unknown group {gname!r}")
        rep = hopf_axiom_suite(env.groups[gname][0])
        entry["verdict"] = "pass" if rep.all_pass else "fail"
        entry["failed_axioms"] = list(rep.failed())
        entry["pass"] = entry["verdict"] == (expected or "pass")
    elif kind == "otp":
        gname = toks.pop(0)
        if gname not in env.groups:
            raise UnresolvedName(f"line {line}: unknown group {gname!r}")
        g = env.groups[gname][0]
        weights = None
        if toks[:1] == ["key"]:
            toks.pop(0)
            weights = []
            while toks and toks[0] not in ("attacks",):
                weights.append(parse_number(toks.pop(0)))
        inst = build_otp(g, weights)
        correct = otp_correctness(inst)
        rep = otp_security(inst)
        entry["correct"] = correct
        entry["verdict"] = rep.verdict
        entry["certificate"] = _digest(_cert_payload(rep))
        ok = correct if weights is None else True
        if toks[:1] == ["attacks"]:
            n = int(toks[1])
            seed = int(toks[3]) if toks[2:3] == ["seed"] else 0
            entry["attacks_checked"] = n
            ok = ok and _attack_transfer(inst, n, seed)
        entry["pass"] = ok and rep.verdict == (expected or "secure")
    elif kind == "otp_epsilon":
        gname = toks.pop(0)
        if gname not in env.groups:
            raise UnresolvedName(f"line {line}: unknown group {gname!r}")
        if toks[:1] != ["key"]:
            raise ParseError(line, 1, "'key w w ...'")
        weights = [parse_number(t) for t in toks[1:]]
        inst = build_otp(env.groups[gname][0], weights)
        rep = min_epsilon(inst.protocol, inst.source, inst.target, ("eve",))
        entry["epsilon"] = scalar_str(rep.epsilon)
        entry["verdict"] = rep.verdict
        entry["pass"] = expected is None or rep.epsilon == parse_number(expected)
    elif kind == "lift":
        gname = toks.pop(0)
        from .attacks import check_secure_with
        from .resources import lift_deterministic

        inst = build_otp(env.groups[gname][0])
        lifted = lift_deterministic(inst.protocol)
        rep = check_secure_with(lifted, inst.source, inst.target, ("eve",), inst.sigma)
        entry["verdict"] = "pass" if rep.secure else "fail"
        entry["pass"] = entry["verdict"] == (expected or "pass")
    elif kind == "stream":
        gname = toks.pop(0)
        if toks[:1] != ["expander"]:
            raise ParseError(line, 1, "'expander KERNEL'")
        kname = toks[1]
        if kname == "identity":
            g = env.groups[gname][0]
            from .stoch import identity as idk

            expander = idk([group_alphabet(g)])
        elif kname in env.kernels:
            expander = env.kernels[kname]
        else:
            raise UnresolvedName(f"line {line}: unknown kernel {kname!r}")
        rep = stream_cipher_demo(env.groups[gname][0], expander)
        entry["expansion_epsilon"] = scalar_str(rep.expansion_epsilon)
        entry["composite_epsilon"] = scalar_str(rep.composite.epsilon)
        bound_ok = rep.composite.epsilon <= rep.expansion_epsilon
        entry["bound_holds"] = bound_ok
        if expect_kind == "expect_at_most":
            entry["pass"] = bound_ok and rep.composite.epsilon <= parse_number(expected)
        else:
            entry["pass"] = bound_ok
    else:
        raise ParseError(line, 1, f"unknown check kind {kind!r}")
    if expected is not None:
        entry["expected"] = expected
    return entry


def _attack_transfer(inst, n: int, seed: int) -> bool:
    """Random-attack transfer probe: any attack on the real view is matched
    by the same attack on the simulated ideal view."""
    from .attacks import dummy_attack, ideal_view

    rng = random.Random(seed)
    real = dummy_attack(inst.protocol, inst.source, ("eve",))
    ideal = ideal_view(inst.target, inst.sigma, match=real.signature)
    pe = [q for q in real.signature.ports if q.party == "eve"][0]
    leak = Alphabet("leak", 3)
    for _ in range(n):
        n_cod = leak.size
        cols = []
        for _c in range(pe.alphabet.size):
            raw = [rng.randint(0, 5) for _ in range(n_cod)]
            if sum(raw) == 0:
                raw[0] = 1
            total = sum(raw)
            cols.append([Fraction(v, total) for v in raw])
        table = [[cols[j][i] for j in range(pe.alphabet.size)] for i in range(n_cod)]
        csig = make_signature(
            ["eve"],
            1,
            [PortSpec("a_in", "eve", pe.alphabet, IN, 1), PortSpec("a_out", "eve", leak, OUT, 1)],
        )
        comb = make_behavior(csig, make_kernel([pe.alphabet], [leak], table))
        wires = [(("atk", "a_in"), ("view", pe.id))]
        outs = []
        for view in (real, ideal):
            nodes = [("view", view), ("atk", comb)]
            outs.append(
                canonical(Network(nodes, wires, merge_asap(nodes, wires, "view")).evaluate())
            )
        if not behavior_equal(outs[0], outs[1], 0):
            return False
    return True


@dataclass
class RunResult:
    report: dict
    exit_code: int


def run(
    ast: SpecFileAst,
    no_meta: bool = False,
    jobs: int = 1,
    mode: str = "rational",
    tol: Optional[float] = None,
) -> RunResult:
    env = Env()
    try:
        for stmt in ast.statements:
            elaborate(env, stmt)
    except ComposecError as exc:
        return RunResult({"schema": 1, "error": str(exc)}, 2)

    limit_exceeded: list[str] = []

    def one(item):
        line, tokens = item
        t0 = time.perf_counter()
        try:
            entry = run_check(env, line, tokens, mode=mode, tol=tol)
        except ProblemTooLarge as exc:
            limit_exceeded.append(str(exc))
            entry = {"kind": tokens[0], "line": line, "error": str(exc), "pass": False}
        except ComposecError as exc:
            entry = {"kind": tokens[0], "line": line, "error": str(exc), "pass": False}
        if not no_meta:
            entry["wall_ms"] = round((time.perf_counter() - t0) * 1000, 3)
        return entry

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            entries = list(pool.map(one, env.checks))
    else:
        entries = [one(item) for item in env.checks]
    failed = sum(1 for e in entries if not e.get("pass"))
    report = {
        "schema": 1,
        "checks": entries,
        "total": len(entries),
        "failed": failed,
        "ok": failed == 0,
    }
    if limit_exceeded:
        # the other checks' entries stand; the limit decides the exit code
        report["error"] = limit_exceeded[0]
        return RunResult(report, 3)
    return RunResult(report, 0 if report["ok"] else 1)


# ---------------------------------------------------------------------------
# entry points


def _emit(report: dict, json_path: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=scalar_str) + "\n"
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _inline_spec(args) -> str:
    """Translate the quick subcommands into one-check spec texts."""
    if args.command == "axioms":
        return f"group g {args.group}\ncheck axioms g\n"
    if args.command == "otp":
        key = f" key {' '.join(args.key.split(','))}" if args.key else ""
        return f"group g {args.group}\ncheck otp g{key}\n"
    if args.command == "split":
        return f"resource r builtin {args.resource}\ncheck split r\ncheck advantage r\n"
    if args.command == "broadcast":
        return f"resource r builtin {args.resource}\ncheck broadcast r\n"
    raise AssertionError(args.command)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="composec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run every check directive in a spec file")
    v.add_argument("file")
    v.add_argument("--mode", choices=["rational", "float"], default="rational")
    v.add_argument("--tol", type=float, default=None, help="float-mode comparison tolerance")
    v.add_argument("--json", dest="json_path", default=None)
    v.add_argument("--no-meta", action="store_true", help="omit timing for byte-stable output")
    v.add_argument("--jobs", type=int, default=1)
    a = sub.add_parser("axioms", help="Hopf axiom suite for one group")
    a.add_argument("--group", required=True, help="e.g. 'cyclic 6' or 'symmetric3'")
    o = sub.add_parser("otp", help="verify the one-time pad over one group")
    o.add_argument("--group", required=True)
    o.add_argument("--key", default=None, help="comma-separated key weights")
    s = sub.add_parser("split", help="bipartite splittability of a builtin resource")
    s.add_argument("--resource", default="commitment", choices=sorted(BUILTIN_RESOURCES))
    b = sub.add_parser("broadcast", help="tripartite no-go check of a builtin resource")
    b.add_argument("--resource", default="broadcast", choices=sorted(BUILTIN_RESOURCES))
    args = parser.parse_args(argv)

    if args.command == "verify":
        try:
            with open(args.file) as fh:
                text = fh.read()
        except OSError as exc:
            sys.stderr.write(f"composec: {exc}\n")
            return 2
        no_meta = args.no_meta
        jobs = args.jobs
    else:
        text = _inline_spec(args)
        no_meta = False
        jobs = 1

    try:
        ast = parse_spec(text)
    except ParseError as exc:
        sys.stderr.write(f"composec: {exc}\n")
        return 2
    mode = getattr(args, "mode", "rational")
    tol = getattr(args, "tol", None)
    result = run(ast, no_meta=no_meta, jobs=jobs, mode=mode, tol=tol)
    if "error" in result.report:
        sys.stderr.write(f"composec: {result.report['error']}\n")
        if "checks" not in result.report:
            return result.exit_code
    _emit(result.report, args.json_path if args.command == "verify" else None)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())

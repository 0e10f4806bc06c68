"""Command-line front end: a small declarative language for alphabets,
groups, kernels, resources, converters and protocols, plus check directives
that drive the library's verifiers and emit deterministic JSON reports.

Grammar (one statement per line; `#` starts a comment; `;` separates table
rows; numbers are exact rationals written `p/q` or as decimals, and every
number in a report is an exact rational written `p/q`):

    alphabet NAME size N
    group NAME cyclic N | symmetric3 | table R ; R ; ...
    quasigroup NAME table R ; R ; ...
    kernel NAME dom A B cod C rows p p ; p p
    kernel NAME gen KIND ALPHA ... [DIGIT ...]
    resource NAME parties P1,P2 rounds K ports id:party:dir:alpha@r ... rows ...|kernel K
    resource NAME builtin BUILTIN
    converter PARTY NAME ports id:dir:alpha@r[:wire=RESPORT] ... rows ...|kernel K
    protocol NAME from R to S converters C1,C2|none schedule res.1,NAME.ROUND,...
    check secure PROTO [from R to S] dishonest P1,P2 [expect secure|insecure]
    check epsilon PROTO [from R to S] dishonest P1,P2 [expect VALUE]
    check split R [expect feasible|infeasible]
    check advantage R [expect VALUE]
    check broadcast R [expect feasible|infeasible]
    check axioms GROUP [expect pass|fail]
    check otp GROUP [key w w ...] [attacks N [seed S]] [expect secure|insecure]
    check otp_epsilon GROUP key w w ... [expect VALUE]
    check lift GROUP [expect pass]
    check stream GROUP expander KERNEL [expect_at_most VALUE]

`check broadcast` records `oracle_contradiction` from the one-sided
`nogo.broadcast_contradiction_oracle`: a contradiction proves the program
infeasible and none proves nothing, so `methods_agree` is false, and the
check fails, only on a contradiction with a feasible program.  On a
resource outside the oracle's scope (more than one port per party, Alice
and Charlie alphabets of different sizes, a one-valued Bob input) the entry
has no `oracle_contradiction` and the program's verdict stands.

`attacks N` records `attacks_checked` N on a `secure` verdict and 0 on an
insecure one.  The dummy attack is initial, and `hopf.otp_security` says
`secure` only when the supplied simulator's ideal view equals the real view
exactly, so every attack on Eve transfers; no attack is drawn, and `seed S`
is read but changes nothing.

The names `unit` (the one-valued alphabet), `identity` (the identity
expander of `check stream`), `res` (the resource node of a schedule),
`expect` (a check's expected verdict or value) and `expect_at_most` (the
bound of `check stream`) are built in; a check line reads the last two
wherever they stand, so they can name nothing else.  Declared names of every
kind share one namespace with the built-in ones: declaring a name twice, or
declaring or naming a party with a built-in name, is a `DuplicateName`
error.  A schedule item `NAME.ROUND` names `res`, one of the protocol's
converters, or a converter's party, so no listed converter may be named
like another listed converter's party.

Digits after `gen KIND` are read only by `point` and `permutation`.  A
group's or quasigroup's order is at most 1,024, as its table has n x n cells.
`expect_at_most` belongs to `stream` only; every other check takes
`expect`.  A token left over after a statement's operands is a parse
error.  A malformed or unresolvable check line becomes a failed entry with
an `error`, before its check runs; the other checks keep their entries.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or parse error,
3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from .attacks import SimulatorCert, check_secure_with, min_epsilon, search_simulator
from .comb import IN, OUT, Behavior, PortSpec, make_behavior, make_signature
from .errors import (
    ComposecError,
    DuplicateName,
    ParseError,
    ProblemTooLarge,
    ShapeMismatch,
    UnresolvedName,
)
from .hopf import (
    build_otp,
    group_alphabet,
    group_kernels,
    group_make,
    hopf_axiom_suite,
    loop_make,
    otp_correctness,
    otp_security,
    stream_cipher_demo,
)
from .lp import FarkasCert
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
from .record import Record
from .resources import RES, Converter, Protocol, lift_deterministic
from .scalars import ZERO, parse_number, scalar_str
from .stoch import STRUCTURAL, UNIT, Alphabet, Kernel, identity, make_kernel, structural

DECLARATIONS = ("alphabet", "group", "quasigroup", "kernel", "resource", "converter", "protocol", "check")

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


class Statement(Record):
    line: int
    tokens: tuple[str, ...]


class SpecFileAst(Record):
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
        if head not in DECLARATIONS:
            raise ParseError(lineno, 1, f"a declaration keyword, got {head!r}")
        statements.append(Statement(lineno, tokens))
    return SpecFileAst(tuple(statements))


# ---------------------------------------------------------------------------
# elaboration: names -> library objects


# the built-in names, each as (kind, value) like a declared one; the
# `identity` expander is built per check, on the check's key alphabet
BUILTINS: dict[str, tuple[str, object]] = {
    "unit": ("alphabet", UNIT),
    "identity": ("expander", None),
    RES: ("node", None),
    "expect": ("keyword", None),
    "expect_at_most": ("keyword", None),
}


def _not_built_in(name: str, line: int) -> None:
    if name in BUILTINS:
        raise DuplicateName(f"line {line}: name {name!r} is built in")


class Env:
    def __init__(self) -> None:
        self.names: dict[str, tuple[str, object]] = {}  # name -> (kind, value)
        self.checks: list[tuple[int, tuple[str, ...]]] = []

    def define(self, kind: str, name: str, value, line: int) -> None:
        _not_built_in(name, line)
        if name in self.names:
            raise DuplicateName(f"line {line}: name {name!r} already declared")
        self.names[name] = (kind, value)

    def get(self, kind: str, name: str, line: int):
        """The value of `name`, which must be of `kind`, except that a group
        reads as an alphabet and a kernel as an expander."""
        have, value = self.names.get(name) or BUILTINS.get(name, (None, None))
        if (have, kind) == ("group", "alphabet"):
            return group_alphabet(value)
        if have != kind and (have, kind) != ("kernel", "expander"):
            raise UnresolvedName(f"line {line}: unknown {kind} {name!r}")
        return value


def _operand(tokens: list[str], what: str, line: int) -> str:
    """Pop the next token, which the statement cannot do without."""
    if not tokens:
        raise ParseError(line, 1, what)
    return tokens.pop(0)


def _accept(tokens: list[str], keyword: str) -> bool:
    """Pop `keyword` if it comes next; whether it did."""
    if tokens[:1] == [keyword]:
        tokens.pop(0)
        return True
    return False


def _keyword(tokens: list[str], keyword: str, what: str, line: int) -> None:
    """Pop `keyword`, which must come next."""
    if not _accept(tokens, keyword):
        raise ParseError(line, 1, what)


def _end(tokens: list[str], line: int) -> None:
    """Every operand is read: nothing may be left on the line."""
    if tokens:
        raise ParseError(line, 1, f"end of line, got {tokens[0]!r}")


def _take_while(tokens: list[str], pred) -> list[str]:
    """Pop the leading tokens that satisfy `pred`."""
    k = next((i for i, t in enumerate(tokens) if not pred(t)), len(tokens))
    taken = tokens[:k]
    del tokens[:k]
    return taken


def _integer(tokens: list[str], what: str, line: int) -> int:
    """Pop the next token as an integer."""
    try:
        return int(_operand(tokens, what, line))
    except ValueError:
        raise ParseError(line, 1, what) from None


def _number(token: str, line: int) -> Fraction:
    try:
        return parse_number(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(line, 1, f"a number, got {token!r}") from None


def _rows(tokens: list[str], line: int, parse=_number) -> list[list]:
    """The rest of the line as rows of numbers separated by ';', each number
    read by `parse`."""
    rows: list[list] = [[]]
    for tok in tokens:
        if tok == ";":
            rows.append([])
        else:
            rows[-1].append(parse(tok, line))
    tokens.clear()
    if not all(rows):
        raise ParseError(line, 1, "rows of numbers separated by ';'")
    return rows


def _element(token: str, line: int) -> int:
    return _integer([token], "an element index", line)


def _name_and_round(text: str, sep: str, what: str, line: int) -> tuple[str, int]:
    """Split 'NAME<sep>ROUND' at the last `sep`."""
    name, found, rnd = text.rpartition(sep)
    if not (found and rnd.isdecimal()):
        raise ParseError(line, 1, what)
    return name, int(rnd)


def _port(env: Env, pid: str, party: str, direction: str, rest: str, what: str, line: int) -> PortSpec:
    """A port from its id, party, direction and 'alpha@round'."""
    if direction not in (IN, OUT):
        raise ParseError(line, 1, f"a port direction 'in' or 'out', got {direction!r}")
    alpha_name, rnd = _name_and_round(rest, "@", what, line)
    if rnd < 1:
        raise ParseError(line, 1, "a port round of at least 1")
    return PortSpec(pid, party, env.get("alphabet", alpha_name, line), direction, rnd)


def _take_section(tokens: list[str], keyword: str, line: int) -> list[str]:
    """'KEYWORD' and the tokens up to the next section: 'cod', 'rows' or 'kernel'."""
    _keyword(tokens, keyword, f"{keyword!r} section", line)
    return _take_while(tokens, lambda t: t not in ("cod", "rows", "kernel"))


def _from_to(env: Env, tokens: list[str], line: int) -> tuple[Behavior, Behavior]:
    what = "'from R to S'"
    _keyword(tokens, "from", what, line)
    src = _operand(tokens, what, line)
    _keyword(tokens, "to", what, line)
    return env.get("resource", src, line), env.get("resource", _operand(tokens, what, line), line)


def _kernel_of(env: Env, tokens: list[str], sig, line: int) -> Kernel:
    """The kernel of a behavior with signature `sig`: 'rows ...' or 'kernel NAME'."""
    if _accept(tokens, "rows"):
        ins, outs = (tuple(p.alphabet for p in ports) for ports in (sig.ins(), sig.outs()))
        return make_kernel(ins, outs, _rows(tokens, line))
    _keyword(tokens, "kernel", "'kernel NAME' or 'rows ...'", line)
    return env.get("kernel", _operand(tokens, "a kernel name after 'kernel'", line), line)


def elaborate(env: Env, stmt: Statement) -> None:
    line = stmt.line
    tokens = list(stmt.tokens)
    head = tokens.pop(0)
    if head == "check":
        if not tokens:
            raise ParseError(line, 1, "a check kind")
        env.checks.append((line, tuple(tokens)))  # read when the check runs
        return
    if head == "converter":
        party = _operand(tokens, "a party", line)
        _not_built_in(party, line)
    name = _operand(tokens, f"an {head} name" if head == "alphabet" else f"a {head} name", line)
    if head == "alphabet":
        _keyword(tokens, "size", "'size N'", line)
        size = _integer(tokens, "a size after 'size'", line)
        if size < 1:
            raise ParseError(line, 1, "a positive size after 'size'")
        value = Alphabet(name, size)
    elif head in ("group", "quasigroup"):
        kind = _operand(tokens, "'cyclic N', 'symmetric3' or 'table ...'", line)
        if head == "group" and kind == "cyclic":
            value = group_make(("cyclic", _integer(tokens, "an order after 'cyclic'", line)), name)
        elif head == "group" and kind == "symmetric3":
            value = group_make("symmetric3", name)
        elif kind == "table":
            rows = _rows(tokens, line, _element)
            value = group_make(rows, name) if head == "group" else loop_make(rows, name)
        else:
            raise ParseError(line, 1, "'cyclic N', 'symmetric3' or 'table ...'")
    elif head == "kernel":
        if _accept(tokens, "gen"):
            kind = _operand(tokens, "a generator kind after 'gen'", line)
            if kind in ("mult", "inv", "unit"):
                value = group_kernels(env.get("group", _operand(tokens, "a group name", line), line))[kind]
            elif kind not in STRUCTURAL:
                raise ParseError(line, 1, f"a generator kind after 'gen', got {kind!r}")
            else:
                alphas = [env.get("alphabet", t, line) for t in _take_while(tokens, lambda t: not t.isdecimal())]
                takes = {"point": "values", "permutation": "perm"}
                kw = {takes[kind]: [int(t) for t in _take_while(tokens, str.isdecimal)]} if kind in takes else {}
                value = structural(kind, alphas, **kw)
        else:
            dom = [env.get("alphabet", t, line) for t in _take_section(tokens, "dom", line)]
            cod = [env.get("alphabet", t, line) for t in _take_section(tokens, "cod", line)]
            _keyword(tokens, "rows", "'rows ...'", line)
            value = make_kernel(dom, cod, _rows(tokens, line))
    elif head == "resource":
        if _accept(tokens, "builtin"):
            builtin = _operand(tokens, "a builtin resource after 'builtin'", line)
            if builtin not in BUILTIN_RESOURCES:
                raise UnresolvedName(f"line {line}: unknown builtin resource {builtin!r}")
            value = BUILTIN_RESOURCES[builtin]()
        else:
            _keyword(tokens, "parties", "'parties' section", line)
            parties = _operand(tokens, "a party list", line).split(",")
            for party in parties:
                _not_built_in(party, line)
            _keyword(tokens, "rounds", "'rounds' section", line)
            rounds = _integer(tokens, "a round count after 'rounds'", line)
            if rounds < 1:
                raise ParseError(line, 1, "a positive round count after 'rounds'")
            port_specs = []
            for spec in _take_section(tokens, "ports", line):
                fields = spec.split(":", 3)
                if len(fields) != 4:
                    raise ParseError(line, 1, "a port 'id:party:dir:alpha@round'")
                port = _port(env, *fields, "a port 'id:party:dir:alpha@round'", line)
                if port.round > rounds:
                    raise ParseError(line, 1, f"a port round of at most {rounds}, got {port.round}")
                if port.party not in parties:
                    raise UnresolvedName(f"line {line}: unknown party {port.party!r}")
                port_specs.append(port)
            sig = make_signature(parties, rounds, port_specs)
            value = make_behavior(sig, _kernel_of(env, tokens, sig, line))
    elif head == "converter":
        port_specs = []
        wiring = []
        for spec in _take_section(tokens, "ports", line):
            parts = spec.split(":")
            if len(parts) not in (3, 4):
                raise ParseError(line, 1, "a port 'id:dir:alpha@round'")
            port = _port(env, parts[0], party, parts[1], parts[2], "a port 'id:dir:alpha@round'", line)
            if len(parts) == 4:
                if not parts[3].startswith("wire="):
                    raise ParseError(line, 1, "'wire=RESPORT'")
                wiring.append((port.id, parts[3][5:]))
            port_specs.append(port)
        sig = make_signature([party], max((p.round for p in port_specs), default=1), port_specs)
        value = Converter(party, make_behavior(sig, _kernel_of(env, tokens, sig, line)), tuple(wiring))
    elif head == "protocol":
        src, tgt = _from_to(env, tokens, line)
        what = "'converters C1,C2' (or 'converters none')"
        _keyword(tokens, "converters", what, line)
        names = _operand(tokens, what, line)
        names = [] if names == "none" else names.split(",")
        convs = [env.get("converter", c, line) for c in names]
        _keyword(tokens, "schedule", "'schedule res.1,...'", line)
        by_name = {c: conv.party for c, conv in zip(names, convs)}
        for c in names:
            if by_name[c] != c and c in by_name.values():
                raise DuplicateName(f"line {line}: converter {c!r} is named like another converter's party")
        schedule = []
        for item in _operand(tokens, "'schedule res.1,...'", line).split(","):
            lab, rnd = _name_and_round(item, ".", "a schedule item 'NAME.ROUND'", line)
            schedule.append((by_name.get(lab, lab), rnd))
        value = Protocol(src, tgt, tuple(convs), tuple(schedule))
    else:
        raise ParseError(line, 1, f"unknown statement {head!r}")
    _end(tokens, line)
    env.define("group" if head == "quasigroup" else head, name, value, line)


# ---------------------------------------------------------------------------
# running checks


def _certify(entry: dict, farkas: Optional[FarkasCert], cert: Optional[SimulatorCert] = None) -> None:
    """Write the entry's "certificate": a digest of the Farkas vector, else of
    the simulator's tables; nothing when there is neither."""
    if farkas is not None:
        payload = {"farkas": [scalar_str(v) for v in farkas.y]}
    elif cert is not None:
        payload = {"simulator": [_table_strings(node.kernel) for _lab, node in cert.simulator.nodes]}
    else:
        return
    canon = json.dumps(payload, sort_keys=True, default=scalar_str)
    entry["certificate"] = "sha256:" + hashlib.sha256(canon.encode()).hexdigest()[:16]


def _table_strings(kernel: Kernel) -> list[list[str]]:
    """The kernel's table row by row (rows[cod_index][dom_index]), every
    entry written `p/q`, zeros included."""
    rows = [[scalar_str(ZERO)] * kernel.n_dom for _ in range(kernel.n_cod)]
    for j, col in enumerate(kernel.cols):
        for i, v in col:
            rows[i][j] = scalar_str(v)
    return rows


# each check kind's accepted `expect` values: its verdict words, or None
# for a number
EXPECTS: dict[str, Optional[tuple[str, ...]]] = {
    "secure": ("secure", "insecure"),
    "epsilon": None,
    "split": ("feasible", "infeasible"),
    "advantage": None,
    "broadcast": ("feasible", "infeasible"),
    "axioms": ("pass", "fail"),
    "otp": ("secure", "insecure"),
    "otp_epsilon": None,
    "lift": ("pass",),
    "stream": None,
}

# the expectation of a check written without `expect`; the other kinds then
# pass whatever they measure
DEFAULT_EXPECT = {"secure": "secure", "axioms": "pass", "otp": "secure", "lift": "pass"}


def _expectation(tokens: list[str], kind: str, line: int) -> Optional[str]:
    """Pop 'expect VALUE' ('expect_at_most VALUE' for stream) from wherever
    it stands, checked against the kind's accepted values; None when
    absent."""
    key = "expect_at_most" if kind == "stream" else "expect"
    if key not in tokens:
        return None
    i = tokens.index(key)
    if i + 1 == len(tokens):
        raise ParseError(line, 1, f"a value after {key!r}")
    value = tokens[i + 1]
    del tokens[i : i + 2]
    words = EXPECTS[kind]
    if words is None:
        _number(value, line)
    elif value not in words:
        raise ParseError(line, 1, f"{' or '.join(map(repr, words))} after {key!r}, got {value!r}")
    return value


def run_check(env: Env, line: int, tokens: tuple[str, ...]) -> dict:
    toks = list(tokens)
    kind = toks.pop(0)
    if kind not in EXPECTS:
        raise ParseError(line, 1, f"unknown check kind {kind!r}")
    expected = _expectation(toks, kind, line)
    entry: dict = {"kind": kind, "line": line, "args": " ".join(tokens)}
    ok = True  # the check's own side condition, whatever it measured

    def operand(what: str) -> str:
        return _operand(toks, what, line)

    def last(what: str) -> str:
        """The final operand: nothing may follow it."""
        token = operand(what)
        _end(toks, line)
        return token

    if kind in ("secure", "epsilon"):
        proto = env.get("protocol", operand("a protocol name"), line)
        src, tgt = _from_to(env, toks, line) if toks[:1] == ["from"] else (proto.source, proto.target)
        _keyword(toks, "dishonest", "'dishonest P1,P2'", line)
        j = tuple(last("'dishonest P1,P2'").split(","))
        if kind == "secure":
            rep = search_simulator(proto, src, tgt, j)
            measured = rep.verdict
            entry["lp_size"] = [rep.lp.n, rep.lp.m]
        else:
            rep = min_epsilon(proto, src, tgt, j)
            measured = rep.epsilon
            entry["epsilon"] = scalar_str(rep.epsilon)
        entry["verdict"] = rep.verdict
        _certify(entry, rep.farkas, rep.cert)
    elif kind == "split":
        verdict = split_check(env.get("resource", last("a resource name"), line))
        measured = entry["verdict"] = "feasible" if verdict.feasible else "infeasible"
        entry["lp_size"] = [verdict.lp.n, verdict.lp.m]
        _certify(entry, verdict.cert)
    elif kind == "advantage":
        measured = min_split_advantage(env.get("resource", last("a resource name"), line))
        entry["advantage"] = scalar_str(measured)
    elif kind == "broadcast":
        r = env.get("resource", last("a resource name"), line)
        verdict = tripartite_split_check(r)
        measured = entry["verdict"] = "feasible" if verdict.feasible else "infeasible"
        try:
            contradiction = entry["oracle_contradiction"] = broadcast_contradiction_oracle(r).contradiction
        except ShapeMismatch:  # outside the oracle's scope the program's verdict stands
            contradiction = False
        ok = entry["methods_agree"] = not (contradiction and verdict.feasible)
        _certify(entry, verdict.cert)
    elif kind == "axioms":
        rep = hopf_axiom_suite(env.get("group", last("a group name"), line))
        measured = entry["verdict"] = "pass" if rep.all_pass else "fail"
        entry["failed_axioms"] = list(rep.failed())
    elif kind == "otp":
        g = env.get("group", operand("a group name"), line)
        weights = None
        if _accept(toks, "key"):
            weights = [_number(t, line) for t in _take_while(toks, lambda t: t != "attacks")]
        n_attacks = None
        if _accept(toks, "attacks"):
            n_attacks = _integer(toks, "an attack count after 'attacks'", line)
            if n_attacks < 0:
                raise ParseError(line, 1, f"an attack count of at least 0, got {n_attacks}")
            if _accept(toks, "seed"):
                _integer(toks, "a seed after 'seed'", line)
        _end(toks, line)
        inst = build_otp(g, weights)
        entry["correct"] = otp_correctness(inst)
        rep = otp_security(inst)
        ok = entry["correct"] or weights is not None
        measured = entry["verdict"] = rep.verdict
        _certify(entry, rep.farkas, rep.cert)
        if n_attacks is not None:
            # a secure verdict means the supplied simulator's view is the
            # real view (`otp_security`), so every attack transfers
            entry["attacks_checked"] = n_attacks if rep.verdict == "secure" else 0
    elif kind == "otp_epsilon":
        g = env.get("group", operand("a group name"), line)
        _keyword(toks, "key", "'key w w ...'", line)
        inst = build_otp(g, [_number(t, line) for t in toks])
        rep = min_epsilon(inst.protocol, inst.source, inst.target, ("eve",))
        measured = rep.epsilon
        entry["epsilon"] = scalar_str(rep.epsilon)
        entry["verdict"] = rep.verdict
    elif kind == "lift":
        inst = build_otp(env.get("group", last("a group name"), line))
        lifted = lift_deterministic(inst.protocol)
        rep = check_secure_with(lifted, inst.source, inst.target, ("eve",), inst.sigma)
        measured = entry["verdict"] = "pass" if rep.secure else "fail"
    elif kind == "stream":
        g = env.get("group", operand("a group name"), line)
        _keyword(toks, "expander", "'expander KERNEL'", line)
        expander = env.get("expander", last("'expander KERNEL'"), line) or identity([group_alphabet(g)])
        rep = stream_cipher_demo(g, expander)
        measured = rep.composite.epsilon
        entry["expansion_epsilon"] = scalar_str(rep.expansion_epsilon)
        entry["composite_epsilon"] = scalar_str(measured)
        ok = entry["bound_holds"] = measured <= rep.expansion_epsilon
    want = expected or DEFAULT_EXPECT.get(kind)
    if isinstance(measured, str) and want:
        ok = ok and measured == want
    elif want:  # a number; `stream` is held to at most its expectation
        value = _number(want, line)
        ok = ok and (measured <= value if kind == "stream" else measured == value)
    if expected is not None:
        entry["expected"] = expected
    entry["pass"] = ok
    return entry


class RunResult(Record):
    report: dict
    exit_code: int


def run(ast: SpecFileAst, no_meta: bool = False) -> RunResult:
    env = Env()
    for stmt in ast.statements:
        try:
            elaborate(env, stmt)
        except (ParseError, UnresolvedName, DuplicateName) as exc:  # these carry their line
            return RunResult({"schema": 1, "error": str(exc)}, 2)
        except ComposecError as exc:
            return RunResult({"schema": 1, "error": f"line {stmt.line}: {exc}"}, 2)

    limit_exceeded: list[str] = []
    entries = []
    for line, tokens in env.checks:
        t0 = time.perf_counter()
        try:
            entry = run_check(env, line, tokens)
        except ProblemTooLarge as exc:
            limit_exceeded.append(f"line {line}: {tokens[0]} check: {exc}")
            entry = {"kind": tokens[0], "line": line, "error": str(exc), "pass": False}
        except ComposecError as exc:
            entry = {"kind": tokens[0], "line": line, "error": str(exc), "pass": False}
        if not no_meta:
            entry["wall_ms"] = round((time.perf_counter() - t0) * 1000, 3)
        entries.append(entry)
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
    """The report on stdout, then in the file `json_path` if one is given."""
    text = json.dumps(report, indent=2, sort_keys=True, default=scalar_str) + "\n"
    sys.stdout.write(text)
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text)


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
    v.add_argument("--json", dest="json_path", default=None)
    v.add_argument("--no-meta", action="store_true", help="omit timing for byte-stable output")
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
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            sys.stderr.write(f"composec: {exc}\n")
            return 2
        except UnicodeDecodeError as exc:
            sys.stderr.write(f"composec: {args.file}: {exc}\n")
            return 2
        no_meta = args.no_meta
    else:
        text = _inline_spec(args)
        no_meta = False

    try:
        ast = parse_spec(text)
    except ParseError as exc:
        sys.stderr.write(f"composec: {exc}\n")
        return 2
    result = run(ast, no_meta=no_meta)
    if "error" in result.report:
        sys.stderr.write(f"composec: {result.report['error']}\n")
        if "checks" not in result.report:
            return result.exit_code
    try:
        _emit(result.report, args.json_path if args.command == "verify" else None)
    except OSError as exc:
        sys.stderr.write(f"composec: {exc}\n")
        return 2
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())

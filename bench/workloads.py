"""The benchmark's workloads: their inputs, the checks of one pass, and the
expected answers.

A workload is a `setup` that reads and generates its inputs, and a `checks`
function that yields the checks of one pass.  Each pass builds its inputs
from fresh objects (spec text re-parsed, groups and protocols rebuilt,
random behaviours regenerated), so no `realize` cache entry survives from
one pass into the next, as for a user who runs `composec verify` once.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

from answers import (
    adaptive_distance,
    change_one_byte,
    expect,
    farkas_problems,
    negate_one_entry,
)


@dataclass
class Check:
    """One unit of a pass.  `run` calls the program and returns its answer;
    `verify` returns one problem per failing decision, [] when correct;
    `corrupt` makes a wrong answer that `verify` must reject."""

    id: str
    size: int  # decisions the check makes
    run: Callable[[], dict]
    verify: Callable[[dict], list[str]]
    corrupt: Callable[[dict], dict]


# ---------------------------------------------------------------------------
# corpus: every spec file through the CLI path, as `composec verify --no-meta`

SPEC_FILES = (
    "axioms_groups.spec",
    "broadcast_nogo.spec",
    "commitment_nogo.spec",
    "otp_degraded_key.spec",
    "otp_groups.spec",
    "otp_z2.spec",
    "stream_cipher.spec",
)


def _check_lines(text: str) -> list[int]:
    return [
        n
        for n, raw in enumerate(text.splitlines(), start=1)
        if raw.split("#", 1)[0].split()[:1] == ["check"]
    ]


def corpus_setup(C, root: Path, seed: int) -> dict:
    specs = []
    for name in SPEC_FILES:
        text = (root / "specs" / name).read_text()
        specs.append((name, text, _check_lines(text)))
    return {"specs": specs, "reference": {}}


def corpus_checks(C, ctx: dict) -> Iterator[Check]:
    reference = ctx["reference"]  # report bytes of the first pass, by file
    for name, text, lines in ctx["specs"]:

        def run(text=text) -> dict:
            result = C.cli.run(C.cli.parse_spec(text), no_meta=True)
            report = json.dumps(
                result.report, indent=2, sort_keys=True, default=C.scalars.scalar_str
            )
            return {
                "exit": result.exit_code,
                "report": report.encode(),
                "passes": {e.get("line"): e.get("pass") for e in result.report.get("checks", [])},
            }

        def verify(ans: dict, name=name, lines=lines) -> list[str]:
            whole = []
            if ans["exit"] != 0:
                whole.append(f"exit code {ans['exit']}")
            if ans["report"] != reference.setdefault(name, ans["report"]):
                whole.append("report bytes differ from the first pass")
            if whole:
                return [f"{name} line {n}: {'; '.join(whole)}" for n in lines]
            return [
                f"{name} line {n}: pass is {ans['passes'].get(n)!r}"
                for n in lines
                if ans["passes"].get(n) is not True
            ]

        yield Check(
            name,
            len(lines),
            run,
            verify,
            lambda ans: {**ans, "report": change_one_byte(ans["report"])},
        )


def _security_answer(rep) -> dict:
    return {
        "verdict": rep.verdict,
        "value": rep.epsilon,
        "farkas": rep.farkas.y if rep.farkas else None,
        "lp": rep.lp,
    }


def _farkas_if_any(ans: dict) -> list[str]:
    """Every Farkas vector the program returns is re-checked, whatever the
    verdict it comes with."""
    return [] if ans["farkas"] is None else farkas_problems(ans["lp"], ans["farkas"])


# ---------------------------------------------------------------------------
# tables: large sparse transcript tables, almost no LP

AXIOMS = 7


def _quasigroup_table(text: str, name: str) -> list[list[int]]:
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens[:2] == ["quasigroup", name]:
            rows = " ".join(tokens[3:]).split(";")
            return [[int(v) for v in row.split()] for row in rows]
    raise ValueError(f"no quasigroup {name!r} in the spec")


def tables_setup(C, root: Path, seed: int) -> dict:
    text = (root / "specs" / "axioms_groups.spec").read_text()
    return {"q5": _quasigroup_table(text, "q5")}


def _flip_first_axiom(ans: dict) -> dict:
    (name, ok), *rest = ans["axioms"]
    return {"axioms": ((name, not ok), *rest)}


def _failed_axioms(ans: dict) -> tuple[str, ...]:
    return tuple(name for name, ok in ans["axioms"] if not ok)


def tables_checks(C, ctx: dict) -> Iterator[Check]:
    shared = {}

    def otp_correct() -> dict:
        inst = shared["otp"] = C.build_otp(C.group_make(("cyclic", 12)))
        return {"correct": C.otp_correctness(inst)}

    def otp_secure() -> dict:
        return _security_answer(C.otp_security(shared.pop("otp")))

    yield Check(
        "otp_z12.correctness",
        1,
        otp_correct,
        lambda ans: expect("correct", ans["correct"], True),
        lambda ans: {"correct": not ans["correct"]},
    )
    yield Check(
        "otp_z12.security",
        1,
        otp_secure,
        lambda ans: expect("verdict", ans["verdict"], "secure") + _farkas_if_any(ans),
        lambda ans: {**ans, "verdict": "insecure"},
    )
    yield Check(
        "axioms_z10",
        1,
        lambda: {"axioms": C.hopf_axiom_suite(C.group_make(("cyclic", 10))).axioms},
        lambda ans: expect("axiom count", len(ans["axioms"]), AXIOMS)
        + expect("failed axioms", _failed_axioms(ans), ()),
        _flip_first_axiom,
    )
    yield Check(
        "axioms_q5",
        1,
        lambda: {"axioms": C.hopf_axiom_suite(C.loop_make(ctx["q5"], "q5")).axioms},
        lambda ans: expect("axiom count", len(ans["axioms"]), AXIOMS)
        + expect("failed axioms", _failed_axioms(ans), ("H1 associativity",)),
        _flip_first_axiom,
    )


# ---------------------------------------------------------------------------
# adaptive: small tables, dense simplex and strategy enumeration

HALF = Fraction(1, 2)

# builtin resource, splittable, minimum split advantage
SPLITS = (
    ("commitment_resource", False, Fraction(1, 2)),
    ("ot_resource", False, Fraction(1, 4)),
    ("identity_channel_resource", True, Fraction(0)),
)

# builtin resource, feasible doubled-middle system
BROADCASTS = (("broadcast_resource", False), ("product_uniform_resource", True))

# group order, key weights, minimum epsilon: the key's total-variation
# distance from uniform, reached by the uniform simulator and beaten by none
# because the key has a zero entry
EPSILONS = (
    (3, (HALF, HALF, Fraction(0)), Fraction(1, 3)),
    (4, (HALF, Fraction(1, 4), Fraction(1, 4), Fraction(0)), Fraction(1, 4)),
)

# random causal behaviours for `behavior_distance`: one binary input and one
# ternary output per round, flattened from per-round comb kernels whose
# memories have these sizes (first and last trivial)
ROUNDS, N_IN, N_OUT = 3, 2, 3
MEMORY = (1, 2, 2, 1)


def _draw_comb(rng: random.Random) -> tuple:
    rounds = []
    for r in range(ROUNDS):
        n_dom, n_cod = MEMORY[r] * N_IN, N_OUT * MEMORY[r + 1]
        cols = []
        for _ in range(n_dom):
            col = [rng.randint(0, 5) for _ in range(n_cod)]
            if not any(col):
                col[0] = 1
            cols.append(tuple(col))
        rounds.append(tuple(cols))
    return tuple(rounds)


def adaptive_setup(C, root: Path, seed: int) -> dict:
    rng = random.Random(seed)
    return {"combs": (_draw_comb(rng), _draw_comb(rng))}


def _behavior(C, draws: tuple):
    x, y = C.Alphabet("x", N_IN), C.Alphabet("y", N_OUT)
    mem = [C.Alphabet(f"m{r}", size) for r, size in enumerate(MEMORY)]
    ports = []
    for r in range(1, ROUNDS + 1):
        ports.append(C.PortSpec(f"x{r}", "dist", x, "in", r))
        ports.append(C.PortSpec(f"y{r}", "dist", y, "out", r))
    sig = C.make_signature(["dist"], ROUNDS, ports)
    kernels = []
    for r, cols in enumerate(draws):
        table = [[Fraction(col[i], sum(col)) for col in cols] for i in range(len(cols[0]))]
        kernels.append(C.make_kernel([mem[r], x], [y, mem[r + 1]], table))
    return C.flatten(C.CombKernels(sig, tuple(mem), tuple(kernels)))


def _nogo_answer(v) -> dict:
    return {"feasible": v.feasible, "farkas": v.cert.y if v.cert else None, "lp": v.lp}


def _verdict_problems(ans: dict, feasible: bool) -> list[str]:
    problems = expect("feasible", ans["feasible"], feasible)
    if not ans["feasible"]:
        problems += farkas_problems(ans["lp"], ans["farkas"])
    return problems


def _corrupt_verdict(ans: dict) -> dict:
    if ans["farkas"] is not None:
        return {**ans, "farkas": negate_one_entry(ans["farkas"])}
    return {**ans, "feasible": not ans["feasible"]}


def _plus_half(ans: dict) -> dict:
    return {**ans, "value": ans["value"] + HALF}


def adaptive_checks(C, ctx: dict) -> Iterator[Check]:
    for factory, feasible, advantage in SPLITS:
        name = factory.removesuffix("_resource")
        shared = {}

        def split(factory=factory, shared=shared) -> dict:
            r = shared["r"] = getattr(C.nogo, factory)()
            return _nogo_answer(C.split_check(r))

        yield Check(
            f"split.{name}",
            1,
            split,
            lambda ans, feasible=feasible: _verdict_problems(ans, feasible),
            _corrupt_verdict,
        )
        yield Check(
            f"advantage.{name}",
            1,
            lambda shared=shared: {"value": C.min_split_advantage(shared.pop("r"))},
            lambda ans, advantage=advantage: expect("advantage", ans["value"], advantage),
            _plus_half,
        )
    for factory, feasible in BROADCASTS:

        def broadcast(factory=factory) -> dict:
            r = getattr(C.nogo, factory)()
            ans = _nogo_answer(C.tripartite_split_check(r))
            ans["contradiction"] = C.broadcast_contradiction_oracle(r).contradiction
            return ans

        yield Check(
            f"broadcast.{factory.removesuffix('_resource')}",
            1,
            broadcast,
            lambda ans, feasible=feasible: _verdict_problems(ans, feasible)
            + expect("oracle contradiction", ans["contradiction"], not ans["feasible"]),
            _corrupt_verdict,
        )
    for order, key, epsilon in EPSILONS:

        def min_epsilon(order=order, key=key) -> dict:
            inst = C.build_otp(C.group_make(("cyclic", order)), key)
            return _security_answer(C.min_epsilon(inst.protocol, inst.source, inst.target, ("eve",)))

        yield Check(
            f"epsilon.z{order}",
            1,
            min_epsilon,
            lambda ans, epsilon=epsilon: expect("verdict", ans["verdict"], "epsilon")
            + expect("epsilon", ans["value"], epsilon)
            + _farkas_if_any(ans),
            _plus_half,
        )

    def distance() -> dict:
        a, b = (_behavior(C, draws) for draws in ctx["combs"])
        return {
            "value": C.behavior_distance(a, b),
            "ports": tuple(p.id for p in a.signature.ports),
            "tables": (a.kernel.matrix, b.kernel.matrix),
        }

    def verify_distance(ans: dict) -> list[str]:
        want_ports = tuple(f"{d}{r}" for r in range(1, ROUNDS + 1) for d in "xy")
        problems = expect("ports", ans["ports"], want_ports)
        if not problems:
            want = adaptive_distance(*ans["tables"], N_IN, N_OUT, ROUNDS)
            problems = expect("distance", ans["value"], want)
        return problems

    yield Check("distance", 1, distance, verify_distance, _plus_half)


@dataclass(frozen=True)
class Workload:
    setup: Callable
    checks: Callable


WORKLOADS = {
    "corpus": Workload(corpus_setup, corpus_checks),
    "tables": Workload(tables_setup, tables_checks),
    "adaptive": Workload(adaptive_setup, adaptive_checks),
}

"""Import hygiene of the package, read from its source with `ast`: every
imported name is used by the module or test file that imports it (a
package's `__all__` counts as a use), no module imports another module's
private name, every top-level name and every method is reached from the
command line's `main`,
the program over an unknown comb's table is built in `distinguisher` only,
no module but `attacks` imports a linker of nodes onto a view, only `lp`
refuses a program as too large, no function body imports anything, no
module checks anything with `assert`, which `python -O` strips, and no
module imports `dataclasses`, whose decorator compiles each class's methods
at import; a fresh `import composec.cli` loads neither `dataclasses` nor
`inspect`.  Records set their fields through `Record.__init__` alone:
`object.__setattr__` writes only the two memos, `_comb` in `comb._memoise`
and `_views` in `Protocol`.  Every module parses with the grammar of the
oldest Python that pyproject.toml declares."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "composec"
MODULES = sorted(SRC.glob("*.py"))
TEST_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))
# the oldest Python the package declares it runs on
FLOOR = tuple(
    int(v)
    for v in re.search(r'requires-python = ">=(\d+)\.(\d+)"', (SRC.parents[1] / "pyproject.toml").read_text()).groups()
)


def _imports(tree: ast.Module):
    """(bound name, imported name, module, line) for every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, module, node.lineno


def _annotation_strings(tree: ast.Module):
    """The quoted annotations (forward references), as expressions."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield ast.parse(node.value, mode="eval")


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for root in [tree, *_annotation_strings(tree)]:
        used.update(node.id for node in ast.walk(root) if isinstance(node, ast.Name))
    for node in tree.body:  # names a package exports through __all__
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def _unused(tree: ast.Module) -> list[str]:
    used = _used_names(tree)
    return [f"line {line}: {bound}" for bound, _name, _module, line in _imports(tree) if bound not in used]


def _private(tree: ast.Module) -> list[str]:
    return [
        f"line {line}: {name} from {module}"
        for _bound, name, module, line in _imports(tree)
        if module.startswith((".", "composec")) and name.startswith("_")
    ]


# the builders of the unknown-comb program, which `distinguisher.solve_comb`
# alone puts together; `table_behavior`, which reads a table back from a
# point, is not one of them: `nogo` substitutes its tripartite witness with it
COMB_LP = ("table_lp", "add_match_rows", "add_advantage_objective")
OUTSIDE = [p for p in MODULES if p.stem != "distinguisher"]


def _imported(tree: ast.Module, names) -> list[str]:
    return [f"line {line}: {name}" for _bound, name, _module, line in _imports(tree) if name in names]


@pytest.mark.parametrize(
    "path", MODULES + TEST_FILES, ids=[p.stem for p in MODULES] + [f"tests.{p.stem}" for p in TEST_FILES]
)
def test_every_import_is_used(path):
    unused = _unused(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_private_name_crosses_modules(path):
    private = _private(ast.parse(path.read_text(), filename=str(path)))
    assert not private, f"{path.name} imports private names: {private}"


@pytest.mark.parametrize("path", OUTSIDE, ids=[p.stem for p in OUTSIDE])
def test_only_distinguisher_builds_the_comb_program(path):
    found = _imported(ast.parse(path.read_text(), filename=str(path)), COMB_LP)
    assert not found, f"{path.name} builds an unknown comb's program itself: {found}"


# the linker of nodes onto a view lives in tests/helpers.py, where it links
# attacks onto the dummy view `attacks.dummy_attack` builds; no other module
# of the package may bring one back
NOT_ATTACKS = [p for p in MODULES if p.stem != "attacks"]


@pytest.mark.parametrize("path", NOT_ATTACKS, ids=[p.stem for p in NOT_ATTACKS])
def test_only_attacks_links_onto_a_view(path):
    found = _imported(ast.parse(path.read_text(), filename=str(path)), ("merge_asap",))
    assert not found, f"{path.name} links nodes onto a view itself; use attacks: {found}"


def _top_level(tree: ast.Module):
    """(name, node) for every top-level def, class and assigned name,
    dunders excluded."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if not (name.startswith("__") and name.endswith("__")))


def _is_method(node: ast.AST) -> bool:
    """A function defined in a class body, other than a dunder."""
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
        node.name.startswith("__") and node.name.endswith("__")
    )


def _body(node: ast.AST):
    """`ast.walk(node)`, less the methods of a class, which are reached on
    their own."""
    todo = [node]
    while todo:
        sub = todo.pop()
        yield sub
        todo.extend(c for c in ast.iter_child_nodes(sub) if not (isinstance(sub, ast.ClassDef) and _is_method(c)))


def _unreached(trees: dict[str, ast.Module]) -> list[str]:
    """"module.name" for every top-level name outside the closure of
    `cli.main`, and "module.Class.method" for every method outside it: a
    reached definition reaches every top-level name, in any module, that it
    uses as a name, every top-level name of a module that it reads as an
    attribute of that module bound by an import (`lpmod.verify`), the name
    an import alias binds (`kernel_tensor` for `from .stoch import tensor as
    kernel_tensor`), and every method of a reached class that reached code
    uses as an attribute.  A class's dunder methods are part of its body."""
    defined: dict[str, list[tuple[str, ast.AST]]] = {}
    # per module, each name an import binds to a module of the package
    bound = {
        module: {b: name for b, name, source, _line in _imports(tree) if source in (".", "composec") and name in trees}
        for module, tree in trees.items()
    }
    # per module, each alias an import binds to a name of a module of the
    # package, and that (module, name)
    aliased = {
        module: {b: (source[1:], name) for b, name, source, _line in _imports(tree) if b != name and source[1:] in trees}
        for module, tree in trees.items()
    }
    for module, tree in trees.items():
        for name, node in _top_level(tree):
            defined.setdefault(name, []).append((module, node))
            if isinstance(node, ast.ClassDef):
                for f in filter(_is_method, node.body):
                    defined.setdefault(f"{name}.{f.name}", []).append((module, f))
    reached, attrs, todo = set(), set(), [("cli", "main")]
    while todo:
        module, name = todo.pop()
        if (module, name) not in reached:
            reached.add((module, name))
            for sub in (sub for m, node in defined[name] if m == module for sub in _body(node)):
                if isinstance(sub, ast.Name):
                    todo.extend((m, sub.id) for m, _n in defined.get(sub.id, ()))
                    if sub.id in aliased[module]:
                        todo.append(aliased[module][sub.id])
                elif isinstance(sub, ast.Attribute):
                    attrs.add(sub.attr)
                    source = bound[module].get(getattr(sub.value, "id", None))
                    todo.extend((m, sub.attr) for m, _n in defined.get(sub.attr, ()) if m == source)
        if not todo:  # then every method of a reached class that reached code uses as an attribute
            todo = [
                (m, name)
                for name, defs in defined.items()
                if name.partition(".")[2] in attrs
                for m, _n in defs
                if (m, name.partition(".")[0]) in reached and (m, name) not in reached
            ]
    return sorted(f"{m}.{name}" for name, defs in defined.items() for m, _n in defs if (m, name) not in reached)


# the names no check reaches, each with the reader that keeps it
UNREACHED = {
    "comb.flatten": "bench/workloads.py",
    "lp.LinearProgram.a": "bench/answers.py, bench/tracing.py",
    "lp.LinearProgram.b": "bench/answers.py",
    "stoch.Kernel.matrix": "bench/tracing.py, bench/workloads.py",
}


def test_every_top_level_name_is_reached_from_the_cli():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    assert _unreached(trees) == sorted(UNREACHED)


# the one LP size guard, `lp.CAP`, counted on the rows the simplex keeps
NOT_LP = [p for p in MODULES if p.stem != "lp"]


def _too_large(tree: ast.Module) -> list[str]:
    """Lines raising `ProblemTooLarge`, by name or as an attribute."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "ProblemTooLarge":
                lines.append(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


@pytest.mark.parametrize("path", NOT_LP, ids=[p.stem for p in NOT_LP])
def test_only_lp_refuses_a_program_as_too_large(path):
    found = _too_large(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name} raises ProblemTooLarge; the size guard is lp.CAP: {found}"


def _local_imports(tree: ast.Module) -> list[str]:
    """Imports inside a function body: each module's imports sit at its top."""
    lines = {
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    return [f"line {line}" for line in sorted(lines)]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_import_inside_a_function(path):
    found = _local_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name} imports inside a function; import at the top: {found}"


def _asserts(tree: ast.Module) -> list[str]:
    return [f"line {node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_assert_statement(path):
    found = _asserts(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name} checks with assert, which python -O drops: {found}"


def _dataclasses(tree: ast.Module) -> list[str]:
    lines = {line for _bound, _name, module, line in _imports(tree) if module == "dataclasses"}
    return [f"line {line}" for line in sorted(lines)]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_dataclasses_import(path):
    found = _dataclasses(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name} imports dataclasses; build records on record.Record: {found}"


def _setattrs(tree: ast.Module) -> list[str]:
    """Every `object.__setattr__` call, as "line N: Scope.name sets attribute"."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func) == "object.__setattr__":
                name = child.args[1] if len(child.args) > 1 else None
                attr = name.value if isinstance(name, ast.Constant) else "?"
                found.append(f"line {child.lineno}: {'.'.join(scope)} sets {attr}")
            visit(child, scope)

    visit(tree, ())
    return found


# the one memo each module may keep beside a record's fields
MEMOS = {"comb": "_memoise sets _comb", "resources": "Protocol.__init__ sets _views"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_records_set_fields_only_through_the_record_constructor(path):
    found = _setattrs(ast.parse(path.read_text(), filename=str(path)))
    found = [s for s in found if s.split(": ", 1)[1] != MEMOS.get(path.stem)]
    assert not found, f"{path.name} sets attributes with object.__setattr__; pass fields to Record.__init__: {found}"


def _above_floor(source: str) -> list[str]:
    """The syntax error the grammar of Python `FLOOR` finds, if any."""
    try:
        ast.parse(source, feature_version=FLOOR)
    except SyntaxError as exc:
        return [f"line {exc.lineno}: {exc.msg}"]
    return []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_module_parses_at_the_declared_python_floor(path):
    found = _above_floor(path.read_text())
    assert not found, f"{path.name} needs a Python newer than {FLOOR}, the declared floor: {found}"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S: no site hook runs, so only what composec imports is loaded
    code = "import sys, composec.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_the_checks_see_an_unused_and_a_private_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from typing import Optional\n"
        "from .stoch import index_tuple, _deterministic\n"
        "from . import lp\n"
        "x: 'Optional[int]' = lp.verify\n"
    )
    assert _unused(tree) == ["line 3: index_tuple", "line 3: _deterministic"]
    assert _private(tree) == ["line 3: _deterministic from .stoch"]
    assert _imported(ast.parse("from .distinguisher import solve_comb, table_lp\n"), COMB_LP) == ["line 1: table_lp"]
    assert _imported(ast.parse("from .comb import Network, merge_asap\n"), ("merge_asap",)) == ["line 1: merge_asap"]
    assert _asserts(ast.parse("def f(x):\n    assert x > 0\n    return x\n")) == ["line 2"]
    assert _local_imports(ast.parse("import math\ndef f():\n    from .stoch import UNIT\n    return UNIT\n")) == ["line 3"]
    assert _too_large(
        ast.parse("if n * m > cap:\n    raise ProblemTooLarge('big')\nraise errors.ProblemTooLarge\nraise ValueError\n")
    ) == ["line 2", "line 3"]
    assert _dataclasses(
        ast.parse("import dataclasses\nfrom dataclasses import dataclass, field\nfrom .record import Record\n")
    ) == ["line 1", "line 2"]
    assert _setattrs(
        ast.parse(
            "class A(Record):\n"
            "    def __init__(self, x):\n"
            "        object.__setattr__(self, 'x', x)\n"
            "def realize(b):\n"
            "    object.__setattr__(b, '_comb', 1)\n"
            "    object.__setattr__(b, name, 2)\n"
        )
    ) == ["line 3: A.__init__ sets x", "line 5: realize sets _comb", "line 6: realize sets ?"]
    trees = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    trees["comb"].body += ast.parse("def _stub(b):\n    return flatten(b)\n").body
    # a method is reached with its class only when reached code uses it as
    # an attribute; a dunder method, always
    (kernel,) = [node for node in trees["stoch"].body if getattr(node, "name", None) == "Kernel"]
    kernel.body += ast.parse("def stub(self):\n    return _by_method\ndef __len__(self):\n    return _by_dunder\n").body
    trees["stoch"].body += ast.parse("def _by_method():\n    pass\ndef _by_dunder():\n    pass\n").body
    assert _unreached(trees) == sorted(["comb._stub", "stoch.Kernel.stub", "stoch._by_method", *UNREACHED])
    # an attribute reaches a top-level name only when it is read off a
    # module an import binds: not `"x".split`, nor `comb._stub` before
    # `from . import comb`
    trees["nogo"].body += ast.parse("def split(r, g):\n    return r\n").body
    trees["cli"].body += ast.parse("def main():\n    return comb._stub(k.stub, k.matrix, lp.a, lp.b, 'x'.split(','))\n").body
    assert _unreached(trees) == ["comb._stub", "comb.flatten", "nogo.split"]
    trees["cli"].body += ast.parse("from . import comb, nogo as mediators\ndef main():\n    return mediators.split\n").body
    assert _unreached(trees) == []
    # an import alias reaches the name it binds
    trees["stoch"].body += ast.parse("def _by_alias():\n    pass\n").body
    assert _unreached(trees) == ["stoch._by_alias"]
    trees["cli"].body += ast.parse("from .stoch import _by_alias as aliased\ndef main():\n    return aliased\n").body
    assert _unreached(trees) == []
    assert FLOOR == (3, 10)
    assert _above_floor("try:\n    pass\nexcept ValueError:\n    pass\n") == []
    (found,) = _above_floor("try:\n    pass\nexcept* ValueError:\n    pass\n")
    assert "Exception groups are only supported in Python 3.11" in found

"""Finite alphabets, distributions and column-stochastic kernels.

A Kernel is a morphism of the category of finite sets and stochastic maps:
an ordered list of domain ports, an ordered list of codomain ports, and a
dense matrix indexed (codomain tuple, domain tuple).  Tuples are enumerated
row-major with the leftmost port most significant; every module in this
package inherits that convention.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    BadPermutation,
    BadPortSelection,
    ColumnNotStochastic,
    DimensionMismatch,
    ElementOutOfRange,
    InterfaceMismatch,
    NegativeEntry,
)
from .scalars import (
    FLOAT,
    RATIONAL,
    TOL_EQ,
    TOL_SUM,
    Scalar,
    as_scalar,
    check_mode,
    one,
    zero,
)

# Dense tables only; guards against accidentally huge tensor products.
DEFAULT_SIZE_CAP = 1 << 20


@dataclass(frozen=True)
class Alphabet:
    """A named finite set; labels are optional display names for elements."""

    name: str
    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"alphabet {self.name!r} must have size >= 1")
        if self.labels is not None:
            if len(self.labels) != self.size:
                raise ValueError(f"alphabet {self.name!r}: {len(self.labels)} labels for size {self.size}")
            if len(set(self.labels)) != self.size:
                raise ValueError(f"alphabet {self.name!r}: labels not distinct")

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i)


UNIT = Alphabet("unit", 1)


def ports_size(ports: Sequence[Alphabet]) -> int:
    n = 1
    for a in ports:
        n *= a.size
    return n


def tuple_index(ports: Sequence[Alphabet], values: Sequence[int]) -> int:
    """Row-major index of a value tuple, leftmost port most significant."""
    if len(values) != len(ports):
        raise DimensionMismatch(f"tuple length {len(values)} vs {len(ports)} ports")
    idx = 0
    for a, v in zip(ports, values):
        if not 0 <= v < a.size:
            raise ElementOutOfRange(f"value {v} out of range for alphabet {a.name} (size {a.size})")
        idx = idx * a.size + v
    return idx


def index_tuple(ports: Sequence[Alphabet], index: int) -> tuple[int, ...]:
    values = [0] * len(ports)
    for k in range(len(ports) - 1, -1, -1):
        index, values[k] = divmod(index, ports[k].size)
    return tuple(values)


def all_tuples(ports: Sequence[Alphabet]) -> Iterable[tuple[int, ...]]:
    return itertools.product(*(range(a.size) for a in ports))


@dataclass(frozen=True)
class Kernel:
    """Column-stochastic matrix with typed ports.  Immutable; share freely."""

    dom: tuple[Alphabet, ...]
    cod: tuple[Alphabet, ...]
    matrix: tuple[tuple[Scalar, ...], ...]  # matrix[cod_index][dom_index]
    mode: str = RATIONAL

    @property
    def n_dom(self) -> int:
        return ports_size(self.dom)

    @property
    def n_cod(self) -> int:
        return ports_size(self.cod)

    def entry(self, out_values: Sequence[int], in_values: Sequence[int]) -> Scalar:
        return self.matrix[tuple_index(self.cod, out_values)][tuple_index(self.dom, in_values)]

    def column(self, dom_index: int) -> tuple[Scalar, ...]:
        return tuple(row[dom_index] for row in self.matrix)


@dataclass(frozen=True)
class Dist:
    """A probability distribution over one alphabet."""

    alphabet: Alphabet
    weights: tuple[Scalar, ...]
    mode: str = RATIONAL

    def __post_init__(self) -> None:
        if len(self.weights) != self.alphabet.size:
            raise DimensionMismatch(f"{len(self.weights)} weights for alphabet of size {self.alphabet.size}")
        _check_column(self.weights, 0, self.mode)

    def as_kernel(self) -> Kernel:
        return Kernel((), (self.alphabet,), tuple((w,) for w in self.weights), self.mode)


def _check_column(values: Sequence[Scalar], col: int, mode: str) -> None:
    total = zero(mode)
    for v in values:
        if mode == RATIONAL:
            if v < 0:
                raise NegativeEntry(f"negative entry {v} in column {col}")
        elif v < -TOL_EQ:
            raise NegativeEntry(f"negative entry {v} in column {col}")
        total += v
    if mode == RATIONAL:
        if total != 1:
            raise ColumnNotStochastic(col, total)
    elif abs(total - 1.0) > TOL_SUM:
        raise ColumnNotStochastic(col, total)


def make_kernel(
    dom: Sequence[Alphabet],
    cod: Sequence[Alphabet],
    table: Sequence[Sequence],
    mode: str = RATIONAL,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> Kernel:
    """Validate a dense table and wrap it as a Kernel.

    `table[i][j]` is the probability of codomain tuple i given domain tuple j.
    """
    check_mode(mode)
    n_dom, n_cod = ports_size(dom), ports_size(cod)
    if n_dom * n_cod > size_cap:
        raise DimensionMismatch(f"table of {n_dom * n_cod} entries exceeds size cap {size_cap}")
    if len(table) != n_cod:
        raise DimensionMismatch(f"{len(table)} rows, expected {n_cod}")
    rows = []
    for row in table:
        if len(row) != n_dom:
            raise DimensionMismatch(f"row of length {len(row)}, expected {n_dom}")
        rows.append(tuple(as_scalar(v, mode) for v in row))
    matrix = tuple(rows)
    for j in range(n_dom):
        _check_column([matrix[i][j] for i in range(n_cod)], j, mode)
    return Kernel(tuple(dom), tuple(cod), matrix, mode)


def validate_kernel(k: Kernel) -> None:
    """Re-run the construction invariants on an existing kernel."""
    make_kernel(k.dom, k.cod, k.matrix, k.mode)


# ---------------------------------------------------------------------------
# composition


def compose(g: Kernel, f: Kernel) -> Kernel:
    """Sequential composition g after f (matrix product)."""
    if g.mode != f.mode:
        raise InterfaceMismatch(f"mode mismatch: {g.mode} vs {f.mode}")
    if g.dom != f.cod:
        raise InterfaceMismatch(
            f"cannot compose: middle interface {[a.name for a in f.cod]} vs {[a.name for a in g.dom]}"
        )
    mid = f.n_cod
    zero_ = zero(f.mode)
    fm, gm = f.matrix, g.matrix
    rows = [[zero_] * f.n_dom for _ in range(g.n_cod)]
    for k in range(mid):
        frow = fm[k]
        hot = [j for j in range(f.n_dom) if frow[j]]
        if not hot:
            continue
        for i in range(g.n_cod):
            gik = gm[i][k]
            if gik:
                target = rows[i]
                for j in hot:
                    target[j] += gik * frow[j]
    return Kernel(f.dom, g.cod, tuple(tuple(r) for r in rows), f.mode)


def tensor(f: Kernel, g: Kernel) -> Kernel:
    """Parallel composition (Kronecker product); f's ports come first."""
    if g.mode != f.mode:
        raise InterfaceMismatch(f"mode mismatch: {f.mode} vs {g.mode}")
    fm, gm = f.matrix, g.matrix
    # Structural kernels are mostly 0s and 1s: copy those blocks instead of
    # multiplying, which is exact in both modes for finite probabilities.
    zeros = (zero(f.mode),) * g.n_dom
    rows = []
    for i1 in range(f.n_cod):
        frow = fm[i1]
        for i2 in range(g.n_cod):
            grow = gm[i2]
            row = []
            for a in frow:
                if not a:
                    row.extend(zeros)
                elif a == 1:
                    row.extend(grow)
                else:
                    row.extend(a * b for b in grow)
            rows.append(tuple(row))
    return Kernel(f.dom + g.dom, f.cod + g.cod, tuple(rows), f.mode)


def tensor_all(kernels: Sequence[Kernel], mode: str = RATIONAL) -> Kernel:
    out = identity((), mode)
    for k in kernels:
        out = tensor(out, k)
    return out


# ---------------------------------------------------------------------------
# structural kernels


def identity(ports: Sequence[Alphabet], mode: str = RATIONAL) -> Kernel:
    n = ports_size(ports)
    one_, zero_ = one(mode), zero(mode)
    rows = tuple(tuple(one_ if i == j else zero_ for j in range(n)) for i in range(n))
    return Kernel(tuple(ports), tuple(ports), rows, mode)


def permutation(ports: Sequence[Alphabet], perm: Sequence[int], mode: str = RATIONAL) -> Kernel:
    """Deterministic wire shuffle: output slot k carries input port perm[k]."""
    if sorted(perm) != list(range(len(ports))):
        raise BadPermutation(f"{perm} is not a permutation of 0..{len(ports) - 1}")
    cod = tuple(ports[p] for p in perm)
    n_dom = ports_size(ports)
    one_, zero_ = one(mode), zero(mode)
    rows = [[zero_] * n_dom for _ in range(ports_size(cod))]
    for x in all_tuples(ports):
        y = tuple(x[p] for p in perm)
        rows[tuple_index(cod, y)][tuple_index(ports, x)] = one_
    return Kernel(tuple(ports), cod, tuple(tuple(r) for r in rows), mode)


def swap(a: Alphabet, b: Alphabet, mode: str = RATIONAL) -> Kernel:
    return permutation((a, b), (1, 0), mode)


def copy_map(ports: Sequence[Alphabet], mode: str = RATIONAL) -> Kernel:
    """Duplicate the whole tuple: X -> X (x) X."""
    ports = tuple(ports)
    n = ports_size(ports)
    one_, zero_ = one(mode), zero(mode)
    rows = [[zero_] * n for _ in range(n * n)]
    for j in range(n):
        rows[j * n + j][j] = one_
    return Kernel(ports, ports + ports, tuple(tuple(r) for r in rows), mode)


def delete(ports: Sequence[Alphabet], mode: str = RATIONAL) -> Kernel:
    n = ports_size(ports)
    return Kernel(tuple(ports), (), (tuple(one(mode) for _ in range(n)),), mode)


def point(ports: Sequence[Alphabet], values: Sequence[int], mode: str = RATIONAL) -> Kernel:
    """Deterministic state I -> X at the given value tuple."""
    idx = tuple_index(ports, values)
    n = ports_size(ports)
    one_, zero_ = one(mode), zero(mode)
    rows = tuple((one_,) if i == idx else (zero_,) for i in range(n))
    return Kernel((), tuple(ports), rows, mode)


def uniform(ports: Sequence[Alphabet], mode: str = RATIONAL) -> Kernel:
    n = ports_size(ports)
    w = Fraction(1, n) if mode == RATIONAL else 1.0 / n
    return Kernel((), tuple(ports), tuple((w,) for _ in range(n)), mode)


_STRUCTURAL = {
    "identity": lambda ports, mode, **kw: identity(ports, mode),
    "swap": lambda ports, mode, **kw: permutation(ports, tuple(reversed(range(len(ports)))), mode)
    if len(ports) == 2
    else _bad_swap(ports),
    "permutation": lambda ports, mode, perm=None, **kw: permutation(ports, perm, mode),
    "copy": lambda ports, mode, **kw: copy_map(ports, mode),
    "delete": lambda ports, mode, **kw: delete(ports, mode),
    "point": lambda ports, mode, values=None, **kw: point(ports, values, mode),
    "uniform": lambda ports, mode, **kw: uniform(ports, mode),
}


def _bad_swap(ports):
    raise BadPermutation(f"swap takes exactly two ports, got {len(ports)}")


def structural(kind: str, ports: Sequence[Alphabet], mode: str = RATIONAL, **kwargs) -> Kernel:
    """Named generator dispatch; see the individual constructors."""
    try:
        builder = _STRUCTURAL[kind]
    except KeyError:
        raise ValueError(f"unknown structural kernel kind {kind!r}") from None
    return builder(tuple(ports), mode, **kwargs)


# ---------------------------------------------------------------------------
# comparison and marginals


def _require_same_interface(f: Kernel, g: Kernel) -> None:
    if f.dom != g.dom or f.cod != g.cod or f.mode != g.mode:
        raise InterfaceMismatch("kernels have different interfaces or modes")


def equal_within(f: Kernel, g: Kernel, tol: Scalar = 0) -> bool:
    """Max-norm comparison.  Rational mode admits only tol = 0."""
    _require_same_interface(f, g)
    if f.mode == RATIONAL:
        if tol != 0:
            raise ValueError("rational mode requires tol = 0")
        return f.matrix == g.matrix
    for fr, gr in zip(f.matrix, g.matrix):
        for a, b in zip(fr, gr):
            if abs(a - b) > tol:
                return False
    return True


def kernel_equal(f: Kernel, g: Kernel) -> bool:
    return equal_within(f, g, 0 if f.mode == RATIONAL else TOL_EQ)


def channel_distance(f: Kernel, g: Kernel) -> Scalar:
    """Worst-case total variation distance over inputs (distinguisher advantage)."""
    _require_same_interface(f, g)
    best = zero(f.mode)
    for j in range(f.n_dom):
        acc = zero(f.mode)
        for i in range(f.n_cod):
            acc += abs(f.matrix[i][j] - g.matrix[i][j])
        acc = acc / 2
        if acc > best:
            best = acc
    return best


def marginalize(f: Kernel, keep: Sequence[int]) -> Kernel:
    """Sum out the codomain ports not listed in `keep` (positions)."""
    keep = list(keep)
    if len(set(keep)) != len(keep) or any(not 0 <= i < len(f.cod) for i in keep):
        raise BadPortSelection(f"bad codomain selection {keep} for {len(f.cod)} ports")
    if sorted(keep) != keep:
        raise BadPortSelection("keep must list ports in their original order")
    new_cod = tuple(f.cod[i] for i in keep)
    n_new = ports_size(new_cod)
    rows = [[zero(f.mode)] * f.n_dom for _ in range(n_new)]
    for i in range(f.n_cod):
        y = index_tuple(f.cod, i)
        ni = tuple_index(new_cod, tuple(y[p] for p in keep))
        row = f.matrix[i]
        target = rows[ni]
        for j in range(f.n_dom):
            target[j] += row[j]
    return Kernel(f.dom, new_cod, tuple(tuple(r) for r in rows), f.mode)


def permute_axes(f: Kernel, dom_perm: Sequence[int], cod_perm: Sequence[int]) -> Kernel:
    """Reorder domain and codomain ports; new slot k is old port perm[k]."""
    if sorted(dom_perm) != list(range(len(f.dom))) or sorted(cod_perm) != list(range(len(f.cod))):
        raise BadPermutation("axis permutations must cover all ports")
    new_dom = tuple(f.dom[p] for p in dom_perm)
    new_cod = tuple(f.cod[p] for p in cod_perm)
    col_map = [0] * f.n_dom  # new column -> old column
    for j in range(f.n_dom):
        x = index_tuple(f.dom, j)
        col_map[tuple_index(new_dom, tuple(x[p] for p in dom_perm))] = j
    row_map = [0] * f.n_cod
    for i in range(f.n_cod):
        y = index_tuple(f.cod, i)
        row_map[tuple_index(new_cod, tuple(y[p] for p in cod_perm))] = i
    rows = tuple(
        tuple(f.matrix[oi][col_map[nj]] for nj in range(f.n_dom)) for oi in row_map
    )
    return Kernel(new_dom, new_cod, rows, f.mode)


def to_float(f: Kernel) -> Kernel:
    if f.mode == FLOAT:
        return f
    rows = tuple(tuple(float(v) for v in row) for row in f.matrix)
    return Kernel(f.dom, f.cod, rows, FLOAT)

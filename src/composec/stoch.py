"""Finite alphabets and column-stochastic kernels.

A Kernel is a morphism of the category of finite sets and stochastic maps:
an ordered list of domain ports, an ordered list of codomain ports, and a
matrix indexed (codomain tuple, domain tuple).  Tuples are enumerated
row-major with the leftmost port most significant; every module in this
package inherits that convention.  A distribution is a kernel with no
domain port.

The matrix is stored by columns and sparsely: for every domain index, the
(codomain index, value) pairs of its nonzero entries in increasing codomain
order.  Transcript tables are almost all zeros, so every operation here
works on the support only, and adds the same products in the same order as
the dense loops would.  Every entry is an exact `Fraction`.

Two compositions go through a tensor product without building it.
`compose_tensor(g1, g2, f)` builds only the columns of g1 (x) g2 that f's
support reaches, each once.  `compose_after_tensor(g, f1, f2)` takes g's
column for each pair of deterministic columns of f1 and f2, and adds the
products for any other pair.  Each equals its plain form exactly.

Arithmetic runs on integers where it can.  `Kernel.scaled` holds a
kernel's entries as integer numerators over one shared denominator (the lcm
of its entries' denominators), which lets `Network` evaluation carry its
weights as integers and divide once per distinct weight at the end; a
column check sums numerators over the column's lcm instead of adding
`Fraction`s.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    BadPermutation,
    BadPortSelection,
    ColumnNotStochastic,
    DimensionMismatch,
    ElementOutOfRange,
    InterfaceMismatch,
    NegativeEntry,
)
from .record import Record
from .scalars import ONE, ZERO, Scalar, as_scalar

# Dense tables given to make_kernel only; guards against accidentally huge
# tables typed or generated in full.
SIZE_CAP = 1 << 20

# The nonzero entries (codomain index, value) of one column, by index.
Column = tuple[tuple[int, Scalar], ...]


class Alphabet(Record):
    """A named finite set {0, ..., size - 1}."""

    name: str
    size: int

    def __init__(self, name: str, size: int) -> None:
        if size < 1:
            raise ValueError(f"alphabet {name!r} must have size >= 1")
        super().__init__(name, size)


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


def all_tuples(ports: Sequence[Alphabet]) -> Iterable[tuple[int, ...]]:
    return itertools.product(*(range(a.size) for a in ports))


def index_projection(ports: Sequence[Alphabet], picks: Sequence[int]) -> Callable[[int], int]:
    """Map the index of a tuple over `ports` to the index of its values at
    positions `picks`, taken in that order, over those ports."""
    strides = [1] * len(ports)
    for k in range(len(ports) - 2, -1, -1):
        strides[k] = strides[k + 1] * ports[k + 1].size
    digits = []
    new_stride = 1
    for p in reversed(picks):
        digits.append((strides[p], ports[p].size, new_stride))
        new_stride *= ports[p].size

    def index(i: int) -> int:
        return sum(i // stride % size * step for stride, size, step in digits)

    return index


class Kernel(Record):
    """Column-stochastic matrix with typed ports.  Immutable; share freely.

    `cols[j]` lists the nonzero entries of domain column j as (codomain
    index, value) pairs in increasing codomain index; absent entries are 0.
    """

    dom: tuple[Alphabet, ...]
    cod: tuple[Alphabet, ...]
    cols: tuple[Column, ...]

    @property
    def n_dom(self) -> int:
        return ports_size(self.dom)

    @property
    def n_cod(self) -> int:
        return ports_size(self.cod)

    @cached_property
    def matrix(self) -> tuple[tuple[Scalar, ...], ...]:
        """Dense view, matrix[cod_index][dom_index], built on first use."""
        rows = [[ZERO] * self.n_dom for _ in range(self.n_cod)]
        for j, col in enumerate(self.cols):
            for i, v in col:
                rows[i][j] = v
        return tuple(tuple(r) for r in rows)

    @cached_property
    def scaled(self) -> tuple[int, tuple[Column, ...]]:
        """(scale, columns) with every entry times `scale`, the lcm of the
        entries' denominators, so the columns hold integers; built on first
        use."""
        scale = math.lcm(*(v.denominator for col in self.cols for _i, v in col))
        cols = tuple(tuple((i, v.numerator * (scale // v.denominator)) for i, v in col) for col in self.cols)
        return scale, cols

    def column(self, dom_index: int) -> tuple[Scalar, ...]:
        """Dense column dom_index."""
        out = [ZERO] * self.n_cod
        for i, v in self.cols[dom_index]:
            out[i] = v
        return tuple(out)


def _check_column(values: Iterable[Scalar], col: int) -> None:
    """Entries nonnegative and summing to exactly 1; the numerators are
    summed over the lcm of the denominators."""
    values = tuple(values)
    den = math.lcm(*(v.denominator for v in values))
    total = 0
    for v in values:
        if v.numerator < 0:
            raise NegativeEntry(f"negative entry {v} in column {col}")
        total += v.numerator * (den // v.denominator)
    if total != den:
        raise ColumnNotStochastic(col, Fraction(total, den))


def make_kernel(
    dom: Sequence[Alphabet],
    cod: Sequence[Alphabet],
    table: Sequence[Sequence],
) -> Kernel:
    """Validate a dense table and wrap it as a Kernel.

    `table[i][j]` is the probability of codomain tuple i given domain tuple j.
    """
    n_dom, n_cod = ports_size(dom), ports_size(cod)
    if n_dom * n_cod > SIZE_CAP:
        raise DimensionMismatch(f"table of {n_dom * n_cod} entries exceeds size cap {SIZE_CAP}")
    if len(table) != n_cod:
        raise DimensionMismatch(f"{len(table)} rows, expected {n_cod}")
    cols: list[list] = [[] for _ in range(n_dom)]
    for i, row in enumerate(table):
        if len(row) != n_dom:
            raise DimensionMismatch(f"row of length {len(row)}, expected {n_dom}")
        for j, v in enumerate(row):
            v = as_scalar(v)
            if v:
                cols[j].append((i, v))
    for j, col in enumerate(cols):
        _check_column((v for _i, v in col), j)
    return Kernel(tuple(dom), tuple(cod), tuple(tuple(c) for c in cols))


def kernel_from_columns(
    dom: Sequence[Alphabet],
    cod: Sequence[Alphabet],
    cols: Sequence[Column],
) -> Kernel:
    """Validate sparse columns (see `Kernel.cols`) and wrap them."""
    k = Kernel(tuple(dom), tuple(cod), tuple(cols))
    validate_kernel(k)
    return k


def validate_kernel(k: Kernel) -> None:
    """Re-run the construction invariants on an existing kernel: one
    column per domain index, nonzero entries at increasing codomain indices
    in range, columns stochastic."""
    n_cod = k.n_cod
    if len(k.cols) != k.n_dom:
        raise DimensionMismatch(f"{len(k.cols)} columns, expected {k.n_dom}")
    for j, col in enumerate(k.cols):
        last = -1
        for i, v in col:
            if not last < i < n_cod:
                raise DimensionMismatch(f"column {j}: row {i} out of order or out of range")
            if not v:
                raise DimensionMismatch(f"column {j}: explicit zero at row {i}")
            last = i
        _check_column((v for _i, v in col), j)


def sparse_column(acc: dict[int, Scalar]) -> Column:
    """The nonzero entries of an index -> value map, as a Column."""
    return tuple((i, v) for i, v in sorted(acc.items()) if v)


# ---------------------------------------------------------------------------
# composition


def compose(g: Kernel, f: Kernel) -> Kernel:
    """Sequential composition g after f (matrix product)."""
    _check_middle(g.dom, f.cod)
    return Kernel(f.dom, g.cod, _compose_columns(g.cols, f.cols))


def compose_tensor(g1: Kernel, g2: Kernel, f: Kernel) -> Kernel:
    """compose(tensor(g1, g2), f), building only the columns of the tensor
    that f's support reaches, each once."""
    _check_middle(g1.dom + g2.dom, f.cod)
    return Kernel(f.dom, g1.cod + g2.cod, _compose_columns(_TensorColumns(g1, g2), f.cols))


def compose_after_tensor(g: Kernel, f1: Kernel, f2: Kernel) -> Kernel:
    """compose(g, tensor(f1, f2)) without building the tensor: a pair of
    deterministic columns selects g's column, and any other pair adds the
    products in `_compose_columns`' order."""
    _check_middle(g.dom, f1.cod + f2.cod)
    gcols, n2 = g.cols, f2.n_cod
    rows2 = [_unit_row(c2) for c2 in f2.cols]
    cols = []
    for c1 in f1.cols:
        i1 = _unit_row(c1)
        for c2, i2 in zip(f2.cols, rows2):
            if i1 is None or i2 is None:
                cols.append(_mix_column(gcols, [(k1 * n2 + k2, a * b) for k1, a in c1 for k2, b in c2]))
            else:
                cols.append(gcols[i1 * n2 + i2])
    return Kernel(f1.dom + f2.dom, g.cod, tuple(cols))


def _check_middle(g_dom: tuple[Alphabet, ...], f_cod: tuple[Alphabet, ...]) -> None:
    if g_dom != f_cod:
        raise InterfaceMismatch(
            f"cannot compose: middle interface {[a.name for a in f_cod]} vs {[a.name for a in g_dom]}"
        )


def _unit_row(col: Column) -> int | None:
    """The row of a deterministic column (one entry, 1), else None."""
    return col[0][0] if len(col) == 1 and col[0][1] == 1 else None


def _compose_columns(gcols, fcols: Sequence[Column]) -> tuple[Column, ...]:
    """The columns of g after f, given g's columns by index in `gcols`."""
    cols = []
    for fcol in fcols:
        i = _unit_row(fcol)
        cols.append(_mix_column(gcols, fcol) if i is None else gcols[i])
    return tuple(cols)


def _mix_column(gcols, fcol: Column) -> Column:
    """The column of g after one column of f: the sum over f's entries
    (k, f_kj), in order, of g's column k times f_kj."""
    acc: dict[int, Scalar] = {}
    for k, fkj in fcol:
        for i, gik in gcols[k]:
            p = gik * fkj
            acc[i] = acc[i] + p if i in acc else p
    return sparse_column(acc)


def tensor(f: Kernel, g: Kernel) -> Kernel:
    """Parallel composition (Kronecker product); f's ports come first."""
    n = g.n_cod
    cols = []
    for fcol in f.cols:
        fentries = _tensor_entries(fcol, n)
        for gcol in g.cols:
            cols.append(_tensor_column(fentries, gcol))
    return Kernel(f.dom + g.dom, f.cod + g.cod, tuple(cols))


class _TensorColumns(dict):
    """The columns of tensor(f, g) by index, each built on first use."""

    def __init__(self, f: Kernel, g: Kernel) -> None:
        super().__init__()
        self.f, self.g = f, g
        self.g_dom, self.g_cod = g.n_dom, g.n_cod

    def __missing__(self, j: int) -> Column:
        j1, j2 = divmod(j, self.g_dom)
        col = self[j] = _tensor_column(_tensor_entries(self.f.cols[j1], self.g_cod), self.g.cols[j2])
        return col


def _tensor_entries(fcol: Column, n: int) -> list[tuple[int, Scalar, bool]]:
    """(row offset, value, value is 1) per entry of a left column, against a
    right factor with n rows.  Structural kernels are mostly 1s, and a 1
    copies the right column; each entry is tested once, not once per right
    column."""
    return [(i1 * n, a, a == 1) for i1, a in fcol]


def _tensor_column(fentries: list[tuple[int, Scalar, bool]], gcol: Column) -> Column:
    if len(fentries) == 1 and fentries[0][2]:
        # a one-entry unit column (a deterministic left factor) shifts the
        # right column
        base = fentries[0][0]
        return tuple([(base + i2, b) for i2, b in gcol])
    col = []
    for base, a, unit in fentries:
        if unit:
            col.extend((base + i2, b) for i2, b in gcol)
            continue
        for i2, b in gcol:
            p = a * b
            if p:
                col.append((base + i2, p))
    return tuple(col)


# ---------------------------------------------------------------------------
# structural kernels


def _deterministic(dom: Sequence[Alphabet], cod: Sequence[Alphabet], rows: Iterable[int]) -> Kernel:
    """The kernel sending domain index j to codomain index rows[j]."""
    return Kernel(tuple(dom), tuple(cod), tuple(((i, ONE),) for i in rows))


def identity(ports: Sequence[Alphabet]) -> Kernel:
    return _deterministic(ports, ports, range(ports_size(ports)))


def permutation(ports: Sequence[Alphabet], perm: Sequence[int]) -> Kernel:
    """Deterministic wire shuffle: output slot k carries input port perm[k]."""
    if sorted(perm) != list(range(len(ports))):
        raise BadPermutation(f"{perm} is not a permutation of 0..{len(ports) - 1}")
    cod = tuple(ports[p] for p in perm)
    return _deterministic(ports, cod, map(index_projection(ports, perm), range(ports_size(ports))))


def copy_map(ports: Sequence[Alphabet]) -> Kernel:
    """Duplicate the whole tuple: X -> X (x) X."""
    ports = tuple(ports)
    n = ports_size(ports)
    return _deterministic(ports, ports + ports, (j * n + j for j in range(n)))


def delete(ports: Sequence[Alphabet]) -> Kernel:
    return _deterministic(ports, (), [0] * ports_size(ports))


def point(ports: Sequence[Alphabet], values: Sequence[int]) -> Kernel:
    """Deterministic state I -> X at the given value tuple."""
    return _deterministic((), ports, [tuple_index(ports, values)])


def uniform(ports: Sequence[Alphabet]) -> Kernel:
    n = ports_size(ports)
    w = Fraction(1, n)
    return Kernel((), tuple(ports), (tuple((i, w) for i in range(n)),))


STRUCTURAL = {
    "identity": lambda ports, **kw: identity(ports),
    "swap": lambda ports, **kw: permutation(ports, tuple(reversed(range(len(ports)))))
    if len(ports) == 2
    else _bad_swap(ports),
    "permutation": lambda ports, perm=None, **kw: permutation(ports, perm),
    "copy": lambda ports, **kw: copy_map(ports),
    "delete": lambda ports, **kw: delete(ports),
    "point": lambda ports, values=None, **kw: point(ports, values),
    "uniform": lambda ports, **kw: uniform(ports),
}


def _bad_swap(ports):
    raise BadPermutation(f"swap takes exactly two ports, got {len(ports)}")


def structural(kind: str, ports: Sequence[Alphabet], **kwargs) -> Kernel:
    """Named generator dispatch; see the individual constructors.  Refuses
    ports of more than SIZE_CAP values before building anything."""
    n = ports_size(ports)
    if n > SIZE_CAP:
        raise DimensionMismatch(f"{kind} kernel over {n} port values exceeds size cap {SIZE_CAP}")
    return STRUCTURAL[kind](tuple(ports), **kwargs)


# ---------------------------------------------------------------------------
# comparison and marginals


def _require_same_interface(f: Kernel, g: Kernel) -> None:
    if f.dom != g.dom or f.cod != g.cod:
        raise InterfaceMismatch("kernels have different interfaces")


def column_pairs(a: Column, b: Column) -> Iterator[tuple[Scalar, Scalar]]:
    """The entries of two columns at every index either one holds, in
    increasing index; an absent entry reads 0."""
    da, db = dict(a), dict(b)
    for i in sorted(da.keys() | db.keys()):
        yield da.get(i, ZERO), db.get(i, ZERO)


def kernel_equal(f: Kernel, g: Kernel) -> bool:
    """Exact equality of two kernels with the same interface."""
    _require_same_interface(f, g)
    return f.cols == g.cols


def channel_distance(f: Kernel, g: Kernel) -> Scalar:
    """Worst-case total variation distance over inputs (distinguisher advantage)."""
    _require_same_interface(f, g)
    best = ZERO
    for a, b in zip(f.cols, g.cols):
        acc = ZERO
        for x, y in column_pairs(a, b):
            acc += abs(x - y)
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
    row = index_projection(f.cod, keep)
    cols = []
    for col in f.cols:
        acc: dict[int, Scalar] = {}
        for i, v in col:
            ni = row(i)
            acc[ni] = acc[ni] + v if ni in acc else v
        cols.append(sparse_column(acc))
    return Kernel(f.dom, tuple(f.cod[i] for i in keep), tuple(cols))


def permute_axes(f: Kernel, dom_perm: Sequence[int], cod_perm: Sequence[int]) -> Kernel:
    """Reorder domain and codomain ports; new slot k is old port perm[k]."""
    if sorted(dom_perm) != list(range(len(f.dom))) or sorted(cod_perm) != list(range(len(f.cod))):
        raise BadPermutation("axis permutations must cover all ports")
    new_col = index_projection(f.dom, dom_perm)
    row = index_projection(f.cod, cod_perm)
    cols: list[Column] = [()] * f.n_dom
    for j, col in enumerate(f.cols):
        cols[new_col(j)] = tuple(sorted((row(i), v) for i, v in col))
    return Kernel(tuple(f.dom[p] for p in dom_perm), tuple(f.cod[p] for p in cod_perm), tuple(cols))

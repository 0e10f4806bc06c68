import random
from fractions import Fraction

import pytest

from composec import stoch
from composec.errors import (
    BadPermutation,
    BadPortSelection,
    ColumnNotStochastic,
    DimensionMismatch,
    InterfaceMismatch,
    NegativeEntry,
)
from composec.stoch import (
    Alphabet,
    channel_distance,
    compose,
    compose_after_tensor,
    compose_tensor,
    copy_map,
    delete,
    identity,
    kernel_equal,
    make_kernel,
    marginalize,
    permutation,
    permute_axes,
    point,
    structural,
    tensor,
    tuple_index,
    uniform,
    validate_kernel,
)
from tests import helpers
from tests.helpers import (
    dense_channel_distance,
    dense_compose,
    dense_marginalize,
    dense_permute_axes,
    dense_tensor,
    index_tuple,
    kernel_entry,
)

BIT = Alphabet("bit", 2)
TRIT = Alphabet("trit", 3)
Z4 = Alphabet("z4", 4)


def random_kernel(rng, dom, cod):
    n_dom, n_cod = stoch.ports_size(dom), stoch.ports_size(cod)
    cols = []
    for _ in range(n_dom):
        raw = [rng.randint(0, 6) for _ in range(n_cod)]
        if sum(raw) == 0:
            raw[rng.randrange(n_cod)] = 1
        total = sum(raw)
        cols.append([Fraction(v, total) for v in raw])
    table = [[cols[j][i] for j in range(n_dom)] for i in range(n_cod)]
    return make_kernel(dom, cod, table)


def test_indexing_roundtrip():
    ports = (BIT, TRIT, Z4)
    for i in range(2 * 3 * 4):
        assert tuple_index(ports, index_tuple(ports, i)) == i
    # leftmost port most significant
    assert tuple_index(ports, (1, 0, 0)) == 12
    assert tuple_index(ports, (0, 1, 0)) == 4
    assert tuple_index(ports, (0, 0, 1)) == 1


def test_make_kernel_identity_case():
    k = make_kernel([BIT], [BIT], [[1, 0], [0, 1]])
    assert kernel_equal(k, identity([BIT]))


def test_make_kernel_rejects_bad_column():
    with pytest.raises(ColumnNotStochastic) as exc:
        make_kernel([BIT], [BIT], [["0.6", "0.3"], ["0.3", "0.7"]])
    assert exc.value.column == 0


def test_make_kernel_uniform_state():
    k = make_kernel([], [Z4], [["1/4"], ["1/4"], ["1/4"], ["1/4"]])
    assert kernel_equal(k, uniform([Z4]))


def test_make_kernel_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        make_kernel([BIT], [BIT], [[1, 0, 0], [0, 1, 0]])


def test_compose_delete_absorbs():
    rng = random.Random(7)
    for _ in range(100):
        f = random_kernel(rng, (BIT, TRIT), (Z4,))
        assert kernel_equal(compose(delete([Z4]), f), delete([BIT, TRIT]))


def test_compose_group_addition():
    # Z2 Cayley table: 1 + 1 = 0
    mult = make_kernel([BIT, BIT], [BIT], [[1, 0, 0, 1], [0, 1, 1, 0]])
    res = compose(mult, tensor(point([BIT], [1]), point([BIT], [1])))
    assert kernel_equal(res, point([BIT], [0]))


def test_compose_copy_uniform():
    res = compose(copy_map([BIT]), uniform([BIT]))
    expect = make_kernel([], [BIT, BIT], [["1/2"], [0], [0], ["1/2"]])
    assert kernel_equal(res, expect)


def test_compose_interface_mismatch():
    with pytest.raises(InterfaceMismatch):
        compose(identity([TRIT]), identity([BIT]))


def test_tensor_identity_merges():
    assert kernel_equal(tensor(identity([BIT]), identity([TRIT])), identity([BIT, TRIT]))


def test_tensor_points():
    assert kernel_equal(
        tensor(point([BIT], [0]), point([BIT], [1])), point([BIT, BIT], [0, 1])
    )


def test_tensor_shapes():
    rng = random.Random(1)
    f = random_kernel(rng, (BIT,), (TRIT,))
    g = random_kernel(rng, (Alphabet("five", 5),), (Alphabet("seven", 7),))
    fg = tensor(f, g)
    assert fg.n_cod == 21 and fg.n_dom == 10


def test_structural_swap_involution():
    s = structural("swap", [BIT, TRIT])
    s2 = structural("swap", [TRIT, BIT])
    assert kernel_equal(compose(s2, s), identity([BIT, TRIT]))


def test_counit_law():
    # (id (x) delete) o copy = id
    left = compose(tensor(identity([BIT]), delete([BIT])), copy_map([BIT]))
    assert kernel_equal(left, identity([BIT]))


def test_structural_dispatch_and_errors():
    assert kernel_equal(structural("uniform", [Z4]), uniform([Z4]))
    with pytest.raises(BadPermutation):
        permutation([BIT, TRIT], [0, 0])
    with pytest.raises(BadPermutation):
        structural("swap", [BIT])


def test_equal_within():
    assert kernel_equal(identity([BIT]), identity([BIT]))
    assert not kernel_equal(point([BIT], [0]), point([BIT], [1]))


def test_channel_distance_cases():
    f = compose(point([BIT], [0]), delete([BIT]))
    g = compose(point([BIT], [1]), delete([BIT]))
    assert channel_distance(f, f) == 0
    assert channel_distance(f, g) == 1
    u = compose(uniform([BIT]), delete([BIT]))
    assert channel_distance(u, f) == Fraction(1, 2)


def test_channel_distance_pseudometric():
    rng = random.Random(5)
    for _ in range(50):
        f = random_kernel(rng, (BIT,), (TRIT,))
        g = random_kernel(rng, (BIT,), (TRIT,))
        h = random_kernel(rng, (BIT,), (TRIT,))
        assert channel_distance(f, f) == 0
        assert channel_distance(f, g) == channel_distance(g, f)
        assert channel_distance(f, h) <= channel_distance(f, g) + channel_distance(g, h)


def test_marginalize():
    joint = compose(copy_map([BIT]), uniform([BIT]))
    assert kernel_equal(marginalize(joint, [0]), uniform([BIT]))
    assert kernel_equal(marginalize(joint, [0, 1]), joint)
    assert kernel_equal(marginalize(joint, []), make_kernel([], [], [[1]]))
    with pytest.raises(BadPortSelection):
        marginalize(joint, [1, 0])
    rng = random.Random(11)
    f = random_kernel(rng, (TRIT,), (BIT, Z4))
    # marginalize = delete-composition up to nothing here (drop second port)
    direct = compose(tensor(identity([BIT]), delete([Z4])), f)
    assert kernel_equal(marginalize(f, [0]), direct)


def test_interchange_law():
    rng = random.Random(3)
    for _ in range(30):
        f = random_kernel(rng, (BIT,), (TRIT,))
        g = random_kernel(rng, (TRIT,), (BIT,))
        f2 = random_kernel(rng, (Z4,), (BIT,))
        g2 = random_kernel(rng, (BIT,), (TRIT,))
        lhs = compose(tensor(g, g2), tensor(f, f2))
        rhs = tensor(compose(g, f), compose(g2, f2))
        assert kernel_equal(lhs, rhs)


def test_associativity_and_units():
    rng = random.Random(9)
    for _ in range(30):
        f = random_kernel(rng, (BIT,), (TRIT,))
        g = random_kernel(rng, (TRIT,), (Z4,))
        h = random_kernel(rng, (Z4,), (BIT,))
        assert kernel_equal(compose(h, compose(g, f)), compose(compose(h, g), f))
        assert kernel_equal(compose(f, identity([BIT])), f)
        assert kernel_equal(compose(identity([TRIT]), f), f)
        t = tensor(tensor(f, g), h)
        t2 = tensor(f, tensor(g, h))
        assert kernel_equal(t, t2)


def test_outputs_pass_invariants():
    rng = random.Random(21)
    for _ in range(20):
        f = random_kernel(rng, (BIT,), (TRIT,))
        g = random_kernel(rng, (TRIT,), (Z4,))
        validate_kernel(compose(g, f))
        validate_kernel(tensor(f, g))
        validate_kernel(marginalize(tensor(f, g), [0]))


def test_dist_validation():
    # a distribution is a kernel with no domain port
    assert kernel_equal(make_kernel([], [BIT], [["1/2"], ["1/2"]]), uniform([BIT]))
    with pytest.raises(ColumnNotStochastic):
        make_kernel([], [BIT], [["1/2"], ["1/3"]])


def test_column_check_is_exact():
    with pytest.raises(ColumnNotStochastic) as exc:
        make_kernel([], [TRIT], [["1/3"], ["1/3"], [0]])
    assert exc.value.total == Fraction(2, 3) and type(exc.value.total) is Fraction
    with pytest.raises(ColumnNotStochastic) as exc:
        make_kernel([BIT], [TRIT], [["1/3", "1/2"], ["1/3", "1/3"], ["1/3", "1/7"]])
    assert (exc.value.column, exc.value.total) == (1, Fraction(41, 42))
    with pytest.raises(NegativeEntry):
        make_kernel([], [TRIT], [["-1/2"], ["1"], ["1/2"]])


def test_scaled_view_holds_numerators_over_the_lcm():
    k = make_kernel([BIT], [TRIT], [["1/2", 1], ["1/3", 0], ["1/6", 0]])
    assert k.scaled == (6, (((0, 3), (1, 2), (2, 1)), ((0, 6),)))
    assert all(type(v) is int for col in k.scaled[1] for _i, v in col)
    assert identity([BIT]).scaled == (1, (((0, 1),), ((1, 1),)))


def test_permute_axes():
    rng = random.Random(13)
    f = random_kernel(rng, (BIT, TRIT), (Z4, BIT))
    p = stoch.permute_axes(f, [1, 0], [1, 0])
    for x in stoch.all_tuples((BIT, TRIT)):
        for y in stoch.all_tuples((Z4, BIT)):
            assert kernel_entry(f, y, x) == kernel_entry(p, (y[1], y[0]), (x[1], x[0]))


def test_structural_outputs_pass_invariants():
    for kind, kwargs in [
        ("identity", {}),
        ("swap", {}),
        ("copy", {}),
        ("delete", {}),
        ("uniform", {}),
        ("point", {"values": [1, 2]}),
        ("permutation", {"perm": [1, 0]}),
    ]:
        k = structural(kind, [BIT, TRIT], **kwargs)
        validate_kernel(k)


# ---------------------------------------------------------------------------
# sparse columns against the dense loops


def sparse_random_kernel(rng, dom, cod):
    """Columns with one to three nonzero entries, or dense ones."""
    n_dom, n_cod = stoch.ports_size(dom), stoch.ports_size(cod)
    table = [[0] * n_dom for _ in range(n_cod)]
    for j in range(n_dom):
        rows = range(n_cod) if rng.random() < 0.3 else rng.sample(range(n_cod), rng.randint(1, min(3, n_cod)))
        raw = {i: rng.randint(1, 9) for i in rows}
        total = sum(raw.values())
        for i, v in raw.items():
            table[i][j] = Fraction(v, total)
    return make_kernel(dom, cod, table)


def bits(x):
    """Exact identity of values and of their types."""
    if isinstance(x, tuple):
        return tuple(bits(v) for v in x)
    return (type(x).__name__, repr(x))


def test_sparse_kernels_match_dense_oracles():
    rng = random.Random(2024)

    def ports():
        return tuple(rng.choice((BIT, TRIT)) for _ in range(rng.randint(0, 3)))

    for _ in range(80):
        a, b, c = ports(), ports(), ports()
        f, h = sparse_random_kernel(rng, a, b), sparse_random_kernel(rng, a, b)
        g = sparse_random_kernel(rng, b, c)
        keep = sorted(rng.sample(range(len(b)), rng.randint(0, len(b))))
        dom_perm, cod_perm = rng.sample(range(len(a)), len(a)), rng.sample(range(len(b)), len(b))
        d = identity(a[:1])  # one entry 1 in every column
        for sparse, dense in [
            (compose(g, f), dense_compose(g, f)),
            (tensor(f, g), dense_tensor(f, g)),
            (tensor(d, g), dense_tensor(d, g)),
            (marginalize(f, keep), dense_marginalize(f, keep)),
            (permute_axes(f, dom_perm, cod_perm), dense_permute_axes(f, dom_perm, cod_perm)),
        ]:
            validate_kernel(sparse)
            assert bits(sparse.matrix) == bits(dense)
        assert bits(channel_distance(f, h)) == bits(dense_channel_distance(f, h))
        assert make_kernel(a, b, f.matrix).cols == f.cols


def test_compose_copies_only_columns_that_are_exactly_one():
    f = make_kernel([BIT], [BIT], [[1, 0], [0, 1]])
    g = make_kernel([BIT], [TRIT], [["1/2", "1/4"], ["1/4", "1/4"], ["1/4", "1/2"]])
    assert bits(compose(g, f).matrix) == bits(dense_compose(g, f))
    assert compose(g, f).cols[0] is g.cols[0]
    # a single entry other than 1 (an unvalidated kernel) is multiplied
    half = stoch.Kernel((BIT,), (BIT,), (((0, Fraction(1, 2)),), ((1, Fraction(1)),)))
    assert compose(g, half).cols[0] == tuple((i, v / 2) for i, v in g.cols[0])


def test_columns_hold_only_sorted_nonzero_entries():
    k = make_kernel([BIT], [TRIT], [[1, "1/2"], [0, 0], [0, "1/2"]])
    assert k.cols == (((0, Fraction(1)),), ((0, Fraction(1, 2)), (2, Fraction(1, 2))))
    assert k.matrix == ((1, Fraction(1, 2)), (0, 0), (0, Fraction(1, 2)))
    assert k.column(1) == (Fraction(1, 2), 0, Fraction(1, 2))
    # a Python float becomes its exact binary value
    quarters = make_kernel([], [BIT], [[0.25], [0.75]])
    assert quarters.cols == (((0, Fraction(1, 4)), (1, Fraction(3, 4))),)
    assert all(type(v) is Fraction for _i, v in quarters.cols[0])
    unsorted = stoch.Kernel((BIT,), (BIT,), (((1, Fraction(1, 2)), (0, Fraction(1, 2))), ((1, Fraction(1)),)))
    with pytest.raises(DimensionMismatch):
        validate_kernel(unsorted)
    explicit_zero = stoch.Kernel((BIT,), (BIT,), (((0, Fraction(0)), (1, Fraction(1))), ((1, Fraction(1)),)))
    with pytest.raises(DimensionMismatch):
        validate_kernel(explicit_zero)
    with pytest.raises(DimensionMismatch):
        validate_kernel(stoch.Kernel((BIT,), (BIT,), (((0, Fraction(1)),),)))


def test_make_kernel_refuses_a_table_past_the_size_cap():
    class Unread:
        """A table of the right length whose rows must never be read."""

        def __len__(self):
            return 1 << 10

        def __iter__(self):
            raise AssertionError("a row was read")

        __getitem__ = __iter__

    dom, cod = (Alphabet("x", 1 << 11),), (Alphabet("y", 1 << 10),)
    with pytest.raises(DimensionMismatch, match="exceeds size cap"):
        make_kernel(dom, cod, Unread())


def _random_deterministic(rng, dom, cod):
    n_cod = stoch.ports_size(cod)
    rows = [rng.randrange(n_cod) for _ in range(stoch.ports_size(dom))]
    return stoch.kernel_from_columns(dom, cod, [((i, Fraction(1)),) for i in rows])


def test_compose_tensor_equals_compose_of_tensor():
    rng = random.Random(8080)
    alphabets = [stoch.UNIT, BIT, TRIT]
    for trial in range(80):
        d1, c1, d2, c2 = ([rng.choice(alphabets) for _ in range(rng.randint(0, 2))] for _ in range(4))
        e = [rng.choice(alphabets) for _ in range(rng.randint(0, 2))]
        # deterministic factors take the copy paths of compose and tensor;
        # random ones (from helpers) have zero and non-1 entries
        g1 = _random_deterministic(rng, d1, c1) if trial % 3 == 0 else helpers.random_kernel(rng, d1, c1)
        g2 = helpers.random_kernel(rng, d2, c2)
        f = (_random_deterministic if trial % 2 == 0 else helpers.random_kernel)(rng, e, d1 + d2)
        assert compose_tensor(g1, g2, f) == compose(tensor(g1, g2), f)


def test_compose_after_tensor_equals_compose_of_tensor():
    rng = random.Random(8081)
    alphabets = [stoch.UNIT, BIT, TRIT]
    for trial in range(120):
        d1, c1, d2, c2 = ([rng.choice(alphabets) for _ in range(rng.randint(0, 2))] for _ in range(4))
        e = [rng.choice(alphabets) for _ in range(rng.randint(0, 2))]
        # deterministic factors take g's columns, random ones (with zero
        # and non-1 entries) add products, and mixed pairs do both
        f1 = (_random_deterministic if trial % 2 == 0 else helpers.random_kernel)(rng, d1, c1)
        f2 = (_random_deterministic if trial % 3 == 0 else helpers.random_kernel)(rng, d2, c2)
        g = (_random_deterministic if trial % 5 == 0 else helpers.random_kernel)(rng, c1 + c2, e)
        assert compose_after_tensor(g, f1, f2) == compose(g, tensor(f1, f2))


def test_compose_after_tensor_interface_mismatch():
    with pytest.raises(InterfaceMismatch):
        compose_after_tensor(identity([BIT, TRIT]), identity([TRIT]), identity([BIT]))
    with pytest.raises(InterfaceMismatch):
        compose_after_tensor(identity([BIT]), identity([BIT]), identity([BIT]))


def test_compose_tensor_builds_only_reached_columns(monkeypatch):
    built = []
    real = stoch._tensor_column
    monkeypatch.setattr(stoch, "_tensor_column", lambda *args: built.append(args) or real(*args))
    z6 = Alphabet("z6", 6)
    add = make_kernel([z6, z6], [z6], [[int((i + j) % 6 == k) for i in range(6) for j in range(6)] for k in range(6)])
    # a point on four wires reaches one of the 1,296 columns of add (x) add
    state = compose(copy_map([z6, z6]), point([z6, z6], [2, 5]))
    lazy = compose_tensor(add, add, state)
    assert len(built) == 1
    assert lazy == compose(tensor(add, add), state)
    # a uniform state reaches every column: compose_tensor builds each
    # once, as tensor does
    built.clear()
    state = uniform([z6] * 4)
    assert compose_tensor(add, add, state) == compose(tensor(add, add), state)
    assert len(built) == 2 * 6**4


def test_compose_tensor_interface_mismatch():
    with pytest.raises(InterfaceMismatch):
        compose_tensor(identity([BIT]), identity([TRIT]), identity([BIT, BIT]))
    with pytest.raises(InterfaceMismatch):
        compose_tensor(identity([BIT]), identity([BIT]), identity([BIT]))

"""Property tests for the exact linear-algebra kernel, with sympy as the
independent oracle; of the structure-constant checks, against dense triple
loops; and of the delta calculus, against its window oracle."""

from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from vlie.formal_calc import (
    COEFF_IN_X,
    COEFF_IN_Y,
    BiSeriesWindow,
    DeltaSeries,
    DPoly,
    LaurentPoly,
    decompose,
    mul_power_diff,
    render,
    swap_side,
)
from vlie.lie_core import BilinearForm, check_invariance, check_lie_axioms
from vlie.linalg import (
    Echelon,
    add_into,
    bilinear,
    clean,
    compose,
    det,
    inverse_rows,
    narrow,
    nullspace,
)
from vlie.vertex_lie import CommAlgebra

from test_formal_calc import skew_transfer
from test_poisson_c2 import mode_window

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

# zeros are drawn often so that singular and rank-deficient matrices show up
entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)


def matrices(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


square = st.integers(1, 5).flatmap(lambda n: matrices(n, n))
rectangular = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: matrices(*shape))


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row]
                         for row in rows])


def to_fraction(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


@PROPERTY
@given(square)
def test_det_matches_sympy(rows):
    assert det(rows) == to_fraction(to_sympy(rows).det())


def sympy_inverse(rows):
    """The inverse as dense rows of Fractions, from sympy; None when the
    matrix is singular."""
    m = to_sympy(rows)
    if m.det() == 0:
        return None
    want = m.inv()
    return [[to_fraction(want[i, j]) for j in range(m.cols)] for i in range(m.rows)]


@PROPERTY
@given(square)
def test_inverse_matches_sympy(rows):
    want = sympy_inverse(rows)
    if want is None:
        with pytest.raises(ValueError):
            inverse_rows(rows)
        return
    got = inverse_rows(rows)
    assert [[row.get(j, 0) for j in range(len(rows))] for row in got] == want


@PROPERTY
@given(rectangular)
def test_nullspace_dimension_and_kernel(rows):
    m = to_sympy(rows)
    basis = nullspace(rows)
    assert len(basis) == m.cols - m.rank()
    for vec in basis:
        for row in rows:
            assert sum((c * vec.get(j, 0) for j, c in enumerate(row)), Fraction(0)) == 0


def as_mappings(rows):
    """The same matrix with each row as a mapping of its nonzero entries."""
    return [{j: c for j, c in enumerate(row) if c} for row in rows]


@PROPERTY
@given(square)
def test_inverse_rows_of_mappings_match_dense(rows):
    # sparse rows in, sparse rows out: the same inverse, never a stored zero
    dense = sympy_inverse(rows)
    if dense is None:
        with pytest.raises(ValueError):
            inverse_rows(as_mappings(rows))
        return
    got = inverse_rows(as_mappings(rows))
    assert got == as_mappings(dense)
    assert all(list(row) == sorted(row) for row in got)


@PROPERTY
@given(rectangular)
def test_nullspace_of_mappings_matches_dense(rows):
    assert nullspace(as_mappings(rows), len(rows[0])) == nullspace(rows)


@PROPERTY
@given(rectangular, st.data())
def test_echelon_reduce_zero_exactly_on_row_space(rows, data):
    vec = data.draw(st.lists(entries, min_size=len(rows[0]), max_size=len(rows[0])))
    echelon = Echelon()
    for row in rows:
        echelon.insert(clean(enumerate(row)))
    in_span = to_sympy(rows + [vec]).rank() == to_sympy(rows).rank()
    assert (not echelon.reduce(dict(enumerate(vec)))) == in_span


sparse = st.dictionaries(st.integers(0, 6), entries, max_size=6)


@PROPERTY
@given(sparse, sparse, entries)
def test_add_into_never_stores_zero(acc, vec, scale):
    acc = clean(acc)
    want = {k: acc.get(k, 0) + scale * vec.get(k, 0) for k in set(acc) | set(vec)}
    out = add_into(acc, vec, scale)
    assert all(out.values())
    assert out == {k: c for k, c in want.items() if c}


def series(side, max_order=3, exp_range=3):
    poly = st.dictionaries(
        st.integers(-exp_range, exp_range),
        st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=3,
    ).map(lambda coeffs: LaurentPoly(side, coeffs))
    return st.lists(st.tuples(st.integers(0, max_order), poly), max_size=4).map(
        lambda terms: DeltaSeries(terms, side))


@PROPERTY
@given(st.one_of(series(COEFF_IN_Y), series(COEFF_IN_X)))
def test_swap_side_is_an_involution(s):
    assert swap_side(swap_side(s)) == s


@PROPERTY
@given(series(COEFF_IN_Y))
def test_decompose_inverts_render(s):
    # max order 3 plus twice the exponent range 3, plus 2, keeps every
    # coefficient inside the window
    window = render(s, BiSeriesWindow.square(3 + 6 + 2))
    assert decompose(window, 3) == s


@PROPERTY
@given(series(COEFF_IN_Y), st.integers(0, 4))
def test_mul_power_diff_matches_window(s, m):
    window = BiSeriesWindow.square(6)
    want = render(s, window).mul_power_diff(m)
    assert want.equal_on_overlap(render(mul_power_diff(m, s), window))


# linear coefficients u_i^{(j)} and constants, the kind a bracket table holds;
# the mode window reads u^{(j)} through the modes of u, and a product of
# fields would stay an opaque symbol that the window cannot relate to its
# derivative
monomials = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=1).map(tuple)
dpoly_series = st.lists(
    st.tuples(st.integers(0, 3), st.dictionaries(
        monomials, st.fractions(min_value=-3, max_value=3, max_denominator=3), max_size=3,
    ).map(DPoly)), max_size=3,
).map(DeltaSeries)


@PROPERTY
@given(dpoly_series)
def test_skew_transfer_of_dpoly_series_matches_window(s):
    # the y-form window of the transfer against the x-form window of
    # -S(y, x), whose orders pick up (-1)^k with the coefficients left in x
    flipped = DeltaSeries({k: h.scale(1 if k % 2 else -1) for k, h in s.items()}, COEFF_IN_X)
    assert mode_window(skew_transfer(s), 6) == mode_window(flipped, 6)


# -- structure-constant tables against dense triple loops ---------------------

# small integers, zero half the time, so that both valid and invalid tables
# are drawn
constants = st.one_of(st.just(0), st.just(0), st.integers(-2, 2))


def dense_tables(antisymmetric=False):
    """A dense r x r x r tensor t[i][j][k], the coefficient of e_k in e_i e_j."""
    def build(r):
        cube = st.lists(st.lists(st.lists(constants, min_size=r, max_size=r),
                                 min_size=r, max_size=r), min_size=r, max_size=r)
        if not antisymmetric:
            return cube

        def skew(t):
            return [[[0] * r if i == j else (t[i][j] if i < j else [-c for c in t[j][i]])
                     for j in range(r)] for i in range(r)]
        return cube.map(skew)
    return st.integers(1, 3).flatmap(build)


def names_of(t):
    return tuple(f"e{i}" for i in range(len(t)))


def sparse_table(t):
    r = len(t)
    return {(i, j): {k: Fraction(t[i][j][k]) for k in range(r) if t[i][j][k]}
            for i in range(r) for j in range(r)}


def dense_product(t, u, v):
    r = len(t)
    return [sum(u[i] * v[j] * t[i][j][k] for i in range(r) for j in range(r)) for k in range(r)]


def unit(r, i):
    return [int(t == i) for t in range(r)]


@PROPERTY
@given(dense_tables(), st.data())
def test_bilinear_matches_dense_product(t, data):
    r = len(t)
    u, v = (data.draw(st.lists(constants, min_size=r, max_size=r)) for _ in range(2))
    got = bilinear(sparse_table(t), clean(enumerate(u)), clean(enumerate(v)))
    assert got == clean(enumerate(dense_product(t, u, v)))


@PROPERTY
@given(dense_tables(antisymmetric=True))
def test_check_lie_axioms_matches_dense_jacobi(t):
    r, names = len(t), names_of(t)
    # each pair is stated in one orientation only; the other is completed
    raw = {(names[i], names[j]): {names[k]: c for k, c in enumerate(t[i][j])}
           for i in range(r) for j in range(i + 1, r)}
    want = []
    for i in range(r):
        for j in range(i + 1, r):
            for k in range(j + 1, r):
                jac = [0] * r
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    jac = [x + y for x, y in zip(jac, dense_product(t, t[a][b], unit(r, c)))]
                if any(jac):
                    want.append(f"Jacobi fails on ({names[i]},{names[j]},{names[k]})")
    assert check_lie_axioms(names, raw) == want


@PROPERTY
@given(dense_tables())
def test_comm_algebra_check_axioms_matches_dense_loop(t):
    r, names = len(t), names_of(t)
    alg = CommAlgebra(names, sparse_table(t), check=False)
    want = [f"commutativity fails on ({names[i]},{names[j]})"
            for i in range(r) for j in range(r) if t[i][j] != t[j][i]]
    for i in range(r):
        for j in range(r):
            for k in range(r):
                if dense_product(t, t[i][j], unit(r, k)) != dense_product(t, unit(r, i), t[j][k]):
                    want.append(f"associativity fails on ({names[i]},{names[j]},{names[k]})")
    assert alg.check_axioms() == want
    cube_zero = all(not any(dense_product(t, t[i][j], unit(r, k)))
                    for i in range(r) for j in range(r) for k in range(r))
    assert alg.cube_is_zero() == cube_zero


@PROPERTY
@given(dense_tables(), st.data())
def test_check_invariance_matches_dense_loop(t, data):
    r, names = len(t), names_of(t)
    form = data.draw(st.lists(st.lists(constants, min_size=r, max_size=r),
                              min_size=r, max_size=r))
    alg = SimpleNamespace(names=names, table={p: e for p, e in sparse_table(t).items() if e})
    want = []
    for i in range(r):
        for j in range(r):
            for k in range(r):
                lhs = sum(t[i][j][p] * form[p][k] for p in range(r))
                rhs = sum(t[j][k][p] * form[i][p] for p in range(r))
                if lhs != rhs:
                    want.append(f"invariance fails on ({names[i]},{names[j]},{names[k]})")
    assert check_invariance(alg, BilinearForm(form, require_symmetric=False)) == want


# -- the integer path against sympy Rational -----------------------------------

# ints, integral Fractions and proper Fractions, so that sums and products
# cross between the two types in both directions
mixed = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
mixed_sparse = st.dictionaries(st.integers(0, 4), mixed, max_size=5)


def sym(vec):
    return {k: sympy.Rational(c.numerator, c.denominator) for k, c in vec.items()}


def sym_clean(vec):
    return {k: c for k, c in vec.items() if c != 0}


def assert_exact_types(vec):
    """Every value an int, or a Fraction that is not integral; never a float."""
    for c in vec.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


@PROPERTY
@given(st.lists(st.tuples(st.integers(0, 4), mixed), max_size=8))
def test_clean_matches_sympy(pairs):
    want: dict = {}
    for k, c in pairs:
        want[k] = want.get(k, 0) + sympy.Rational(c.numerator, c.denominator)
    got = clean(pairs)
    assert_exact_types(got)
    assert sym(got) == sym_clean(want)


@PROPERTY
@given(mixed_sparse, mixed_sparse, mixed)
def test_add_into_matches_sympy(acc, vec, scale):
    a, v, s = sym(acc), sym(vec), sympy.Rational(scale.numerator, scale.denominator)
    want = {k: a.get(k, 0) + s * v.get(k, 0) for k in set(a) | set(v)}
    got = add_into(clean(acc), vec, scale)
    assert_exact_types(got)
    assert sym(got) == sym_clean(want)


@PROPERTY
@given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), mixed_sparse,
                       max_size=6),
       mixed_sparse, mixed_sparse)
def test_bilinear_matches_sympy(table, u, v):
    table = {pair: clean(entry) for pair, entry in table.items()}
    want: dict = {}
    for i, a in sym(u).items():
        for j, b in sym(v).items():
            for k, c in sym(table.get((i, j), {})).items():
                want[k] = want.get(k, 0) + a * b * c
    got = bilinear(table, clean(u), clean(v))
    assert_exact_types(got)
    assert sym(got) == sym_clean(want)


sparse_tables = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), mixed_sparse,
                                max_size=8)


@PROPERTY
@given(sparse_tables, sparse_tables, st.sampled_from((0, 1)))
def test_compose_matches_bilinear(inner, outer, slot):
    outer = {pair: clean(entry) for pair, entry in outer.items()}
    got = compose(inner, outer, slot)
    want = {}
    for key, u in inner.items():
        for c in range(5):
            vec = bilinear(outer, u, {c: 1}) if slot == 0 else bilinear(outer, {c: 1}, u)
            if vec:
                want[(key, c)] = vec
    for vec in got.values():
        assert_exact_types(vec)
    assert got == want


@PROPERTY
@given(st.lists(mixed_sparse, min_size=1, max_size=5))
def test_echelon_matches_sympy(vectors):
    """Each insert returns zero exactly on the span of the earlier vectors,
    and otherwise a vector that differs from the input by an element of that
    span; every stored row and reduced form keeps the exact types."""
    width = 5

    def matrix(vecs):
        return sympy.Matrix(len(vecs), width, lambda i, j: sym(vecs[i]).get(j, 0))

    echelon = Echelon()
    earlier: list[dict] = []
    for vec in vectors:
        rank = matrix(earlier).rank() if earlier else 0
        red = echelon.insert(vec)
        assert_exact_types(red)
        for row in echelon.rows.values():
            assert_exact_types(row)
        in_span = (matrix(earlier + [vec]).rank() == rank) if earlier else not clean(vec)
        assert (not red) == in_span
        if red:
            diff = add_into(dict(red), vec, -1)
            assert not diff or (earlier and matrix(earlier + [diff]).rank() == rank)
        earlier.append(vec)


# -- the one-loop add_into against the two-function one it replaced -------------

def accumulate_add_into(acc: dict, vec, scale=1) -> dict:
    """``add_into`` as ``_accumulate`` over a per-term generator: the
    accumulation before it was one loop."""
    def accumulate(pairs):
        for key, c in pairs:
            v = acc.get(key)
            if v is None:
                if c:
                    acc[key] = narrow(c)
            else:
                v += c
                if v:
                    acc[key] = narrow(v)
                else:
                    del acc[key]
        return acc

    if not scale:
        return acc
    items = vec.items()
    return accumulate(items if scale == 1 else ((k, scale * c) for k, c in items))


# values that cancel, integral Fractions, and the scales the callers use
unnormalized = st.dictionaries(st.integers(0, 4), st.one_of(mixed, st.just(Fraction(0)),
                                                            st.just(0)), max_size=5)
scales = st.one_of(st.sampled_from((0, 1, -1, Fraction(1), Fraction(-1), Fraction(2, 1))), mixed)


@PROPERTY
@given(mixed_sparse, unnormalized, scales, st.booleans())
def test_add_into_matches_the_accumulate_route(acc, vec, scale, cancel):
    """The same dict as the accumulate route, with no stored zero and every
    integral value an int, also where a term cancels an entry to zero."""
    acc = clean(acc)
    if cancel and acc and scale:
        key = next(iter(acc))
        vec[key] = -acc[key] / Fraction(scale)
    want = accumulate_add_into(dict(acc), vec, scale)
    got = add_into(dict(acc), vec, scale)
    assert [(k, type(c), c) for k, c in got.items()] == [(k, type(c), c) for k, c in want.items()]
    assert all(got.values())
    assert_exact_types(got)


@PROPERTY
@given(st.lists(st.tuples(st.integers(0, 4), st.one_of(mixed, st.just(0))), max_size=8))
def test_clean_of_pairs_matches_the_accumulate_route(pairs):
    """``clean`` sums repeated keys in their order, through the same loop."""
    got = clean(pairs)
    want: dict = {}
    for k, c in pairs:
        accumulate_add_into(want, {k: c})
    assert [(k, type(c), c) for k, c in got.items()] == [(k, type(c), c) for k, c in want.items()]
    assert clean(dict(pairs)) == clean(list(dict(pairs).items()))

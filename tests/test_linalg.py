"""Property tests for the exact linear-algebra kernel, with sympy as the
independent oracle, plus round-trip properties of the delta calculus."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from vlie.formal_calc import (
    COEFF_IN_X,
    COEFF_IN_Y,
    BiSeriesWindow,
    DeltaSeries,
    LaurentPoly,
    decompose,
    render,
    swap_side,
)
from vlie.linalg import Echelon, add_into, clean, det, inverse, nullspace

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


@PROPERTY
@given(square)
def test_inverse_matches_sympy(rows):
    m = to_sympy(rows)
    if m.det() == 0:
        with pytest.raises(ValueError):
            inverse(rows)
        return
    want = m.inv()
    got = inverse(rows)
    assert got == [[to_fraction(want[i, j]) for j in range(m.cols)] for i in range(m.rows)]


@PROPERTY
@given(rectangular)
def test_nullspace_dimension_and_kernel(rows):
    m = to_sympy(rows)
    basis = nullspace(rows)
    assert len(basis) == m.cols - m.rank()
    for vec in basis:
        for row in rows:
            assert sum((c * vec.get(j, 0) for j, c in enumerate(row)), Fraction(0)) == 0


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
        st.integers(-exp_range, exp_range).map(lambda e: (e,)),
        st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=3,
    ).map(lambda coeffs: LaurentPoly((side,), coeffs))
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

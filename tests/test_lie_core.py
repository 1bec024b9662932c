import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vlie.formal_calc import DeltaSeries, DPoly, format_poly
from vlie.lie_core import (
    BilinearForm,
    FiniteLieAlgebra,
    check_invariance,
    check_lie_axioms,
    lambda_bracket,
    lambda_skew,
    sl2,
    sl2_form,
    sym_poisson,
)
from vlie.linalg import clean, det

from test_formal_calc import skew_transfer


def heis3() -> FiniteLieAlgebra:
    """Two-step nilpotent algebra [x,y] = z."""
    return FiniteLieAlgebra(("x", "y", "z"), {("x", "y"): {"z": 1}})


def abelian(n: int) -> FiniteLieAlgebra:
    return FiniteLieAlgebra(tuple(f"a{i}" for i in range(1, n + 1)), {})


def is_nondegenerate(form: BilinearForm) -> bool:
    return det(form.matrix) != 0


def oracle_biderivation(table, f, h):
    """{f, h} = sum_{i,j} (df/du_i)(dh/du_j) table[(i, j)]: the biderivation
    extension of a bracket table {(i, j): DPoly} that ``lambda_bracket``
    replaced, kept as its oracle at lambda^0."""
    out = DPoly()
    partials_h = h.partials()
    for (i, _), pf in f.partials().items():
        for (j, _), ph in partials_h.items():
            t = table.get((i, j))
            if t is not None:
                out = out + pf * ph * t
    return out


def random_sympoly(rng, names, max_degree=4):
    """A random derivative-free DPoly in the variables (i, 0), i < len(names)."""
    coeffs = {}
    for _ in range(rng.randint(1, 5)):
        mono = tuple(sorted((rng.randrange(len(names)), 0)
                            for _ in range(rng.randint(0, max_degree))))
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            coeffs[mono] = coeffs.get(mono, Fraction(0)) + c
    return DPoly(coeffs)


class TestAxioms:
    def test_abelian_valid(self):
        assert check_lie_axioms(("a", "b", "c"), {}) == []

    def test_sl2_valid(self):
        table = {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}}
        assert check_lie_axioms(("e", "h", "f"), table) == []

    def test_broken_sl2_reports_jacobi(self):
        table = {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"e": 1}}
        problems = check_lie_axioms(("e", "h", "f"), table)
        assert any("Jacobi" in p for p in problems)

    def test_symmetric_entry_reports_antisymmetry(self):
        table = {("a", "b"): {"a": 1}, ("b", "a"): {"a": 1}}
        problems = check_lie_axioms(("a", "b"), table)
        assert any("antisymmetry" in p for p in problems)

    def test_constructor_rejects_invalid(self):
        with pytest.raises(ValueError):
            FiniteLieAlgebra(("e", "h", "f"), {("e", "f"): {"e": 1}, ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}})


class TestInvariance:
    def test_sl2_standard_form(self):
        assert check_invariance(sl2(), sl2_form()) == []

    def test_identity_form_fails_on_sl2(self):
        ident = BilinearForm([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert check_invariance(sl2(), ident)

    def test_any_form_invariant_on_abelian(self):
        form = BilinearForm([[2, 1], [1, 3]])
        assert check_invariance(abelian(2), form) == []

    def test_nondegeneracy(self):
        assert is_nondegenerate(sl2_form())
        assert not is_nondegenerate(BilinearForm([[1, 1], [1, 1]]))


class TestSymPoisson:
    def test_generators_give_bracket(self):
        g = sl2()
        e, f = g.generator("e"), g.generator("f")
        assert sym_poisson(g, e, f) == g.generator("h")

    def test_leibniz_example(self):
        g = sl2()
        e, f = g.generator("e"), g.generator("f")
        assert sym_poisson(g, e * e, f) == g.generator("h") * e.scale(2)

    def test_axioms_randomized(self):
        rng = random.Random(23)
        for g in (sl2(), heis3()):
            for _ in range(20):
                a = random_sympoly(rng, g.names)
                b = random_sympoly(rng, g.names)
                c = random_sympoly(rng, g.names)
                # antisymmetry
                assert sym_poisson(g, a, b) == -sym_poisson(g, b, a)
                # Leibniz
                assert sym_poisson(g, a, b * c) == (
                    sym_poisson(g, a, b) * c + sym_poisson(g, a, c) * b
                )
                # Jacobi
                jac = (
                    sym_poisson(g, a, sym_poisson(g, b, c))
                    + sym_poisson(g, b, sym_poisson(g, c, a))
                    + sym_poisson(g, c, sym_poisson(g, a, b))
                )
                assert jac.is_zero()

    def test_matches_biderivation_oracle(self):
        rng = random.Random(29)
        for g in (sl2(), heis3(), abelian(2)):
            table = {pair: g.bracket_poly(*pair) for pair in g.table}
            for _ in range(25):
                a, b = random_sympoly(rng, g.names), random_sympoly(rng, g.names)
                assert sym_poisson(g, a, b) == oracle_biderivation(table, a, b)

    def test_degree_bookkeeping(self):
        # deg {f,g} = deg f + deg g - 1 for homogeneous inputs with linear brackets
        g = sl2()
        e, h, f = (g.generator(n) for n in g.names)
        p = e * e * h
        q = f * f
        out = sym_poisson(g, p, q)
        assert not out.is_zero()
        degree = lambda p: max(len(m) for m in p.coeffs)  # noqa: E731
        assert degree(out) == degree(p) + degree(q) - 1

    def test_substitute(self):
        g = sl2()
        p = g.generator("e") * g.generator("h") + DPoly.constant(3)
        out = p.substitute({(1, 0): Fraction(1, 2)})
        assert out == g.generator("e").scale(Fraction(1, 2)) + DPoly.constant(3)

    def test_format_is_graded_lex_leading_term_first(self):
        g = sl2()
        e, h, f = (g.generator(n) for n in g.names)
        p = f - e * h.scale(Fraction(1, 2)) + e * e * h + DPoly.constant(3) + h * h
        assert format_poly(p, g.names) == "e^2*h - 1/2*e*h + h^2 + f + 3"
        assert format_poly(DPoly(), g.names) == "0"


# ---------------------------------------------------------------------------
# lambda_bracket: identities of the master formula on random tables
# ---------------------------------------------------------------------------

FRACTIONS = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.sampled_from((1, 2, 3, 5)))
# two base symbols, derivatives up to order two
MONOMIALS = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)), max_size=2).map(
    lambda vs: tuple(sorted(vs)))
DPOLYS = st.dictionaries(MONOMIALS, FRACTIONS, max_size=2).map(DPoly)
NONZERO = st.dictionaries(MONOMIALS, FRACTIONS, min_size=1, max_size=2).map(DPoly)
LAMBDA_POLYS = st.dictionaries(st.integers(0, 2), NONZERO, max_size=2)
TABLES = st.dictionaries(st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]),
                         st.dictionaries(st.integers(0, 2), NONZERO, min_size=1, max_size=2),
                         max_size=4)


def flip_odd(x):
    """{l: (-1)^l x_l}: h (-lambda)^l <-> h Delta^(l), the map between a
    lambda-bracket and its delta series {f(x), g(y)}, in either direction."""
    return {l: -h if l % 2 else h for l, h in x.items()}


def lam_add(x, y, scale=1):
    """x + scale * y for lambda-polynomials {power: DPoly}, no zero stored."""
    out = dict(x)
    for p, h in y.items():
        out[p] = out.get(p, DPoly()) + h.scale(scale)
    return {p: h for p, h in out.items() if h}


def lam_times(x, h):
    """x times a DPoly, coefficient by coefficient."""
    return {p: v for p, v in ((p, g * h) for p, g in x.items()) if v}


def lam_shift(x):
    """(lambda + D) x, with D the derivation of each coefficient."""
    return lam_add({p + 1: h for p, h in x.items()}, {p: h.derivative() for p, h in x.items()})


def skew_partner(x):
    """-x(-lambda - D) = -sum_p (-1)^p (lambda + D)^p x_p: the bracket
    {g_lambda f} that skew symmetry gives for x = {f_lambda g}."""
    out = {}
    for p, h in x.items():
        term = {0: h.scale(-1 if p % 2 == 0 else 1)}
        for _ in range(p):
            term = lam_shift(term)
        out = lam_add(out, term)
    return out


@st.composite
def skew_tables(draw):
    """A table with {u_j_lambda u_i} = skew_partner({u_i_lambda u_j}): the
    pair (0, 1) is random, and each diagonal entry is x + skew_partner(x)."""
    x01, x00, x11 = (draw(LAMBDA_POLYS) for _ in range(3))
    table = {(0, 1): x01, (1, 0): skew_partner(x01),
             (0, 0): lam_add(x00, skew_partner(x00)), (1, 1): lam_add(x11, skew_partner(x11))}
    return {pair: x for pair, x in table.items() if x}


PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=80, deadline=None)


class TestLambdaBracketProperties:
    """Identities the master formula satisfies for every table, on random
    tables and arguments with fractional coefficients."""

    @PROPERTY_SETTINGS
    @given(TABLES, DPOLYS, DPOLYS)
    def test_sesquilinear_in_both_slots(self, table, f, g):
        fg = lambda_bracket(table, f, g)
        assert lambda_bracket(table, f.derivative(), g) == {p + 1: -h for p, h in fg.items()}
        assert lambda_bracket(table, f, g.derivative()) == lam_shift(fg)

    @PROPERTY_SETTINGS
    @given(TABLES, DPOLYS, DPOLYS, DPOLYS)
    def test_leibniz_in_the_second_slot(self, table, f, g, h):
        want = lam_add(lam_times(lambda_bracket(table, f, g), h),
                       lam_times(lambda_bracket(table, f, h), g))
        assert lambda_bracket(table, f, g * h) == want

    @PROPERTY_SETTINGS
    @given(skew_tables(), DPOLYS, DPOLYS)
    def test_skew_symmetry_on_skew_tables(self, table, f, g):
        assert lambda_bracket(table, g, f) == skew_partner(lambda_bracket(table, f, g))

    @PROPERTY_SETTINGS
    @given(st.dictionaries(st.sampled_from([(0, 1), (1, 0), (1, 1)]), NONZERO), DPOLYS, DPOLYS)
    def test_lambda_zero_tables_give_the_biderivation(self, table, f, g):
        # derivative-free arguments: drop every derivative variable
        f, g = f.drop_derivatives(), g.drop_derivatives()
        table = {pair: h.drop_derivatives() for pair, h in table.items()}
        want = oracle_biderivation(table, f, g)
        assert lambda_bracket({pair: {0: h} for pair, h in table.items()}, f, g) == (
            {0: want} if want else {})

    @PROPERTY_SETTINGS
    @given(st.dictionaries(st.integers(0, 3), NONZERO, max_size=3))
    def test_lambda_skew_is_the_delta_series_skew_transfer(self, x):
        # nonlinear coefficients, derivative variables, and entries that are
        # not skew themselves
        assert lambda_skew(x) == flip_odd(skew_transfer(DeltaSeries(flip_odd(x))))
        assert lambda_skew(x) == skew_partner(x)
        assert lambda_skew(lambda_skew(x)) == x

    def test_zero_entries_and_unknown_pairs(self):
        u, v = DPoly.variable(0), DPoly.variable(1, 2)
        assert lambda_bracket({(0, 1): {0: DPoly(), 2: DPoly()}}, u, v) == {}
        assert lambda_bracket({}, u * u, v) == {}
        assert lambda_bracket({(0, 1): {1: DPoly.constant(1)}}, DPoly.constant(5), v) == {}
        # {u_lambda v''} = (lambda + D)^2 lambda = lambda^3 on this table
        assert lambda_bracket({(0, 1): {1: DPoly.constant(1)}}, u, v) == {3: DPoly.constant(1)}


def generic_derivative(p: DPoly, order: int) -> dict:
    """D^order p by Leibniz on every factor, each monomial re-sorted and the
    sum cleaned: the route ``DPoly.derivative`` takes on a nonlinear p."""
    coeffs = p.coeffs
    for _ in range(order):
        coeffs = clean((tuple(sorted(mono[:t] + ((i, j + 1),) + mono[t + 1:])), c)
                       for mono, c in coeffs.items() for t, (i, j) in enumerate(mono))
    return coeffs


# integral values too, which the coefficient maps store as int
COEFFS = st.one_of(FRACTIONS, st.integers(-3, 3).filter(bool))
LINEAR = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 3)).map(lambda v: (v,)),
                         COEFFS, max_size=4).map(DPoly)


class TestDPolyDerivative:
    @PROPERTY_SETTINGS
    @given(st.one_of(LINEAR, DPOLYS), st.integers(0, 3))
    def test_matches_the_generic_route(self, p, order):
        got, want = p.derivative(order).coeffs, generic_derivative(p, order)
        assert list(got.items()) == list(want.items())
        assert [type(c) for c in got.values()] == [type(c) for c in want.values()]

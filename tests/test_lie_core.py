import random
from fractions import Fraction

import pytest

from vlie.formal_calc import DPoly, format_poly
from vlie.lie_core import (
    BilinearForm,
    FiniteLieAlgebra,
    check_invariance,
    check_lie_axioms,
    sl2,
    sl2_form,
    sym_poisson,
)
from vlie.linalg import det


def heis3() -> FiniteLieAlgebra:
    """Two-step nilpotent algebra [x,y] = z."""
    return FiniteLieAlgebra(("x", "y", "z"), {("x", "y"): {"z": 1}})


def abelian(n: int) -> FiniteLieAlgebra:
    return FiniteLieAlgebra(tuple(f"a{i}" for i in range(1, n + 1)), {})


def is_nondegenerate(form: BilinearForm) -> bool:
    return det(form.matrix) != 0


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

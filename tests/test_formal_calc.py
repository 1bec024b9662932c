import math
import random
from fractions import Fraction

import pytest

from vlie.formal_calc import (
    COEFF_IN_X,
    COEFF_IN_Y,
    BiSeriesWindow,
    DecompositionError,
    DeltaSeries,
    DPoly,
    LaurentPoly,
    decompose,
    delta_window,
    gen_binomial,
    mul_power_diff,
    render,
    series_add,
    swap_side,
)


# The delta-series skew route and d/dy, which the lambda-bracket engine and
# ``lie_core.lambda_skew`` replaced in the package; kept here as oracles,
# checked against windows below, for the tests of the vertex Poisson and
# vertex Lie brackets.

def dy(series):
    """d/dy: Delta^(k) becomes -Delta^(k+1), since (d/dx + d/dy) Delta = 0;
    y-coefficients are differentiated too."""
    terms = [(k + 1, v.scale(-1)) for k, v in series.items()]
    if series.side == COEFF_IN_Y:
        terms += [(k, v.derivative(1)) for k, v in series.items()]
    return DeltaSeries(terms, series.side)


def exchange(series):
    """-S(y, x) for the series S, each coefficient left in the variable it
    moved to: exchanging x and y turns Delta^(k) into (-1)^k Delta^(k).  A
    ``DPoly`` names no variable, so only a Laurent coefficient is renamed."""
    side = COEFF_IN_X if series.side == COEFF_IN_Y else COEFF_IN_Y
    return DeltaSeries([(k, (c.rename(side) if hasattr(c, "var") else c).scale(1 if k % 2 else -1))
                        for k, c in series.items()], side)


def skew_transfer(series):
    """-S(y, x) for the series S, back on S's own side: the skew-symmetry
    partner of a bracket, {b(x), a(y)} from {a(x), b(y)}."""
    return swap_side(exchange(series))


def ypoly(coeffs):
    return LaurentPoly("y", coeffs)


def xpoly(coeffs):
    return LaurentPoly("x", coeffs)


def random_series(rng, max_order=5, exp_range=4, side=COEFF_IN_Y):
    terms = []
    for order in rng.sample(range(max_order + 1), rng.randint(1, max_order + 1)):
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            e = rng.randint(-exp_range, exp_range)
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            if c:
                coeffs[e] = c
        if coeffs:
            terms.append((order, LaurentPoly(side, coeffs)))
    return DeltaSeries(terms, side)


class TestGenBinomial:
    def test_ordinary(self):
        assert gen_binomial(5, 2) == 10

    def test_zero_lower(self):
        for m in (-7, -1, 0, 3, 12):
            assert gen_binomial(m, 0) == 1

    def test_negative_upper(self):
        # product (-1)(-2)(-3)/3!
        assert gen_binomial(-1, 3) == -1

    def test_pascal_rule(self):
        for m in range(-6, 7):
            for i in range(1, 6):
                assert gen_binomial(m, i) == gen_binomial(m - 1, i) + gen_binomial(m - 1, i - 1)

    def test_rejects_negative_lower(self):
        with pytest.raises(ValueError):
            gen_binomial(3, -1)

    def test_exact_int_matching_fraction_formula(self):
        for m in range(-8, 9):
            for i in range(9):
                num = 1
                for t in range(i):
                    num *= m - t
                got = gen_binomial(m, i)
                assert type(got) is int, (m, i)
                assert got == Fraction(num, math.factorial(i)), (m, i)


class TestDeltaWindow:
    def test_order_zero_diagonal(self):
        win = delta_window(0, BiSeriesWindow.square(5))
        for m in range(-4, 4):
            assert win.get(m, -m - 1) == 1
        assert win.get(0, 0) == 0

    def test_order_one_entry(self):
        win = delta_window(1, BiSeriesWindow.square(5))
        assert win.get(1, -3) == 2

    def test_order_two_off_diagonal_zero(self):
        win = delta_window(2, BiSeriesWindow.square(6))
        for m in range(-5, 5):
            assert win.get(m, -m - 1) == 0


class TestRender:
    def test_zero_series(self):
        win = render(DeltaSeries.zero(), BiSeriesWindow.square(4))
        assert win.is_zero()

    def test_single_unit_term_matches_delta_window(self):
        base = BiSeriesWindow.square(5)
        series = DeltaSeries.single(0, ypoly({0: Fraction(1)}))
        assert render(series, base).equal_on_overlap(delta_window(0, base))

    def test_fundamental_property_y_times_delta(self):
        # y*Delta == x*Delta on any window
        base = BiSeriesWindow.square(6)
        via_y = render(DeltaSeries.single(0, ypoly({1: Fraction(1)})), base)
        via_x = render(DeltaSeries.single(0, xpoly({1: Fraction(1)}), COEFF_IN_X), base)
        assert via_y.equal_on_overlap(via_x)

    def test_linearity(self):
        rng = random.Random(11)
        base = BiSeriesWindow.square(9)
        s = random_series(rng, max_order=3, exp_range=2)
        t = random_series(rng, max_order=3, exp_range=2)
        lhs = render(s + t, base)
        rhs = render(s, base)
        for a, b, c in render(t, base).entries():
            rhs.add(a, b, c)
        assert lhs.equal_on_overlap(rhs)


class TestMulPowerDiff:
    def test_single_step_drops_order(self):
        s = DeltaSeries.single(1, ypoly({0: Fraction(1)}))
        out = mul_power_diff(1, s)
        assert out.terms == ((0, ypoly({0: Fraction(-1)})),)

    def test_overshoot_vanishes(self):
        s = DeltaSeries.single(1, ypoly({0: Fraction(1)}))
        assert mul_power_diff(2, s).is_zero()

    def test_identity_power(self):
        rng = random.Random(3)
        s = random_series(rng)
        assert mul_power_diff(0, s) == s

    def test_window_oracle_all_orders(self):
        # (x-y)^m Delta^(n) vs direct window multiplication for m, n <= 8
        base = BiSeriesWindow.square(12)
        for n in range(9):
            dwin = delta_window(n, base)
            for m in range(9):
                series = mul_power_diff(m, DeltaSeries.single(n, ypoly({0: Fraction(1)})))
                assert render(series, base).equal_on_overlap(dwin.mul_power_diff(m)), (m, n)


class TestSwapSide:
    def test_constant_unchanged(self):
        for k in range(4):
            s = DeltaSeries.single(k, xpoly({0: Fraction(3, 2)}), COEFF_IN_X)
            out = swap_side(s)
            assert out.terms == ((k, ypoly({0: Fraction(3, 2)})),)

    def test_x_delta1(self):
        # x*Delta^(1) = y*Delta^(1) - Delta^(0)
        s = DeltaSeries.single(1, xpoly({1: Fraction(1)}), COEFF_IN_X)
        out = swap_side(s)
        expect = DeltaSeries(
            [(1, ypoly({1: Fraction(1)})), (0, ypoly({0: Fraction(-1)}))]
        )
        assert out == expect
        base = BiSeriesWindow.square(6)
        assert render(s, base).equal_on_overlap(render(out, base))

    def test_involution_and_render_preserved(self):
        rng = random.Random(7)
        for _ in range(25):
            s = random_series(rng, max_order=4, exp_range=3)
            flipped = swap_side(s)
            assert flipped.side == COEFF_IN_X
            assert swap_side(flipped) == s
            base = BiSeriesWindow.square(4 + 3 + 2)
            assert render(s, base).equal_on_overlap(render(flipped, base))


class TestDecompose:
    def test_plain_delta(self):
        win = delta_window(0, BiSeriesWindow.square(4))
        out = decompose(win, 0)
        assert out.terms == ((0, ypoly({0: Fraction(1)})),)

    def test_two_term_recovery(self):
        series = DeltaSeries(
            [(2, ypoly({0: Fraction(3)})), (0, ypoly({1: Fraction(1)}))]
        )
        win = render(series, BiSeriesWindow.square(7))
        assert decompose(win, 2) == series

    def test_round_trip_random(self):
        rng = random.Random(99)
        for _ in range(100):
            s = random_series(rng, max_order=5, exp_range=4)
            radius = 5 + 8 + 2
            win = render(s, BiSeriesWindow.square(radius))
            assert decompose(win, 5) == s

    def test_false_promise_detected(self):
        win = delta_window(1, BiSeriesWindow.square(5))
        with pytest.raises(DecompositionError):
            decompose(win, 0)

    def test_nonzero_series_renders_nonzero(self):
        rng = random.Random(5)
        for _ in range(40):
            s = random_series(rng, max_order=4, exp_range=3)
            if s.is_zero():
                continue
            assert not render(s, BiSeriesWindow.square(4 + 3 + 2)).is_zero()


class TestSeriesType:
    def test_rejects_coefficient_in_another_variable(self):
        with pytest.raises(ValueError):
            DeltaSeries([(1, xpoly({1: 1}))], COEFF_IN_Y)
        with pytest.raises(ValueError):
            DeltaSeries([(0, LaurentPoly("z", {0: 1}))], COEFF_IN_Y)
        with pytest.raises(ValueError):
            DeltaSeries.single(0, ypoly({0: 1}), COEFF_IN_X)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            DeltaSeries.single(-1, ypoly({0: 1}))
        with pytest.raises(ValueError):
            delta_window(-1, BiSeriesWindow.square(2))

    def test_never_stores_a_zero(self):
        p = ypoly({1: 2})
        assert DeltaSeries([(0, p), (0, -p), (2, ypoly({}))]) == {}
        assert (DeltaSeries.single(1, p) - DeltaSeries.single(1, p)).is_zero()

    def test_equality_with_sides_and_plain_maps(self):
        one = DPoly.constant(1)
        assert DeltaSeries({0: one}) == {0: one}
        assert DeltaSeries({0: one}, COEFF_IN_X) != DeltaSeries({0: one}, COEFF_IN_Y)
        assert series_add({}, {0: one}) == DeltaSeries({0: one})
        with pytest.raises(ValueError):
            DeltaSeries({0: one}, COEFF_IN_X) + DeltaSeries({0: one})

    @pytest.mark.parametrize("side", [COEFF_IN_Y, COEFF_IN_X])
    def test_dx_dy_match_window_derivatives(self, side):
        rng = random.Random(31)
        base = BiSeriesWindow.square(8)
        for _ in range(10):
            s = random_series(rng, max_order=3, exp_range=2, side=side)
            win, dy_win = render(s, base), render(dy(s), base)
            for a in range(base.x_lo, base.x_hi):
                for b in range(base.y_lo, base.y_hi):
                    assert dy_win.get(a, b) == (b + 1) * win.get(a, b + 1)

    @pytest.mark.parametrize("side", [COEFF_IN_Y, COEFF_IN_X])
    def test_skew_transfer_is_the_negated_transpose(self, side):
        # -S(y, x) has at x^a y^b the entry of S at x^b y^a, negated
        rng = random.Random(37)
        base = BiSeriesWindow.square(9)
        for _ in range(10):
            s = random_series(rng, max_order=3, exp_range=3, side=side)
            out = skew_transfer(s)
            assert out.side == side
            win, skew = render(s, base), render(out, base)
            for a, b, c in skew.entries():
                assert c == -win.get(b, a)

    def test_dpoly_derivative_is_leibniz(self):
        u, v = DPoly.variable(0), DPoly.variable(1)
        want = (DPoly.variable(0, 2) * v + (DPoly.variable(0, 1) * DPoly.variable(1, 1)).scale(2)
                + u * DPoly.variable(1, 2))
        assert (u * v).derivative(2) == want
        assert DPoly.constant(3).derivative() == DPoly()

    def test_dpoly_partials(self):
        u, v1 = DPoly.variable(0), DPoly.variable(1, 1)
        p = (u * u * v1).scale(3) + u.scale(5) + DPoly.constant(7)
        assert p.partials() == {(0, 0): (u * v1).scale(6) + DPoly.constant(5),
                                (1, 1): (u * u).scale(3)}
        assert DPoly.constant(7).partials() == {}

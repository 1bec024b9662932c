"""Exact formal calculus: Laurent polynomials, delta-function series, windows.

All coefficients are exact: an ``int`` when integral, a ``fractions.Fraction``
otherwise, and never a float.  The central objects are finite sums

    sum_i  g_i(y) * Delta^(i)(x, y)

where ``Delta^(k)(x, y)`` is the k-th x-derivative of the two-variable
expansion ``sum_n x^n y^{-n-1}``.  A ``BiSeriesWindow`` holds the exact
coefficients of such a bivariate series on a finite exponent rectangle and
acts as the oracle that arbitrates every identity in this module.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

from .linalg import add_into, clean, rat

Rational = Fraction


def rat_str(q: int | Fraction) -> str:
    """Serialize an exact number as 'p' or 'p/q' (never a float)."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_terms(terms: Iterable[tuple[str, Fraction]]) -> str:
    """'2*a - b + 1/3' from (monomial text, coefficient) pairs, where the
    empty text is the unit; '0' for no terms."""
    bits = []
    for body, c in terms:
        if not body:
            bits.append(rat_str(c))
        elif c == 1:
            bits.append(body)
        elif c == -1:
            bits.append(f"-{body}")
        else:
            bits.append(f"{rat_str(c)}*{body}")
    return " + ".join(bits).replace("+ -", "- ") if bits else "0"


def gen_binomial(m: int, i: int) -> int:
    """Generalized binomial coefficient m(m-1)...(m+1-i) / i! for integer m,
    an exact int: a product of i consecutive integers is divisible by i!."""
    if i < 0:
        raise ValueError("lower index must be nonnegative")
    num = 1
    for t in range(i):
        num *= m - t
    den = 1
    for t in range(1, i + 1):
        den *= t
    return num // den


def falling(n: int, k: int) -> int:
    """Falling factorial n(n-1)...(n-k+1); the Delta^(k) diagonal weight."""
    out = 1
    for t in range(k):
        out *= n - t
    return out


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Sparse polynomial core: a map from monomials to nonzero exact numbers.

    Subclasses fix how a monomial is validated (``_monomial``), how two
    monomials multiply (``_mono_mul``), the listing order (``terms``) and
    the repr.  Instances are immutable by convention; all arithmetic
    returns new objects.
    """

    __slots__ = ("vars", "coeffs")

    def __init__(self, variables: Iterable[str], coeffs: Mapping[tuple, object] | None = None):
        self.vars = tuple(variables)
        self.coeffs = clean((self._monomial(m), c) for m, c in coeffs.items()) if coeffs else {}

    def _monomial(self, exps) -> tuple:
        exps = tuple(int(e) for e in exps)
        if len(exps) != len(self.vars):
            raise ValueError("exponent arity does not match variable set")
        return exps

    @staticmethod
    def _mono_mul(m1: tuple, m2: tuple) -> tuple:
        return tuple(a + b for a, b in zip(m1, m2))

    def _new(self, coeffs: dict):
        """Same class and variables around an already clean coefficient map."""
        out = object.__new__(type(self))
        out.vars = self.vars
        out.coeffs = coeffs
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def terms(self):
        """Terms sorted by monomial (deterministic canonical order)."""
        return sorted(self.coeffs.items())

    def _check(self, other: "Poly"):
        if self.vars != other.vars:
            raise ValueError("variable sets differ")

    def __add__(self, other):
        self._check(other)
        return self._new(add_into(dict(self.coeffs), other.coeffs))

    def __sub__(self, other):
        self._check(other)
        return self._new(add_into(dict(self.coeffs), other.coeffs, -1))

    def __neg__(self):
        return self._new(add_into({}, self.coeffs, -1))

    def scale(self, c):
        return self._new(add_into({}, self.coeffs, rat(c)))

    def __mul__(self, other):
        self._check(other)
        mul = self._mono_mul
        return self._new(clean(
            (mul(m1, m2), c1 * c2)
            for m1, c1 in self.coeffs.items() for m2, c2 in other.coeffs.items()
        ))

    def rename(self, variables: Iterable[str]):
        """The same coefficients over new names for as many variables."""
        out = self._new(self.coeffs)
        out.vars = tuple(variables)
        if len(out.vars) != len(self.vars):
            raise ValueError("exponent arity does not match variable set")
        return out

    def __eq__(self, other) -> bool:
        return (type(other) is type(self)
                and self.vars == other.vars and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.vars, frozenset(self.coeffs.items())))

    def __repr__(self):
        return format_terms(
            ("*".join(f"{v}^{e}" if e != 1 else v for v, e in zip(self.vars, exps) if e), c)
            for exps, c in self.terms()
        )


class LaurentPoly(Poly):
    """Laurent polynomial in one variable with exact coefficients.

    Exponents are 1-tuples of any sign, so the variable name travels with
    the polynomial (``("y",)`` or ``("x",)``).
    """

    __slots__ = ()

    def _monomial(self, exps) -> tuple:
        if len(self.vars) != 1:
            raise ValueError("Laurent polynomials are univariate")
        return super()._monomial(exps)

    @classmethod
    def constant(cls, variables: Iterable[str], c) -> "LaurentPoly":
        return cls(variables, {(0,): c})

    @classmethod
    def monomial(cls, variables: Iterable[str], exps: tuple, c=1) -> "LaurentPoly":
        return cls(variables, {tuple(exps): c})

    def coefficient(self, exps: tuple) -> int | Fraction:
        return self.coeffs.get(tuple(exps), 0)

    def degree_span(self) -> tuple[int, int]:
        """(min, max) exponent; (0, 0) for zero."""
        if not self.coeffs:
            return (0, 0)
        exps = [e for (e,) in self.coeffs]
        return (min(exps), max(exps))

    def derivative(self, order: int = 1) -> "LaurentPoly":
        """Laurent derivative, iterated ``order`` times."""
        coeffs = self.coeffs
        for _ in range(order):
            coeffs = {(e - 1,): c * e for (e,), c in coeffs.items() if e}
        return self._new(coeffs)


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------

class BiSeriesWindow:
    """Dense exact coefficient table of a bivariate series on a rectangle.

    Entry (a, b) is the coefficient of x^a y^b.  Used as the truncated
    rendering oracle for all delta-series identities.
    """

    __slots__ = ("x_lo", "x_hi", "y_lo", "y_hi", "table")

    def __init__(self, x_lo: int, x_hi: int, y_lo: int, y_hi: int):
        if x_lo > x_hi or y_lo > y_hi:
            raise ValueError("empty window")
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi
        self.table = [[0] * (y_hi - y_lo + 1) for _ in range(x_hi - x_lo + 1)]

    @classmethod
    def square(cls, radius: int) -> "BiSeriesWindow":
        return cls(-radius, radius, -radius, radius)

    def contains(self, a: int, b: int) -> bool:
        return self.x_lo <= a <= self.x_hi and self.y_lo <= b <= self.y_hi

    def get(self, a: int, b: int) -> int | Fraction:
        if not self.contains(a, b):
            raise IndexError(f"({a},{b}) outside window")
        return self.table[a - self.x_lo][b - self.y_lo]

    def add(self, a: int, b: int, c: int | Fraction):
        self.table[a - self.x_lo][b - self.y_lo] += c

    def entries(self):
        for a in range(self.x_lo, self.x_hi + 1):
            row = self.table[a - self.x_lo]
            for b in range(self.y_lo, self.y_hi + 1):
                yield a, b, row[b - self.y_lo]

    def is_zero(self) -> bool:
        return all(c == 0 for _, _, c in self.entries())

    def equal_on_overlap(self, other: "BiSeriesWindow") -> bool:
        x_lo, x_hi = max(self.x_lo, other.x_lo), min(self.x_hi, other.x_hi)
        y_lo, y_hi = max(self.y_lo, other.y_lo), min(self.y_hi, other.y_hi)
        for a in range(x_lo, x_hi + 1):
            for b in range(y_lo, y_hi + 1):
                if self.get(a, b) != other.get(a, b):
                    return False
        return True

    def mul_power_diff(self, m: int) -> "BiSeriesWindow":
        """Multiply by (x - y)^m; the result window shrinks at the low edges.

        Entry (a, b) of the product needs the factors at (a-m+t, b-t) for
        t in 0..m, so it is only computable where all of those lie inside.
        """
        if m < 0:
            raise ValueError("power must be nonnegative")
        out = BiSeriesWindow(self.x_lo + m, self.x_hi, self.y_lo + m, self.y_hi)
        weights = [(-1 if t % 2 else 1) * gen_binomial(m, t) for t in range(m + 1)]
        for a in range(out.x_lo, out.x_hi + 1):
            for b in range(out.y_lo, out.y_hi + 1):
                acc = 0
                for t, w in enumerate(weights):
                    acc += w * self.get(a - m + t, b - t)
                out.table[a - out.x_lo][b - out.y_lo] = acc
        return out


def delta_window(k: int, window: BiSeriesWindow) -> BiSeriesWindow:
    """Exact window expansion of Delta^(k): weight n(n-1)..(n-k+1) on the
    antidiagonal x^{n-k} y^{-n-1}."""
    if k < 0:
        raise ValueError("delta order must be nonnegative")
    out = BiSeriesWindow(window.x_lo, window.x_hi, window.y_lo, window.y_hi)
    for a in range(out.x_lo, out.x_hi + 1):
        b = -a - k - 1
        if out.y_lo <= b <= out.y_hi:
            out.add(a, b, falling(a + k, k))
    return out


# ---------------------------------------------------------------------------
# Delta series
# ---------------------------------------------------------------------------

COEFF_IN_Y = "y"
COEFF_IN_X = "x"


class DeltaSeries:
    """Finite sum  sum_i g_i(side) * Delta^(i)(x, y)  with Laurent g_i.

    ``side`` records whether the coefficients are written in y (canonical)
    or in x.  Canonical form sorts terms by order and drops zero
    coefficients.
    """

    __slots__ = ("side", "terms")

    def __init__(self, terms: Iterable[tuple[int, LaurentPoly]] = (), side: str = COEFF_IN_Y):
        if side not in (COEFF_IN_X, COEFF_IN_Y):
            raise ValueError("side must be 'x' or 'y'")
        merged: dict[int, LaurentPoly] = {}
        for order, poly in terms:
            order = int(order)
            if order < 0:
                raise ValueError("delta orders are nonnegative")
            if order in merged:
                merged[order] = merged[order] + poly
            else:
                merged[order] = poly
        self.side = side
        self.terms = tuple(
            (o, p) for o, p in sorted(merged.items()) if not p.is_zero()
        )

    @classmethod
    def single(cls, order: int, poly: LaurentPoly, side: str = COEFF_IN_Y) -> "DeltaSeries":
        return cls([(order, poly)], side)

    @classmethod
    def zero(cls, side: str = COEFF_IN_Y) -> "DeltaSeries":
        return cls([], side)

    def is_zero(self) -> bool:
        return not self.terms

    def max_order(self) -> int:
        return self.terms[-1][0] if self.terms else 0

    def __add__(self, other: "DeltaSeries") -> "DeltaSeries":
        if self.side != other.side:
            raise ValueError("cannot add series on different sides")
        return DeltaSeries(list(self.terms) + list(other.terms), self.side)

    def __neg__(self) -> "DeltaSeries":
        return DeltaSeries([(o, -p) for o, p in self.terms], self.side)

    def __sub__(self, other: "DeltaSeries") -> "DeltaSeries":
        return self + (-other)

    def scale(self, c) -> "DeltaSeries":
        return DeltaSeries([(o, p.scale(c)) for o, p in self.terms], self.side)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DeltaSeries)
                and self.side == other.side and self.terms == other.terms)

    def __hash__(self):
        return hash((self.side, self.terms))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for o, p in self.terms:
            d = "Delta" if o == 0 else f"Delta^({o})"
            bits.append(f"({p!r})*{d}")
        return " + ".join(bits)


def render(series: DeltaSeries, window: BiSeriesWindow) -> BiSeriesWindow:
    """Exact windowed expansion of a DeltaSeries.

    For a coefficient monomial c*v^d in the order-i term, the bivariate
    entry at (a, b) receives a contribution whenever d = a + b + i + 1,
    weighted by the Delta^(i) diagonal factor (in the side variable).
    """
    out = BiSeriesWindow(window.x_lo, window.x_hi, window.y_lo, window.y_hi)
    in_y = series.side == COEFF_IN_Y
    for i, poly in series.terms:
        for a in range(out.x_lo, out.x_hi + 1):
            for b in range(out.y_lo, out.y_hi + 1):
                c = poly.coefficient((a + b + i + 1,))
                if not c:
                    continue
                w = falling(a + i, i) if in_y else falling(-b - 1, i)
                if w:
                    out.add(a, b, c * w)
    return out


def mul_power_diff(m: int, series: DeltaSeries) -> DeltaSeries:
    """(x - y)^m * series, canonicalized term by term.

    Iterating (x-y) Delta^(n) = -n Delta^(n-1), each Delta^(n) term with
    m <= n maps to (-1)^m n(n-1)..(n-m+1) Delta^(n-m) and terms with m > n
    vanish.  Coefficients pass through unchanged since they depend on a
    single variable.  The window oracle arbitrates this constant.
    """
    if m < 0:
        raise ValueError("power must be nonnegative")
    out = []
    for n, poly in series.terms:
        if m > n:
            continue
        c = falling(n, m)
        if m % 2:
            c = -c
        out.append((n - m, poly.scale(c)))
    return DeltaSeries(out, series.side)


def delta_transport(k: int, to_y: bool) -> list[tuple[int, int]]:
    """Weights (j, w_j) of moving a coefficient f through Delta^(k) into the
    other variable: f Delta^(k) = sum_j w_j f^{(k-j)} Delta^(j), with
    w_j = binom(k,j), times (-1)^{k+j} when f moves from x to y."""
    out = []
    for j in range(k + 1):
        c = gen_binomial(k, j)
        out.append((j, -c if to_y and (k + j) % 2 else c))
    return out


def swap_side(series: DeltaSeries) -> DeltaSeries:
    """Rewrite the series with coefficients in the other variable.

    Each coefficient moves through its Delta term by ``delta_transport``:
    x -> y uses f(x)Delta^(k) = sum_j (-1)^{k+j} binom(k,j) f^{(k-j)}(y) Delta^(j);
    y -> x uses f(y)Delta^(k) = sum_j binom(k,j) f^{(k-j)}(x) Delta^(j).
    Both sides must render identically on any window.
    """
    to_y = series.side == COEFF_IN_X
    new_side = COEFF_IN_Y if to_y else COEFF_IN_X
    new_var = ("y",) if to_y else ("x",)
    out: list[tuple[int, LaurentPoly]] = []
    for k, poly in series.terms:
        for j, c in delta_transport(k, to_y):
            out.append((j, poly.derivative(k - j).rename(new_var).scale(c)))
    return DeltaSeries(out, new_side)


def mul_other_var(series: DeltaSeries, poly: LaurentPoly) -> DeltaSeries:
    """Multiply by a Laurent polynomial in the opposite variable.

    The factor is first transported through each Delta term by
    ``delta_transport`` (as in swap_side), so the result stays
    on the original side.
    """
    out: list[tuple[int, LaurentPoly]] = []
    to_y = series.side == COEFF_IN_Y
    var = ("y",) if to_y else ("x",)
    for k, g in series.terms:
        for j, c in delta_transport(k, to_y):
            out.append((j, g * poly.derivative(k - j).rename(var).scale(c)))
    return DeltaSeries(out, series.side)


class DecompositionError(ValueError):
    """The annihilation promise behind a decomposition was false."""


def decompose(window: BiSeriesWindow, k: int) -> DeltaSeries:
    """Recover the unique f_0..f_k with  window = sum f_i(y) Delta^(i).

    Extraction: f_i(y) = Res_x[(x-y)^i f] / ((-1)^i i!), using that
    (x-y)^i Delta^(i) = (-1)^i i! Delta and that Res_x Delta^(j) is 1 for
    j = 0 and 0 otherwise.  The result is re-rendered and compared against
    the input window; a mismatch means the caller's
    (x-y)^{k+1}-annihilation promise was false and raises
    DecompositionError.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not (window.x_lo <= -1 - k and window.x_hi >= -1):
        raise ValueError("window must contain the x-exponent range [-1-k, -1]")
    terms = []
    for i in range(k + 1):
        fact_i = 1
        for t in range(1, i + 1):
            fact_i *= t
        norm = -fact_i if i % 2 else fact_i
        coeffs: dict[tuple, Fraction] = {}
        for s in range(window.y_lo + i, window.y_hi + 1):
            acc = 0
            for t in range(i + 1):
                sign = -1 if t % 2 else 1
                acc += sign * gen_binomial(i, t) * window.get(-1 - i + t, s - t)
            if acc:
                coeffs[(s,)] = Fraction(acc, norm)
        terms.append((i, LaurentPoly(("y",), coeffs)))
    result = DeltaSeries(terms, COEFF_IN_Y)
    back = render(result, window)
    for a, b, c in window.entries():
        if back.get(a, b) != c:
            raise DecompositionError(
                f"window is not a delta series of order <= {k}: "
                f"entry ({a},{b}) is {c}, reconstruction gives {back.get(a, b)}"
            )
    return result


def oracle_radius(series: DeltaSeries) -> int:
    """Window radius large enough that no truncation can mask a discrepancy:
    max Delta order + max coefficient degree spread + 2."""
    if series.is_zero():
        return 2
    spread = 0
    for _, p in series.terms:
        lo, hi = p.degree_span()
        spread = max(spread, hi - lo, abs(hi), abs(lo))
    return series.max_order() + spread + 2

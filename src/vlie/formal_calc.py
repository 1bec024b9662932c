"""Exact formal calculus: Laurent and differential polynomials, delta-function
series, windows.

All coefficients are exact: an ``int`` when integral, a ``fractions.Fraction``
otherwise, and never a float.  The central objects are finite sums

    sum_k  c_k(y) * Delta^(k)(x, y)

where ``Delta^(k)(x, y)`` is the k-th x-derivative of the two-variable
expansion ``sum_n x^n y^{-n-1}``.  ``DeltaSeries`` is the package's one type
for them, generic in the coefficient: ``LaurentPoly`` here, ``DPoly`` for
the vertex Poisson brackets {f(x), g(y)}.  Coefficients change
variable only through ``delta_transport``, and ``expand`` is the one window
expansion, which ``render`` and the mode windows of the other modules read.
A ``BiSeriesWindow`` holds the exact coefficients of a bivariate series on a
finite exponent rectangle and is the oracle of every identity here.

There are three polynomial classes.  ``Poly`` is the shared arithmetic on a
coefficient map and names no variable.  ``LaurentPoly`` is a Laurent
polynomial in one named variable with ``int`` exponents.  ``DPoly`` is a
differential polynomial in variables u_i^{(j)}; its derivative-free elements
are the polynomial Poisson algebras of ``lie_core`` and ``poisson_c2``, and
``format_poly`` prints them in their generators' names.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import factorial

from .linalg import add_into, clean, rat


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
    return falling(m, i) // factorial(i)


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
    """Sparse polynomial core: the arithmetic on a map from monomials to
    nonzero exact numbers, with no variable names.

    Subclasses fix how a monomial is validated (``_monomial``) and how two
    monomials multiply (``_mono_mul``).  Instances are immutable by
    convention; all arithmetic returns new objects.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping | None = None):
        self.coeffs = clean((self._monomial(m), c) for m, c in coeffs.items()) if coeffs else {}

    def _new(self, coeffs: dict):
        """Same class around an already clean coefficient map."""
        out = object.__new__(type(self))
        out.coeffs = coeffs
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other):
        return self._new(add_into(dict(self.coeffs), other.coeffs))

    def __sub__(self, other):
        return self._new(add_into(dict(self.coeffs), other.coeffs, -1))

    def __neg__(self):
        return self._new(add_into({}, self.coeffs, -1))

    def scale(self, c):
        return self._new(add_into({}, self.coeffs, rat(c)))

    def __mul__(self, other):
        mul = self._mono_mul
        return self._new(clean(
            (mul(m1, m2), c1 * c2)
            for m1, c1 in self.coeffs.items() for m2, c2 in other.coeffs.items()
        ))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))


class LaurentPoly(Poly):
    """Laurent polynomial in one named variable with exact coefficients:
    ``LaurentPoly("y", {-2: c})`` is c*y^-2.

    Exponents are ``int`` of any sign.  The name travels with the
    polynomial, so a series can tell which side its coefficients are on.
    """

    __slots__ = ("var",)

    def __init__(self, var: str, coeffs: Mapping[int, object] | None = None):
        self.var = var
        super().__init__(coeffs)

    _monomial = staticmethod(int)

    @staticmethod
    def _mono_mul(e1: int, e2: int) -> int:
        return e1 + e2

    def _new(self, coeffs: dict) -> "LaurentPoly":
        out = super()._new(coeffs)
        out.var = self.var
        return out

    @classmethod
    def constant(cls, var: str, c) -> "LaurentPoly":
        return cls(var, {0: c})

    def degree_span(self) -> tuple[int, int]:
        """(min, max) exponent; (0, 0) for zero."""
        return (min(self.coeffs), max(self.coeffs)) if self.coeffs else (0, 0)

    def derivative(self, order: int = 1) -> "LaurentPoly":
        """Laurent derivative, iterated ``order`` times."""
        coeffs = self.coeffs
        for _ in range(order):
            coeffs = {e - 1: c * e for e, c in coeffs.items() if e}
        return self._new(coeffs)

    def rename(self, var: str) -> "LaurentPoly":
        """The same coefficients in another variable."""
        out = self._new(self.coeffs)
        out.var = var
        return out

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and self.var == other.var

    __hash__ = Poly.__hash__

    def __repr__(self):
        v = self.var
        return format_terms(((f"{v}^{e}" if e != 1 else v) if e else "", c)
                            for e, c in sorted(self.coeffs.items()))


class DPoly(Poly):
    """Polynomial in variables u_i^{(j)} (base symbol i, derivative order j).

    Monomials are sorted tuples of (i, j) pairs with multiplicity; the
    derivation D sends u_i^{(j)} to u_i^{(j+1)}.  As a series coefficient it
    is written in the series' own variable, so it names none.  A
    derivative-free DPoly, every variable (i, 0), is an element of a
    polynomial Poisson algebra; ``format_poly`` prints it in the names of
    its generators.
    """

    __slots__ = ()

    def _monomial(self, mono) -> tuple:
        return tuple(sorted((int(i), int(j)) for i, j in mono))

    @staticmethod
    def _mono_mul(m1: tuple, m2: tuple) -> tuple:
        return tuple(sorted(m1 + m2))

    @classmethod
    def constant(cls, c) -> "DPoly":
        return cls({(): c})

    @classmethod
    def variable(cls, i: int, j: int = 0, c=1) -> "DPoly":
        return cls({((i, j),): c})

    def derivative(self, order: int = 1) -> "DPoly":
        """Apply D ``order`` times (Leibniz over each monomial factor).  On a
        linear polynomial, D sends distinct variables to distinct variables,
        so nothing is sorted or cleaned."""
        coeffs = self.coeffs
        if all(len(mono) == 1 for mono in coeffs):
            return self._new({((i, j + order),): c for ((i, j),), c in coeffs.items()})
        for _ in range(order):
            coeffs = clean(
                (tuple(sorted(mono[:t] + ((i, j + 1),) + mono[t + 1:])), c)
                for mono, c in coeffs.items() for t, (i, j) in enumerate(mono)
            )
        return self._new(coeffs)

    def partials(self) -> dict[tuple[int, int], "DPoly"]:
        """{(i, j): the partial derivative by u_i^{(j)}} for every variable
        that occurs.  Dropping one factor v keeps distinct monomials
        distinct and a nonzero coefficient nonzero, so nothing is cleaned."""
        out: dict[tuple[int, int], dict] = {}
        for mono, c in self.coeffs.items():
            for t, v in enumerate(mono):
                if t == 0 or mono[t - 1] != v:
                    out.setdefault(v, {})[mono[:t] + mono[t + 1:]] = c * mono.count(v)
        return {v: self._new(coeffs) for v, coeffs in out.items()}

    def substitute(self, values: Mapping[tuple[int, int], object]) -> "DPoly":
        """Evaluate the variables keyed in ``values`` (as in ``partials``)
        at exact numbers."""
        values = {v: rat(x) for v, x in values.items()}
        out = []
        for mono, c in self.coeffs.items():
            rest = []
            for v in mono:
                if v in values:
                    c = c * values[v]
                else:
                    rest.append(v)
            out.append((tuple(rest), c))
        return self._new(clean(out))

    def drop_derivatives(self) -> "DPoly":
        """Kill every monomial containing a derivative variable."""
        return self._new({m: c for m, c in self.coeffs.items()
                          if all(j == 0 for _, j in m)})

    def __repr__(self):
        return f"DPoly({self.coeffs!r})"


def format_poly(p: DPoly, names) -> str:
    """A derivative-free DPoly written in the names of its variables u_i,
    graded-lex with the leading term first: 'e^2*h - 1/2*f + 3'."""
    rows = []
    for mono, c in p.coeffs.items():
        exps = [0] * len(names)
        for i, _ in mono:
            exps[i] += 1
        rows.append((len(mono), exps, c))
    rows.sort(reverse=True, key=lambda row: row[:2])
    return format_terms(
        ("*".join(f"{v}^{e}" if e != 1 else v for v, e in zip(names, exps) if e), c)
        for _, exps, c in rows)


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

    def cells(self):
        for a in range(self.x_lo, self.x_hi + 1):
            for b in range(self.y_lo, self.y_hi + 1):
                yield a, b

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


# ---------------------------------------------------------------------------
# Delta series
# ---------------------------------------------------------------------------

COEFF_IN_Y = "y"
COEFF_IN_X = "x"


class DeltaSeries(dict):
    """Finite sum  sum_k c_k(side) * Delta^(k)(x, y), stored as {k: c_k}.

    ``side`` records whether the coefficients are written in y (canonical)
    or in x.  A coefficient may be of any kind with ``+``, ``scale(c)`` and
    ``derivative(order)`` in its own variable, and falsiness for zero; one
    that names its variable in ``var`` must name the side, and ``rename(var)``
    writes it in the other.  Orders are stored ascending, zero coefficients
    never.  Series are immutable by convention and all arithmetic returns new
    ones; a plain {order: coefficient} map compares equal to the series with
    the same entries.
    """

    __slots__ = ("side",)

    def __init__(self, terms: Mapping | Iterable[tuple] = (), side: str = COEFF_IN_Y):
        super().__init__()
        if side not in (COEFF_IN_X, COEFF_IN_Y):
            raise ValueError("side must be 'x' or 'y'")
        self.side = side
        merged = {}
        for order, c in terms.items() if isinstance(terms, Mapping) else terms:
            order = int(order)
            if order < 0:
                raise ValueError("delta orders are nonnegative")
            if getattr(c, "var", side) != side:
                raise ValueError(f"a coefficient in {c.var} on a series in {side}")
            merged[order] = merged[order] + c if order in merged else c
        self.update((order, merged[order]) for order in sorted(merged) if merged[order])

    @classmethod
    def single(cls, order: int, c, side: str = COEFF_IN_Y) -> "DeltaSeries":
        return cls([(order, c)], side)

    @classmethod
    def zero(cls, side: str = COEFF_IN_Y) -> "DeltaSeries":
        return cls((), side)

    @property
    def terms(self) -> tuple:
        """The (order, coefficient) pairs by ascending order."""
        return tuple(self.items())

    def is_zero(self) -> bool:
        return not self

    def max_order(self) -> int:
        return max(self, default=0)

    def __add__(self, other: Mapping) -> "DeltaSeries":
        return series_add(self, other)

    def __sub__(self, other: Mapping) -> "DeltaSeries":
        return series_add(self, other, -1)

    def __neg__(self) -> "DeltaSeries":
        return self.scale(-1)

    def scale(self, c) -> "DeltaSeries":
        return DeltaSeries([(k, v.scale(c)) for k, v in self.items()], self.side)

    def times(self, p) -> "DeltaSeries":
        """Every coefficient multiplied by p, a coefficient on the same side."""
        return DeltaSeries([(k, v * p) for k, v in self.items()], self.side)

    def __eq__(self, other) -> bool:
        if isinstance(other, DeltaSeries) and other.side != self.side:
            return False
        return dict.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    def __repr__(self):
        return " + ".join(
            f"({v!r})*{'Delta' if k == 0 else f'Delta^({k})'}" for k, v in self.items()
        ) or "0"


def series_add(a: Mapping, b: Mapping, scale=1) -> DeltaSeries:
    """a + scale * b.  A plain {order: coefficient} map counts as a series on
    the side of the other argument, or in y when neither is a series."""
    side = getattr(a, "side", getattr(b, "side", COEFF_IN_Y))
    if getattr(b, "side", side) != side:
        raise ValueError("cannot add series on different sides")
    return DeltaSeries([*a.items(), *((k, v.scale(scale)) for k, v in b.items())], side)


def expand(series: DeltaSeries, cells: Iterable[tuple[int, int]], value):
    """The window expansion of a series: (a, b, w, v) for each cell (a, b)
    and order k whose term contributes w * v to the coefficient of x^a y^b.

    Delta^(k)(x, y) = sum_n n(n-1)..(n-k+1) x^{n-k} y^{-n-1}.  At x^a y^b
    the coefficient c_k contributes its part at exponent e = a + b + k + 1
    of its variable, with the weight w of the diagonal index n = a + k when
    the coefficients are in y and n = -b - 1 when they are in x.
    ``value(c, e)`` gives that part in whatever kind the caller sums: a
    number, or a map of modes with e = -p - 1 for a field sum_p c(p) y^{-p-1}.
    Zero parts and zero weights are skipped.  This is the oracle of the
    closed formulas (``delta_transport``, component brackets), so it must
    not call them.
    """
    in_y = series.side == COEFF_IN_Y
    for a, b in cells:
        for k, c in series.items():
            v = value(c, a + b + k + 1)
            if v:
                w = falling(a + k, k) if in_y else falling(-b - 1, k)
                if w:
                    yield a, b, w, v


def render(series: DeltaSeries, window: BiSeriesWindow) -> BiSeriesWindow:
    """Exact windowed expansion of a series with Laurent coefficients: each
    coefficient contributes its number at the exponent ``expand`` names."""
    out = BiSeriesWindow(window.x_lo, window.x_hi, window.y_lo, window.y_hi)
    for a, b, w, v in expand(series, out.cells(), lambda p, e: p.coeffs.get(e, 0)):
        out.add(a, b, w * v)
    return out


def delta_window(k: int, window: BiSeriesWindow) -> BiSeriesWindow:
    """Exact window expansion of Delta^(k): weight n(n-1)..(n-k+1) on the
    antidiagonal x^{n-k} y^{-n-1}."""
    return render(DeltaSeries.single(k, LaurentPoly.constant("y", 1)), window)


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
    side = COEFF_IN_Y if series.side == COEFF_IN_X else COEFF_IN_X
    moved = [(j, c.derivative(k - j).scale(w))
             for k, c in series.items() for j, w in delta_transport(k, side == COEFF_IN_Y)]
    return DeltaSeries([(j, c.rename(side) if hasattr(c, "var") else c) for j, c in moved], side)


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
        norm = -factorial(i) if i % 2 else factorial(i)
        coeffs: dict[int, Fraction] = {}
        for s in range(window.y_lo + i, window.y_hi + 1):
            acc = 0
            for t in range(i + 1):
                sign = -1 if t % 2 else 1
                acc += sign * gen_binomial(i, t) * window.get(-1 - i + t, s - t)
            if acc:
                coeffs[s] = Fraction(acc, norm)
        terms.append((i, LaurentPoly("y", coeffs)))
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

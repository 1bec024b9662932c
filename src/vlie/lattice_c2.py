"""Finite Poisson algebras attached to positive definite even lattices.

From a Gram matrix this module enumerates the finite set of lattice vectors
alpha with <alpha - beta, beta> <= 0 for all beta, fixes a bimultiplicative
sign cocycle, and builds the finitely presented commutative algebra on
symbols Z_i (basis coordinates) and X_beta (surviving group-algebra
classes), together with its Poisson bracket.  Vanishing of a monomial
Z^m X_beta is decided by exact linear algebra in the polynomial ring
modulo powers of the linear forms attached to the relations.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from .formal_calc import format_terms
from .linalg import Echelon, add_into, bilinear, clean, compose, det

Vec = tuple[int, ...]


class EvenLattice:
    """Integer lattice given by a symmetric Gram matrix with even diagonal."""

    def __init__(self, gram):
        for row in gram:
            for x in row:
                if x.__class__ is not int:
                    raise ValueError(f"Gram matrix entry {x!r} is not an integer")
        self.gram = tuple(tuple(row) for row in gram)
        r = len(self.gram)
        if not r:
            raise ValueError("Gram matrix must have rank at least 1")
        if any(len(row) != r for row in self.gram):
            raise ValueError("Gram matrix must be square")
        for i in range(r):
            if self.gram[i][i] % 2:
                raise ValueError("diagonal entries must be even")
            for j in range(r):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        self.rank = r

    def pair(self, a: Vec, b: Vec) -> int:
        return sum(a[i] * self.gram[i][j] * b[j]
                   for i in range(self.rank) for j in range(self.rank))

    def norm(self, a: Vec) -> int:
        return self.pair(a, a)

    def is_positive_definite(self) -> bool:
        d, _ = self.ldl()
        return len(d) == self.rank and d[-1] > 0

    def is_degenerate(self) -> bool:
        # a zero pivot of ldl need not mean a zero determinant: [[0, 1], [1, 0]]
        return det(self.gram) == 0

    def ldl(self) -> tuple[list[Fraction], list[list[Fraction]]]:
        """G = L D L^T exactly, with L unit lower triangular: returns (D, L),
        so that norm(x) = sum_i D_i (x_i + sum_{j>i} L_ji x_j)^2.

        The factorization stops at the first pivot that is not positive,
        which is then the last entry of D; the columns of L before it are
        complete.  The pivots are the ratios of consecutive leading minors,
        so the Gram is positive definite exactly when D has rank entries,
        all positive (Sylvester).
        """
        g, r = self.gram, self.rank
        d: list[Fraction] = []
        low = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
        for j in range(r):
            d.append(Fraction(g[j][j]) - sum(low[j][k] ** 2 * d[k] for k in range(j)))
            if d[j] <= 0:
                break
            for i in range(j + 1, r):
                low[i][j] = (g[i][j] - sum(low[i][k] * low[j][k] * d[k]
                                           for k in range(j))) / d[j]
        return d, low

    def short_vectors(self, bound: int) -> list[tuple[int, Vec]]:
        """(norm, v) for every lattice vector v of norm <= bound, sorted.

        This is the enumeration of Fincke and Pohst, "Improved methods for
        calculating vectors of short length in a lattice" (1985), on the
        exact LDL^T: coordinates are fixed from the last to the first, and
        x_i ranges over the integers with D_i (x_i - c_i)^2 at most what the
        coordinates above i leave of the bound, c_i being the centre they
        set.  Positive definite lattices only.
        """
        if not self.is_positive_definite():
            raise ValueError("short-vector enumeration needs positive definiteness")
        d, low = self.ldl()
        r = self.rank
        x = [0] * r
        out: list[tuple[int, Vec]] = []

        def fix(i: int, budget: Fraction):
            centre = -sum(low[j][i] * x[j] for j in range(i + 1, r))
            radius = budget / d[i]  # (x_i - centre)^2 <= radius
            v = math.floor(centre) - math.isqrt(math.floor(radius)) - 1
            while v < centre and (v - centre) ** 2 > radius:
                v += 1
            while (v - centre) ** 2 <= radius:
                x[i] = v
                left = budget - d[i] * (v - centre) ** 2
                if i:
                    fix(i - 1, left)
                else:
                    out.append((int(bound - left), tuple(x)))
                v += 1

        if bound >= 0:
            fix(r - 1, Fraction(bound))
        out.sort()
        return out


def negative_norm_witness(lattice: EvenLattice) -> Vec | None:
    """A negative-norm vector from the first non-positive pivot d_k of the
    LDL^T factorization G = L D L^T; None when there is none (a positive
    semidefinite Gram).

    The vector x = L^-T e_k, by back-substitution in L^T x = e_k, has
    x_k = 1, x_i = 0 for i > k and norm e_k^T D e_k = d_k.  As
    G x = L D e_k = d_k L e_k, (G x)_i = 0 for i < k: x is (-A^-1 b, 1, 0,
    ...), with A the leading k x k block and b the next column above the
    diagonal, and d_k is the Schur complement.  When d_k = 0 and G is
    nondegenerate, some (G x)_j = c is nonzero, and x + t e_j with
    t = -c/G_jj (G_jj > 0), else t = -c, has norm 2tc + t^2 G_jj < 0.  The
    rational vector is scaled to a primitive integer one, which keeps the
    sign of its norm.  No search: the cost is one factorization, whatever
    the Gram's entries.
    """
    d, low = lattice.ldl()
    k = len(d) - 1
    if d[k] > 0:
        return None
    g, r = lattice.gram, lattice.rank
    x = [Fraction(int(i == k)) for i in range(r)]
    for i in range(k - 1, -1, -1):
        x[i] = -sum(low[j][i] * x[j] for j in range(i + 1, k + 1))
    if d[k] == 0:
        gx = [sum(g[i][j] * x[j] for j in range(r)) for i in range(r)]
        j = next((i for i, c in enumerate(gx) if c), None)
        if j is None:
            return None  # x spans the radical of a degenerate Gram
        x[j] += Fraction(-gx[j], g[j][j]) if g[j][j] > 0 else -gx[j]
    scale = math.lcm(*(c.denominator for c in x))
    ints = [int(c * scale) for c in x]
    common = math.gcd(*ints)
    return tuple(c // common for c in ints)


def detect_indefinite(lattice: EvenLattice) -> dict:
    """Whether the algebra is zero, with a negative-norm witness when it is.

    A Gram that is not positive definite has a class of negative norm,
    which multiplies against its inverse down to the unit and collapses
    the whole quotient.  Degenerate lattices are rejected as out of scope.
    """
    if lattice.is_degenerate():
        raise ValueError("degenerate Gram matrix is out of scope")
    witness = negative_norm_witness(lattice)
    return {"zero_algebra": witness is not None,
            "witness": list(witness) if witness is not None else None}


def enumerate_c2(lattice: EvenLattice) -> list[Vec]:
    """The finite set {alpha : <alpha - beta, beta> <= 0 for all beta}, in
    lexicographic order.

    The norm bound.  <alpha - beta, beta> <= 0 reads
    |alpha/2 - beta|^2 >= |alpha/2|^2, so alpha survives exactly when no
    lattice vector is nearer to alpha/2 than 0 is.  Babai's nearest plane
    ("On Lovasz' lattice reduction and the nearest lattice point problem",
    1986) puts a lattice vector x within (D_1 + ... + D_r) / 4 of any real
    y, D being the pivots of the LDL^T: fix x_i from the last coordinate
    to the first as an integer nearest to y_i + sum_{j>i} L_ji (y_j - x_j),
    so that each term D_i (y_i - x_i + sum_{j>i} L_ji (y_j - x_j))^2 of
    |y - x|^2 is at most D_i / 4.  With y = alpha/2, a survivor has
    |alpha|^2 / 4 <= tr D / 4, and as norms are integers,
    |alpha|^2 <= floor(tr D).  A1^4 attains the bound: (1, 1, 1, 1) has
    norm 8 = tr D.

    The killers.  A violating beta (a killer of alpha) has
    <alpha, beta> > |beta|^2.  Then alpha - beta is a killer too, since
    <beta, alpha - beta> = <alpha, beta> - |beta|^2 > 0, and

        |beta|^2 + |alpha - beta|^2 = |alpha|^2 - 2(<alpha, beta> - |beta|^2)
                                    < |alpha|^2,

    so a candidate that dies has a killer of norm below |alpha|^2 / 2.

    So one Fincke-Pohst enumeration (``EvenLattice.short_vectors``) up to
    floor(tr D), sorted by norm, holds every candidate, and each candidate
    is tested against the prefix of the same list of norm below half its
    own.
    """
    if not lattice.is_positive_definite():
        raise ValueError("the survivor set needs a positive definite lattice")
    short = lattice.short_vectors(math.floor(sum(lattice.ldl()[0])))
    norms = [norm for norm, _ in short]
    out = []
    for norm_a, alpha in short:
        g_alpha = [sum(map(operator.mul, row, alpha)) for row in lattice.gram]
        # 2 |beta|^2 < |alpha|^2 is |beta|^2 < (|alpha|^2 + 1) // 2
        killers = short[:bisect.bisect_left(norms, (norm_a + 1) // 2)]
        if all(sum(map(operator.mul, g_alpha, beta)) <= norm_b for norm_b, beta in killers):
            out.append(alpha)
    return sorted(out)


class Cocycle:
    """Bimultiplicative sign cocycle with the standard upper-triangular gauge.

    On basis vectors: eps(a_i, a_j) = (-1)^{<a_i,a_j>} for i > j and 1 for
    i <= j; extended bimultiplicatively.  The commutator identity
    eps(a,b) eps(b,a) = (-1)^{<a,b>} follows from evenness of the diagonal.
    """

    def __init__(self, lattice: EvenLattice):
        self.lattice = lattice

    def value(self, a: Vec, b: Vec) -> int:
        g = self.lattice.gram
        total = 0
        for i in range(self.lattice.rank):
            for j in range(self.lattice.rank):
                if i > j:
                    total += a[i] * b[j] * g[i][j]
        return -1 if total % 2 else 1

    def commutator_identity_problems(self, vectors: Iterable[Vec]) -> list[str]:
        problems = []
        vectors = list(vectors)
        for a in vectors:
            for b in vectors:
                lhs = self.value(a, b) * self.value(b, a)
                rhs = -1 if self.lattice.pair(a, b) % 2 else 1
                if lhs != rhs:
                    problems.append(f"cocycle identity fails at {a}, {b}")
        return problems


def build_cocycle(lattice: EvenLattice, survivors: Iterable[Vec]) -> Cocycle:
    """The cocycle of the lattice, checked on the given survivor set."""
    eps = Cocycle(lattice)
    problems = eps.commutator_identity_problems(survivors)
    if problems:
        raise AssertionError("; ".join(problems[:3]))
    return eps


# ---------------------------------------------------------------------------
# Graded ideal reducers
# ---------------------------------------------------------------------------

def power_of_linear(rank: int, alpha: Vec, e: int) -> dict[tuple, int]:
    """(alpha . Z)^e as an exponent-tuple coefficient dict."""
    out = {(0,) * rank: 1}
    lin = {tuple(1 if t == i else 0 for t in range(rank)): alpha[i]
           for i in range(rank) if alpha[i]}
    for _ in range(e):
        out = clean((tuple(x + y for x, y in zip(m1, m2)), c1 * c2)
                    for m1, c1 in out.items() for m2, c2 in lin.items())
    return out


class PowerIdealReducer:
    """Normal forms in Q[Z_1..Z_r] modulo powers of linear forms.

    The ideal is generated by (sum_i alpha_i Z_i)^(e_alpha); per total
    degree a row echelon basis of the ideal's span is prepared and
    polynomials are reduced against it.  Once a graded piece fills up, all
    higher degrees vanish.
    """

    def __init__(self, rank: int, generators: Sequence[tuple[Vec, int]]):
        self.rank = rank
        self.generators = list(generators)
        self._echelon: dict[int, Echelon] = {}
        self._basis: dict[int, list[tuple]] = {}
        self._max_degree: int | None = None

    def _monomials(self, degree: int) -> list[tuple]:
        """Exponent tuples of the degree, largest first: the gaps between
        rank - 1 bars placed among degree + rank - 1 slots."""
        slots = degree + self.rank - 1
        return sorted((tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))
                       for bars in itertools.combinations(range(slots), self.rank - 1)),
                      reverse=True)

    def _prepare(self, degree: int):
        if degree in self._echelon:
            return
        # the largest-monomial pivots fix which monomials span the quotient
        echelon = Echelon()
        for alpha, e in self.generators:
            if e <= degree:
                base = power_of_linear(self.rank, alpha, e)
                for pad in self._monomials(degree - e):
                    echelon.insert({tuple(x + y for x, y in zip(m, pad)): c
                                    for m, c in base.items()})
        self._echelon[degree] = echelon
        self._basis[degree] = [m for m in self._monomials(degree) if m not in echelon.rows]

    def basis(self, degree: int) -> list[tuple]:
        self._prepare(degree)
        return self._basis[degree]

    def max_degree(self) -> int:
        """Largest degree with a nonzero graded piece.

        It exists exactly when the generators' lines span Q^r.  If r of
        them are independent, they are coordinates y_i in which the ideal
        holds every y_i^(e_i), so every degree past sum (e_i - 1) vanishes.
        If not, some v != 0 is a zero of every generator, and no power of a
        linear form that is nonzero at v lies in the ideal: every degree is
        nonzero, and ``ValueError`` is raised.
        """
        if self._max_degree is None:
            span = Echelon()
            for alpha, _ in self.generators:
                span.insert(dict(enumerate(alpha)))
            if len(span.rows) < self.rank:
                raise ValueError(f"the lines of {self.generators} do not span Q^{self.rank}: "
                                 "every degree of the quotient is nonzero")
            d = 0
            while self.basis(d):
                d += 1
            self._max_degree = d - 1
        return self._max_degree

    def reduce(self, coeffs: Mapping[tuple, Fraction]) -> dict[tuple, Fraction]:
        """Normal form of an arbitrary (graded-split) polynomial."""
        by_degree: dict[int, dict] = {}
        for m, c in coeffs.items():
            by_degree.setdefault(sum(m), {})[m] = c
        out: dict[tuple, Fraction] = {}
        for degree, part in by_degree.items():
            if degree <= self.max_degree():
                self._prepare(degree)
                out.update(self._echelon[degree].reduce(part))
        return out


# ---------------------------------------------------------------------------
# The finite presented algebra
# ---------------------------------------------------------------------------

class PLAlgebra:
    """Finite-dimensional commutative algebra spanned by Z^m and Z^m X_beta.

    Elements are dicts keyed by (sector, monomial): sector () for the pure
    polynomial part, sector beta for the X_beta component.  Multiplication
    folds the X-sector relations and reduces each sector by its power
    ideal (one reducer per distinct ideal); the Poisson bracket extends the
    generator table as a biderivation.  ``verify_axioms`` decides every
    axiom exactly (Jacobi on generator triples), with work that grows with
    the nonzero products of the two structure-constant tables, not dim^3.

    An indefinite Gram gives the zero algebra on the same path: a class of
    negative norm multiplies down to the unit, so no class survives and the
    polynomial sector is reduced by the unit ideal, generated by the
    (Z_t)^0 = 1.  Its basis is empty, and every element reduces to {}.
    """

    def __init__(self, lattice: EvenLattice):
        self.lattice = lattice
        self.zero_algebra = detect_indefinite(lattice)["zero_algebra"]
        self.c2 = [] if self.zero_algebra else enumerate_c2(lattice)
        self.eps = build_cocycle(lattice, self.c2)
        self.nonzero_c2 = [a for a in self.c2 if any(a)]
        r = lattice.rank
        units = ({tuple(int(s == t) for s in range(r)): 0 for t in range(r)}
                 if self.zero_algebra else {})
        # one generator per line of the survivors (alpha, -alpha and their
        # multiples), with the least exponent, spans the same ideal; so one
        # reducer serves every sector with the same list
        reducers: dict[tuple, PowerIdealReducer] = {}
        self.sectors: dict[tuple, PowerIdealReducer] = {}
        for beta in [(0,) * r] + self.nonzero_c2:
            lines: dict[Vec, int] = dict(units)
            for alpha in self.nonzero_c2:
                g = math.gcd(*alpha)
                line = max(tuple(a // g for a in alpha), tuple(-a // g for a in alpha))
                e = 1 + lattice.norm(alpha) - lattice.pair(beta, alpha)
                lines[line] = min(e, lines.get(line, e))
            gens = tuple(sorted(lines.items()))
            if gens not in reducers:
                reducers[gens] = PowerIdealReducer(r, gens)
            self.sectors[beta if any(beta) else ()] = reducers[gens]
        self.basis = [(sector, mono) for sector, reducer in self.sectors.items()
                      for d in range(reducer.max_degree() + 1) for mono in reducer.basis(d)]
        self.index = {key: i for i, key in enumerate(self.basis)}
        # basis index of Z_t m -> (index of Z_t, index of m), for every basis
        # key of positive degree but the Z_t themselves; the tables are read
        # off through it
        self._divisor: dict[int, tuple[int, int]] = {}
        for i, (sector, mono) in enumerate(self.basis):
            for t, e in enumerate(mono):
                if not e:
                    continue
                z = self.index.get(((), tuple(int(s == t) for s in range(r))))
                m = self.index.get((sector, mono[:t] + (e - 1,) + mono[t + 1:]))
                if z is None or m is None:
                    raise AssertionError(
                        f"basis key {self.format_key((sector, mono))} divided by Z{t + 1} "
                        "is not a basis key (implementation bug)")
                if z != i:
                    self._divisor.setdefault(i, (z, m))
        self._mult_table: dict | None = None
        self._bracket_table: dict | None = None
        self._sector_rules: dict[tuple[Vec, Vec, int], tuple | None] = {}

    @property
    def dim(self) -> int:
        return len(self.basis)

    # -- element helpers ------------------------------------------------------

    def z_gen(self, i: int) -> dict:
        if not 0 <= i < self.lattice.rank:
            raise IndexError(f"Z index {i} is outside 0..{self.lattice.rank - 1}")
        mono = tuple(1 if t == i else 0 for t in range(self.lattice.rank))
        return self.reduce({((), mono): 1})

    def x_gen(self, beta: Vec) -> dict:
        beta = tuple(beta)
        if not any(beta):
            return self.one()
        if beta not in self.sectors:
            raise KeyError(f"{beta} does not label a surviving class")
        return self.reduce({(beta, (0,) * self.lattice.rank): 1})

    def one(self) -> dict:
        return self.reduce({((), (0,) * self.lattice.rank): 1})

    def reduce(self, element: Mapping) -> dict:
        """Normal form of an element: each sector reduced by its power ideal.

        A combination of basis keys is returned cleaned, as it is.  Each
        sector's basis keys are the standard monomials of its reducer, the
        monomials of degree at most ``max_degree`` that are no pivot of the
        echelon, and ``Echelon.reduce`` leaves a vector without pivot keys
        unchanged; so such a combination is its own normal form.
        """
        if element.keys() <= self.index.keys():
            return clean(element)
        out: dict = {}
        by_sector: dict[tuple, dict] = {}
        for (sector, mono), c in element.items():
            by_sector.setdefault(sector, {})[mono] = c
        for sector, coeffs in by_sector.items():
            red = self.sectors[sector].reduce(coeffs)
            for mono, c in red.items():
                out[(sector, mono)] = c
        return out

    # -- multiplication ----------------------------------------------------------

    def _sector_rule(self, alpha: Vec, beta: Vec, shift: int = 0) -> tuple | None:
        """eps(alpha, beta)/n! (alpha.Z)^n X_(alpha+beta), n = -<alpha, beta>
        - shift, as (target sector, (alpha.Z)^n, eps(alpha, beta)/n!): with
        shift 0 the product X_alpha X_beta, with shift 1 the bracket
        {X_alpha, X_beta}.  None when n < 0 or alpha + beta is no survivor
        (<alpha, beta> > 0 already rules alpha + beta out), as the classes
        then meet in zero.  The rule depends on the order of the pair, and
        is memoized per (alpha, beta, shift) on first use."""
        key = (alpha, beta, shift)
        rule = self._sector_rules.get(key, False)
        if rule is False:
            n = -self.lattice.pair(alpha, beta) - shift
            target = tuple(map(operator.add, alpha, beta))
            if n < 0 or any(target) and target not in self.sectors:
                rule = None
            else:
                rule = (target if any(target) else (),
                        power_of_linear(self.lattice.rank, alpha, n),
                        Fraction(self.eps.value(alpha, beta), math.factorial(n)))
            self._sector_rules[key] = rule
        return rule

    def multiply(self, a: Mapping, b: Mapping) -> dict:
        """The product of two elements, reduced.

        Two X classes multiply by the rule of their ordered pair of sectors
        (``_sector_rule``), shifted by the product of the monomials.  When
        every term lands on a basis key the sum is a combination of standard
        monomials, its own normal form, and ``reduce`` returns it cleaned.
        """
        out: dict = {}
        rule = self._sector_rule
        for (s1, m1), c1 in a.items():
            for (s2, m2), c2 in b.items():
                c = c1 * c2
                m = tuple(map(operator.add, m1, m2))
                if s1 == () or s2 == ():
                    add_into(out, {(s2 if s1 == () else s1, m): c})
                    continue
                found = rule(s1, s2)
                if found is not None:
                    sector, power, scale = found
                    add_into(out, {(sector, tuple(map(operator.add, m, pm))): pc
                                   for pm, pc in power.items()}, c * scale)
        return self.reduce(out)

    # -- the Poisson bracket --------------------------------------------------------

    def _gen_bracket(self, a: tuple, b: tuple) -> dict:
        """Bracket of two generator keys: the unit ((), 0), a Z_t ((), e_t)
        or an X_beta (beta, 0)."""
        lat = self.lattice
        (alpha, za), (beta, zb) = a, b
        if not any(alpha):  # {Z^za, X_beta} = <za, beta> X_beta; 0 for the unit
            return clean({b: lat.pair(za, beta)}) if any(beta) else {}
        if not any(beta):
            return clean({a: -lat.pair(zb, alpha)})
        rule = self._sector_rule(alpha, beta, 1)
        if rule is None:
            return {}
        sector, power, scale = rule
        return self.reduce({(sector, pm): pc * scale for pm, pc in power.items()})

    def bracket(self, a: Mapping, b: Mapping) -> dict:
        """The bracket of two elements, read off ``bracket_table``."""
        u, v = ({self.index[k]: c for k, c in self.reduce(x).items()} for x in (a, b))
        return {self.basis[k]: c for k, c in bilinear(self.bracket_table(), u, v).items()}

    # -- tables and verification ------------------------------------------------------

    def multiplication_table(self) -> dict:
        """Structure constants {(i, j): {k: c}} of the product, built once.

        Keys and entries are basis indices: ``self.basis[i]`` is the
        ``(sector, monomial)`` key of index i and ``self.index`` the inverse.

        Each sector's basis is the complement of the pivots of an echelon
        that pivots on the largest monomial and spans the power ideal
        completely in each degree: the standard monomials of a monomial
        order, a set closed under division (the constructor checks it).  So
        every basis key of positive degree is Z_t m with m a basis key of
        lower degree, and its row is Z_t times the row of m:
        T[Z_t m, n] = sum_k T[m, n][k] T[Z_t, k].  Only the rows of the
        generators (the unit, the Z_t and the X_beta) call ``multiply``.
        The rows are built by index, so both orders (i, j) and (j, i) are
        computed, each by its own recursion, and ``verify_axioms`` tests
        commutativity instead of assuming it.
        """
        if self._mult_table is None:
            basis, index = self.basis, self.index
            self._mult_table = self._table(
                lambda table, i, j: {index[k]: c for k, c in
                                     self.multiply({basis[i]: 1}, {basis[j]: 1}).items()},
                lambda table, z, m, j: bilinear(table, {z: 1}, table[(m, j)]))
        return self._mult_table

    def bracket_table(self) -> dict:
        """Structure constants {(i, j): {k: c}} of the bracket, built once,
        over basis indices as in ``multiplication_table``.

        The bracket is a biderivation, so with basis keys closed under
        division as argued there, the Leibniz rule in either slot,
        B[Z_t m, n] = sum_k B[m, n][k] T[Z_t, k] + sum_k B[Z_t, n][k] T[m, k]
        and B[g, Z_t m] = sum_k B[g, Z_t][k] T[k, m] + sum_k B[g, m][k] T[Z_t, k],
        reads every cell off cells of lower degree and the product table.
        Only the cells of two generators call ``_gen_bracket``.  Both orders
        are computed, each by its own recursion, so that ``verify_axioms``
        tests skew-symmetry.
        """
        if self._bracket_table is None:
            mult, basis, index, divisor = (self.multiplication_table(), self.basis,
                                           self.index, self._divisor)

            def generator_cell(table, g, j):
                if j in divisor:
                    z, m = divisor[j]
                    return add_into(bilinear(mult, table[(g, z)], {m: 1}),
                                    bilinear(mult, {z: 1}, table[(g, m)]))
                return {index[k]: c for k, c in self._gen_bracket(basis[g], basis[j]).items()}

            self._bracket_table = self._table(generator_cell, lambda table, z, m, j: add_into(
                bilinear(mult, {z: 1}, table[(m, j)]), bilinear(mult, {m: 1}, table[(z, j)])))
        return self._bracket_table

    def _table(self, generator_cell, derived) -> dict:
        """Rows by index: the cells of a generator's row through
        ``generator_cell(table, i, j)``, and the row of every other key
        Z_t m through ``derived(table, z, m, j)`` from the rows built before
        it, z being the index of Z_t."""
        table: dict = {}
        for i in range(self.dim):
            divisor = self._divisor.get(i)
            for j in range(self.dim):
                table[(i, j)] = (derived(table, *divisor, j) if divisor
                                 else generator_cell(table, i, j))
        return table

    def verify_axioms(self) -> list[str]:
        """Commutativity, skew, associativity and Leibniz at every pair and
        triple of basis elements, and Jacobi at every triple of generators:
        exact, with work that grows with the nonzero products, not dim^3.

        Pairs are compared entry by entry.  The generators are the unit, the
        Z_t and the X_beta: the keys with no ``_divisor``.  Commutativity and
        skew are decided once per unordered pair, skew without copying an
        entry, and a failing pair is reported in both orders.  Deciding
        Jacobi on generators needs e_z e_m = e_i for the divisor (z, m) of
        every other key i, so that every key is a product of generators.
        This factorization is not an axiom and never prints a problem: where
        some key does not factor, Jacobi is decided at every triple.

        The triples are decided per orbit, the orderings of one sorted
        triple.  At an ordered triple (i, j, k) each identity of the dense
        loop (``_triple_problems``) reads only the rows of the triple's own
        pairs: T[i,j] and T[j,k] for associativity, T[j,k], B[i,j] and
        B[i,k] for Leibniz, and the three inner brackets for Jacobi.  The
        outer table always sits in the same slot, T[m,.] or B[m,.].  So
        when the triple's pairs pass commutativity and skew,
        ``_failing_orbits`` decides every ordering of the orbit exactly,
        from composites (``linalg.compose``) of the rows a <= b alone, by
        the symmetries that these pair identities give each identity:

        - Associativity.  Let Q(a,b;c) = (e_a e_b) e_c, composed from the
          product rows a <= b only; by commutativity Q(a,b;c) = Q(b,a;c)
          and e_c (e_a e_b) = Q(a,b;c).  Over the orderings of a triple
          a <= b <= c the products take the three values Q(a,b;c),
          Q(b,c;a) and Q(a,c;b), so associativity holds at every ordering
          exactly when the three are equal.
        - Leibniz.  {i, jk} = {i,j}k + {i,k}j is symmetric in j and k, as
          e_j e_k = e_k e_j; so j <= k suffices.  {i, jk} comes from the
          product rows j <= k, and {i,j}k from the bracket rows i < j, read
          negated for i > j (skew) and zero for i = j.
        - Jacobi on generators.  Under skew the Jacobiator is alternating,
          and it vanishes when two arguments are equal ({a,a} = 0 and
          {{a,c},a} + {{c,a},a} = 0); so a < b < c suffices, as
          {{a,b},c} + {{b,c},a} - {{a,c},b}, from the bracket rows a < b.
          Given the other identities and the factorization of every key
          into generators, the Jacobiator of the skew biderivation is a
          derivation in each argument (Laurent-Gengoux, Pichereau and
          Vanhaecke, *Poisson Structures*, 2013, ch. 1), so it vanishes
          once it vanishes on generator triples.

        Every orbit that holds a failing pair is flagged as well: for a
        failing (a, b), every sorted {a, b, c}; for a failing (a, a), every
        orbit that holds a twice.  Only the orderings of the flagged orbits
        are evaluated, each by its dense definition, so a valid algebra
        flags no orbit and evaluates no triple, and every list is the dense
        loop's.

        Problems are listed pairs first (commutativity and skew by ordered
        pair), then triples in lexicographic order (associativity, Leibniz,
        Jacobi within a triple), and the list stops after the first triple
        at which it holds ten or more.
        """
        mult = self.multiplication_table()
        br = self.bracket_table()
        n = self.dim
        # each unordered pair is decided once and, failing, reported in both
        # orders; "commutativity" sorts before "skew" within a pair
        pair_failures = []
        for i in range(n):
            for j in range(i, n):
                if i != j and mult[(i, j)] != mult[(j, i)]:
                    pair_failures += [(i, j, "commutativity"), (j, i, "commutativity")]
                b_ij, b_ji = br[(i, j)], br[(j, i)]
                if len(b_ij) != len(b_ji) or any(b_ji.get(k) != -c for k, c in b_ij.items()):
                    pair_failures += [(i, j, "skew"), (j, i, "skew")] if i != j else [(i, i, "skew")]
        problems = [f"{name} fails at ({i},{j})" for i, j, name in sorted(pair_failures)]
        slots = set(range(n))
        if self._factors(mult):
            slots -= self._divisor.keys()
        orbits = self._failing_orbits(mult, br, slots)
        for a, b, _ in pair_failures:
            orbits.update(tuple(sorted((a, b, c))) for c in range(n))
        # the list stops after the first triple at which it holds ten or
        # more problems; (0,0,0) is the first triple of all
        for i, j, k in sorted({t for orbit in orbits for t in itertools.permutations(orbit)}):
            if len(problems) >= 10 and (i, j, k) != (0, 0, 0):
                break
            problems += self._triple_problems(mult, br, i, j, k, slots)
        return problems

    def _factors(self, mult: dict) -> bool:
        """Whether every key i with a divisor (z, m) is e_z e_m."""
        return all(mult[(z, m)] == {i: 1} for i, (z, m) in self._divisor.items())

    def _failing_orbits(self, mult: dict, br: dict, slots: set[int]) -> set[tuple]:
        """The sorted triples at which associativity or Leibniz fails, or
        Jacobi on a triple of ``slots``, by the reductions ``verify_axioms``
        states: exact at every orbit whose pairs pass commutativity and
        skew.  The composites hold only nonzero products, so each identity
        is decided at the triples where one of its terms is nonzero; at
        every other triple it holds as a sum of zero products."""
        n = self.dim
        failing: set[tuple] = set()
        mult_rows = {(a, b): mult[(a, b)] for a in range(n) for b in range(a, n)}
        # associativity: a nonzero Q(a,b;c) with a <= b <= c is compared with
        # the other two values of its triple; any other nonzero value must
        # find that one nonzero too
        assoc = compose(mult_rows, mult)
        for ((a, b), c), vec in assoc.items():
            if c >= b:
                if assoc.get(((b, c), a)) != vec or assoc.get(((a, c), b)) != vec:
                    failing.add((a, b, c))
            elif ((a, c) if a <= c else (c, a), b) not in assoc:
                failing.add(tuple(sorted((a, b, c))))
        del assoc
        # Leibniz, both sides keyed ((j, k), i) with j <= k; at j = k the
        # two terms of the right side coincide.  The whole tables are
        # compared first, and the failing keys are sought only on a mismatch
        lhs = compose(mult_rows, br, slot=1)            # {e_i, e_j e_k}
        rhs: dict = {}
        for ((a, b), c), vec in compose({(a, b): br[(a, b)] for a in range(n)
                                         for b in range(a + 1, n)}, mult).items():
            for i, j, sign in ((a, b, 1), (b, a, -1)):  # {e_i, e_j} e_c
                add_into(rhs.setdefault(((j, c) if j <= c else (c, j), i), {}), vec,
                         2 * sign if j == c else sign)
        if lhs != {key: vec for key, vec in rhs.items() if vec}:
            failing.update(tuple(sorted((j, k, i))) for (j, k), i in lhs.keys() | rhs.keys()
                           if lhs.get(((j, k), i), {}) != rhs.get(((j, k), i), {}))
        del lhs, rhs
        # Jacobi on triples a < b < c of slots: {{x,y},z} with x < y is
        # signed by the place of z within the triple
        jacobiator: dict = {}
        for ((a, b), c), vec in compose(
                {(a, b): br[(a, b)] for a in slots for b in slots if a < b},
                {(m, c): br[(m, c)] for m in range(n) for c in slots}).items():
            if c != a and c != b:
                add_into(jacobiator.setdefault(tuple(sorted((a, b, c))), {}), vec,
                         -1 if a < c < b else 1)
        failing.update(triple for triple, vec in jacobiator.items() if vec)
        return failing

    def _triple_problems(self, mult: dict, br: dict, i: int, j: int, k: int,
                         slots: set[int]) -> list[str]:
        """The problems of the dense loop at the ordered triple (i, j, k),
        each identity by its definition through ``bilinear``; Jacobi only
        when i, j and k are all in ``slots``."""
        e_i, e_j, e_k = {i: 1}, {j: 1}, {k: 1}
        failed = []
        if bilinear(mult, mult[(i, j)], e_k) != bilinear(mult, mult[(j, k)], e_i):
            failed.append("associativity")
        if bilinear(br, e_i, mult[(j, k)]) != add_into(bilinear(mult, br[(i, j)], e_k),
                                                      bilinear(mult, br[(i, k)], e_j)):
            failed.append("Leibniz")
        if {i, j, k} <= slots:
            jacobiator = bilinear(br, br[(i, j)], e_k)
            add_into(jacobiator, bilinear(br, br[(j, k)], e_i))
            if add_into(jacobiator, bilinear(br, br[(k, i)], e_j)):
                failed.append("Jacobi")
        return [f"{name} fails at ({i},{j},{k})" for name in failed]

    def format_key(self, key: tuple) -> str:
        sector, mono = key
        bits = []
        for i, e in enumerate(mono):
            if e == 1:
                bits.append(f"Z{i + 1}")
            elif e > 1:
                bits.append(f"Z{i + 1}^{e}")
        if any(sector):
            bits.append("X[" + ",".join(str(x) for x in sector) + "]")
        return "*".join(bits) if bits else "1"

    def format_element(self, vec: Mapping[int, Fraction]) -> str:
        """A vector over basis indices, such as a table row, with its terms
        in the order of their basis keys."""
        terms = sorted((self.basis[i], c) for i, c in vec.items() if c)
        bodies = ((self.format_key(key), c) for key, c in terms)
        return format_terms(("" if body == "1" else body, c) for body, c in bodies)


def build_pl_algebra(lattice: EvenLattice) -> PLAlgebra:
    """Construct the quotient algebra and insist on exhaustive consistency."""
    alg = PLAlgebra(lattice)
    problems = alg.verify_axioms()
    if problems:
        raise AssertionError(
            "presented algebra is inconsistent (implementation bug): "
            + "; ".join(problems[:3])
        )
    return alg


# ---------------------------------------------------------------------------
# Rank-one yardsticks
# ---------------------------------------------------------------------------

class BkAlgebra:
    """The explicit rank-one quotient: basis 1, Z..Z^{2k}, X, Y with
    X^2 = Y^2 = XZ = YZ = 0, XY = Z^{2k}/(2k)!, and bracket
    {Z,X} = 2kX, {Z,Y} = -2kY, {X,Y} = Z^{2k-1}/(2k-1)!.

    The product and the bracket are two tables keyed by pairs of basis
    keys; a missing pair is zero.  A class times a power of Z is read off
    the reversed pair: the product is equal and the bracket negated.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        z = [("Z", d) for d in range(2 * k + 1)]
        x, y = ("X", 0), ("Y", 0)
        self.basis = z + [x, y]
        top = {z[2 * k]: Fraction(1, math.factorial(2 * k))}
        self._product = {(a, b): {z[a[1] + b[1]]: 1} for a in z for b in z if a[1] + b[1] <= 2 * k}
        self._product.update({(z[0], x): {x: 1}, (z[0], y): {y: 1}, (x, y): top, (y, x): top})
        xy = Fraction(1, math.factorial(2 * k - 1))
        self._bracket = {(z[1], x): {x: 2 * k}, (z[1], y): {y: -2 * k},
                         (x, y): {z[2 * k - 1]: xy}, (y, x): {z[2 * k - 1]: -xy}}

    @property
    def dim(self) -> int:
        return 2 * self.k + 3

    def multiply_basis(self, a: tuple, b: tuple) -> dict:
        if a[0] != "Z" and b[0] == "Z":
            return self.multiply_basis(b, a)
        return dict(self._product.get((a, b), {}))

    def bracket_basis(self, a: tuple, b: tuple) -> dict:
        if a[0] != "Z" and b[0] == "Z":
            return {key: -c for key, c in self.bracket_basis(b, a).items()}
        return dict(self._bracket.get((a, b), {}))


def bk_images(alg: PLAlgebra, bk: BkAlgebra) -> dict:
    """The image of each basis key of ``bk`` under the generator
    correspondence Z -> Z_alpha, X -> X_alpha, Y -> X_{-alpha}, in the order
    of ``bk.basis``: Z^d is Z^(d-1) times Z, one multiplication per power."""
    z = alg.z_gen(0)
    images = {("Z", 0): alg.one()}
    for d in range(1, 2 * bk.k + 1):
        images[("Z", d)] = alg.multiply(images[("Z", d - 1)], z)
    images[("X", 0)] = alg.x_gen((1,))
    images[("Y", 0)] = alg.x_gen((-1,))
    return images


def bk_compare(k: int) -> dict:
    """Certify the generator correspondence between the rank-one lattice
    algebra with norm 2k and the explicit presentation above.

    The images of the basis keys are built once (``bk_images``), and an
    element of the presentation maps to the combination of the images of
    its keys with its coefficients.  Taking the normal form is linear and
    every image is a normal form, so that combination is the normal form of
    the image, with no further reduction.  Products and brackets of the
    images are taken in the lattice algebra, by ``multiply`` and
    ``bracket``, and compared with the images of the presentation's.
    """
    lattice = EvenLattice([[2 * k]])
    alg = build_pl_algebra(lattice)
    bk = BkAlgebra(k)
    report = {
        "k": k,
        "c2": alg.c2,
        "dim_lattice": alg.dim,
        "dim_reference": bk.dim,
        "problems": [],
    }
    problems = report["problems"]
    if sorted(alg.c2) != sorted([(-1,), (0,), (1,)]):
        problems.append(f"survivor set is {alg.c2}")
        return report
    if alg.dim != bk.dim:
        problems.append(f"dimension {alg.dim} differs from {bk.dim}")
        return report

    images = bk_images(alg, bk)

    def map_element(el: dict) -> dict:
        out: dict = {}
        for key, c in el.items():
            add_into(out, images[key], c)
        return out

    # the dimensions agree, so the map is bijective exactly when the images
    # are linearly independent: none may reduce to zero against the span of
    # those before it
    span = Echelon()
    for key, img in images.items():
        if not span.insert(img):
            problems.append(f"correspondence not injective at {key}")
            return report

    for a in bk.basis:
        for b in bk.basis:
            want = map_element(bk.multiply_basis(a, b))
            got = alg.multiply(images[a], images[b])
            if want != got:
                problems.append(f"product mismatch at {a} * {b}")
            want_br = map_element(bk.bracket_basis(a, b))
            got_br = alg.bracket(images[a], images[b])
            if want_br != got_br:
                problems.append(f"bracket mismatch at {{{a},{b}}}")
            if len(problems) >= 5:
                return report
    return report

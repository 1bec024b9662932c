"""Finite-dimensional Lie algebras by structure constants, invariant forms,
and ``lambda_bracket``, the package's one master formula for lambda-brackets
of differential polynomials.  Its lambda^0 part on derivative-free ``DPoly``,
whose variable (i, 0) is the i-th basis symbol, is the Poisson bracket that
a Lie algebra induces on its symmetric algebra."""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import comb

from .formal_calc import DPoly, rat
from .linalg import add_into, bilinear, clean


# ---------------------------------------------------------------------------
# Lie algebras
# ---------------------------------------------------------------------------

def _normalize_table(names, table) -> dict[tuple[int, int], dict[int, Fraction]]:
    """Index a {(i, j) or (name, name): {k or name: coeff}} table by position."""
    idx = {n: i for i, n in enumerate(names)}

    def pos(x):
        return idx[x] if isinstance(x, str) else int(x)

    return {(pos(a), pos(b)): clean((pos(k), c) for k, c in val.items())
            for (a, b), val in table.items()}


def _complete_table(names, table):
    """Fill the unstated orientation of each pair by antisymmetry.

    Pairs stated in both orientations are checked for consistency; stated
    diagonal brackets must vanish.  Returns (full table, problems).
    """
    names = tuple(names)
    t = _normalize_table(names, table)
    problems = []
    full: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j), entry in t.items():
        if i == j and entry:
            problems.append(f"nonzero self-bracket [{names[i]},{names[i]}]")
            continue
        full[(i, j)] = entry
    for (i, j), entry in list(full.items()):
        if (j, i) in t:
            excess = add_into(dict(entry), t[(j, i)])
            if excess:
                problems.append(
                    f"antisymmetry fails on ([{names[i]},{names[j]}], {names[min(excess)]})"
                )
        else:
            full[(j, i)] = {k: -c for k, c in entry.items()}
    return full, problems


def check_lie_axioms(names, table) -> list[str]:
    """Report antisymmetry and Jacobi violations of a raw bracket table.

    The table maps ordered basis pairs to coordinate dicts; a pair given in
    one orientation only is completed by antisymmetry, and missing pairs
    are zero brackets.  Violations are data, not exceptions.
    """
    names = tuple(names)
    r = len(names)
    t, problems = _complete_table(names, table)
    for i in range(r):
        for j in range(i + 1, r):
            for k in range(j + 1, r):
                acc: dict[int, Fraction] = {}
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    add_into(acc, bilinear(t, t.get((a, b), {}), {c: 1}))
                if acc:
                    problems.append(
                        f"Jacobi fails on ({names[i]},{names[j]},{names[k]})"
                    )
    return problems


class FiniteLieAlgebra:
    """Lie algebra given by structure constants on an ordered basis.

    Construction validates antisymmetry and the Jacobi identity eagerly;
    invalid data only exists as raw tables fed to check_lie_axioms.
    """

    __slots__ = ("names", "table")

    def __init__(self, names, table):
        self.names = tuple(names)
        problems = check_lie_axioms(self.names, table)
        if problems:
            raise ValueError("not a Lie algebra: " + "; ".join(problems[:3]))
        full, _ = _complete_table(self.names, table)
        self.table = {pair: entry for pair, entry in full.items() if entry}

    @property
    def dim(self) -> int:
        return len(self.names)

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        return self.table.get((i, j), {})

    def bracket_poly(self, i: int, j: int) -> DPoly:
        return DPoly({((k, 0),): c for k, c in self.bracket_basis(i, j).items()})

    def generator(self, name: str) -> DPoly:
        return DPoly.variable(self.names.index(name))


class BilinearForm:
    """Symmetric bilinear form as a matrix over a Lie algebra basis."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, require_symmetric: bool = True):
        self.matrix = tuple(tuple(rat(c) for c in row) for row in matrix)
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise ValueError("form matrix must be square")
        if require_symmetric:
            for i in range(n):
                for j in range(n):
                    if self.matrix[i][j] != self.matrix[j][i]:
                        raise ValueError("form matrix must be symmetric")

    def value(self, i: int, j: int) -> Fraction:
        return self.matrix[i][j]


def check_invariance(alg, form: BilinearForm) -> list[str]:
    """List basis triples violating (ab|c) = (a|bc).

    ``alg`` is any algebra with ``names`` and an index-keyed structure-constant
    ``table``; ab is its bracket or product.  For a symmetric form (a|bc) =
    (bc|a), so the same check is the associativity of a form on a
    commutative algebra.
    """
    names, table = alg.names, alg.table
    r = len(names)
    if len(form.matrix) != r:
        raise ValueError("form dimension does not match the algebra")
    m = form.matrix
    problems = []
    for i in range(r):
        for j in range(r):
            ij = table.get((i, j), {})
            for k in range(r):
                lhs = sum((c * m[p][k] for p, c in ij.items()), 0)
                rhs = sum((c * m[i][p] for p, c in table.get((j, k), {}).items()), 0)
                if lhs != rhs:
                    problems.append(f"invariance fails on ({names[i]},{names[j]},{names[k]})")
    return problems


def lambda_bracket(table: Mapping[tuple[int, int], Mapping[int, DPoly]],
                   f: DPoly, g: DPoly) -> dict[int, DPoly]:
    """{f_lambda g} by the master formula of Barakat, De Sole and Kac,
    "Poisson vertex algebras in the theory of Hamiltonian equations" (2009),
    summed over the variables u_i^(m) of f and u_j^(n) of g:

        (dg/du_j^(n)) (lambda + D)^n {u_i_{lambda+D} u_j}_-> (-lambda - D)^m (df/du_i^(m)).

    ``table.get((i, j))`` is {u_i_lambda u_j} as {power of lambda: DPoly} or
    None, and need not be skew; the arrow makes its lambda^p a (lambda + D)^p
    on the partial of f.  The result has the same form, with no zero stored.
    """
    terms = []
    g_parts = _partials(g)
    for (i, m), pf, cf in _partials(f):
        for (j, n), pg, cg in g_parts:
            inner = [(q, hp if x is None else hp * x, c)
                     for p, hp in (table.get((i, j)) or {}).items()
                     for q, x, c in _shift(pf, p + m, -cf * cg if m % 2 else cf * cg)]
            terms += [(q0 + q, x if pg is None else pg * x, c)
                      for q0, y, c0 in inner for q, x, c in _shift(y, n, c0)]
    return _collect(terms)


def lambda_skew(entry: Mapping[int, DPoly]) -> dict[int, DPoly]:
    """-{b_{-lambda-D} a} from {b_lambda a} = {power of lambda: DPoly}: the
    {a_lambda b} that skew symmetry asks of a table, in the same form."""
    return _collect(t for p, h in entry.items() for t in _shift(h, p, 1 if p % 2 else -1))


def _partials(p: DPoly) -> list:
    """(u_i^(m), x, c) per partial c * x of p, x None for 1: no DPoly for a linear p."""
    if max(map(len, p.coeffs), default=0) <= 1:
        return [(mono[0], None, c) for mono, c in p.coeffs.items() if mono]
    return [(v, x, 1) for v, x in p.partials().items()]


def _shift(p: DPoly | None, s: int, c=1) -> list:
    """c (lambda + D)^s p as terms (power of lambda, D^u p, c binom(s, u)); None is 1."""
    out = [(s, p, c)]
    for u in range(1, s + 1 if p is not None else 1):
        p = p.derivative()
        if not p:
            break
        out.append((s - u, p, c * comb(s, u)))
    return out


def _collect(terms: Iterable[tuple]) -> dict[int, DPoly]:
    """The sum of the terms (power of lambda, DPoly, c) as {power: DPoly}."""
    acc: dict[int, dict] = {}
    for q, x, c in terms:
        add_into(acc.setdefault(q, {}), x.coeffs, c)
    return {q: _wrap(c) for q, c in acc.items() if c}


_wrap = DPoly()._new  # a DPoly around an already clean coefficient map


def check_generators(n: int, *polys: DPoly) -> None:
    """Raise ValueError unless each poly is derivative-free in n generators:
    every variable (i, j) has j = 0 and 0 <= i < n."""
    bad = next((v for p in polys for mono in p.coeffs for v in mono
                if v[1] or not 0 <= v[0] < n), None)
    if bad is not None:
        raise ValueError(f"variable {bad} is not one of the {n} generators (i, 0)")


def sym_poisson(g: FiniteLieAlgebra, f: DPoly, h: DPoly) -> DPoly:
    """{f, h} = sum_{i,j} (df/du_i)(dh/du_j) [u_i, u_j] on the symmetric algebra."""
    check_generators(g.dim, f, h)
    return lambda_bracket({p: {0: g.bracket_poly(*p)} for p in g.table}, f, h).get(0, DPoly())


# ---------------------------------------------------------------------------
# Stock algebras
# ---------------------------------------------------------------------------

def sl2() -> FiniteLieAlgebra:
    """sl2 with [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return FiniteLieAlgebra(
        ("e", "h", "f"),
        {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
    )


def sl2_form() -> BilinearForm:
    """The invariant form with (e|f) = 1, (h|h) = 2."""
    return BilinearForm([[0, 0, 1], [0, 2, 0], [1, 0, 0]])


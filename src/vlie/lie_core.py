"""Finite-dimensional Lie algebras by structure constants, invariant forms,
and the Poisson bracket they induce on polynomial algebras.

A polynomial in the basis symbols u_i is a derivative-free ``DPoly``: its
variable (i, 0) is the i-th basis symbol, whose name the algebra keeps."""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

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


def biderivation(table: Mapping[tuple[int, int], DPoly], f: DPoly, h: DPoly) -> DPoly:
    """{f, h} = sum_{i,j} (df/du_i)(dh/du_j) table[(i, j)]: the biderivation
    extension of a bracket table on the symbols u_i of f and h."""
    out = DPoly()
    partials_h = h.partials()
    for (i, _), pf in f.partials().items():
        for (j, _), ph in partials_h.items():
            t = table.get((i, j))
            if t is not None:
                out = out + pf * ph * t
    return out


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
    return biderivation({pair: g.bracket_poly(*pair) for pair in g.table}, f, h)


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


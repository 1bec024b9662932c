"""Poisson algebras attached to vacuum modules and to vertex Poisson
differential algebras.

Two independent reductions live here, and both land in derivative-free
``DPoly`` presentations.  The first collapses a vacuum-module
state modulo the span of all modes deeper than -1, leaving a polynomial in
the surviving generators; the quotient carries the product a_{-1}b and
bracket a_0 b.  The second works over a polynomial differential algebra
(``DPoly``) with a lambda-bracket table on its generators, extends the
table to all polynomials by the master formula, ``lie_core.lambda_bracket``,
and quotients by derivative monomials, where a generator bracket is its
table entry's lambda^0 coefficient.  Its brackets
{f(x), g(y)} = sum_l h_l(y) Delta^(l) are the package's one ``DeltaSeries``
type over ``DPoly`` coefficients, whose window expansion is the generic one
of ``formal_calc``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import factorial

from .formal_calc import DeltaSeries, DPoly, format_poly, rat, rat_str
from .lie_core import check_generators, lambda_bracket, lambda_skew
from .linalg import add_into, bilinear
from .vacuum_module import State, VacuumModule, central_character
from .vertex_lie import VLStructure


# ---------------------------------------------------------------------------
# The quotient of a vacuum module by deep modes
# ---------------------------------------------------------------------------

def p2_generators(structure: VLStructure) -> tuple[str, ...]:
    """Generator names of the quotient: complement basis then frozen center."""
    return tuple(structure.u_prime_names) + tuple(structure.u0_prime_names)


def c2_reduce(module: VacuumModule, state: State) -> DPoly:
    """Drop each monomial with a mode at depth two or more, read off its first
    symbol: ``VacuumModule._id`` raises unless it is canonical, so sorted.  The
    rest become monomials in the variables (p, 0), p indexing ``p2_generators``."""
    n_up = len(module.structure.u_prime_names)
    return DPoly({tuple((idx + (n_up if cls == 0 else 0), 0) for _, cls, idx in mono): c
                  for mono, c in state.items()
                  if module._id(mono) >= 0 and (not mono or mono[0][0] >= -1)})


def p2_product(module: VacuumModule, a: State, b: State) -> DPoly:
    """Class of a_{-1} b in the quotient."""
    return c2_reduce(module, module.mode_of_state(a, -1, b))


def p2_bracket(module: VacuumModule, a: State, b: State) -> DPoly:
    """Class of a_0 b in the quotient."""
    return c2_reduce(module, module.mode_of_state(a, 0, b))


class PoissonPresentation:
    """Finitely presented Poisson algebra: free polynomial product, a bracket
    table on generators extended as a biderivation, and optional ideal
    generators (used for central-character quotients).  Polynomials are
    derivative-free ``DPoly``, the variable (i, 0) standing for the i-th
    generator.  Each ideal member must be c*gen + const with c != 0; it fixes
    that generator's value, and two members may not fix one generator to
    different values."""

    def __init__(
        self,
        generators: Sequence[str],
        bracket: Mapping[tuple[str, str], DPoly] | None = None,
        ideal: Iterable[DPoly] = (),
        notes: tuple[str, ...] = (),
    ):
        self.generators = tuple(generators)
        table: dict[tuple[int, int], DPoly] = {}
        for (a, b), val in (bracket or {}).items():
            key = (self.generators.index(a), self.generators.index(b))
            if not val.is_zero():
                table[key] = val
        # antisymmetry on generators is part of the contract
        for (ia, ib), val in list(table.items()):
            other = table.get((ib, ia), DPoly())
            if not (val + other).is_zero():
                if (ib, ia) in table:
                    raise ValueError(
                        f"bracket table not antisymmetric on "
                        f"({self.generators[ia]},{self.generators[ib]})"
                    )
                table[(ib, ia)] = -val
        self.table = table
        self._lambda = {key: {0: val} for key, val in table.items()}
        self.ideal = tuple(p for p in ideal if not p.is_zero())
        check_generators(len(self.generators), *table.values(), *self.ideal)
        self._values: dict[tuple[int, int], Fraction] = {}
        for q in self.ideal:
            lin = [(m, c) for m, c in q.coeffs.items() if len(m) == 1]
            if len(lin) != 1 or any(len(m) > 1 for m in q.coeffs):
                raise ValueError(f"ideal member {self.text(q)} is not c*gen + const with c != 0")
            ((v,), c), = lin
            value = rat(Fraction(-q.coeffs.get((), 0), c))
            if self._values.get(v, value) != value:
                raise ValueError(
                    f"ideal members fix {self.generators[v[0]]} to both "
                    f"{rat_str(self._values[v])} and {rat_str(value)}"
                )
            self._values[v] = value
        self.notes = tuple(notes)

    def text(self, p: DPoly) -> str:
        check_generators(len(self.generators), p)
        return format_poly(p, self.generators)

    def generator(self, name: str) -> DPoly:
        return DPoly.variable(self.generators.index(name))

    def bracket_gens(self, ia: int, ib: int) -> DPoly:
        return self.table.get((ia, ib), DPoly())

    def bracket_poly(self, f: DPoly, g: DPoly) -> DPoly:
        """Biderivation extension of the generator table: the engine at lambda^0."""
        check_generators(len(self.generators), f, g)
        return lambda_bracket(self._lambda, f, g).get(0, DPoly())

    def reduce_mod_ideal(self, p: DPoly) -> DPoly:
        """Substitute the generator values fixed by the ideal members."""
        return p.substitute(self._values) if self._values else p

    def poisson_ideal_problems(self) -> list[str]:
        """Check the ideal is closed under bracketing with the generators."""
        problems = []
        for q in self.ideal:
            for name in self.generators:
                br = self.bracket_poly(q, self.generator(name))
                if not self.reduce_mod_ideal(br).is_zero():
                    problems.append(f"ideal not Poisson-closed at ({self.text(q)}, {name})")
        return problems

    def __repr__(self):
        lines = [f"generators: {', '.join(self.generators)}"]
        for (ia, ib), val in sorted(self.table.items()):
            if ia < ib:
                lines.append(
                    f"{{{self.generators[ia]},{self.generators[ib]}}} = {self.text(val)}"
                )
        if not self.table:
            lines.append("bracket: zero")
        for q in self.ideal:
            lines.append(f"ideal: {self.text(q)}")
        lines.extend(self.notes)
        return "\n".join(lines)


def p2_structure(structure: VLStructure, lam: Mapping[str, object] | None = None) -> PoissonPresentation:
    """The presentation of the vacuum-module quotient.

    Generators are the surviving mode--1 classes; the bracket of two
    generators keeps exactly the (k, l) = (0, 0) table terms, projected to
    the generator span (d-image components die at depth two).  A central
    character contributes linear ideal generators  u - lam(u).
    """
    names = p2_generators(structure)
    # the underived lambda^0 terms, (k, l) = (0, 0), as structure constants
    loop_terms = {pair: {i: c for ((i, k),), c in entry[0].coeffs.items() if not k}
                  for pair, entry in structure._table.items() if 0 in entry}

    def project(vec) -> DPoly:
        z_part, _, up_part = structure.decompose_vector(vec)
        return DPoly({((p, 0),): c for p, c in enumerate(up_part + z_part)})

    gen_vectors = list(structure.u_prime_vectors) + list(structure.u0_prime_vectors)
    bracket = {}
    for p, vp in enumerate(gen_vectors):
        for q, vq in enumerate(gen_vectors):
            vec = bilinear(loop_terms, vp, vq)
            if vec:
                bracket[(names[p], names[q])] = project(vec)
    ideal = []
    notes = []
    if lam is not None:
        lam = central_character(structure, lam)
        for name in structure.u0_prime_names:
            ideal.append(DPoly.variable(names.index(name)) - DPoly.constant(lam[name]))
        hr = structure.meta.get("highest_root")
        if hr is not None:
            level = lam.get("c")
            if level is not None and level.denominator == 1 and level > 0:
                notes.append(
                    f"simple quotient at level {level}: additional Poisson ideal "
                    f"generated by {hr}^{int(level) + 1} (stated, not computed)"
                )
    return PoissonPresentation(names, bracket, ideal, tuple(notes))


def verify_p2_iso(
    structure: VLStructure,
    lam: Mapping[str, object] | None,
    samples: int = 20,
    max_degree: int = 3,
    seed: int = 0,
    presentation: PoissonPresentation | None = None,
) -> list[str]:
    """Compare the vacuum-module product/bracket with the presentation.

    Checks all generator pairs, then random pairs of states of degree up to
    ``max_degree``; the polynomial side substitutes the central character
    before comparing.  ``presentation`` overrides the derived one (used by
    negative controls).
    """
    import random

    rng = random.Random(seed)
    module = VacuumModule(structure, lam)
    pres = presentation if presentation is not None else p2_structure(structure, lam)

    reduce = pres.reduce_mod_ideal
    names = p2_generators(structure)
    problems = []

    def compare(a: State, b: State, label: str):
        prod_mod = p2_product(module, a, b)
        prod_pol = reduce(c2_reduce(module, a) * c2_reduce(module, b))
        if reduce(prod_mod) != prod_pol:
            problems.append(f"product mismatch on {label}: "
                            f"{format_poly(prod_mod, names)} vs {format_poly(prod_pol, names)}")
        br_mod = p2_bracket(module, a, b)
        br_pol = reduce(
            pres.bracket_poly(c2_reduce(module, a), c2_reduce(module, b))
        )
        if reduce(br_mod) != br_pol:
            problems.append(f"bracket mismatch on {label}: "
                            f"{format_poly(br_mod, names)} vs {format_poly(br_pol, names)}")

    for na in structure.u_prime_names:
        for nb in structure.u_prime_names:
            compare(module.generator_state(na), module.generator_state(nb), f"({na},{nb})")

    pool = module.basis_states_upto(max_degree)
    for t in range(samples):
        a = {}
        b = {}
        for _ in range(rng.randint(1, 2)):
            add_into(a, rng.choice(pool), rng.randint(-3, 3))
        for _ in range(rng.randint(1, 2)):
            add_into(b, rng.choice(pool), rng.randint(-3, 3))
        compare(a, b, f"sample {t}")
        if len(problems) >= 10:
            break
    return problems


# ---------------------------------------------------------------------------
# Differential polynomial algebras with a lambda-bracket table
# ---------------------------------------------------------------------------

class VPDiffAlgebra:
    """Polynomial differential algebra with a generator bracket table.

    ``table[(i, j)]`` holds {u_i lambda u_j} as {power of lambda: DPoly}, the
    form ``lie_core.lambda_bracket`` reads: h (-lambda)^l is the term
    h(y) Delta^(l) of {u_i(x), u_j(y)}.  Missing pairs are zero; zero
    coefficients and entries are dropped; a generator index out of range
    raises ``ValueError``.
    """

    def __init__(self, names: Sequence[str], table: Mapping[tuple, Mapping[int, DPoly]]):
        self.names = tuple(names)

        def pos(x):
            i = self.names.index(x) if isinstance(x, str) else int(x)
            if not 0 <= i < len(self.names):
                raise ValueError(f"generator index {x!r} is out of range")
            return i

        entries = {(pos(a), pos(b)): {p: h for p, h in sorted(entry.items()) if h}
                   for (a, b), entry in table.items()}
        self.table = {key: entry for key, entry in entries.items() if entry}

    def generator(self, name: str) -> DPoly:
        return DPoly.variable(self.names.index(name))

    def vp_bracket(self, f: DPoly, g: DPoly) -> DeltaSeries:
        """{f(x), g(y)} by ``lie_core.lambda_bracket``, a ``DeltaSeries`` over ``DPoly``
        written in y; h_l Delta^(l) is (-lambda)^l h_l."""
        return DeltaSeries([(l, -h if l % 2 else h)
                            for l, h in lambda_bracket(self.table, f, g).items()])

    def mode_products(self, f: DPoly, g: DPoly) -> dict[int, DPoly]:
        """The family f_i g with {f(x),g(y)} = sum (1/i!)(f_i g)(y)Delta^(i)."""
        return {i: h.scale(factorial(i)) for i, h in self.vp_bracket(f, g).items()}

    def check_table_skew(self) -> list[str]:
        """The finite identity {u_i lambda u_j} = -{u_j_{-lambda-D} u_i} on every
        ordered pair, exactly: ``lie_core.lambda_skew``."""
        r, get = range(len(self.names)), self.table.get
        return [f"skew fails for ({self.names[i]},{self.names[j]})" for i in r for j in r
                if get((i, j), {}) != lambda_skew(get((j, i), {}))]


def ultra_poisson_of_lie(g) -> VPDiffAlgebra:
    """Ultra bracket of the symmetric-algebra Poisson structure of a Lie algebra:
    {u_i lambda u_j} = [u_i,u_j], that is {u_i(x), u_j(y)} = [u_i,u_j](y) Delta."""
    return VPDiffAlgebra(g.names, {pair: {0: g.bracket_poly(*pair)} for pair in g.table})


def constant_order_table(names: Sequence[str], matrix) -> VPDiffAlgebra:
    """{u_i lambda u_j} = -m_ij lambda, that is {u_i(x), u_j(y)} = m_ij Delta^(1);
    the oscillator-type tables."""
    return VPDiffAlgebra(names, {
        (a, b): {1: DPoly.constant(-rat(matrix[i][j]))}
        for i, a in enumerate(names) for j, b in enumerate(names)
    })


def pvpa_quotient(algebra: VPDiffAlgebra) -> PoissonPresentation:
    """Poisson structure on the quotient by derivative monomials.

    The normal form drops every monomial containing a derivative variable.
    The master formula gives {u_i lambda u_j} as the table entry itself, so
    the bracket of generator classes is the entry's lambda^0 coefficient,
    reduced.  Pairs go in sorted order, as the antisymmetry check of
    ``PoissonPresentation`` reports the first pair it meets.
    """
    names = algebra.names
    return PoissonPresentation(names, {(names[i], names[j]): entry[0].drop_derivatives()
                                       for (i, j), entry in sorted(algebra.table.items())
                                       if 0 in entry})

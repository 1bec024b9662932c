"""Poisson algebras attached to vacuum modules and to vertex Poisson
differential algebras.

Two independent reductions live here.  The first collapses a vacuum-module
state modulo the span of all modes deeper than -1, leaving a polynomial in
the surviving generators; the quotient carries the product a_{-1}b and
bracket a_0 b.  The second works over a polynomial differential algebra
with a delta-series bracket table on its generators, extends the table by
the Leibniz rule and skew transfer, and quotients by derivative monomials.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from .formal_calc import Poly, delta_transport, format_terms, rat, rat_str
from .lie_core import SymPoly, biderivation
from .linalg import add_into, clean
from .vacuum_module import State, VacuumModule
from .vertex_lie import VLStructure


# ---------------------------------------------------------------------------
# The quotient of a vacuum module by deep modes
# ---------------------------------------------------------------------------

def p2_generators(structure: VLStructure) -> tuple[str, ...]:
    """Generator names of the quotient: complement basis then frozen center."""
    return tuple(structure.u_prime_names) + tuple(structure.u0_prime_names)


def c2_reduce(module: VacuumModule, state: State) -> SymPoly:
    """Drop every monomial containing a mode at depth two or more; surviving
    monomials (all symbols at mode -1) become polynomial monomials."""
    st = module.structure
    names = p2_generators(st)
    n_up = len(st.u_prime_names)
    coeffs = {}
    for mono, c in state.items():
        if any(n <= -2 for (n, _, _) in mono):
            continue
        exps = [0] * len(names)
        for (n, cls, idx) in mono:
            exps[idx + (n_up if cls == 0 else 0)] += 1
        coeffs[tuple(exps)] = c
    return SymPoly(names, coeffs)


def p2_product(module: VacuumModule, a: State, b: State) -> SymPoly:
    """Class of a_{-1} b in the quotient."""
    return c2_reduce(module, module.mode_of_state(a, -1, b))


def p2_bracket(module: VacuumModule, a: State, b: State) -> SymPoly:
    """Class of a_0 b in the quotient."""
    return c2_reduce(module, module.mode_of_state(a, 0, b))


class PoissonPresentation:
    """Finitely presented Poisson algebra: free polynomial product, a bracket
    table on generators extended as a biderivation, and optional ideal
    generators (used for central-character quotients).  Each ideal member
    must be c*gen + const with c != 0; it fixes that generator's value, and
    two members may not fix one generator to different values."""

    def __init__(
        self,
        generators: Sequence[str],
        bracket: Mapping[tuple[str, str], SymPoly] | None = None,
        ideal: Iterable[SymPoly] = (),
        notes: tuple[str, ...] = (),
    ):
        self.generators = tuple(generators)
        table: dict[tuple[int, int], SymPoly] = {}
        zero = SymPoly.zero(self.generators)
        for (a, b), val in (bracket or {}).items():
            ia, ib = self.generators.index(a), self.generators.index(b)
            if val.vars != self.generators:
                raise ValueError("bracket values must live on the generator symbols")
            if not val.is_zero():
                table[(ia, ib)] = val
        # antisymmetry on generators is part of the contract
        for (ia, ib), val in list(table.items()):
            other = table.get((ib, ia), zero)
            if not (val + other).is_zero():
                if (ib, ia) in table:
                    raise ValueError(
                        f"bracket table not antisymmetric on "
                        f"({self.generators[ia]},{self.generators[ib]})"
                    )
                table[(ib, ia)] = -val
        self.table = table
        self.ideal = tuple(p for p in ideal if not p.is_zero())
        self._values: dict[str, Fraction] = {}
        for q in self.ideal:
            lin = [(e, c) for e, c in q.coeffs.items() if sum(e) == 1]
            if len(lin) != 1 or any(sum(e) > 1 for e in q.coeffs):
                raise ValueError(f"ideal member {q!r} is not c*gen + const with c != 0")
            (e, c), = lin
            const = q.coeffs.get((0,) * len(self.generators), 0)
            gen, value = self.generators[e.index(1)], rat(Fraction(-const, c))
            if self._values.get(gen, value) != value:
                raise ValueError(
                    f"ideal members fix {gen} to both {rat_str(self._values[gen])} "
                    f"and {rat_str(value)}"
                )
            self._values[gen] = value
        self.notes = tuple(notes)

    def zero(self) -> SymPoly:
        return SymPoly.zero(self.generators)

    def generator(self, name: str) -> SymPoly:
        return SymPoly.generator(self.generators, name)

    def bracket_gens(self, ia: int, ib: int) -> SymPoly:
        return self.table.get((ia, ib), self.zero())

    def bracket_poly(self, f: SymPoly, g: SymPoly) -> SymPoly:
        """Biderivation extension of the generator table."""
        return biderivation(self.table, f, g)

    def reduce_mod_ideal(self, p: SymPoly) -> SymPoly:
        """Substitute the generator values fixed by the ideal members."""
        return p.substitute(self._values) if self._values else p

    def poisson_ideal_problems(self) -> list[str]:
        """Check the ideal is closed under bracketing with the generators."""
        problems = []
        for q in self.ideal:
            for name in self.generators:
                br = self.bracket_poly(q, self.generator(name))
                if not self.reduce_mod_ideal(br).is_zero():
                    problems.append(f"ideal not Poisson-closed at ({q!r}, {name})")
        return problems

    def __repr__(self):
        lines = [f"generators: {', '.join(self.generators)}"]
        for (ia, ib), val in sorted(self.table.items()):
            if ia < ib:
                lines.append(
                    f"{{{self.generators[ia]},{self.generators[ib]}}} = {val!r}"
                )
        if not self.table:
            lines.append("bracket: zero")
        for q in self.ideal:
            lines.append(f"ideal: {q!r}")
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
    zero = SymPoly.zero(names)

    def project(vec) -> SymPoly:
        z_part, _, up_part = structure.decompose_vector(vec)
        out = zero
        n_up = len(structure.u_prime_names)
        for j, c in enumerate(z_part):
            if c:
                out = out + SymPoly.generator(names, names[n_up + j], c)
        for i, c in enumerate(up_part):
            if c:
                out = out + SymPoly.generator(names, names[i], c)
        return out

    gen_vectors = list(structure.u_prime_vectors) + list(structure.u0_prime_vectors)
    bracket = {}
    for p, vp in enumerate(gen_vectors):
        for q, vq in enumerate(gen_vectors):
            acc = zero
            for ia, ca in vp.items():
                for ib, cb in vq.items():
                    for fv, k, l in structure.table_terms(ia, ib):
                        if k == 0 and l == 0:
                            acc = acc + project(fv).scale(ca * cb)
            if not acc.is_zero():
                bracket[(names[p], names[q])] = acc
    ideal = []
    notes = []
    if lam is not None:
        lam = {str(k): rat(v) for k, v in lam.items()}
        for name in structure.u0_prime_names:
            ideal.append(
                SymPoly.generator(names, name) - SymPoly.constant(names, lam[name])
            )
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

    def reduce(p: SymPoly) -> SymPoly:
        return pres.reduce_mod_ideal(p)

    problems = []

    def compare(a: State, b: State, label: str):
        prod_mod = p2_product(module, a, b)
        prod_pol = reduce(c2_reduce(module, a) * c2_reduce(module, b))
        if reduce(prod_mod) != prod_pol:
            problems.append(f"product mismatch on {label}: {prod_mod!r} vs {prod_pol!r}")
        br_mod = p2_bracket(module, a, b)
        br_pol = reduce(
            pres.bracket_poly(c2_reduce(module, a), c2_reduce(module, b))
        )
        if reduce(br_mod) != br_pol:
            problems.append(f"bracket mismatch on {label}: {br_mod!r} vs {br_pol!r}")

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
# Differential polynomial algebras with a delta-series bracket
# ---------------------------------------------------------------------------

class DPoly(Poly):
    """Polynomial in variables u_i^{(j)} (base symbol i, derivative order j).

    Monomials are sorted tuples of (i, j) pairs with multiplicity; the
    derivation D sends u_i^{(j)} to u_i^{(j+1)}.
    """

    __slots__ = ()

    def __init__(self, coeffs: Mapping[tuple, object] | None = None):
        super().__init__((), coeffs)

    def _monomial(self, mono) -> tuple:
        return tuple(sorted((int(i), int(j)) for i, j in mono))

    @staticmethod
    def _mono_mul(m1: tuple, m2: tuple) -> tuple:
        return tuple(sorted(m1 + m2))

    @classmethod
    def zero(cls) -> "DPoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "DPoly":
        return cls({(): c})

    @classmethod
    def variable(cls, i: int, j: int = 0, c=1) -> "DPoly":
        return cls({((i, j),): c})

    def terms(self):
        """Shorter monomials first, then lexicographic."""
        return sorted(self.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def derive(self) -> "DPoly":
        """Apply D once (Leibniz over each monomial factor)."""
        return self._new(clean(
            (tuple(sorted(mono[:t] + ((i, j + 1),) + mono[t + 1:])), c)
            for mono, c in self.coeffs.items() for t, (i, j) in enumerate(mono)
        ))

    def derive_times(self, k: int) -> "DPoly":
        cur = self
        for _ in range(k):
            cur = cur.derive()
        return cur

    def drop_derivatives(self) -> "DPoly":
        """Kill every monomial containing a derivative variable."""
        return self._new({m: c for m, c in self.coeffs.items()
                          if all(j == 0 for _, j in m)})

    def format(self, names: Sequence[str]) -> str:
        return format_terms(
            ("*".join(names[i] if j == 0 else f"{names[i]}^({j})" for i, j in mono), c)
            for mono, c in self.terms()
        )

    def __repr__(self):
        return f"DPoly({self.coeffs!r})"


VPSeries = dict[int, DPoly]  # delta order -> coefficient, written in y


def vps_add(a: VPSeries, b: VPSeries, scale=1) -> VPSeries:
    return add_into(dict(a), {k: p.scale(scale) for k, p in b.items()})


def vps_compose(series: VPSeries, p: DPoly) -> VPSeries:
    """Multiply every coefficient by p (the module action of the algebra)."""
    out = {}
    for k, q in series.items():
        r = q * p
        if not r.is_zero():
            out[k] = r
    return out


def vps_dy(series: VPSeries) -> VPSeries:
    """d/dy:  h(y)Delta^(k)  ->  (Dh)(y)Delta^(k) - h(y)Delta^(k+1)."""
    out: VPSeries = {}
    for k, h in series.items():
        out = vps_add(out, {k: h.derive()})
        out = vps_add(out, {k + 1: h}, -1)
    return out


def vps_dx(series: VPSeries) -> VPSeries:
    """d/dx just raises every delta order by one."""
    return {k + 1: h for k, h in series.items()}


def vps_skew_transfer(series: VPSeries) -> VPSeries:
    """Given S(x,y) with coefficients in y, return -S(y,x) back in y-form.

    Swapping the variables turns Delta^(k) into (-1)^k Delta^(k) and leaves
    the coefficients in x; transporting a coefficient h(x) through
    Delta^(k) gives sum_j (-1)^{k+j} binom(k,j) (D^{k-j}h)(y) Delta^(j).
    """
    out: VPSeries = {}
    for k, h in series.items():
        sign_k = -1 if k % 2 else 1
        for j, c in delta_transport(k, to_y=True):
            out = vps_add(out, {j: h.derive_times(k - j)}, -c * sign_k)
    return out


class VPDiffAlgebra:
    """Polynomial differential algebra with a generator bracket table.

    ``table[(i, j)]`` holds {u_i(x), u_j(y)} as a VPSeries in y-form; the
    table must cover every ordered pair of base symbols (missing pairs are
    zero).
    """

    def __init__(self, names: Sequence[str], table: Mapping[tuple, VPSeries]):
        self.names = tuple(names)
        idx = {n: i for i, n in enumerate(self.names)}

        def pos(x):
            return idx[x] if isinstance(x, str) else int(x)

        self.table: dict[tuple[int, int], VPSeries] = {}
        for (a, b), series in table.items():
            cleaned = {int(k): p for k, p in series.items() if not p.is_zero()}
            if any(k < 0 for k in cleaned):
                raise ValueError("delta orders are nonnegative")
            if cleaned:
                self.table[(pos(a), pos(b))] = cleaned

    def generator(self, name: str) -> DPoly:
        return DPoly.variable(self.names.index(name))

    def base_bracket(self, i: int, j: int) -> VPSeries:
        return self.table.get((i, j), {})

    # -- bracket extension ---------------------------------------------------

    def bracket_var_var(self, vi: tuple[int, int], vj: tuple[int, int]) -> VPSeries:
        """{u_i^{(s)}(x), u_j^{(t)}(y)} from the base table by derivatives."""
        (i, s), (j, t) = vi, vj
        series = self.base_bracket(i, j)
        for _ in range(s):
            series = vps_dx(series)
        for _ in range(t):
            series = vps_dy(series)
        return series

    def bracket_var_poly(self, v: tuple[int, int], g: DPoly) -> VPSeries:
        """Leibniz expansion over the factors of every monomial of g."""
        out: VPSeries = {}
        for mono, c in g.coeffs.items():
            for t in range(len(mono)):
                rest = DPoly({mono[:t] + mono[t + 1:]: c})
                base = self.bracket_var_var(v, mono[t])
                if base:
                    out = vps_add(out, vps_compose(base, rest))
        return out

    def bracket_mono_var(self, mono: tuple, v: tuple[int, int]) -> VPSeries:
        """{M(x), v(y)} for a monomial M: composite heads go through the
        skew transfer of {v(x), M(y)}, whose first slot is a single variable."""
        if len(mono) == 1:
            return self.bracket_var_var(mono[0], v)
        inner = self.bracket_var_poly(v, DPoly({mono: 1}))
        return vps_skew_transfer(inner)

    def vp_bracket(self, f: DPoly, g: DPoly) -> VPSeries:
        """{f(x), g(y)}: Leibniz-expand the second slot first, then reduce
        composite first slots by the skew transfer."""
        out: VPSeries = {}
        for mono_f, cf in f.coeffs.items():
            if len(mono_f) == 0:
                continue  # constants bracket to zero
            for mono_g, cg in g.coeffs.items():
                if len(mono_g) == 0:
                    continue
                for t in range(len(mono_g)):
                    rest = DPoly({mono_g[:t] + mono_g[t + 1:]: 1})
                    base = self.bracket_mono_var(mono_f, mono_g[t])
                    if base:
                        out = vps_add(out, vps_compose(base, rest), cf * cg)
        return out

    def mode_products(self, f: DPoly, g: DPoly) -> dict[int, DPoly]:
        """The family f_i g with {f(x),g(y)} = sum (1/i!)(f_i g)(y)Delta^(i)."""
        series = self.vp_bracket(f, g)
        out = {}
        fact = 1
        for i in range(max(series, default=-1) + 1):
            if i:
                fact *= i
            h = series.get(i)
            if h is not None and not h.is_zero():
                out[i] = h.scale(fact)
        return out

    # -- window oracle ---------------------------------------------------------

    def mode_window(self, series: VPSeries, radius: int, side: str = "y") -> dict:
        """Exact windowed expansion with abstract mode coefficients.

        Entry (a, b) is a map from (monomial, mode index) to rationals:
        the coefficient of x^a y^b is a combination of modes h(p) of the
        polynomial coefficients, expanded straight from the defining series
        (independently of swap/transfer formulas).
        """
        window: dict[tuple[int, int], dict] = {}
        for a in range(-radius, radius + 1):
            for b in range(-radius, radius + 1):
                cell: dict = {}
                for k, h in series.items():
                    if side == "y":
                        w = 1
                        for t in range(k):
                            w *= (a + k) - t
                    else:
                        w = 1
                        for t in range(k):
                            w *= (-b - 1) - t
                    if not w:
                        continue
                    p = -a - b - k - 2
                    # the unit of the algebra is killed by D, so its field
                    # is frozen at mode -1
                    add_into(cell, {(mono, p): c for mono, c in h.coeffs.items()
                                    if mono or p == -1}, w)
                if cell:
                    window[(a, b)] = cell
        return window

    def check_table_skew(self, radius: int | None = None) -> list[str]:
        """Compare {u_i(x),u_j(y)} with -{u_j(x),u_i(y)}|_{x<->y} on a window.

        Both sides are expanded by the raw series definition (y-form for the
        first, x-form for the flipped second), so the comparison does not
        reuse the transfer formula it is meant to audit.
        """
        problems = []
        for i in range(len(self.names)):
            for j in range(len(self.names)):
                s_ij = self.base_bracket(i, j)
                s_ji = self.base_bracket(j, i)
                k_max = max(list(s_ij) + list(s_ji) + [0])
                r = radius if radius is not None else k_max + 3
                lhs = self.mode_window(s_ij, r, side="y")
                # -S_ji(y, x): delta orders pick up (-1)^k, coefficients sit in x
                flipped = {k: h.scale(-1 if k % 2 == 0 else 1) for k, h in s_ji.items()}
                rhs = self.mode_window(flipped, r, side="x")
                if lhs != rhs:
                    problems.append(
                        f"skew fails for ({self.names[i]},{self.names[j]})"
                    )
        return problems


def ultra_poisson(names: Sequence[str], sym_bracket: Mapping[tuple, Mapping[str, object]]) -> VPDiffAlgebra:
    """Loop-space bracket of a Poisson algebra: {u_i(x), u_j(y)} = {u_i,u_j}(y) Delta.

    ``sym_bracket[(a, b)]`` gives {u_a, u_b} as a coordinate map over the
    base symbols.
    """
    names = tuple(names)
    idx = {n: i for i, n in enumerate(names)}
    table = {}
    for (a, b), coords in sym_bracket.items():
        p = DPoly()
        for n, c in coords.items():
            p = p + DPoly.variable(idx[n], 0, c)
        if not p.is_zero():
            table[(a, b)] = {0: p}
    return VPDiffAlgebra(names, table)


def ultra_poisson_of_lie(g) -> VPDiffAlgebra:
    """Ultra bracket of the symmetric-algebra Poisson structure of a Lie algebra."""
    table = {}
    for i, a in enumerate(g.names):
        for j, b in enumerate(g.names):
            bk = g.bracket_basis(i, j)
            if bk:
                table[(a, b)] = {g.names[k]: c for k, c in bk.items()}
    return ultra_poisson(g.names, table)


def constant_order_table(names: Sequence[str], matrix, order: int = 1) -> VPDiffAlgebra:
    """{u_i(x), u_j(y)} = m_ij Delta^(order); the oscillator-type tables."""
    names = tuple(names)
    table = {}
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            v = rat(matrix[i][j])
            if v:
                table[(a, b)] = {order: DPoly.constant(v)}
    return VPDiffAlgebra(names, table)


def pvpa_quotient(algebra: VPDiffAlgebra) -> PoissonPresentation:
    """Poisson structure on the quotient by derivative monomials.

    The normal form drops every monomial containing a derivative variable;
    the bracket of generator classes is the order-0 mode product, reduced.
    """
    names = algebra.names
    bracket = {}
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            prods = algebra.mode_products(algebra.generator(a), algebra.generator(b))
            h = prods.get(0)
            if h is None:
                continue
            flat = h.drop_derivatives()
            if flat.is_zero():
                continue
            poly = SymPoly.zero(names)
            for mono, c in flat.coeffs.items():
                exps = [0] * len(names)
                for (bi, _) in mono:
                    exps[bi] += 1
                poly = poly + SymPoly(names, {tuple(exps): c})
            bracket[(a, b)] = poly
    return PoissonPresentation(names, bracket)

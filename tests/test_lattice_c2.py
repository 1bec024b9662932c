import bisect
import contextlib
import copy
import itertools
import math
import random
import signal
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from vlie import lattice_c2
from vlie.lattice_c2 import (
    BkAlgebra,
    Cocycle,
    EvenLattice,
    PLAlgebra,
    PowerIdealReducer,
    bk_compare,
    bk_images,
    build_cocycle,
    build_pl_algebra,
    detect_indefinite,
    enumerate_c2,
    negative_norm_witness,
    power_of_linear,
)
from vlie.linalg import Echelon, add_into, bilinear, clean, det, inverse_rows

A2 = [[2, -1], [-1, 2]]
PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@st.composite
def even_grams(draw, max_rank, diagonal, off_diagonal):
    """A symmetric Gram of rank 1..max_rank, its diagonal drawn from
    ``diagonal`` and the entries off it from -off_diagonal..off_diagonal."""
    r = draw(st.integers(1, max_rank))
    gram = [[0] * r for _ in range(r)]
    for i in range(r):
        gram[i][i] = draw(st.sampled_from(diagonal))
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(st.integers(-off_diagonal, off_diagonal))
    return gram


def leading_minors_positive(gram) -> bool:
    """Sylvester's criterion on determinants, apart from the LDL^T."""
    return all(det([row[:k] for row in gram[:k]]) > 0 for k in range(1, len(gram) + 1))


def relation_consistency_problems(alg: PLAlgebra) -> list[str]:
    """Commutativity of the class product against the two reduction routes:
    eps(a,b) Z_a^m X_{a+b} must equal eps(b,a) Z_b^m X_{a+b} with
    m = -<a,b>, using that the target class is killed by its own line."""
    if alg.zero_algebra:
        return []
    problems = []
    lat = alg.lattice
    for alpha in alg.nonzero_c2:
        for beta in alg.nonzero_c2:
            target = tuple(x + y for x, y in zip(alpha, beta))
            if not any(target) or target not in alg.sectors:
                continue
            m = -lat.pair(alpha, beta)
            if m < 0:
                continue
            pa = power_of_linear(lat.rank, alpha, m)
            pb = power_of_linear(lat.rank, beta, m)
            ea = alg.eps.value(alpha, beta)
            eb = alg.eps.value(beta, alpha)
            lhs = alg.reduce({(target, mono): c * ea for mono, c in pa.items()})
            rhs = alg.reduce({(target, mono): c * eb for mono, c in pb.items()})
            if lhs != rhs:
                problems.append(f"relation consistency fails at {alpha}, {beta}")
    return problems


class TestEvenLattice:
    def test_rejects_odd_diagonal(self):
        with pytest.raises(ValueError):
            EvenLattice([[1]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            EvenLattice([[2, 1], [0, 2]])

    @pytest.mark.parametrize("gram", [[[2, True], [True, 2]], [[True]], [[2, 0], [0, False]],
                                      [[Fraction(5, 2)]], [[2.9]], [["4"]]], ids=str)
    def test_rejects_non_integers(self, gram):
        # int(x) would read these as [[2]], [[2]] and [[4]]
        with pytest.raises(ValueError, match="is not an integer"):
            EvenLattice(gram)

    def test_positive_definite(self):
        assert EvenLattice([[2]]).is_positive_definite()
        assert EvenLattice(A2).is_positive_definite()
        assert not EvenLattice([[-2]]).is_positive_definite()
        assert not EvenLattice([[0, 1], [1, 0]]).is_positive_definite()

    def test_ldl_stops_at_the_first_pivot_that_is_not_positive(self):
        # the pivots 2, 0 of a rank-3 Gram: D has two entries
        assert EvenLattice([[2, 2, 0], [2, 2, 1], [0, 1, 2]]).ldl()[0] == [2, 0]
        # a zero first pivot, yet not degenerate: is_degenerate reads det
        lat = EvenLattice([[0, 1], [1, 0]])
        assert lat.ldl()[0] == [0]
        assert not lat.is_degenerate()
        assert EvenLattice([[2, 2], [2, 2]]).is_degenerate()

    def test_short_vectors(self):
        lat = EvenLattice(A2)
        roots = [v for norm, v in lat.short_vectors(2) if norm == 2]
        assert len(roots) == 6


class TestC2Set:
    def test_rank_one(self):
        for k in (1, 2, 3):
            c2 = enumerate_c2(EvenLattice([[2 * k]]))
            assert c2 == [(-1,), (0,), (1,)]

    def test_a2_has_seven(self):
        lat = EvenLattice(A2)
        c2 = enumerate_c2(lat)
        assert len(c2) == 7
        assert (0, 0) in c2
        for v in c2:
            if any(v):
                assert lat.norm(v) == 2

    def test_symmetry_and_span(self):
        for gram in ([[2]], [[4]], A2, [[2, 0], [0, 4]]):
            lat = EvenLattice(gram)
            c2 = enumerate_c2(lat)
            assert (0,) * lat.rank in c2
            for v in c2:
                assert tuple(-x for x in v) in c2
            # spans over the integers: the coordinate unit vectors must be
            # reachable; for these small lattices the survivors include a
            # basis directly
            span = set()
            for v in c2:
                span.add(v)
            for i in range(lat.rank):
                unit = tuple(1 if t == i else 0 for t in range(lat.rank))
                combos = {tuple(sum(x) for x in zip(a, b)) for a in span for b in span} | span
                assert unit in combos

    def test_no_doubled_vectors(self):
        for gram in ([[2]], A2):
            lat = EvenLattice(gram)
            c2 = enumerate_c2(lat)
            for v in c2:
                if any(v):
                    assert tuple(2 * x for x in v) not in c2

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            enumerate_c2(EvenLattice([[-2]]))


class TestCocycle:
    def test_rank_one_values(self):
        lat = EvenLattice([[2]])
        eps = build_cocycle(lat, enumerate_c2(lat))
        assert eps.value((1,), (1,)) == 1
        assert eps.value((1,), (-1,)) * eps.value((-1,), (1,)) == 1

    def test_zero_argument(self):
        c2 = enumerate_c2(EvenLattice(A2))
        eps = build_cocycle(EvenLattice(A2), c2)
        for b in c2:
            assert eps.value((0, 0), b) == 1

    def test_a2_commutator_identity(self):
        lat = EvenLattice(A2)
        eps = Cocycle(lat)
        assert eps.commutator_identity_problems(enumerate_c2(lat)) == []


class TestPLAlgebra:
    def test_rank_one_norm_two(self):
        alg = build_pl_algebra(EvenLattice([[2]]))
        assert alg.dim == 5
        x = alg.x_gen((1,))
        y = alg.x_gen((-1,))
        z2 = alg.multiply(alg.z_gen(0), alg.z_gen(0))
        prod = alg.multiply(x, y)
        want = {k: Fraction(v, 2) for k, v in z2.items()}
        assert prod == want
        assert alg.z_gen(0) is not alg.z_gen(0)

    def test_rank_one_dims(self):
        for k in (1, 2, 3):
            alg = build_pl_algebra(EvenLattice([[2 * k]]))
            assert alg.dim == 2 * k + 3

    def test_x_squared_vanishes(self):
        for gram in ([[2]], [[4]], A2):
            alg = build_pl_algebra(EvenLattice(gram))
            for beta in alg.nonzero_c2:
                x = alg.x_gen(beta)
                doubled = tuple(2 * t for t in beta)
                assert doubled not in alg.sectors
                assert alg.multiply(x, x) == {}

    def test_zx_relation(self):
        alg = build_pl_algebra(EvenLattice([[2]]))
        x = alg.x_gen((1,))
        assert alg.multiply(alg.z_gen(0), x) == {}

    def test_relation_consistency(self):
        for gram in ([[2]], A2):
            alg = build_pl_algebra(EvenLattice(gram))
            assert relation_consistency_problems(alg) == []

    def test_a2_dimensions_and_axioms(self):
        alg = build_pl_algebra(EvenLattice(A2))
        # polynomial sector: the six roots give only three distinct lines,
        # whose cubes leave a single surviving cubic
        assert alg.sectors[()].max_degree() == 3
        assert [len(alg.sectors[()].basis(d)) for d in range(4)] == [1, 2, 3, 1]
        assert alg.dim == 7 + 6 * 2
        assert alg.verify_axioms() == []

    def test_z_gen_index_is_in_range(self):
        alg = build_pl_algebra(EvenLattice(A2))
        assert alg.z_gen(1) == {((), (0, 1)): 1}
        for i in (2, -1):
            with pytest.raises(IndexError):
                alg.z_gen(i)

    def test_unit_brackets_to_zero(self):
        alg = build_pl_algebra(EvenLattice([[2]]))
        one = alg.one()
        for key in alg.basis:
            assert alg.bracket(one, {key: Fraction(1)}) == {}


class TestPoissonTable:
    def test_rank_one_brackets(self):
        k = 2
        alg = build_pl_algebra(EvenLattice([[2 * k]]))
        z, x, y = alg.z_gen(0), alg.x_gen((1,)), alg.x_gen((-1,))
        assert alg.bracket(z, x) == {key: 2 * k * v for key, v in x.items()}
        assert alg.bracket(z, y) == {key: -2 * k * v for key, v in y.items()}
        zpow = alg.one()
        for _ in range(2 * k - 1):
            zpow = alg.multiply(zpow, z)
        want = {key: Fraction(v, math.factorial(2 * k - 1)) for key, v in zpow.items()}
        assert alg.bracket(x, y) == want

    def test_orthogonal_rank_two(self):
        alg = build_pl_algebra(EvenLattice([[2, 0], [0, 2]]))
        assert alg.verify_axioms() == []

    def test_poisson_table_materializes(self):
        alg = build_pl_algebra(EvenLattice([[2]]))
        table = alg.bracket_table()
        assert len(table) == alg.dim * alg.dim
        # {1, anything} = 0
        one = alg.basis.index(((), (0,)))
        assert all(not table[(one, j)] for j in range(alg.dim))
        # keys and entries are basis indices: {Z, X_1} = 2 X_1, {X_-1, X_1} = -Z
        z, x, xbar = (alg.index[key] for key in (((), (1,)), ((1,), (0,)), ((-1,), (0,))))
        assert table[(z, x)] == {x: 2}
        assert table[(xbar, x)] == {z: -1}


def block_inverse_witness(lat):
    """The negative-norm witness through the inverses of the leading blocks:
    for the first k with |x|^2 <= 0, x = (-A^-1 b, 1, 0, ...), repaired
    and scaled as ``negative_norm_witness`` does; the construction before
    it read x off the LDL^T."""
    g, r = lat.gram, lat.rank
    for k in range(r):
        a_inv = dense_inverse([row[:k] for row in g[:k]]) if k else []
        x = [-sum(a_inv[i][j] * g[j][k] for j in range(k)) for i in range(k)]
        x += [1] + [0] * (r - k - 1)
        norm = lat.norm(x)
        if norm > 0:
            continue
        if norm == 0:
            gx = [sum(g[i][j] * x[j] for j in range(r)) for i in range(r)]
            j = next((i for i, c in enumerate(gx) if c), None)
            if j is None:
                return None
            x[j] += Fraction(-gx[j], g[j][j]) if g[j][j] > 0 else -gx[j]
        x = [Fraction(c) for c in x]
        scale = math.lcm(*(c.denominator for c in x))
        ints = [int(c * scale) for c in x]
        common = math.gcd(*ints)
        return tuple(c // common for c in ints)
    return None


def box_negative_vector(lat, radius=6):
    """The first vector of negative norm in the box |x_i| <= radius: the
    search the witness made before its pivot construction."""
    for v in itertools.product(range(-radius, radius + 1), repeat=lat.rank):
        if lat.norm(v) < 0:
            return v
    return None


class TestDegeneration:
    def test_negative_definite(self):
        info = detect_indefinite(EvenLattice([[-2]]))
        assert info["zero_algebra"]
        alg = build_pl_algebra(EvenLattice([[-2]]))
        assert alg.dim == 0 and alg.zero_algebra

    def test_hyperbolic_plane(self):
        info = detect_indefinite(EvenLattice([[0, 1], [1, 0]]))
        assert info["zero_algebra"]
        assert info["witness"] is not None
        v = info["witness"]
        assert EvenLattice([[0, 1], [1, 0]]).norm(tuple(v)) < 0

    def test_witness_beyond_the_search_box(self):
        # every negative vector of this Gram has x/y strictly between -7 and
        # -6, so none lies in the box |x_i| <= 6; the pivot witness is exact
        lat = EvenLattice([[2, 13], [13, 84]])
        info = detect_indefinite(lat)
        assert info["zero_algebra"]
        assert info["witness"] is not None
        assert lat.norm(tuple(info["witness"])) < 0

    @pytest.mark.parametrize("gram", [
        [[-2]],
        [[0, 1], [1, 0]],
        [[2, 13], [13, 84]],
        [[2, 1, 0], [1, 2, 1], [0, 1, -4]],
        [[2, 0, 0], [0, 0, 3], [0, 3, 2]],
        [[4, 3, 0], [3, 2, 0], [0, 0, 2]],
    ])
    def test_pivot_witness_has_negative_norm(self, gram):
        # the hyperbolic plane and the Gram with leading minors 2, 0, -18
        # reach a zero pivot first; the box scan finds a negative vector for
        # every Gram here but [[2, 13], [13, 84]]
        lat = EvenLattice(gram)
        witness = negative_norm_witness(lat)
        assert witness is not None
        assert all(type(c) is int for c in witness)
        assert lat.norm(witness) < 0
        assert (box_negative_vector(lat) is None) == (gram == [[2, 13], [13, 84]])

    def test_no_pivot_witness_for_definite_grams(self):
        for gram in (A2, [[2]], [[4, 1], [1, 6]], [[2, 0, 0], [0, 2, 0], [0, 0, 2]]):
            lat = EvenLattice(gram)
            assert negative_norm_witness(lat) is None
            assert box_negative_vector(lat) is None

    def test_definite_proceeds(self):
        info = detect_indefinite(EvenLattice([[2]]))
        assert not info["zero_algebra"]

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            detect_indefinite(EvenLattice([[2, 2], [2, 2]]))

    def test_reports_the_verdict_and_the_witness_only(self):
        assert detect_indefinite(EvenLattice(A2)) == {"zero_algebra": False, "witness": None}
        assert detect_indefinite(EvenLattice([[2, 13], [13, 84]])) == {
            "zero_algebra": True, "witness": [-13, 2]}

    @PROPERTY
    @given(even_grams(4, range(-6, 7, 2), 6))
    def test_witness_matches_the_block_inverse_route(self, gram):
        lat = EvenLattice(gram)
        definite = leading_minors_positive(gram)
        assert lat.is_positive_definite() == definite
        witness = negative_norm_witness(lat)
        assert witness == block_inverse_witness(lat)
        if not definite and not lat.is_degenerate():
            assert lat.norm(witness) < 0


class TestZeroAlgebra:
    """An indefinite Gram gives the unit-ideal quotient on the same path as a
    definite one: an empty basis, and every element reduces to zero."""

    @pytest.mark.parametrize("gram", [[[-2]], [[0, 1], [1, 0]],
                                      [[2, 0, 0], [0, -2, 0], [0, 0, 2]]], ids=str)
    def test_every_operation_gives_zero(self, gram):
        alg = build_pl_algebra(EvenLattice(gram))
        assert alg.dim == 0 and alg.zero_algebra and alg.c2 == []
        assert alg.multiplication_table() == {} and alg.bracket_table() == {}
        assert alg.one() == {}
        assert [alg.z_gen(t) for t in range(len(gram))] == [{}] * len(gram)
        assert alg.x_gen((0,) * len(gram)) == {}
        assert alg.verify_axioms() == []
        assert alg.multiply(alg.one(), alg.one()) == {}
        assert alg.bracket(alg.one(), alg.one()) == {}
        with pytest.raises(KeyError):
            alg.x_gen((1,) + (0,) * (len(gram) - 1))
        with pytest.raises(IndexError):
            alg.z_gen(len(gram))

    def test_one_is_the_unit_key_of_a_definite_gram(self):
        alg = PLAlgebra(EvenLattice(A2))
        assert typed_vec(alg.one()) == [(((), (0, 0)), int, 1)]


class TestBkCompare:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_isomorphism(self, k):
        report = bk_compare(k)
        assert report["problems"] == []
        assert report["dim_lattice"] == 2 * k + 3

    def test_dependent_images_are_not_injective(self, monkeypatch):
        """Z^2 + Z in place of the image of Z^3 differs from every other
        image but lies in their span: injectivity is decided by rank."""
        def images(alg, bk):
            out = bk_images(alg, bk)
            out[("Z", 3)] = add_into(dict(out[("Z", 2)]), out[("Z", 1)])
            return out

        monkeypatch.setattr(lattice_c2, "bk_images", images)
        assert bk_compare(2)["problems"] == ["correspondence not injective at ('Z', 3)"]

    def test_reference_algebra_consistency(self):
        bk = BkAlgebra(2)
        # X Y = Z^4 / 4!
        out = bk.multiply_basis(("X", 0), ("Y", 0))
        assert out == {("Z", 4): Fraction(1, 24)}
        # Z^{2k+1} = 0 inside the truncation
        assert bk.multiply_basis(("Z", 3), ("Z", 2)) == {}


# ---------------------------------------------------------------------------
# verify_axioms against the dense n^3 loop
# ---------------------------------------------------------------------------

def dense_verify_axioms(alg, jacobi_on_generators=False):
    """The plain loop over all dim^3 triples, eight ``bilinear`` products
    each, with the same problem strings and the same cut at ten.

    With ``jacobi_on_generators`` it decides what ``verify_axioms`` decides:
    Jacobi only at triples of generator keys (degree 0, or a Z_t), provided
    each other key Z^m X_beta is the product of Z_t, t its first nonzero
    exponent, and the key Z^m X_beta / Z_t; where one is not, Jacobi at
    every triple, and no problem line for it."""
    problems = []
    mult = alg.multiplication_table()
    br = alg.bracket_table()
    n = alg.dim
    for i in range(n):
        for j in range(n):
            if mult[(i, j)] != mult[(j, i)]:
                problems.append(f"commutativity fails at ({i},{j})")
            if add_into(dict(br[(i, j)]), br[(j, i)]):
                problems.append(f"skew fails at ({i},{j})")
    generators = set(range(n))
    if jacobi_on_generators:
        factors = True
        for i, (sector, mono) in enumerate(alg.basis):
            if sum(mono) == 0 or (sector == () and sum(mono) == 1):
                continue
            generators.discard(i)
            t = next(t for t, e in enumerate(mono) if e)
            z = alg.index[((), tuple(int(s == t) for s in range(len(mono))))]
            m = alg.index[(sector, mono[:t] + (mono[t] - 1,) + mono[t + 1:])]
            factors = factors and mult[(z, m)] == {i: 1}
        if not factors:
            generators = set(range(n))
    units = [{i: 1} for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (bilinear(mult, mult[(i, j)], units[k])
                        != bilinear(mult, mult[(j, k)], units[i])):
                    problems.append(f"associativity fails at ({i},{j},{k})")
                lhs = bilinear(br, units[i], mult[(j, k)])
                rhs = add_into(bilinear(mult, br[(i, j)], units[k]),
                               bilinear(mult, br[(i, k)], units[j]))
                if lhs != rhs:
                    problems.append(f"Leibniz fails at ({i},{j},{k})")
                if {i, j, k} <= generators:
                    acc = bilinear(br, br[(i, j)], units[k])
                    add_into(acc, bilinear(br, br[(j, k)], units[i]))
                    add_into(acc, bilinear(br, br[(k, i)], units[j]))
                    if acc:
                        problems.append(f"Jacobi fails at ({i},{j},{k})")
                if len(problems) >= 10:
                    return problems
    return problems


# the rank-2 Grams of the lattice-poisson benchmark (perfbench/workloads.py),
# isometric bases grouped by the dimension of their algebra; it draws its
# dimension-29 Gram from the four bases of dimension 29
RANK2_BY_DIM = {
    19: [[[2, -1], [-1, 2]], [[2, 1], [1, 2]]],
    25: [[[2, 0], [0, 2]], [[2, 2], [2, 4]], [[2, -2], [-2, 4]]],
    29: [[[2, 1], [1, 4]], [[2, -1], [-1, 4]], [[4, 1], [1, 2]], [[4, -1], [-1, 2]]],
    35: [[[2, 0], [0, 4]], [[2, 2], [2, 6]], [[2, -2], [-2, 6]], [[4, 4], [4, 6]]],
    37: [[[4, 2], [2, 4]], [[4, -2], [-2, 4]]],
}
DIM29 = RANK2_BY_DIM[29]
ORACLE_GRAMS = [[[2 * k]] for k in range(1, 8)] + [A2, [[2, 0], [0, 2]]] + DIM29
TAMPER_GRAMS = [[[2]], [[4]], [[6]], A2]
TAMPER_SEEDS = range(100)
_ALGEBRAS: dict = {}


def algebra(gram) -> PLAlgebra:
    """A built algebra with both tables, shared between tests; tampering
    works on a shallow copy."""
    key = str(gram)
    if key not in _ALGEBRAS:
        alg = PLAlgebra(EvenLattice(gram))
        alg.multiplication_table()
        alg.bracket_table()
        _ALGEBRAS[key] = alg
    return _ALGEBRAS[key]


def tampered(seed: int) -> PLAlgebra:
    """A copy of a small algebra with one to three seeded edits of its
    tables: a sign flip, an added term or a dropped row, in one order of
    the pair (non-commutative or non-skew) or in both (commutativity or
    skew kept)."""
    rng = random.Random(seed)
    alg = copy.copy(algebra(TAMPER_GRAMS[seed % len(TAMPER_GRAMS)]))
    tables = {"mult": {k: dict(v) for k, v in alg.multiplication_table().items()},
              "br": {k: dict(v) for k, v in alg.bracket_table().items()}}
    n = alg.dim
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(("mult", "br"))
        table = tables[name]
        kind = rng.choice(("flip", "add", "drop"))
        if kind == "flip":
            i, j = rng.choice([pair for pair, vec in table.items() if vec])
            k = rng.choice(sorted(table[(i, j)]))
            delta = {k: -2 * table[(i, j)][k]}
        else:
            i, j = rng.randrange(n), rng.randrange(n)
            delta = ({rng.randrange(n): rng.choice((1, -1, 2, Fraction(1, 2)))} if kind == "add"
                     else {k: -c for k, c in table[(i, j)].items()})
        add_into(table[(i, j)], delta)
        if i != j and rng.random() < 0.5:
            add_into(table[(j, i)], delta, -1 if name == "br" else 1)
    alg._mult_table = tables["mult"]
    alg._bracket_table = tables["br"]
    return alg


class TestVerifyAxiomsOracle:
    @pytest.mark.parametrize("gram", ORACLE_GRAMS, ids=str)
    def test_matches_dense_loop(self, gram):
        alg = algebra(gram)
        assert alg.verify_axioms() == dense_verify_axioms(alg) == []
        assert dense_verify_axioms(alg, jacobi_on_generators=True) == []

    @pytest.mark.parametrize("seed", TAMPER_SEEDS)
    def test_matches_dense_loop_on_tampered_tables(self, seed):
        """The same list as the loop with Jacobi on generator triples, and
        the same verdict as the loop with Jacobi on every triple."""
        alg = tampered(seed)
        problems = alg.verify_axioms()
        assert problems == dense_verify_axioms(alg, jacobi_on_generators=True)
        assert bool(problems) == bool(dense_verify_axioms(alg))

    def test_tampered_tables_reach_every_identity_and_the_cut(self):
        kinds, lengths = set(), set()
        for seed in TAMPER_SEEDS:
            problems = tampered(seed).verify_axioms()
            kinds.update(p.split(" fails")[0] for p in problems)
            lengths.add(len(problems))
        assert kinds == {"commutativity", "skew", "associativity", "Leibniz", "Jacobi"}
        assert 0 in lengths and max(lengths) >= 10
        assert any(0 < length < 10 for length in lengths)

    def test_ten_pair_problems_leave_only_the_first_triple(self):
        alg = copy.copy(algebra(A2))
        mult = dict(alg.multiplication_table())
        br = dict(alg.bracket_table())
        for j in range(1, 11):
            mult[(0, j)] = {}  # e_0 is the unit; e_j e_0 stays e_j
        br[(0, 0)] = {0: 1}  # skew fails at (0,0), Leibniz and Jacobi at (0,0,0)
        alg._mult_table, alg._bracket_table = mult, br
        problems = alg.verify_axioms()
        assert problems == dense_verify_axioms(alg)
        pairs = [p for p in problems if p.count(",") == 1]
        assert len(pairs) >= 10
        assert problems[len(pairs):] == ["Leibniz fails at (0,0,0)", "Jacobi fails at (0,0,0)"]


def key_indices(alg) -> dict:
    """The basis index of each formatted basis key, such as 'Z1*X[1,1]'."""
    return {alg.format_key(key): i for i, key in enumerate(alg.basis)}


def symmetric_edits(gram, mult=(), br=(), zero_bracket=False) -> PLAlgebra:
    """A copy of an algebra whose product gains vec at (a, b) and (b, a),
    and whose bracket gains vec at (a, b) and -vec at (b, a), for each
    (a, b, vec) given by formatted basis keys; so commutativity and skew
    hold at every pair.  With ``zero_bracket`` the bracket is zero first,
    so that Leibniz and Jacobi hold whatever the product."""
    alg = copy.copy(algebra(gram))
    names = key_indices(alg)
    tables = ({k: dict(v) for k, v in alg.multiplication_table().items()},
              {k: {} if zero_bracket else dict(v) for k, v in alg.bracket_table().items()})
    for table, edits, sign in zip(tables, (mult, br), (1, -1)):
        for a, b, vec in edits:
            delta = {names[k]: c for k, c in vec.items()}
            add_into(table[(names[a], names[b])], delta)
            add_into(table[(names[b], names[a])], delta, sign)
    alg._mult_table, alg._bracket_table = tables
    return alg


def failing_triples(problems, name) -> set:
    """The triples, each sorted, at which ``name`` fails in a problem list."""
    return {tuple(sorted(map(int, p.split("at (")[1].rstrip(")").split(","))))
            for p in problems if p.startswith(name)}


class TestReducedTriples:
    """Tables that pass every pair check but break one triple identity at
    the triples that the symmetric route of ``verify_axioms`` reaches by
    one comparison only: each must flag its orbit and give the dense loop's
    list.  The per-triple evaluator that builds the list visits only the
    orderings of flagged orbits, the orbits of failing pairs among them."""

    @pytest.mark.parametrize("gram, edit, triple, broken", [
        # the unit's product with one key dropped: one value vanishes
        ([[2]], ("1", "X[-1]", {"X[-1]": -1}), ("1", "X[-1]", "X[1]"), 0),
        ([[2]], ("1", "Z1^2", {"Z1^2": -1}), ("1", "X[-1]", "X[1]"), 1),
        ([[2]], ("1", "X[1]", {"X[1]": -1}), ("1", "X[-1]", "X[1]"), 2),
        # Z1 X[1,1] gains Z2 X[1,1]: one value moves, none vanishes
        (A2, ("Z1", "X[1,1]", {"Z2*X[1,1]": 1}), ("Z1", "X[-1,-1]", "X[1,1]"), 2),
    ], ids=["Q(a,b;c)", "Q(b,c;a)", "Q(a,c;b)", "Q(a,c;b) on A2"])
    def test_associativity_broken_at_one_value(self, gram, edit, triple, broken):
        """With the bracket zero, at the triple a < b < c only the value
        ``broken`` of Q(a,b;c), Q(b,c;a) and Q(a,c;b) differs."""
        alg = symmetric_edits(gram, mult=[edit], zero_bracket=True)
        problems = alg.verify_axioms()
        assert problems == dense_verify_axioms(alg, jacobi_on_generators=True)
        assert problems and all(p.startswith("associativity") for p in problems)
        a, b, c = (key_indices(alg)[name] for name in triple)
        assert a < b < c
        mult = alg.multiplication_table()
        values = [bilinear(mult, mult[(x, y)], {z: 1}) for x, y, z in
                  ((a, b, c), (b, c, a), (a, c, b))]
        moved = values.pop(broken)
        assert values[0] == values[1] != moved

    def test_leibniz_broken_only_at_equal_arguments(self):
        # {Z1, Z1^2} = Z1^4 fails {Z1, Z1 Z1} = 2 {Z1, Z1} Z1 only
        alg = symmetric_edits([[4]], br=[("Z1", "Z1^2", {"Z1^4": 1})])
        problems = alg.verify_axioms()
        assert problems == dense_verify_axioms(alg, jacobi_on_generators=True)
        assert problems == ["Leibniz fails at (1,1,1)"]

    def test_jacobi_broken_on_three_distinct_generators(self):
        # {Z1, Z2} = Z1 Z2^2: Leibniz still holds, as Z1 Z2^2 kills every
        # key but the unit, while {{X_b, X_-b}, Z1} moves
        alg = symmetric_edits(A2, br=[("Z1", "Z2", {"Z1*Z2^2": 1})])
        problems = alg.verify_axioms()
        assert problems == dense_verify_axioms(alg, jacobi_on_generators=True)
        assert problems and all(p.startswith("Jacobi") for p in problems)
        generators = set(range(alg.dim)) - set(alg._divisor)
        for triple in failing_triples(problems, "Jacobi"):
            assert len(set(triple)) == 3 and set(triple) <= generators

    def test_tampered_tables_that_pass_every_pair_check_still_fail(self):
        """The reduced route itself rejects at least 20 tampered tables:
        every key factors, their lists hold triple problems and no pair
        problem, and they equal the dense loop's.  ``TAMPER_SEEDS`` holds 29
        such tables; the seeds run on past it."""
        rejected = 0
        for seed in range(300):
            alg = tampered(seed)
            problems = alg.verify_axioms()
            if (alg._factors(alg.multiplication_table()) and problems
                    and all(p.count(",") == 2 for p in problems)):
                assert problems == dense_verify_axioms(alg, jacobi_on_generators=True), seed
                rejected += 1
        assert rejected >= 20

    def test_a_key_that_does_not_factor_is_no_failure(self):
        """Factorization only lets Jacobi be decided on generators: on
        ``tampered(85)`` (``[[4]]``, the Z1 Z1 cell edited) a key does not
        factor, yet every axiom holds, with Jacobi at every triple."""
        alg = tampered(85)
        assert not alg._factors(alg.multiplication_table())
        assert alg.verify_axioms() == dense_verify_axioms(alg) == []
        assert dense_verify_axioms(alg, jacobi_on_generators=True) == []

    def test_jacobi_at_every_triple_where_a_key_does_not_factor(self):
        """A Jacobi failure off the generator triples is reported where a
        key does not factor, as by the dense loop with Jacobi everywhere."""
        alg = tampered(204)
        assert not alg._factors(alg.multiplication_table())
        problems = alg.verify_axioms()
        assert problems == dense_verify_axioms(alg) == dense_verify_axioms(
            alg, jacobi_on_generators=True)
        generators = set(range(alg.dim)) - set(alg._divisor)
        assert any(not set(t) <= generators for t in failing_triples(problems, "Jacobi"))

    @pytest.mark.parametrize("gram", ORACLE_GRAMS, ids=str)
    def test_valid_algebras_never_reach_the_report_builder(self, gram, monkeypatch):
        """The per-triple evaluator builds the report; a valid algebra
        flags no orbit and never calls it."""
        def evaluate(self, mult, br, i, j, k, slots):
            raise AssertionError("a valid algebra reached the per-triple evaluator")

        monkeypatch.setattr(PLAlgebra, "_triple_problems", evaluate)
        assert algebra(gram).verify_axioms() == []

    @pytest.mark.parametrize("seed, pair, orbit", [(8, (1, 1), (1, 1, 2)), (26, (0, 7), (0, 7, 8))])
    def test_failing_pairs_flag_their_orbits(self, seed, pair, orbit):
        """A failing pair leaves the composites of its orbits unreliable:
        on these tampered tables the list holds a triple of ``orbit``, an
        orbit that holds ``pair`` and that the composites do not flag, and
        it is the dense loop's only because every such orbit is flagged."""
        alg = tampered(seed)
        mult, br = alg.multiplication_table(), alg.bracket_table()
        problems = alg.verify_axioms()
        assert problems == dense_verify_axioms(alg, jacobi_on_generators=True)
        assert f"fails at ({pair[0]},{pair[1]})" in problems[0]
        assert alg._factors(mult)
        slots = set(range(alg.dim)) - alg._divisor.keys()
        assert orbit in failing_triples(problems, "")
        assert orbit not in alg._failing_orbits(mult, br, slots)

    def test_the_evaluator_visits_only_flagged_orbits(self, monkeypatch):
        """On every tampered table the evaluator visits, in lexicographic
        order, a prefix of the orderings of the flagged orbits: those of
        ``_failing_orbits`` and, for each failing pair (a, b), every sorted
        {a, b, c}, which for a = b are the orbits that hold a twice."""
        flagged, visited = [], []
        failing_orbits, evaluate = PLAlgebra._failing_orbits, PLAlgebra._triple_problems

        def spy_orbits(self, *args):
            orbits = failing_orbits(self, *args)
            flagged.append(set(orbits))
            return orbits

        def spy_evaluate(self, mult, br, i, j, k, slots):
            visited.append((i, j, k))
            return evaluate(self, mult, br, i, j, k, slots)

        monkeypatch.setattr(PLAlgebra, "_failing_orbits", spy_orbits)
        monkeypatch.setattr(PLAlgebra, "_triple_problems", spy_evaluate)
        for seed in TAMPER_SEEDS:
            alg = tampered(seed)
            mult, br, n = alg.multiplication_table(), alg.bracket_table(), alg.dim
            flagged.clear()
            visited.clear()
            problems = alg.verify_axioms()
            orbits = flagged[0]
            for a in range(n):
                for b in range(a, n):
                    if mult[(a, b)] != mult[(b, a)] or add_into(dict(br[(a, b)]), br[(b, a)]):
                        orbits |= {tuple(sorted((a, b, c))) for c in range(n)}
            orderings = sorted({t for orbit in orbits for t in itertools.permutations(orbit)})
            assert visited == orderings[:len(visited)], seed
            assert len(visited) == len(orderings) or len(problems) >= 10, seed


# ---------------------------------------------------------------------------
# the recursive tables and the Fincke-Pohst survivor set against their oracles
# ---------------------------------------------------------------------------

A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
A1_CUBED = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
A1_FOURTH = [[2 * (i == j) for j in range(4)] for i in range(4)]
SKEWED = [[4, 1], [1, 6]]
TABLE_GRAMS = [[[2 * k]] for k in range(1, 8)] + [A2, [[2, 0], [0, 2]]] + DIM29 + [SKEWED, A3]
SURVIVOR_GRAMS = ([g for grams in RANK2_BY_DIM.values() for g in grams]
                  + [[[2 * k]] for k in range(1, 8)] + [SKEWED, A3, A1_CUBED])


def factor_bracket(alg, a, b) -> dict:
    """The bracket of two elements as a biderivation over the generator
    factors of their basis keys, a ``_gen_bracket`` of one factor from each
    side times the remaining factors, one ``multiply`` each: the bracket
    before the table recursion."""
    def factors(key):
        sector, mono = key
        units = [tuple(int(s == t) for s in range(len(mono))) for t, e in enumerate(mono)
                 for _ in range(e)]
        return [((), u) for u in units] + ([(sector, (0,) * len(mono))] if any(sector) else [])

    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            fa, fb = factors(ka), factors(kb)
            for i, gi in enumerate(fa):
                for j, gj in enumerate(fb):
                    prod = alg._gen_bracket(gi, gj)
                    if not prod:
                        continue
                    for g in fa[:i] + fa[i + 1:] + fb[:j] + fb[j + 1:]:
                        prod = alg.multiply(prod, alg.reduce({g: 1}))
                    add_into(out, prod, ca * cb)
    return alg.reduce(out)


def dense_table(alg, op) -> dict:
    """Both orders of every basis pair through ``op`` (``multiply`` or
    ``factor_bracket``), one call each: the table build before the
    recursion."""
    index, basis = alg.index, alg.basis
    return {(i, j): {index[key]: c for key, c in op({ka: 1}, {kb: 1}).items()}
            for i, ka in enumerate(basis) for j, kb in enumerate(basis)}


def typed(table) -> dict:
    """The table with each value paired with its type, so that ``==`` also
    tells an int from an integral Fraction."""
    return {pair: {k: (type(c), c) for k, c in vec.items()} for pair, vec in table.items()}


def dense_inverse(rows) -> list[list]:
    """The inverse as dense rows, through ``inverse_rows``."""
    return [[row.get(j, 0) for j in range(len(rows))] for row in inverse_rows(rows)]


def box_vectors_with_norm_at_most(lat, bound):
    """All vectors of norm <= bound, by scanning the box |v_i| <=
    sqrt(bound (G^-1)_ii): the short-vector search before Fincke-Pohst."""
    inv = dense_inverse(lat.gram)
    boxes = []
    for i in range(lat.rank):
        limit_sq = Fraction(bound) * inv[i][i]
        lim = int(math.isqrt(int(limit_sq))) + 1
        while Fraction(lim * lim) > limit_sq:
            lim -= 1
        boxes.append(range(-lim, lim + 1))
    return [v for v in itertools.product(*boxes) if lat.norm(v) <= bound]


def dual_box(lat) -> list[range]:
    """The candidate box |a_i| <= k (G^-1)_ii, k the least positive integer
    with k G^-1 integral: the candidates before the norm bound."""
    inv = dense_inverse(lat.gram)
    k = math.lcm(*(Fraction(x).denominator for row in inv for x in row))
    return [range(-int(k * inv[i][i]), int(k * inv[i][i]) + 1) for i in range(lat.rank)]


def box_enumerate_c2(lat):
    """The survivor set by box scans, the search before Fincke-Pohst and the
    norm bound: the candidates fill the dual box, and each is tested
    against every vector of norm at most its own, from one scan of the box
    at the largest candidate norm."""
    candidates = [(lat.norm(alpha), alpha) for alpha in itertools.product(*dual_box(lat))]
    scan = sorted((lat.norm(beta), beta)
                  for beta in box_vectors_with_norm_at_most(lat, max(candidates)[0]))
    norms = [norm for norm, _ in scan]
    out = []
    for norm_a, alpha in candidates:
        if all(lat.pair(alpha, beta) <= norm_b
               for norm_b, beta in scan[:bisect.bisect_right(norms, norm_a)]):
            out.append(alpha)
    return sorted(out)


class TestTableOracle:
    @pytest.mark.parametrize("gram", TABLE_GRAMS + [A1_CUBED], ids=str)
    def test_recursion_matches_dense_tables(self, gram):
        alg = algebra(gram)
        assert typed(alg.multiplication_table()) == typed(dense_table(alg, alg.multiply))
        assert typed(alg.bracket_table()) == typed(
            dense_table(alg, lambda a, b: factor_bracket(alg, a, b)))

    def test_only_generator_rows_call_the_operations(self, monkeypatch):
        """``multiply`` runs on the generator rows, ``_gen_bracket`` on the
        generator x generator cells, once per ordered pair."""
        alg = PLAlgebra(EvenLattice(A2))
        generators = ([((), (0, 0)), ((), (1, 0)), ((), (0, 1))]
                      + [(beta, (0, 0)) for beta in alg.nonzero_c2])
        firsts, pairs = [], []
        multiply, gen_bracket = alg.multiply, alg._gen_bracket
        monkeypatch.setattr(alg, "multiply", lambda a, b:
                            firsts.append(next(iter(a))) or multiply(a, b))
        alg.multiplication_table()
        monkeypatch.setattr(alg, "_gen_bracket", lambda a, b:
                            pairs.append((a, b)) or gen_bracket(a, b))
        alg.bracket_table()
        assert sorted(set(firsts)) == sorted(generators)
        assert len(firsts) == len(generators) * alg.dim
        assert sorted(pairs) == sorted(itertools.product(generators, repeat=2))

    def test_bracket_of_elements_reads_the_table(self):
        """``bracket`` reduces its arguments before it reads the table: on
        keys off the basis (three of the four cubic monomials, half of the
        Z_t X_beta) and on sums, it agrees with the biderivation of the
        factors."""
        alg = algebra(A2)
        keys = ([((), (a, 3 - a)) for a in range(4)]
                + [(beta, mono) for beta in alg.nonzero_c2 for mono in ((1, 0), (0, 1))])
        assert any(key not in alg.index for key in keys)
        elements = [{key: 1} for key in keys] + [{key: Fraction(1, 2), keys[0]: -3}
                                                 for key in keys[4:]]
        for a in elements:
            for b in elements:
                assert alg.bracket(a, b) == factor_bracket(alg, a, b)

    @pytest.mark.parametrize("name", ["multiply", "bracket"])
    def test_each_order_has_its_own_recursion(self, monkeypatch, name):
        """Doubling the generator pair (X_beta, X_gamma), in that order only,
        must change exactly the cells (Z^a X_beta, Z^b X_gamma), each by
        Z^(a+b) (X_beta . X_gamma) for the product, whose recursion is in
        the first slot only (so b = 0), and by Z^(a+b) {X_beta, X_gamma}
        for the bracket, a biderivation recursed in both slots; a table
        that filled (j, i) from (i, j) would leave cells of that order
        clean."""
        clean = algebra(A2)
        beta = clean.nonzero_c2[-1]
        gamma = tuple(-c for c in beta)
        x_beta, x_gamma = (beta, (0, 0)), (gamma, (0, 0))
        g = clean.index[x_gamma]
        table = clean.multiplication_table if name == "multiply" else clean.bracket_table
        core = {clean.basis[k]: c for k, c in table()[(clean.index[x_beta], g)].items()}
        alg = PLAlgebra(EvenLattice(A2))
        if name == "multiply":
            op, hit = alg.multiply, ({x_beta: 1}, {x_gamma: 1})
            monkeypatch.setattr(alg, "multiply", lambda a, b: {
                key: 2 * c for key, c in op(a, b).items()} if (a, b) == hit else op(a, b))
            twisted = alg.multiplication_table()
        else:
            op, hit = alg._gen_bracket, (x_beta, x_gamma)
            monkeypatch.setattr(alg, "_gen_bracket", lambda a, b: {
                key: 2 * c for key, c in op(a, b).items()} if (a, b) == hit else op(a, b))
            twisted = alg.bracket_table()
        changed = set()
        for (i, j), row in table().items():
            (sector_i, mono_i), (sector_j, mono_j) = clean.basis[i], clean.basis[j]
            want = dict(row)
            if sector_i == beta and (j == g if name == "multiply" else sector_j == gamma):
                mono = tuple(x + y for x, y in zip(mono_i, mono_j))
                delta = clean.multiply(clean.reduce({((), mono): 1}), core)
                add_into(want, {clean.index[key]: c for key, c in delta.items()})
                if delta:
                    changed.add((any(mono_i), any(mono_j)))
            assert twisted[(i, j)] == want
        assert (True, False) in changed
        assert name == "multiply" or (False, True) in changed

    def test_basis_not_closed_under_division_is_a_bug(self, monkeypatch):
        basis = PowerIdealReducer.basis

        def without_z1(self, degree):
            return [m for m in basis(self, degree) if m != (1, 0)]
        monkeypatch.setattr(PowerIdealReducer, "basis", without_z1)
        with pytest.raises(AssertionError, match="divided by Z1 is not a basis key"):
            PLAlgebra(EvenLattice(A2))


class TestFinckePohstOracle:
    @pytest.mark.parametrize("gram", [A2, SKEWED, [[4, -2], [-2, 4]], A3, A1_CUBED], ids=str)
    def test_short_vectors_match_box_scan(self, gram):
        lat = EvenLattice(gram)
        assert lat.short_vectors(-1) == []
        for bound in range(9):
            want = sorted((lat.norm(v), v) for v in box_vectors_with_norm_at_most(lat, bound))
            assert lat.short_vectors(bound) == want

    @pytest.mark.parametrize("gram", SURVIVOR_GRAMS, ids=str)
    def test_survivors_match_box_scan(self, gram):
        lat = EvenLattice(gram)
        want = box_enumerate_c2(lat)
        assert enumerate_c2(lat) == want
        # the norm bound of the docstring, on the box scan's survivors
        assert max(map(lat.norm, want)) <= sum(lat.ldl()[0])

    @PROPERTY
    @given(even_grams(3, (2, 4, 6), 2))
    def test_survivors_match_box_scan_on_random_grams(self, gram):
        assume(leading_minors_positive(gram))
        lat = EvenLattice(gram)
        assume(math.prod(map(len, dual_box(lat))) <= 1500)
        want = box_enumerate_c2(lat)
        assert enumerate_c2(lat) == want
        assert max(map(lat.norm, want)) <= sum(lat.ldl()[0])

    def test_a4_survivor_count(self):
        # too large for the box scan; 51 survivors, a set closed under -1
        out = enumerate_c2(EvenLattice(A4))
        assert len(out) == 51
        assert sorted(tuple(-c for c in v) for v in out) == out

    def test_a1_fourth_attains_the_trace_bound(self):
        # the 16 vectors (+-1, +-1, +-1, +-1) have norm 8 = tr D
        lat = EvenLattice(A1_FOURTH)
        assert sum(lat.ldl()[0]) == 8
        assert sorted(v for v in enumerate_c2(lat) if lat.norm(v) == 8) == list(
            itertools.product((-1, 1), repeat=4))

    def test_one_enumeration_and_killers_below_half_the_norm(self, monkeypatch):
        """One ``short_vectors`` call to floor(tr D) gives the candidates, and
        the killers of each are the prefix of that list of norm below half
        its own."""
        prefixes, bounds = [], []

        class Recording(list):
            def __getitem__(self, key):
                if isinstance(key, slice):
                    prefixes.append(key)
                return super().__getitem__(key)

        short_vectors = EvenLattice.short_vectors
        monkeypatch.setattr(EvenLattice, "short_vectors", lambda self, bound: (
            bounds.append(bound) or Recording(short_vectors(self, bound))))
        lat = EvenLattice(A3)
        enumerate_c2(lat)
        assert bounds == [math.floor(sum(lat.ldl()[0]))] == [4]
        short = short_vectors(lat, 4)
        assert prefixes == [slice(None, sum(2 * norm_b < norm_a for norm_b, _ in short))
                            for norm_a, _ in short]


# ---------------------------------------------------------------------------
# the shared power-ideal reducers against the undeduplicated ones and sympy
# ---------------------------------------------------------------------------

def undeduplicated_reducer(alg, sector) -> PowerIdealReducer:
    """The sector's reducer before deduplication: one generator (alpha, e)
    for every nonzero survivor alpha, with e = 1 + |alpha|^2 on the
    polynomial sector and 1 - <beta - alpha, alpha> on sector beta."""
    lat = alg.lattice
    return PowerIdealReducer(lat.rank, [
        (alpha, 1 - lat.pair(tuple(b - a for a, b in zip(alpha, sector)), alpha) if sector
         else 1 + lat.norm(alpha)) for alpha in alg.nonzero_c2])


@contextlib.contextmanager
def within_a_second():
    """Raise TimeoutError in the block once it has run for a second, so
    that a loop without end fails the test instead of hanging the run."""
    def timeout(signum, frame):
        raise TimeoutError("still running after a second")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestSharedReducers:
    @pytest.mark.parametrize("gram", TABLE_GRAMS + [A1_CUBED, A4], ids=str)
    def test_match_undeduplicated_reducers(self, gram):
        """Every sector's shared reducer has the basis and the normal forms,
        value and type, of the reducer on all its survivors, on every
        monomial up to one degree past the last nonzero piece."""
        alg = PLAlgebra(EvenLattice(gram))
        for sector, red in alg.sectors.items():
            raw = undeduplicated_reducer(alg, sector)
            assert red.max_degree() == raw.max_degree()
            for d in range(raw.max_degree() + 2):
                assert red.basis(d) == raw.basis(d)
                for mono in raw._monomials(d):
                    want = raw.reduce({mono: 1})
                    got = red.reduce({mono: 1})
                    assert [(k, type(c), c) for k, c in got.items()] == [
                        (k, type(c), c) for k, c in want.items()]

    def test_one_generator_per_line(self):
        alg = PLAlgebra(EvenLattice(A2))
        for red in alg.sectors.values():
            lines = [alpha for alpha, _ in red.generators]
            assert len(lines) == 3 and len(set(lines)) == 3
        # the polynomial sector: the three root lines, each cubed
        assert sorted(e for _, e in alg.sectors[()].generators) == [3, 3, 3]
        for beta in alg.nonzero_c2:
            assert alg.sectors[beta] is alg.sectors[tuple(-c for c in beta)]

    def test_a1_fourth_shares_41_reducers_in_under_5_s(self):
        start = time.monotonic()
        alg = PLAlgebra(EvenLattice(A1_FOURTH))
        elapsed = time.monotonic() - start
        assert len(alg.sectors) == 81 and alg.dim == 625
        assert len({id(red) for red in alg.sectors.values()}) == 41
        assert elapsed < 5.0, f"took {elapsed:.2f} s"

    @pytest.mark.parametrize("rank, generators", [(1, []), (2, [((1, 0), 2)])])
    def test_lines_that_do_not_span_raise(self, rank, generators):
        with within_a_second(), pytest.raises(ValueError, match="do not span"):
            PowerIdealReducer(rank, generators).max_degree()

    def test_a_survivor_set_that_does_not_span_raises(self, monkeypatch):
        monkeypatch.setattr("vlie.lattice_c2.enumerate_c2", lambda lattice: [(0,)])
        with within_a_second(), pytest.raises(ValueError, match="do not span"):
            PLAlgebra(EvenLattice([[2]]))

    @pytest.mark.parametrize("gram", [A2, SKEWED, A3, A1_CUBED], ids=str)
    def test_hilbert_function_matches_groebner_basis(self, gram):
        """In each sector and degree the reducer's basis has as many
        monomials as the standard monomials of a sympy Groebner basis of the
        same ideal, up to one degree past the last nonzero piece."""
        alg = PLAlgebra(EvenLattice(gram))
        zs = sympy.symbols(f"z1:{alg.lattice.rank + 1}")
        leads = {}
        for red in alg.sectors.values():
            if id(red) not in leads:
                basis = sympy.groebner([sum(a * z for a, z in zip(alpha, zs)) ** e
                                        for alpha, e in red.generators], *zs, order="grevlex")
                leads[id(red)] = [sympy.Poly(g, *zs).monoms(order="grevlex")[0]
                                  for g in basis.exprs]
            for d in range(red.max_degree() + 2):
                standard = [m for m in red._monomials(d) if not any(
                    all(x >= y for x, y in zip(m, lead)) for lead in leads[id(red)])]
                assert len(red.basis(d)) == len(standard), d


# ---------------------------------------------------------------------------
# multiply, reduce and bk_compare against the routes that recompute
# ---------------------------------------------------------------------------

def echelon_reduce(alg, element) -> dict:
    """``PLAlgebra.reduce`` through the sector reducers on every input: the
    normal form before standard monomials were returned as they are."""
    by_sector: dict = {}
    for (sector, mono), c in element.items():
        by_sector.setdefault(sector, {})[mono] = c
    return {(sector, mono): c for sector, coeffs in by_sector.items()
            for mono, c in alg.sectors[sector].reduce(coeffs).items()}


def recomputing_multiply(alg, a, b, reduced=True) -> dict:
    """``PLAlgebra.multiply`` with the pairing, the cocycle sign, n! and
    (alpha.Z)^n recomputed at every pair of terms: the product before the
    memo of sector rules; with ``reduced`` false, before the reduction."""
    out: dict = {}
    for (s1, m1), c1 in a.items():
        for (s2, m2), c2 in b.items():
            c = c1 * c2
            m = tuple(x + y for x, y in zip(m1, m2))
            if s1 == () or s2 == ():
                add_into(out, {(s2 if s1 == () else s1, m): c})
                continue
            target = tuple(x + y for x, y in zip(s1, s2))
            if target not in alg.sectors and any(target):
                continue
            n = -alg.lattice.pair(s1, s2)
            power = power_of_linear(alg.lattice.rank, s1, n)
            add_into(out, {(target if any(target) else (), tuple(x + y for x, y in zip(m, pm))): pc
                           for pm, pc in power.items()},
                     c * Fraction(alg.eps.value(s1, s2), math.factorial(n)))
    return echelon_reduce(alg, out) if reduced else out


def recomputing_bk_compare(k: int) -> dict:
    """``bk_compare`` with Z^d rebuilt by d products for every basis key it
    maps, and each mapped element reduced again: the route before the
    images were built once."""
    alg = build_pl_algebra(EvenLattice([[2 * k]]))
    bk = BkAlgebra(k)
    report = {"k": k, "c2": alg.c2, "dim_lattice": alg.dim, "dim_reference": bk.dim,
              "problems": []}
    problems = report["problems"]
    if sorted(alg.c2) != sorted([(-1,), (0,), (1,)]):
        problems.append(f"survivor set is {alg.c2}")
        return report
    if alg.dim != bk.dim:
        problems.append(f"dimension {alg.dim} differs from {bk.dim}")
        return report
    images = {key: recomputing_map_element(alg, {key: 1}) for key in bk.basis}
    seen = set()
    for key, img in images.items():
        flat = tuple(sorted((kk, c) for kk, c in img.items()))
        if not flat or flat in seen:
            problems.append(f"correspondence not injective at {key}")
            return report
        seen.add(flat)
    for a in bk.basis:
        for b in bk.basis:
            if recomputing_map_element(alg, bk.multiply_basis(a, b)) != recomputing_multiply(
                    alg, images[a], images[b]):
                problems.append(f"product mismatch at {a} * {b}")
            if recomputing_map_element(alg, bk.bracket_basis(a, b)) != alg.bracket(
                    images[a], images[b]):
                problems.append(f"bracket mismatch at {{{a},{b}}}")
            if len(problems) >= 5:
                return report
    return report


def recomputing_map_element(alg, el: dict) -> dict:
    def to_lattice(key):
        if key[0] == "Z":
            out = alg.one()
            for _ in range(key[1]):
                out = recomputing_multiply(alg, out, echelon_reduce(alg, {((), (1,)): 1}))
            return out
        return echelon_reduce(alg, {((1,) if key[0] == "X" else (-1,), (0,)): 1})

    out: dict = {}
    for key, c in el.items():
        add_into(out, to_lattice(key), c)
    return echelon_reduce(alg, out)


def recomputing_class_bracket(alg, alpha, beta) -> dict:
    """{X_alpha, X_beta} with the pairing, the target, the cocycle sign,
    (alpha.Z)^n and n! recomputed at every call: the bracket of two classes
    before it read the sector rule of the product."""
    lat = alg.lattice
    pairing = lat.pair(alpha, beta)
    if pairing >= 0:
        return {}
    target = tuple(x + y for x, y in zip(alpha, beta))
    if any(target) and target not in alg.sectors:
        return {}
    n = -pairing - 1
    sign = alg.eps.value(alpha, beta)
    power = power_of_linear(lat.rank, alpha, n)
    sector = target if any(target) else ()
    scale = Fraction(sign, math.factorial(n))
    return alg.reduce({(sector, pm): pc * scale for pm, pc in power.items()})


def typed_vec(vec) -> list:
    """The terms of a vector with their types, in key order."""
    return sorted((key, type(c), c) for key, c in vec.items())


class TestRepeatedWorkOracles:
    @pytest.mark.parametrize("gram", ORACLE_GRAMS, ids=str)
    def test_generator_products_match_the_recomputing_product(self, gram):
        """Every ordered pair of generators (the unit, the Z_t and the
        X_beta), and seeded sums of basis keys, with values and types."""
        alg = algebra(gram)
        generators = [{alg.basis[i]: 1} for i in range(alg.dim) if i not in alg._divisor]
        rng = random.Random(str(gram))
        sums = [{key: rng.choice((1, -2, Fraction(1, 3), Fraction(-5, 2)))
                 for key in rng.sample(alg.basis, 3)} for _ in range(4)]
        for a in generators + sums:
            for b in generators + sums:
                assert typed_vec(alg.multiply(a, b)) == typed_vec(recomputing_multiply(alg, a, b))

    @pytest.mark.parametrize("gram", [A2, SKEWED, A3], ids=str)
    def test_each_ordered_pair_of_sectors_has_its_own_rule(self, gram, monkeypatch):
        """Before the reduction X_alpha X_beta, eps(alpha,beta)/n! (alpha.Z)^n
        X_(alpha+beta), differs from X_beta X_alpha; a memo that served
        both orders from one rule would agree with the oracle only after
        the reduction, where the product is commutative."""
        alg = PLAlgebra(EvenLattice(gram))
        monkeypatch.setattr(alg, "reduce", clean)
        classes = [{(beta, (0,) * alg.lattice.rank): 1} for beta in alg.nonzero_c2]
        unequal = 0
        for a in classes:
            for b in classes:
                got = alg.multiply(a, b)
                assert typed_vec(got) == typed_vec(recomputing_multiply(alg, a, b, reduced=False))
                unequal += got != alg.multiply(b, a)
        assert unequal

    @pytest.mark.parametrize("gram", ORACLE_GRAMS, ids=str)
    def test_class_brackets_match_the_recomputing_bracket(self, gram):
        """``_gen_bracket`` on every ordered pair of survivor classes, with
        values and types, each after the product of the same pair: the
        product and the bracket read one memo of sector rules, and a memo
        that served the bracket the product's rule would fail here."""
        alg = PLAlgebra(EvenLattice(gram))
        zero = (0,) * alg.lattice.rank
        for alpha in alg.nonzero_c2:
            for beta in alg.nonzero_c2:
                a, b = (alpha, zero), (beta, zero)
                assert typed_vec(alg.multiply({a: 1}, {b: 1})) == typed_vec(
                    recomputing_multiply(alg, {a: 1}, {b: 1}))
                assert typed_vec(alg._gen_bracket(a, b)) == typed_vec(
                    recomputing_class_bracket(alg, alpha, beta))

    @pytest.mark.parametrize("gram", ORACLE_GRAMS + [A3], ids=str)
    def test_reduce_matches_the_echelon_route(self, gram):
        """On combinations of basis keys, where the normal form is the input
        cleaned, and on inputs with other keys: monomials off the basis and
        past the last nonzero degree, mixed with basis keys."""
        alg = PLAlgebra(EvenLattice(gram))
        rng = random.Random(str(gram))
        values = (0, 1, -3, Fraction(2), Fraction(1, 2), "-1/3")
        others = [(sector, mono) for sector, red in alg.sectors.items()
                  for d in range(red.max_degree() + 2) for mono in red._monomials(d)
                  if (sector, mono) not in alg.index]
        assert others
        inputs = [{key: rng.choice(values) for key in rng.sample(alg.basis, min(4, alg.dim))}
                  for _ in range(20)]
        inputs += [{**basis_part, rng.choice(others): rng.choice(values[1:])}
                   for basis_part in inputs[:10]]
        inputs += [{key: 1} for key in others]
        for element in inputs:
            got = alg.reduce(element)
            assert typed_vec(got) == typed_vec(echelon_reduce(alg, element))
            if all(key in alg.index for key in element):
                assert got == clean(element)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_bk_images_and_report_match_the_recomputing_route(self, k):
        alg = build_pl_algebra(EvenLattice([[2 * k]]))
        bk = BkAlgebra(k)
        images = bk_images(alg, bk)
        assert list(images) == bk.basis
        for key in bk.basis:
            assert typed_vec(images[key]) == typed_vec(recomputing_map_element(alg, {key: 1}))
        assert bk_compare(k) == recomputing_bk_compare(k)


# ---------------------------------------------------------------------------
# The rank-one yardstick: its tables against the case analyses, and
# orthogonal sums of two rank-one lattices against tensor products
# ---------------------------------------------------------------------------

def oracle_zpow(bk: BkAlgebra, d: int) -> dict:
    return {("Z", d): 1} if d <= 2 * bk.k else {}


def oracle_multiply_basis(bk: BkAlgebra, a: tuple, b: tuple) -> dict:
    """The product of ``BkAlgebra`` as a case analysis over the kinds of
    the two keys, the route before the tables."""
    k = bk.k
    if a[0] == "Z" and b[0] == "Z":
        return oracle_zpow(bk, a[1] + b[1])
    if a[0] == "Z" and b[0] in ("X", "Y"):
        return {(b[0], 0): 1} if a[1] == 0 else {}
    if b[0] == "Z":
        return oracle_multiply_basis(bk, b, a)
    if a[0] == b[0]:
        return {}
    out = oracle_zpow(bk, 2 * k)
    return {key: Fraction(c, math.factorial(2 * k)) for key, c in out.items()}


def oracle_bracket_basis(bk: BkAlgebra, a: tuple, b: tuple) -> dict:
    """The bracket of ``BkAlgebra`` as a case analysis, the route before
    the tables."""
    k = bk.k
    if a[0] == "Z" and b[0] == "Z":
        return {}
    if a[0] == "Z" and b[0] in ("X", "Y"):
        # {Z^d, X} = d Z^{d-1} {Z,X} = 2k d Z^{d-1} X; X Z = 0 kills d > 1
        d = a[1]
        if d == 0:
            return {}
        if d == 1:
            sign = 2 * k if b[0] == "X" else -2 * k
            return {(b[0], 0): sign}
        return {}
    if b[0] == "Z":
        return {key: -c for key, c in oracle_bracket_basis(bk, b, a).items()}
    if a[0] == b[0]:
        return {}
    sign = 1 if (a[0], b[0]) == ("X", "Y") else -1
    d = 2 * k - 1
    return {("Z", d): Fraction(sign, math.factorial(d))}


class TestBkTables:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_tables_match_the_case_analysis(self, k):
        bk = BkAlgebra(k)
        for a in bk.basis:
            for b in bk.basis:
                assert typed_vec(bk.multiply_basis(a, b)) == typed_vec(
                    oracle_multiply_basis(bk, a, b))
                assert typed_vec(bk.bracket_basis(a, b)) == typed_vec(
                    oracle_bracket_basis(bk, a, b))

    def test_results_are_fresh_dicts(self):
        bk = BkAlgebra(2)
        bk.multiply_basis(("X", 0), ("Y", 0)).clear()
        bk.bracket_basis(("Y", 0), ("X", 0)).clear()
        bk.bracket_basis(("X", 0), ("Z", 1)).clear()
        assert bk.multiply_basis(("X", 0), ("Y", 0)) == {("Z", 4): Fraction(1, 24)}
        assert bk.bracket_basis(("Y", 0), ("X", 0)) == {("Z", 3): Fraction(-1, 6)}
        assert bk.bracket_basis(("X", 0), ("Z", 1)) == {("X", 0): -4}

    def test_a_class_times_a_power_of_z_reads_the_reversed_pair(self):
        calls = []

        class Recording(BkAlgebra):
            def multiply_basis(self, a, b):
                calls.append(("*", a, b))
                return super().multiply_basis(a, b)

            def bracket_basis(self, a, b):
                calls.append(("{}", a, b))
                return super().bracket_basis(a, b)

        bk = Recording(1)
        assert bk.multiply_basis(("Y", 0), ("Z", 0)) == {("Y", 0): 1}
        assert bk.bracket_basis(("X", 0), ("Z", 1)) == {("X", 0): -2}
        assert calls == [("*", ("Y", 0), ("Z", 0)), ("*", ("Z", 0), ("Y", 0)),
                         ("{}", ("X", 0), ("Z", 1)), ("{}", ("Z", 1), ("X", 0))]


def tensor_product(first: BkAlgebra, second: BkAlgebra):
    """The basis, product and bracket of first (x) second: products are
    taken factorwise, and {p(x)q, r(x)s} = {p,r}(x)qs + pr(x){q,s}."""
    def tensor(u: dict, v: dict) -> dict:
        return clean({(p, q): a * b for p, a in u.items() for q, b in v.items()})

    def multiply(x, y):
        (p, q), (r, s) = x, y
        return tensor(first.multiply_basis(p, r), second.multiply_basis(q, s))

    def bracket(x, y):
        (p, q), (r, s) = x, y
        return add_into(tensor(first.bracket_basis(p, r), second.multiply_basis(q, s)),
                        tensor(first.multiply_basis(p, r), second.bracket_basis(q, s)))

    return list(itertools.product(first.basis, second.basis)), multiply, bracket


def orthogonal_sum_problems(first: BkAlgebra, second: BkAlgebra) -> list[str]:
    """Compare the lattice algebra of the Gram diag(2a, 2b) with
    first (x) second under Z1 -> Z(x)1, Z2 -> 1(x)Z, X_(+-1,0) -> X/Y(x)1
    and X_(0,+-1) -> 1(x)X/Y; p(x)q maps to the product of the images of
    p(x)1 and 1(x)q.  The map is bijective when the images are linearly
    independent and as many as the dimension."""
    alg = build_pl_algebra(EvenLattice([[2 * first.k, 0], [0, 2 * second.k]]))
    factor_images = []
    for i, bk in enumerate((first, second)):
        unit = tuple(int(t == i) for t in range(2))
        images = {("Z", 0): alg.one()}
        for d in range(1, 2 * bk.k + 1):
            images[("Z", d)] = alg.multiply(images[("Z", d - 1)], alg.z_gen(i))
        images[("X", 0)] = alg.x_gen(unit)
        images[("Y", 0)] = alg.x_gen(tuple(-x for x in unit))
        factor_images.append(images)
    basis, multiply, bracket = tensor_product(first, second)
    images = {(p, q): alg.multiply(factor_images[0][p], factor_images[1][q]) for p, q in basis}

    def map_element(el: dict) -> dict:
        out: dict = {}
        for key, c in el.items():
            add_into(out, images[key], c)
        return out

    if alg.dim != len(basis):
        return [f"dimension {alg.dim} differs from {len(basis)}"]
    span = Echelon()
    if not all(span.insert(img) for img in images.values()):
        return ["correspondence not injective"]
    problems = []
    for x in basis:
        for y in basis:
            if map_element(multiply(x, y)) != alg.multiply(images[x], images[y]):
                problems.append(f"product mismatch at {x} * {y}")
            if map_element(bracket(x, y)) != alg.bracket(images[x], images[y]):
                problems.append(f"bracket mismatch at {{{x},{y}}}")
    return problems


class TestOrthogonalSums:
    @pytest.mark.parametrize("a, b", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)])
    def test_sum_of_two_rank_one_lattices_is_the_tensor_product(self, a, b):
        assert orthogonal_sum_problems(BkAlgebra(a), BkAlgebra(b)) == []

    def test_a_flipped_bracket_sign_is_a_mismatch(self):
        class Flipped(BkAlgebra):
            def bracket_basis(self, a, b):
                out = super().bracket_basis(a, b)
                return {key: -c for key, c in out.items()} if (a, b) == (("X", 0), ("Y", 0)) else out

        problems = orthogonal_sum_problems(BkAlgebra(1), Flipped(2))
        assert problems and all(p.startswith("bracket mismatch") for p in problems)
        assert "bracket mismatch at {(('Z', 0), ('X', 0)),(('Z', 0), ('Y', 0))}" in problems

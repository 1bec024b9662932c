import math
from fractions import Fraction

import pytest

from vlie.lattice_c2 import (
    BkAlgebra,
    Cocycle,
    EvenLattice,
    bk_compare,
    build_cocycle,
    build_pl_algebra,
    detect_indefinite,
    enumerate_c2,
    negative_norm_witness,
    poisson_table,
    relation_consistency_problems,
)

A2 = [[2, -1], [-1, 2]]


class TestEvenLattice:
    def test_rejects_odd_diagonal(self):
        with pytest.raises(ValueError):
            EvenLattice([[1]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            EvenLattice([[2, 1], [0, 2]])

    def test_positive_definite(self):
        assert EvenLattice([[2]]).is_positive_definite()
        assert EvenLattice(A2).is_positive_definite()
        assert not EvenLattice([[-2]]).is_positive_definite()
        assert not EvenLattice([[0, 1], [1, 0]]).is_positive_definite()

    def test_dual_exponent(self):
        assert EvenLattice([[2]]).dual_exponent() == 2
        assert EvenLattice(A2).dual_exponent() == 3

    def test_short_vectors(self):
        lat = EvenLattice(A2)
        roots = [v for v in lat.vectors_with_norm_at_most(2) if lat.norm(v) == 2]
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
        table = poisson_table(alg)
        assert len(table) == alg.dim * alg.dim
        # {1, anything} = 0
        one = alg.basis.index(((), (0,)))
        assert all(not table[(one, j)] for j in range(alg.dim))
        # keys and entries are basis indices: {Z, X_1} = 2 X_1, {X_-1, X_1} = -Z
        z, x, xbar = (alg.index[key] for key in (((), (1,)), ((1,), (0,)), ((-1,), (0,))))
        assert table[(z, x)] == {x: 2}
        assert table[(xbar, x)] == {z: -1}


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
        # radius 0 leaves only the zero vector in the box, so the witness
        # comes from the pivots; the hyperbolic plane and the Gram with
        # leading minors 2, 0, -18 reach a zero pivot first
        lat = EvenLattice(gram)
        witness = negative_norm_witness(lat, radius=0)
        assert witness is not None
        assert all(type(c) is int for c in witness)
        assert lat.norm(witness) < 0

    def test_no_pivot_witness_for_definite_grams(self):
        assert negative_norm_witness(EvenLattice(A2), radius=0) is None

    def test_definite_proceeds(self):
        info = detect_indefinite(EvenLattice([[2]]))
        assert not info["zero_algebra"]

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            detect_indefinite(EvenLattice([[2, 2], [2, 2]]))


class TestBkCompare:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_isomorphism(self, k):
        report = bk_compare(k)
        assert report["problems"] == []
        assert report["dim_lattice"] == 2 * k + 3

    def test_reference_algebra_consistency(self):
        bk = BkAlgebra(2)
        # X Y = Z^4 / 4!
        out = bk.multiply_basis(("X", 0), ("Y", 0))
        assert out == {("Z", 4): Fraction(1, 24)}
        # Z^{2k+1} = 0 inside the truncation
        assert bk.multiply_basis(("Z", 3), ("Z", 2)) == {}

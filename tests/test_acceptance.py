"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from vlie.formal_calc import (
    BiSeriesWindow,
    DeltaSeries,
    LaurentPoly,
    decompose,
    delta_window,
    mul_power_diff,
    render,
)
from vlie.lattice_c2 import EvenLattice, bk_compare, build_pl_algebra, detect_indefinite
from vlie.lie_core import BilinearForm, sl2, sl2_form, sym_poisson
from vlie.linalg import add_into, clean
from vlie.poisson_c2 import (
    p2_structure,
    pvpa_quotient,
    ultra_poisson_of_lie,
    verify_p2_iso,
)
from vlie.vacuum_module import VacuumModule
from vlie.vertex_lie import (
    CommAlgebra,
    VLStructure,
    affine,
    b3_criterion,
    heisenberg,
    loop,
    novikov,
    novikov_candidate,
    virasoro,
    witt,
)

from test_vacuum_module import state_add, state_scale


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL {label}")
        raise
    print(f"ACCEPTANCE PASS {label}")


def ypoly(coeffs):
    return LaurentPoly("y", coeffs)


def dual_numbers():
    return CommAlgebra(
        ("one", "eps"),
        {("one", "one"): {"one": 1}, ("one", "eps"): {"eps": 1},
         ("eps", "one"): {"eps": 1}, ("eps", "eps"): {}},
    )


def test_criterion_1_delta_power_identities():
    with criterion("1 delta power identities (window oracle, m,n <= 8, < 1 s)"):
        t0 = time.monotonic()
        base = BiSeriesWindow.square(10)
        for n in range(9):
            dwin = delta_window(n, base)
            for m in range(9):
                series = mul_power_diff(
                    m, DeltaSeries.single(n, ypoly({0: Fraction(1)}))
                )
                assert render(series, base).equal_on_overlap(
                    dwin.mul_power_diff(m)
                ), (m, n)
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_2_decompose_round_trip():
    with criterion("2 decomposition round trip (100 random series)"):
        rng = random.Random(20240601)
        for t in range(100):
            terms = []
            for order in rng.sample(range(6), rng.randint(1, 6)):
                coeffs = {}
                for _ in range(rng.randint(1, 3)):
                    coeffs[rng.randint(-4, 4)] = Fraction(
                        rng.randint(-6, 6), rng.randint(1, 5)
                    )
                poly = LaurentPoly("y", coeffs)
                if not poly.is_zero():
                    terms.append((order, poly))
            series = DeltaSeries(terms)
            window = render(series, BiSeriesWindow.square(5 + 8 + 2))
            assert decompose(window, 5) == series, f"sample {t}"


def test_criterion_3_virasoro_brackets():
    with criterion("3 Virasoro component brackets vs module action (|m|,|n| <= 6)"):
        s = virasoro()
        module = VacuumModule(s, {"c": Fraction(1, 2)})
        states = module.basis_states_upto(8)
        for mp in range(-6, 7):
            for np_ in range(-6, 7):
                got = s.component_bracket("omega", mp + 1, "omega", np_ + 1)
                want = add_into({}, s.mode("omega", mp + np_ + 1), mp - np_)
                if mp + np_ == 0:
                    add_into(want, s.mode("c", -1), Fraction(mp ** 3 - mp, 12))
                assert got == want, (mp, np_)
        # operator cross-check on the quotient module
        for mp in range(-6, 7):
            for np_ in range(-6, 7):
                scalar = (
                    Fraction(mp ** 3 - mp, 12) * Fraction(1, 2)
                    if mp + np_ == 0 else Fraction(0)
                )
                for st in states:
                    lhs = module.act("omega", mp + 1, module.act("omega", np_ + 1, st))
                    lhs = state_add(
                        lhs,
                        module.act("omega", np_ + 1, module.act("omega", mp + 1, st)),
                        Fraction(-1),
                    )
                    rhs = state_scale(module.act("omega", mp + np_ + 1, st), mp - np_)
                    if scalar:
                        rhs = state_add(rhs, st, scalar)
                    assert clean(lhs) == clean(rhs), (mp, np_)


def test_criterion_4_jacobi_windows():
    with criterion("4 skew+Jacobi window 4 for all builders; seeded invalids fail"):
        builders = [
            witt(),
            virasoro(),
            loop(sl2()),
            affine(sl2(), sl2_form()),
            heisenberg([[1, 0], [0, 1]]),
            novikov(dual_numbers(), BilinearForm([[1, 1], [1, 0]])),
        ]
        for s in builders:
            assert s.verify_skew_symmetry(4) == [], s.name
            assert s.verify_jacobi(4) == [], s.name

        def fails(structure):
            problems = structure.verify_skew_symmetry(4) or structure.verify_jacobi(
                4, ordered=True
            )
            assert problems, f"{structure.name} should fail"
            assert "fails" in problems[0]

        # broken Witt coefficient
        fails(VLStructure(
            ("omega",), None, (), None,
            {("omega", "omega"): [({"omega": 1}, 1, 0), ({"omega": -3}, 0, 1)]},
            name="witt-broken",
        ))
        # central generator that fails to commute
        fails(VLStructure(
            ("omega", "c"), None, ("c",), {"c": {}},
            {("omega", "omega"): [({"omega": 1}, 1, 0), ({"omega": -2}, 0, 1)],
             ("omega", "c"): [({"c": 1}, 0, 0)]},
            name="virasoro-broken",
        ))
        # loop table over a non-Lie bracket
        fails(VLStructure(
            ("e", "h", "f"), (1, 1, 1), (), None,
            {("h", "e"): [({"e": 2}, 0, 0)], ("e", "h"): [({"e": -2}, 0, 0)],
             ("h", "f"): [({"f": -2}, 0, 0)], ("f", "h"): [({"f": 2}, 0, 0)],
             ("e", "f"): [({"e": 1}, 0, 0)], ("f", "e"): [({"e": -1}, 0, 0)]},
            name="loop-broken",
        ))
        # affinization with a non-symmetric pairing
        g = sl2()
        bad_form = BilinearForm(
            [[0, 1, 1], [0, 2, 0], [1, 0, 0]], require_symmetric=False
        )
        table = {}
        for i, a in enumerate(g.names):
            for j, b in enumerate(g.names):
                terms = []
                bk = g.bracket_basis(i, j)
                if bk:
                    terms.append(({g.names[k]: c for k, c in bk.items()}, 0, 0))
                if bad_form.value(i, j):
                    terms.append(({"c": -bad_form.value(i, j)}, 0, 1))
                table[(a, b)] = terms
        fails(VLStructure(
            g.names + ("c",), None, ("c",), {"c": {}}, table, name="affine-broken",
        ))
        # oscillator table with a non-symmetric matrix
        names = ("u1", "u2", "c")
        fails(VLStructure(
            names, None, ("c",), {"c": {}},
            {("u1", "u2"): [({"c": -1}, 0, 1)], ("u2", "u1"): []},
            name="heisenberg-broken",
        ))
        # degree-2 family over a non-associative base
        bad_alg = CommAlgebra(
            ("u", "v"), {("u", "u"): {"v": 1}, ("v", "v"): {"u": 1}}, check=False
        )
        fails(novikov_candidate(bad_alg))


def test_criterion_5_characters():
    with criterion("5 graded characters (Virasoro 0..10, oscillator 0..9, < 1 s each)"):
        t0 = time.monotonic()
        vir = VacuumModule(virasoro(), {"c": Fraction(1, 2)})
        assert vir.character(10) == [1, 0, 1, 1, 2, 2, 4, 4, 7, 8, 12]
        assert time.monotonic() - t0 < 1.0
        t0 = time.monotonic()
        heis = VacuumModule(heisenberg([[1]]), {"c": 1})
        assert heis.character(9) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
        assert time.monotonic() - t0 < 1.0
        assert vir.graded_dim(0) == 1 and heis.graded_dim(0) == 1


def test_criterion_6_borcherds_commutator():
    with criterion("6 commutator identity, degree <= 6, |m|,|n| <= 3, two modules, < 3 s"):
        t0 = time.monotonic()
        vir = VacuumModule(virasoro(), {"c": Fraction(1, 2)})
        w = vir.generator_state("omega")
        assert vir.borcherds_check(w, w, window=3, degree=6) == []
        aff = VacuumModule(affine(sl2(), sl2_form()), {"c": 1})
        e = aff.generator_state("e")
        f = aff.generator_state("f")
        assert aff.borcherds_check(e, f, window=3, degree=6) == []
        elapsed = time.monotonic() - t0
        assert elapsed < 3.0, f"took {elapsed:.2f} s"


def test_criterion_7_p2_structures():
    with criterion("7 quotient Poisson structures and 50-sample comparison"):
        # Virasoro: polynomial ring on the conformal class, zero bracket
        vir = virasoro()
        pres = p2_structure(vir, {"c": Fraction(1, 2)})
        assert pres.generators == ("omega", "c")
        assert pres.table == {}
        assert len(pres.ideal) == 1
        assert verify_p2_iso(vir, {"c": Fraction(1, 2)}, samples=50, seed=7) == []
        # loop: the symmetric algebra with structure-constant bracket
        lp = loop(sl2())
        pres = p2_structure(lp)
        g = sl2()
        for i in range(3):
            for j in range(3):
                assert pres.bracket_gens(i, j) == g.bracket_poly(i, j)
        assert verify_p2_iso(lp, {}, samples=50, seed=8) == []


def test_criterion_8_vertex_poisson_loop():
    with criterion("8 derivative-quotient of the loop bracket over sl2"):
        g = sl2()
        pres = pvpa_quotient(ultra_poisson_of_lie(g))
        assert pres.generators == g.names
        for i in range(3):
            for j in range(3):
                assert pres.bracket_gens(i, j) == g.bracket_poly(i, j)
        # agreement with the symmetric-algebra bracket on quadratic samples
        rng = random.Random(88)
        for _ in range(10):
            a = g.generator(rng.choice(g.names)) * g.generator(rng.choice(g.names))
            b = g.generator(rng.choice(g.names))
            assert pres.bracket_poly(a, b) == sym_poisson(g, a, b)


def test_criterion_9_lattice_suite():
    with criterion("9 rank-1 and A2 lattice algebras (exhaustive, < 10 s)"):
        t0 = time.monotonic()
        for k in (1, 2, 3):
            alg = build_pl_algebra(EvenLattice([[2 * k]]))
            assert alg.c2 == [(-1,), (0,), (1,)]
            assert alg.dim == 2 * k + 3
            assert alg.verify_axioms() == []
            report = bk_compare(k)
            assert report["problems"] == [], k
        a2 = build_pl_algebra(EvenLattice([[2, -1], [-1, 2]]))
        assert len(a2.c2) == 7
        assert a2.verify_axioms() == []
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_10_degenerations():
    with criterion("10 indefinite Gram matrices give the zero algebra"):
        for gram in ([[-2]], [[0, 1], [1, 0]]):
            info = detect_indefinite(EvenLattice(gram))
            assert info["zero_algebra"], gram
            alg = build_pl_algebra(EvenLattice(gram))
            assert alg.zero_algebra and alg.dim == 0


def test_criterion_11_base_algebra_criteria():
    with criterion("11 base-algebra criteria in both directions (>= 3 each)"):
        # degree-2 family: valid commutative associative bases pass
        tr3 = CommAlgebra(
            ("one", "t1", "t2"),
            {("one", "one"): {"one": 1}, ("one", "t1"): {"t1": 1},
             ("t1", "one"): {"t1": 1}, ("one", "t2"): {"t2": 1},
             ("t2", "one"): {"t2": 1}, ("t1", "t1"): {"t2": 1},
             ("t1", "t2"): {}, ("t2", "t1"): {}, ("t2", "t2"): {}},
        )
        split2 = CommAlgebra(
            ("p", "q"), {("p", "p"): {"p": 1}, ("q", "q"): {"q": 1}, ("p", "q"): {}},
        )
        positives = [dual_numbers(), tr3, split2]
        for alg in positives:
            s = novikov(alg)  # the exact certificate runs at construction
            assert s.verify_jacobi(3) == []
        # and invalid bases fail
        non_assoc = CommAlgebra(
            ("u", "v"), {("u", "u"): {"v": 1}, ("v", "v"): {"u": 1}}, check=False
        )
        non_assoc2 = CommAlgebra(
            ("u", "v"), {("u", "u"): {"v": 1}, ("u", "v"): {"u": 1},
                         ("v", "u"): {"u": 1}, ("v", "v"): {}},
            check=False,
        )
        non_comm = CommAlgebra(
            ("u", "v"), {("u", "v"): {"u": 1}, ("v", "u"): {}}, check=False
        )
        assert non_assoc.check_axioms() and non_assoc2.check_axioms()
        for alg in (non_assoc, non_assoc2):
            cand = novikov_candidate(alg)
            assert cand.verify_jacobi(3, ordered=True), "expected a Jacobi failure"
        cand = novikov_candidate(non_comm)
        assert cand.verify_skew_symmetry(3), "expected a skew failure"

        # quadratic-central family: vanishing triple products iff Jacobi
        zero1 = CommAlgebra(("u",), {})
        zero2 = CommAlgebra(("u1", "u2"), {})
        sq2 = CommAlgebra(("u1", "u2"), {("u1", "u1"): {"u2": 1}})
        for alg in (zero1, zero2, sq2):
            rep = b3_criterion(alg)
            assert rep["jacobi_pass"] and rep["cube_zero"] and rep["agree"]
        unital1 = CommAlgebra(("one",), {("one", "one"): {"one": 1}})
        tr4 = CommAlgebra(
            ("t1", "t2", "t3"),
            {("t1", "t1"): {"t2": 1}, ("t1", "t2"): {"t3": 1},
             ("t2", "t1"): {"t3": 1}, ("t1", "t3"): {}, ("t3", "t1"): {},
             ("t2", "t2"): {}, ("t2", "t3"): {}, ("t3", "t2"): {},
             ("t3", "t3"): {}},
        )
        for alg in (unital1, dual_numbers(), tr4):
            rep = b3_criterion(alg)
            assert not rep["cube_zero"] and not rep["jacobi_pass"] and rep["agree"]

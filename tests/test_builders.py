"""The named builders against the constructions they replaced.

Each ``oracle_*`` below writes its structure out in full, table loop and
central line included, as the builders once did; the builders now share one
Lie table and one central line, and must give the same structures.
"""

from fractions import Fraction

import pytest

from vlie.lie_core import BilinearForm, check_invariance, sl2, sl2_form
from vlie.vertex_lie import (
    CommAlgebra,
    VLStructure,
    affine,
    b3_criterion,
    heisenberg,
    loop,
    novikov,
    novikov_candidate,
    quadratic_central_candidate,
    virasoro,
    witt,
)

from test_vertex_lie import dual_numbers, square_to_second


def oracle_witt():
    return VLStructure(
        basis=("omega",), degrees=(2,), d_domain=(), d_matrix=None,
        table={("omega", "omega"): [({"omega": 1}, 1, 0), ({"omega": -2}, 0, 1)]},
        name="witt",
    ).certify()


def oracle_virasoro():
    return VLStructure(
        basis=("omega", "c"), degrees=(2, 0), d_domain=("c",), d_matrix={"c": {}},
        table={
            ("omega", "omega"): [({"omega": 1}, 1, 0), ({"omega": -2}, 0, 1),
                                 ({"c": Fraction(-1, 12)}, 0, 3)],
            ("omega", "c"): [],
            ("c", "c"): [],
        },
        name="virasoro",
    ).certify()


def oracle_loop(g):
    table = {}
    for i, a in enumerate(g.names):
        for j, b in enumerate(g.names):
            table[(a, b)] = [({g.names[k]: c for k, c in g.bracket_basis(i, j).items()}, 0, 0)]
    return VLStructure(basis=g.names, degrees=(1,) * g.dim, d_domain=(), d_matrix=None,
                       table=table, name="loop").certify()


def oracle_affine(g, form, highest_root=None):
    problems = check_invariance(g, form)
    if problems:
        raise ValueError("form is not invariant: " + "; ".join(problems[:3]))
    table = {}
    for i, a in enumerate(g.names):
        for j, b in enumerate(g.names):
            table[(a, b)] = [({g.names[k]: c for k, c in g.bracket_basis(i, j).items()}, 0, 0),
                             ({"c": -form.value(i, j)}, 0, 1)]
    return VLStructure(
        basis=g.names + ("c",), degrees=(1,) * g.dim + (0,), d_domain=("c",),
        d_matrix={"c": {}}, table=table, name="affine",
        meta=None if highest_root is None else {"highest_root": highest_root},
    ).certify()


def oracle_heisenberg(d_matrix):
    form = BilinearForm(d_matrix)
    r = len(form.matrix)
    names = tuple(f"u{i}" for i in range(1, r + 1))
    table = {}
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            table[(a, b)] = [({"c": -form.value(i, j)}, 0, 1)]
    return VLStructure(basis=names + ("c",), degrees=(1,) * r + (0,), d_domain=("c",),
                       d_matrix={"c": {}}, table=table, name="heisenberg").certify()


def _oracle_product_table(algebra, form, terms):
    names = algebra.names
    return {
        (a, b): terms({names[k]: c for k, c in algebra.product_basis(i, j).items()},
                      form.value(i, j))
        for i, a in enumerate(names) for j, b in enumerate(names)
    }


def _oracle_novikov_terms(ab, v):
    return [({n: Fraction(c) / 2 for n, c in ab.items()}, 1, 0),
            ({n: -c for n, c in ab.items()}, 0, 1),
            ({"c": Fraction(-1, 6) * v}, 0, 3)]


def oracle_novikov(algebra, form=None):
    r = len(algebra.names)
    if form is None:
        form = BilinearForm([[0] * r for _ in range(r)])
    problems = check_invariance(algebra, form)
    if problems:
        raise ValueError("form is not associative: " + "; ".join(problems[:3]))
    return VLStructure(
        basis=algebra.names + ("c",), degrees=(2,) * r + (0,), d_domain=("c",),
        d_matrix={"c": {}}, table=_oracle_product_table(algebra, form, _oracle_novikov_terms),
        name="novikov",
    ).certify()


def _oracle_candidate(algebra, form, terms, name):
    r = len(algebra.names)
    if form is None:
        form = BilinearForm([[0] * r for _ in range(r)], require_symmetric=False)
    return VLStructure(basis=algebra.names + ("c",), degrees=None, d_domain=("c",),
                       d_matrix={"c": {}}, table=_oracle_product_table(algebra, form, terms),
                       name=name)


def oracle_novikov_candidate(algebra, form=None):
    return _oracle_candidate(algebra, form, _oracle_novikov_terms, "novikov-candidate")


def oracle_quadratic_central_candidate(algebra, form=None):
    return _oracle_candidate(
        algebra, form,
        lambda ab, v: [({n: -c for n, c in ab.items()}, 1, 1), (ab, 0, 2), ({"c": v}, 0, 2)],
        "b3-candidate")


def fields(s: VLStructure, drop=()) -> dict:
    """Everything a builder decides, with the table pairs in ``drop`` left out."""
    table = {pair: entry for pair, entry in s._table.items()
             if (s.basis[pair[0]], s.basis[pair[1]]) not in drop}
    return {"basis": s.basis, "degrees": s.degrees, "d_domain": s.d_domain, "d_map": s.d_map,
            "table": table, "u0_prime_names": s.u0_prime_names,
            "u_prime_names": s.u_prime_names, "meta": s.meta, "name": s.name,
            "certified": s.certified}


SYMMETRIC = BilinearForm([[1, 1], [1, 0]])
NON_SYMMETRIC = BilinearForm([[1, 2], [0, Fraction(-1, 3)]], require_symmetric=False)

CASES = {
    "witt": (witt, oracle_witt),
    "loop-sl2": (lambda: loop(sl2()), lambda: oracle_loop(sl2())),
    "affine-sl2": (lambda: affine(sl2(), sl2_form()),
                   lambda: oracle_affine(sl2(), sl2_form())),
    "affine-sl2-root": (lambda: affine(sl2(), sl2_form(), highest_root="e"),
                        lambda: oracle_affine(sl2(), sl2_form(), highest_root="e")),
    "heisenberg-1": (lambda: heisenberg([[1]]), lambda: oracle_heisenberg([[1]])),
    "heisenberg-2": (lambda: heisenberg([[2, 1], [1, 3]]),
                     lambda: oracle_heisenberg([[2, 1], [1, 3]])),
    "heisenberg-3": (lambda: heisenberg([[2, 0, 1], [0, 1, "1/2"], [1, "1/2", 3]]),
                     lambda: oracle_heisenberg([[2, 0, 1], [0, 1, "1/2"], [1, "1/2", 3]])),
    "novikov": (lambda: novikov(dual_numbers()), lambda: oracle_novikov(dual_numbers())),
    "novikov-form": (lambda: novikov(dual_numbers(), SYMMETRIC),
                     lambda: oracle_novikov(dual_numbers(), SYMMETRIC)),
}
for form_name, form in (("", None), ("-symmetric", SYMMETRIC), ("-non-symmetric", NON_SYMMETRIC)):
    for name, new, old in (("novikov-candidate", novikov_candidate, oracle_novikov_candidate),
                           ("b3-candidate", quadratic_central_candidate,
                            oracle_quadratic_central_candidate)):
        CASES[name + form_name] = (lambda new=new, form=form: new(dual_numbers(), form),
                                   lambda old=old, form=form: old(dual_numbers(), form))


class TestBuilderEquivalence:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_structure(self, case):
        new, old = CASES[case]
        assert fields(new()) == fields(old())

    def test_virasoro_without_its_empty_entries(self):
        # a missing pair is the zero bracket, so the two empty entries go
        drop = (("omega", "c"), ("c", "c"))
        assert fields(virasoro()) == fields(oracle_virasoro(), drop)
        assert all(oracle_virasoro()._table[pair] == {} for pair in ((0, 1), (1, 1)))


class TestBuilderErrors:
    @pytest.mark.parametrize("matrix, message", [
        ([[1, 2], [3, 4]], "form matrix must be symmetric"),
        ([[1, 0]], "form matrix must be square"),
    ])
    def test_heisenberg(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            heisenberg(matrix)

    @pytest.mark.parametrize("form, message", [
        (BilinearForm([[1, 0], [0, 1]]), "form is not associative: "),
        (BilinearForm([[1]]), "form dimension does not match the algebra"),
    ])
    def test_novikov(self, form, message):
        with pytest.raises(ValueError, match=message):
            novikov(dual_numbers(), form)

    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("build", [novikov_candidate, quadratic_central_candidate,
                                       b3_criterion])
    def test_a_form_of_the_wrong_size(self, build, size):
        # only the top-left block was read, or an IndexError was raised
        form = BilinearForm([[int(i == j) for j in range(size)] for i in range(size)])
        for algebra in (dual_numbers(), square_to_second(), CommAlgebra(("u1", "u2"), {})):
            with pytest.raises(ValueError, match="form dimension does not match the algebra"):
                build(algebra, form)

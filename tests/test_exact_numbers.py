"""Exact numbers keep their narrowest type through the caches.

Every coefficient that the suite's workloads leave behind in a structure's
mode and bracket caches, a vacuum module's memos, or a lattice algebra's
tables and reducers is an ``int`` when it is integral, a ``Fraction`` only
when it is not, and never a float: integer work must stay integral, and a
bare ``/`` between two ints would show up here as a float.
"""

from fractions import Fraction

import pytest

from vlie.config import build_structure
from vlie.lattice_c2 import EvenLattice, build_pl_algebra
from vlie.vacuum_module import VacuumModule

SUITE_BUILDERS = ("witt", "virasoro", "loop-sl2", "affine-sl2", "heisenberg:2", "novikov-dual")


def inexact(values) -> list:
    """The values that are floats, or Fractions with denominator 1."""
    return [c for c in values
            if not (type(c) is int or (type(c) is Fraction and c.denominator != 1))]


def structure_values(s) -> list:
    out = [c for row in s._decomp_inv for c in row.values()]
    for cache in (s._mode_cache, s._bracket_cache):
        out.extend(c for modes in cache.values() for c in modes.values())
    return out


@pytest.mark.parametrize("builder", SUITE_BUILDERS)
def test_builder_caches_hold_exact_types(builder):
    s = build_structure(builder)
    assert s.verify_jacobi(2) == []
    values = structure_values(s)
    assert s._mode_cache and s._bracket_cache
    assert inexact(values) == []


@pytest.mark.parametrize("builder, lam, a, b", [
    ("virasoro", {"c": Fraction(1, 2)}, "omega", "omega"),
    ("affine-sl2", {"c": 1}, "e", "f"),
])
def test_vacuum_memos_hold_exact_types(builder, lam, a, b):
    s = build_structure(builder)
    module = VacuumModule(s, lam)
    sa, sb = module.generator_state(a), module.generator_state(b)
    assert module.borcherds_check(sa, sb, 2, 4) == []
    # a single creator u(-1)1 reads the action memo, so a_{-1} of the
    # two-creator state a(-1)b(-1)1 is what fills the mode memo
    ab = module.mode_of_state(sa, -1, sb)
    assert ab and all(len(mono) == 2 for mono in ab)
    assert module.mode_of_state(ab, -1, sb)
    values = structure_values(s)
    sizes = module.memo_sizes()
    assert sizes["act"] and sizes["mode"]
    act_values = [state for table in module._act_memo.values() for state in table.values()]
    mode_values = [state for by_n in module._mode_memo.values()
                   for table in by_n.values() for state in table.values()]
    for memo in (act_values, mode_values):
        # memo values are keyed by monomial ids
        assert all(type(t) is int for state in memo for t in state)
        values.extend(c for state in memo for c in state.values())
    assert inexact(values) == []
    if builder == "affine-sl2":
        # level 1 and integral structure constants: nothing is a Fraction
        assert {type(c) for c in values} == {int}


def test_lattice_tables_hold_exact_types():
    alg = build_pl_algebra(EvenLattice([[2, -1], [-1, 2]]))
    values = []
    for table in (alg.multiplication_table(), alg.bracket_table()):
        values.extend(c for entry in table.values() for c in entry.values())
    for reducer in alg.sectors.values():
        for echelon in reducer._echelon.values():
            values.extend(c for row in echelon.rows.values() for c in row.values())
    assert inexact(values) == []
    # the 1/n! factors of the lattice algebra are genuine Fractions
    assert Fraction in {type(c) for c in values}

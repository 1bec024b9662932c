import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from vlie.config import build_structure
from vlie.formal_calc import DPoly, gen_binomial
from vlie.linalg import add_into, clean
from vlie.lie_core import sl2, sl2_form
from vlie.poisson_c2 import c2_reduce, p2_structure
from vlie.vacuum_module import VACUUM, VacuumModule, central_character
from vlie.vertex_lie import VLStructure, affine, heisenberg, loop, virasoro, witt


def state_add(a, b, scale=1):
    return add_into(dict(a), b, scale)


def state_scale(a, c):
    return add_into({}, a, c)


def state_eq(a, b) -> bool:
    return clean(a) == clean(b)


def lie_admissible_bracket(module, a, b):
    """a_{-1} b - b_{-1} a."""
    return state_add(
        module.mode_of_state(a, -1, b), module.mode_of_state(b, -1, a), -1
    )


def iterate_mode(module, mono, n, b_mono, memo, act=None):
    """(mono 1)_n b_mono by the iterate expansion alone, single creators
    included: the oracle of the closed form in ``mode_of_state``.

    For mono = u(-k-1) tail, with both sums cut by degree bounds,
    a_n b = sum_i binom(-k-1, i) (-1)^i u(-k-1-i) tail_{n+i} b
          - sum_i binom(-k-1, i) (-1)^(k+1+i) tail_{n-k-1-i} u(i) b.
    ``act(name, n, state)`` applies a mode, ``module.act`` by default.
    """
    act = act or module.act
    if not mono:
        return {b_mono: 1} if n == -1 else {}
    key = (mono, n, b_mono)
    if key in memo:
        return memo[key]
    (hn, _, idx), tail = mono[0], mono[1:]
    k = -hn - 1
    name = module.structure.u_prime_names[idx]
    deg_b = module.monomial_degree(b_mono)
    bound_first = module.monomial_degree(tail) + deg_b - n - 1
    bound_second = module.structure.degree_of(name) + deg_b - 1
    result = {}
    for i in range(max(bound_first, bound_second) + 1):
        coeff = gen_binomial(-k - 1, i)
        if i <= bound_first:
            inner = iterate_mode(module, tail, n + i, b_mono, memo, act)
            add_into(result, act(name, -k - 1 - i, inner), coeff * (-1) ** i)
        if i <= bound_second:
            for ub_mono, c in act(name, i, {b_mono: 1}).items():
                inner = iterate_mode(module, tail, n - k - 1 - i, ub_mono, memo, act)
                add_into(result, inner, -coeff * (-1) ** (k + 1 + i) * c)
    memo[key] = result
    return result


@pytest.fixture(scope="module")
def vir():
    return virasoro()


@pytest.fixture(scope="module")
def vir_half(vir):
    return VacuumModule(vir, {"c": Fraction(1, 2)})


@pytest.fixture(scope="module")
def heis1():
    return VacuumModule(heisenberg([[1]]), {"c": 1})


@pytest.fixture(scope="module")
def aff(vir):
    return VacuumModule(affine(sl2(), sl2_form()), {"c": 1})


SUITE_BUILDERS = ("witt", "virasoro", "loop-sl2", "affine-sl2", "heisenberg:2", "novikov-dual")


@pytest.mark.parametrize("builder", SUITE_BUILDERS)
def test_modes_and_creators_share_one_symbol(builder):
    # a generator's mode is the one-term dict over the module's creation
    # symbol, and acting with it on the vacuum gives the one-symbol monomial
    structure = build_structure(builder)
    module = VacuumModule(structure)
    pairs = [(name, n) for name in structure.u_prime_names for n in (-3, -2, -1)]
    pairs += [(name, -1) for name in structure.u0_prime_names]
    for name, n in pairs:
        sym = module.creator(name, n)
        assert structure.mode(name, n) == {sym: 1}, (name, n)
        assert module.act(name, n, module.vacuum()) == {(sym,): 1}, (name, n)


class TestAct:
    def test_annihilators_kill_vacuum(self, vir_half):
        for n in range(0, 5):
            assert vir_half.act("omega", n, vir_half.vacuum()) == {}

    def test_virasoro_central_value(self, vir_half):
        # L(2) L(-2) 1 = (c0/2) 1 with L(p) = omega(p+1)
        s = vir_half.act("omega", -1, vir_half.vacuum())
        out = vir_half.act("omega", 3, s)
        assert out == {(): Fraction(1, 4)}

    def test_heisenberg_pairing(self, heis1):
        s = heis1.act("u1", -1, heis1.vacuum())
        out = heis1.act("u1", 1, s)
        assert out == {(): Fraction(1)}

    def test_unknown_mode_raises(self, vir_half):
        with pytest.raises(KeyError):
            vir_half.act("zeta", 0, vir_half.vacuum())

    def test_degree_shift_exact(self, vir_half):
        # acting by u(n) shifts degree by deg u - n - 1
        state = vir_half.state([([("omega", -2), ("omega", -1)], 1)])
        for n in (-3, -1, 0, 2):
            out = vir_half.act("omega", n, state)
            if out:
                assert vir_half.state_degree(out) == vir_half.state_degree(state) + 2 - n - 1

    def test_normal_ordering_confluence(self, vir_half, aff):
        # applying a word of modes must agree with applying it after
        # splitting at every cut point (associativity of the action)
        rng = random.Random(17)
        for module, names in ((vir_half, ["omega"]), (aff, ["e", "h", "f"])):
            base = module.state([([(names[0], -2), (names[-1], -1)], 1)])
            for _ in range(12):
                word = [
                    (rng.choice(names), rng.randint(-3, 3))
                    for _ in range(rng.randint(2, 4))
                ]
                full = base
                for name, n in reversed(word):
                    full = module.act(name, n, full)
                for cut in range(1, len(word)):
                    part = base
                    for name, n in reversed(word[cut:]):
                        part = module.act(name, n, part)
                    for name, n in reversed(word[:cut]):
                        part = module.act(name, n, part)
                    assert state_eq(part, full), (word, cut)

    def test_central_symbol_without_lambda(self, vir):
        mod = VacuumModule(vir)
        out = mod.act("c", -1, mod.vacuum())
        assert list(out) == [((-1, 0, 0),)]
        # and c(n) for n != -1 vanishes
        assert mod.act("c", 0, mod.vacuum()) == {}
        assert mod.act("c", -2, mod.vacuum()) == {}


class TestCharacters:
    def test_virasoro_depths(self, vir_half):
        assert vir_half.character(10) == [1, 0, 1, 1, 2, 2, 4, 4, 7, 8, 12]

    def test_heisenberg_partition_numbers(self, heis1):
        assert heis1.character(9) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]

    def test_depth_zero_is_one(self, vir_half, heis1, aff):
        for module in (vir_half, heis1, aff):
            assert module.graded_dim(0) == 1

    def test_enumeration_matches_counts(self, vir_half, heis1, aff):
        for module, depth in ((vir_half, 9), (heis1, 8), (aff, 5)):
            for d in range(depth + 1):
                assert len(module.basis_monomials(d)) == module.graded_dim(d), (module, d)

    def test_character_requires_lambda(self, vir):
        mod = VacuumModule(vir)
        with pytest.raises(ValueError):
            mod.graded_dim(2)

    def test_ungraded_refused(self):
        s = VLStructure(
            ("omega",), None, (), None,
            {("omega", "omega"): [({"omega": 1}, 1, 0), ({"omega": -2}, 0, 1)]},
            name="witt-ungraded",
        ).certify()
        mod = VacuumModule(s)
        with pytest.raises(ValueError, match="graded"):
            mod.graded_dim(2)
        with pytest.raises(ValueError, match="graded"):
            mod.mode_of_state(mod.vacuum(), -1, mod.vacuum())


class TestModeOfState:
    def test_vacuum_mode_is_identity(self, vir_half):
        b = vir_half.state([([("omega", -3), ("omega", -1)], Fraction(2, 3))])
        assert vir_half.mode_of_state(vir_half.vacuum(), -1, b) == b
        assert vir_half.mode_of_state(vir_half.vacuum(), 0, b) == {}

    def test_generator_modes_match_act(self, vir_half, aff):
        for module, names in ((vir_half, ["omega"]), (aff, ["e", "h", "f"])):
            states = module.basis_states_upto(4)
            for name in names:
                gen = module.generator_state(name)
                for n in range(-4, 4):
                    for b in states[:10]:
                        assert state_eq(
                            module.mode_of_state(gen, n, b), module.act(name, n, b)
                        )

    def test_translate_of_generator(self, vir_half):
        # omega_0 omega = omega(-2) 1
        w = vir_half.generator_state("omega")
        out = vir_half.mode_of_state(w, 0, w)
        assert out == {((-2, 1, 0),): Fraction(1)}

    def test_affine_zero_mode(self, aff):
        e, f = aff.generator_state("e"), aff.generator_state("f")
        out = aff.mode_of_state(e, 0, f)
        assert out == aff.generator_state("h")
        # cross-check against double application
        direct = aff.act("e", 0, f)
        assert state_eq(out, direct)

    @pytest.mark.parametrize("builder", SUITE_BUILDERS)
    def test_closed_form_matches_iterate_oracle(self, builder):
        # every pair of basis states up to degree 3, n in [-3, 3]: single
        # creators take the derivative formula, the oracle the expansion
        module = VacuumModule(build_structure(builder))
        monos = [m for d in range(4) for m in module.basis_monomials(d)]
        memo = {}
        for a in monos:
            for b in monos:
                for n in range(-3, 4):
                    got = module.mode_of_state({a: 1}, n, {b: 1})
                    assert got == iterate_mode(module, a, n, b, memo), (a, n, b)

    def test_translate_identity_oracle(self, vir_half, aff):
        # (u(-2)1)_n = -n u(n-1) and (u(-3)1)_n = binom(1-n, 2) u(n-2), the
        # mode form of translation covariance, with the coefficients for
        # n = -3..3 worked out by hand
        by_hand = {
            (-2, 1): (3, 2, 1, 0, -1, -2, -3),
            (-3, 2): (6, 3, 1, 0, 0, 1, 3),
        }
        for module, name in ((vir_half, "omega"), (aff, "e")):
            for (mode, k), coeffs in by_hand.items():
                a = module.state([([(name, mode)], 1)])
                for b in module.basis_states_upto(4)[:8]:
                    for n, c in zip(range(-3, 4), coeffs):
                        want = state_scale(module.act(name, n - k, b), c)
                        assert module.mode_of_state(a, n, b) == want, (name, mode, n)

    def test_mixed_state_is_sum_over_monomials(self, vir_half, aff):
        # the memo is keyed by monomials of b and shared across states, so a
        # mixed-degree b on a warm module must match per-monomial results on
        # new modules
        for module, name in ((vir_half, "omega"), (aff, "e")):
            a = module.state([([(name, -2)], 1), ([(name, -1), (name, -1)], Fraction(-3, 2))])
            pool = module.basis_states_upto(4)
            picks = [pool[0], pool[1], pool[3], pool[-1]]
            b = {}
            for coeff, s in zip((2, Fraction(1, 3), -1, 5), picks):
                add_into(b, s, coeff)
            assert len({module.state_degree({m: 1}) for m in b}) >= 3
            for n in range(-3, 4):
                want = {}
                for mono, c in b.items():
                    fresh = VacuumModule(module.structure, module.lam)
                    add_into(want, fresh.mode_of_state(a, n, {mono: Fraction(1)}), c)
                assert module.mode_of_state(a, n, b) == want, (name, n)


def oracle_act_key(module, sym, mono, memo):
    """One canonical mode on one canonical monomial by the two
    normal-ordering moves, each term joined by ``add_into``: the oracle of
    the inline sums of ``VacuumModule._act_key``, with its own memo."""
    key = (sym, mono)
    if key in memo:
        return memo[key]
    n, cls, idx = sym
    structure = module.structure
    if cls == 0:
        if module.lam is not None:
            result = {mono: module.lam[structure.u0_prime_names[idx]]}
        else:
            result = {tuple(sorted(mono + (sym,))): 1}
    elif not mono:
        result = {(sym,): 1} if n <= -1 else {}
    elif n <= -1 and sym <= mono[0]:
        result = {(sym,) + mono: 1}
    else:
        # u(n) s1 rest = s1 u(n) rest + [u(n), s1] rest
        head, tail = mono[0], mono[1:]
        result = {}
        for new_mono, c in oracle_act_key(module, sym, tail, memo).items():
            if not new_mono or head <= new_mono[0]:
                add_into(result, {(head,) + new_mono: 1}, c)
            else:
                add_into(result, oracle_act_key(module, head, new_mono, memo), c)
        bracket = {} if head[1] == 0 else structure.symbol_bracket(sym, head)
        for s, c in bracket.items():
            add_into(result, oracle_act_key(module, s, tail, memo), c)
    memo[key] = result
    return result


def oracle_act(module, name, n, state, memo):
    """u(n) applied to a state through ``oracle_act_key`` alone: the
    tuple-keyed oracle of ``act``."""
    out = {}
    for sym, c in module.structure.mode(name, n).items():
        for mono, mc in state.items():
            add_into(out, oracle_act_key(module, sym, mono, memo), c * mc)
    return out


def reference_borcherds(module, a, b, window, degree, limit=5):
    """The oracle of ``borcherds_check``'s in-place accumulation: separate
    lhs and rhs through the public ``mode_of_state``, joined by
    ``state_add``.  With ``limit=None`` it lists every mismatch."""
    products = module.modes_of_pair(a, b)
    states = module.basis_states_upto(degree)
    fmt = module.format_state
    problems = []
    for m in range(-window, window + 1):
        for n in range(-window, window + 1):
            for s in states:
                lhs = state_add(
                    module.mode_of_state(a, m, module.mode_of_state(b, n, s)),
                    module.mode_of_state(b, n, module.mode_of_state(a, m, s)),
                    -1,
                )
                rhs = {}
                for i, aib in products.items():
                    add_into(rhs, module.mode_of_state(aib, m + n - i, s), gen_binomial(m, i))
                if lhs != rhs:
                    problems.append(
                        f"commutator mismatch at m={m}, n={n} on state {fmt(s)}: "
                        f"{fmt(lhs)} vs {fmt(rhs)}"
                    )
                    if len(problems) == limit:
                        return problems
    return problems


def tampered_affine():
    """Affine sl2 at level 1 with the memo entry e(0) f(-1)1 = h(-1)1
    doubled, before anything reads it."""
    module = VacuumModule(affine(sl2(), sl2_form()), {"c": 1})
    [e0] = module.structure.mode("e", 0)
    key = (e0, module._id(module.monomial([("f", -1)])))
    module._act_memo[key] = {t: 2 * c for t, c in module._act_key(*key).items()}
    return module


def tampered_virasoro():
    """Virasoro at c = 1/2 with the mode memo entry (omega(-2)1)_2 1, which
    is -2 omega(1)1 = 0, set to the vacuum before anything reads it.  With a = omega(-2)1 the
    product a_1 b is -omega(-2)1, so the entry is read by the right-side
    term i = 1 at t = m+n-1 = 2, first at m = 1, n = 2: a cell with m < 0
    would need n > 3, and at m = 0 the term has coefficient binom(0, 1) = 0."""
    module = VacuumModule(virasoro(), {"c": Fraction(1, 2)})
    vacuum = module._id(VACUUM)
    module._mode_memo[(module._id(module.monomial([("omega", -2)])), 2, vacuum)] = {vacuum: 1}
    return module


def unit(*symbols):
    """The state items of one monomial with coefficient 1."""
    return [(list(symbols), 1)]


BORCHERDS_CASES = {
    "virasoro": (lambda: VacuumModule(virasoro(), {"c": Fraction(1, 2)}),
                 unit(("omega", -1)), unit(("omega", -1)), 3, 4),
    "affine-sl2": (lambda: VacuumModule(affine(sl2(), sl2_form()), {"c": 1}),
                   unit(("e", -1)), unit(("f", -1)), 3, 4),
    "heisenberg": (lambda: VacuumModule(heisenberg([[1]]), {"c": 1}),
                   unit(("u1", -2)), unit(("u1", -1)), 3, 5),
    # several monomials with fractional coefficients on both sides, so every
    # column is a bilinear sum and not a memo value
    "virasoro-composite": (lambda: VacuumModule(virasoro(), {"c": Fraction(1, 2)}),
                           [([("omega", -1)], 2), ([("omega", -2)], Fraction(1, 3))],
                           [([("omega", -1), ("omega", -1)], 1), ([], Fraction(-1, 2))], 2, 4),
    # one monomial with a coefficient other than 1: no memo value may stand in
    "heisenberg-scaled": (lambda: VacuumModule(heisenberg([[1]]), {"c": 1}),
                          [([("u1", -2)], Fraction(-3, 2))], unit(("u1", -1)), 2, 4),
    "tampered-affine-sl2": (tampered_affine, unit(("e", -1)), unit(("f", -1)), 1, 2),
    "tampered-virasoro": (tampered_virasoro, unit(("omega", -2)), unit(("omega", -1)), 3, 2),
}


class TestBorcherds:
    @pytest.mark.parametrize("case", sorted(BORCHERDS_CASES))
    def test_matches_reference_loop(self, case):
        # each side on its own fresh module, so no memo entry is shared
        make, a, b, window, degree = BORCHERDS_CASES[case]
        module = make()
        sa, sb = module.state(a), module.state(b)
        got = module.borcherds_check(sa, sb, window, degree)
        assert got == reference_borcherds(make(), sa, sb, window, degree)
        assert (got == []) == (not case.startswith("tampered-"))

    def test_tampered_memo_fails_with_five_problems(self):
        # e_0 f reads the doubled entry, so (e_0 f)_{m+n} = 2 h(m+n) on the
        # right, while [e_m, f_n] gives h(m+n) wherever it misses f(-1)
        module = tampered_affine()
        e, f = module.generator_state("e"), module.generator_state("f")
        assert module.borcherds_check(e, f, 1, 2) == [
            "commutator mismatch at m=-1, n=-1 on state 1: h(-2)1 vs 2*h(-2)1",
            "commutator mismatch at m=-1, n=-1 on state e(-1)1: "
            "h(-2)e(-1)1 vs 2*h(-2)e(-1)1",
            "commutator mismatch at m=-1, n=-1 on state h(-1)1: "
            "h(-2)h(-1)1 vs 2*h(-2)h(-1)1",
            "commutator mismatch at m=-1, n=-1 on state f(-1)1: "
            "h(-2)f(-1)1 vs 2*h(-2)f(-1)1",
            "commutator mismatch at m=-1, n=-1 on state e(-2)1: "
            "2*e(-4)1 + e(-2)h(-2)1 vs 4*e(-4)1 + 2*e(-2)h(-2)1",
        ]
        # the check stops at five of the mismatches there are
        assert len(reference_borcherds(tampered_affine(), e, f, 1, 2, limit=None)) > 5

    def test_single_creators_share_the_act_memo(self, aff):
        # after the benchmark's affine check, no mode memo key is headed by
        # a lone u(-1): those modes are the action memo's own entries
        module = VacuumModule(aff.structure, aff.lam)
        e, f = module.generator_state("e"), module.generator_state("f")
        assert module.borcherds_check(e, f, 3, 5) == []
        assert module.memo_sizes()["act"] == 13247
        heads = [module._monos[key[0]] for key in module._mode_memo]
        assert not [mono for mono in heads if len(mono) == 1 and mono[0][0] == -1]
        a = module._id(module.monomial([("e", -1)]))
        b = module._id(module.monomial([("h", -1), ("f", -2)]))
        [e2] = module.structure.mode("e", 2)
        assert module._mode_of_monomial(a, 2, b) is module._act_memo[(e2, b)]

    @pytest.mark.parametrize("case", ["affine-sl2", "virasoro-composite"])
    def test_act_memo_matches_oracle(self, case):
        # every action memo entry the check leaves at the benchmark's window
        # 3 and degree 5 equals the add_into oracle in value and in the type
        # of each coefficient
        make, a, b, _, _ = BORCHERDS_CASES[case]
        module = make()
        assert module.borcherds_check(module.state(a), module.state(b), 3, 5) == []
        memo = {}
        for (sym, t), value in module._act_memo.items():
            # through the id map: the key's monomial and the value's keys
            mono, got = module._monos[t], module._state_of(value)
            want = oracle_act_key(module, sym, mono, memo)
            assert len(got) == len(value) and got == want, (sym, mono)
            assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}
        assert module.memo_sizes()["act"] > 500

    def test_right_side_list_shared_by_t(self):
        # the tampered entry enters through the i = 1 term: first at m = 1,
        # n = 2, then again at m = 2, n = 1 with binom(2, 1) = 2, both from
        # the one right-side list of t = 2, i = 1; the lhs reads it at m = 2
        module = tampered_virasoro()
        a, b = module.state(unit(("omega", -2))), module.generator_state("omega")
        assert module.borcherds_check(a, b, 3, 2) == [
            "commutator mismatch at m=1, n=2 on state 1: 0 vs -1",
            "commutator mismatch at m=2, n=-3 on state 1: -9*omega(-3)1 vs -8*omega(-3)1",
            "commutator mismatch at m=2, n=-2 on state 1: -7*omega(-2)1 vs -6*omega(-2)1",
            "commutator mismatch at m=2, n=-1 on state 1: -5*omega(-1)1 vs -4*omega(-1)1",
            "commutator mismatch at m=2, n=1 on state 1: 0 vs -2*1",
        ]

    @pytest.mark.parametrize("window, degree", [(-1, 3), (3, -1), (-2, -2)])
    def test_negative_window_or_degree_raises(self, vir_half, window, degree):
        w = vir_half.generator_state("omega")
        with pytest.raises(ValueError, match="^window and degree must be nonnegative"):
            vir_half.borcherds_check(w, w, window, degree)

    def test_zero_state_raises(self, vir_half):
        w = vir_half.generator_state("omega")
        cancelled = vir_half.state([([("omega", -1)], 1), ([("omega", -1)], -1)])
        for a, b in ((w, {}), ({}, w), (cancelled, w), (w, {(): 0})):
            with pytest.raises(ValueError, match="^a zero state satisfies the identity trivially"):
                vir_half.borcherds_check(a, b, 2, 2)

    def test_virasoro_window(self, vir_half):
        w = vir_half.generator_state("omega")
        assert vir_half.borcherds_check(w, w, window=3, degree=6) == []

    def test_heisenberg_composite(self, heis1):
        a = heis1.state([([("u1", -2)], 1)])
        b = heis1.generator_state("u1")
        assert heis1.borcherds_check(a, b, window=3, degree=6) == []

    def test_corrupted_table_fails(self):
        table = {
            ("h", "e"): [({"e": 2}, 0, 0)],
            ("e", "h"): [({"e": -2}, 0, 0)],
            ("h", "f"): [({"f": -2}, 0, 0)],
            ("f", "h"): [({"f": 2}, 0, 0)],
            ("e", "f"): [({"h": 1}, 0, 0), ({"e": 1}, 0, 1)],  # spurious term
            ("f", "e"): [({"h": -1}, 0, 0)],
        }
        s = VLStructure(
            basis=("e", "h", "f"),
            degrees=None,
            d_domain=(),
            d_matrix=None,
            table=table,
            name="corrupted",
        )
        # the certificate sees the corruption at every mode
        with pytest.raises(ValueError, match="^structure fails Lie axioms: skew fails for "):
            s.certify()
        assert not s.certified
        # the window at mode zero misses it; a wider window gives a witness
        assert s.verify_skew_symmetry(0) == []
        witnesses = s.verify_skew_symmetry(2)
        assert witnesses and "e(" in witnesses[0]


def coefficient_types(state):
    return {mono: type(c) for mono, c in state.items()}


PROPERTY_MODULES = {
    "virasoro": (lambda: VacuumModule(virasoro(), {"c": Fraction(1, 2)}), ("omega",)),
    "affine-sl2": (lambda: VacuumModule(affine(sl2(), sl2_form()), {"c": 1}), ("e", "h", "f")),
}


@pytest.fixture(scope="module")
def warm_modules():
    """One module per case, shared by every example, so its memos and
    interning table grow across the whole property run."""
    return {case: make() for case, (make, _) in PROPERTY_MODULES.items()}


def random_state(data, module, degree):
    monos = [m for d in range(degree + 1) for m in module.basis_monomials(d)]
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool)
    return data.draw(st.dictionaries(st.sampled_from(monos), coeffs, min_size=1, max_size=3))


class TestInterning:
    # affine sl2 at level 1 orders its complement e, h, f: idx 0, 1, 2
    UNSORTED = ((-1, 1, 0), (-2, 1, 2))  # e(-1)f(-2)
    POSITIVE = ((1, 1, 0),)  # e(1) is no creator

    def test_unsorted_monomial_raises(self, aff):
        # read as it stands, the unsorted monomial gave e(-1)h(-1)1 alone
        with pytest.raises(ValueError, match="are not sorted$"):
            aff.act("e", 1, {self.UNSORTED: 1})
        with pytest.raises(ValueError, match="are not sorted$"):
            aff.mode_of_state(aff.generator_state("e"), 0, {self.UNSORTED: 1})
        # its sorted form f(-2)e(-1) is accepted
        want = aff.state([([("e", -2)], 2), ([("e", -1), ("h", -1)], 1)])
        assert aff.act("e", 1, {tuple(sorted(self.UNSORTED)): 1}) == want

    def test_positive_mode_symbol_raises(self, aff):
        # read as a creator, e(1) gave h(-1)e(1)1
        sizes = aff.memo_sizes()
        with pytest.raises(ValueError, match=r"^\(1, 1, 0\) is not a creation symbol"):
            aff.act("h", -1, {self.POSITIVE: 1})
        with pytest.raises(ValueError, match="is not a creation symbol"):
            aff.borcherds_check({self.POSITIVE: 1}, aff.generator_state("f"), 1, 1)
        # a rejected monomial leaves no trace in the tables
        assert aff.memo_sizes() == sizes

    def test_tuple_helpers_raise(self, aff):
        # they read tuples without acting: e(1) printed as e(1)1, had degree
        # -1 and reduced to the generator e
        sizes = aff.memo_sizes()
        for helper in (aff.format_state, aff.state_degree, partial(c2_reduce, aff)):
            with pytest.raises(ValueError, match="is not a creation symbol"):
                helper({self.POSITIVE: 1})
            with pytest.raises(ValueError, match="are not sorted$"):
                helper({self.UNSORTED: 1})
        assert aff.memo_sizes() == sizes
        state = aff.state([([("f", -2), ("e", -1)], Fraction(1, 2)), ([("h", -1)], 3)])
        assert aff.format_state(state) == "1/2*f(-2)e(-1)1 + 3*h(-1)1"
        assert aff.state_degree(state) == 3
        assert c2_reduce(aff, state) == DPoly.variable(1, 0, 3)

    @pytest.mark.parametrize("mono", [
        ((-1, 0, 0),),  # a central symbol in a module with a central character
        ((-1, 1, 3),),  # no fourth complement generator
        ((-1, 2, 0),),  # no class 2
        ((-2, 1, 0), (0, 1, 1)),  # a sorted monomial with an annihilator
    ])
    def test_other_non_canonical_symbols_raise(self, aff, mono):
        with pytest.raises(ValueError, match="is not a creation symbol"):
            aff.act("e", -1, {mono: 1})

    def test_central_symbols_without_lambda(self, vir):
        module = VacuumModule(vir)
        c = (-1, 0, 0)
        # c(-1) sorts before omega(-1); at mode -2 the central symbol is refused
        out = module.act("omega", -1, {(c,): 1})
        assert out == {(c, (-1, 1, 0)): 1}
        with pytest.raises(ValueError, match="is not a creation symbol"):
            module.act("omega", -1, {((-2, 0, 0),): 1})

    def test_interning_invariants(self):
        module = VacuumModule(affine(sl2(), sl2_form()), {"c": 1})
        e, f = module.generator_state("e"), module.generator_state("f")
        assert module.borcherds_check(e, f, 2, 4) == []
        plain = VacuumModule(virasoro())
        plain.act("c", -1, plain.act("omega", -2, plain.generator_state("omega")))
        for mod in (module, plain):
            monos = mod._monos
            assert monos[0] == () and len(mod._ids) == len(monos) == mod.memo_sizes()["monomials"]
            for i, mono in enumerate(monos):
                assert mod._id(mono) == i
                if i:
                    assert mod._heads[i] == mono[0] and monos[mod._tails[i]] == mono[1:]
                    assert mod._cons[(mono[0], mod._tails[i])] == i
                    assert list(mono) == sorted(mono)
                if mod._graded:
                    assert mod._degs[i] == mod.monomial_degree(mono)
        assert any(sym[1] == 0 for mono in plain._monos for sym in mono)

    def test_memo_sizes_of_the_affine_check(self):
        module = VacuumModule(affine(sl2(), sl2_form()), {"c": 1})
        assert module.memo_sizes() == {"act": 0, "mode": 0, "monomials": 1}
        e, f = module.generator_state("e"), module.generator_state("f")
        assert module.borcherds_check(e, f, 3, 5) == []
        assert module.memo_sizes() == {"act": 13247, "mode": 0, "monomials": 3007}

    @pytest.mark.parametrize("case", sorted(PROPERTY_MODULES))
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_tuple_oracles(self, warm_modules, case, data):
        # random multi-monomial states with fractional coefficients on a
        # warm module against tuple-keyed oracles on a fresh one
        make, names = PROPERTY_MODULES[case]
        module, fresh = warm_modules[case], make()
        # a of degree <= 2 keeps the Borcherds check's products small
        a, b = random_state(data, module, 2), random_state(data, module, 3)
        name, n = data.draw(st.sampled_from(names)), data.draw(st.integers(-3, 3))
        act = partial(oracle_act, fresh, memo={})
        want = act(name, n, b)
        got = module.act(name, n, b)
        assert got == want and coefficient_types(got) == coefficient_types(want)
        want, memo = {}, {}
        for mono_a, ca in a.items():
            for mono_b, cb in b.items():
                add_into(want, iterate_mode(fresh, mono_a, n, mono_b, memo, act), ca * cb)
        got = module.mode_of_state(a, n, b)
        assert got == want and coefficient_types(got) == coefficient_types(want)
        # both modules are vertex algebras, so the identity holds
        assert module.borcherds_check(a, b, 1, 1) == reference_borcherds(fresh, a, b, 1, 1) == []


class TestLieAdmissible:
    def test_bracket_with_vacuum_vanishes(self, vir_half):
        for a in vir_half.basis_states_upto(4):
            assert lie_admissible_bracket(vir_half, a, vir_half.vacuum()) == {}

    def test_antisymmetry(self, vir_half):
        states = vir_half.basis_states_upto(5)
        for a in states:
            for b in states:
                lhs = lie_admissible_bracket(vir_half, a, b)
                rhs = lie_admissible_bracket(vir_half, b, a)
                assert state_eq(lhs, state_scale(rhs, -1))

    def test_jacobi_on_samples(self, vir_half):
        rng = random.Random(5)
        pool = vir_half.basis_states_upto(6)
        for _ in range(6):
            a, b, c = (rng.choice(pool) for _ in range(3))
            br = partial(lie_admissible_bracket, vir_half)
            acc = state_add(br(a, br(b, c)), br(b, br(c, a)))
            acc = state_add(acc, br(c, br(a, b)))
            assert acc == {}, (a, b, c)


class TestCentralCharacter:
    """One check of a central character, shared by the vacuum module and
    the Poisson presentation of its quotient."""

    def test_exact_values_on_the_central_generators(self):
        lam = central_character(virasoro(), {"c": "1/2"})
        assert lam == {"c": Fraction(1, 2)}
        assert type(central_character(virasoro(), {"c": Fraction(4, 2)})["c"]) is int
        assert central_character(witt(), {}) == {}

    @pytest.mark.parametrize("make, lam, message", [
        (witt, {"c": 1}, r"not a central generator: \['c'\]; central generators: \[\]"),
        (virasoro, {"c": 1, "zz": 3}, r"not a central generator: \['zz'\]"),
        (virasoro, {"d": 1}, r"not a central generator: \['d'\]"),
        (virasoro, {}, r"central character must cover \['c'\]"),
    ])
    def test_module_and_presentation_reject_the_same_input(self, make, lam, message):
        structure = make()
        for build in (central_character, VacuumModule, p2_structure):
            with pytest.raises(ValueError, match=message):
                build(structure, lam)

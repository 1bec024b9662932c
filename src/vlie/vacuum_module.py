"""Vacuum modules over a vertex Lie algebra structure.

States are rational combinations of normal-ordered creation monomials
applied to the vacuum.  A creation symbol is a mode symbol (n, cls, idx) of
``vertex_lie`` with n <= -1: cls 0 marks a frozen central generator (always
at mode -1), cls 1 a complement-basis generator at mode n.  Monomials are
tuples of symbols sorted by that key, so deeper modes sit leftmost.

Normal ordering rewrites words of modes by the two moves "swap an adjacent
out-of-order pair, emitting the bracket" and "annihilate at the vacuum".
Every mode is first reduced to canonical coordinates, so the rewriting only
ever sees central symbols (which commute) and complement modes.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import partial

from .formal_calc import format_terms, gen_binomial, rat
from .linalg import add_into, clean, narrow
from .vertex_lie import Modes, Symbol, VLStructure

Monomial = tuple[Symbol, ...]
State = dict[Monomial, int | Fraction]
# a state over interned monomial ids, the module's internal form
IdState = dict[int, int | Fraction]

VACUUM: Monomial = ()


class UngradedError(ValueError):
    """A graded operation on a module that is not graded; the message is the
    operation's name followed by ``reason``."""

    reason = ("needs a graded structure with degree-0 center and positive-degree "
              "creators; this one is not")


def central_character(structure: VLStructure, lam: Mapping[str, object]) -> dict[str, int | Fraction]:
    """``lam`` as exact values on the central generators of ``structure``,
    its ``u0_prime_names``.  A ValueError names a key that is no central
    generator, or the central generators that ``lam`` leaves out."""
    out = {str(k): rat(v) for k, v in lam.items()}
    central = structure.u0_prime_names
    unknown = [n for n in out if n not in central]
    if unknown:
        raise ValueError(f"not a central generator: {unknown}; central generators: {list(central)}")
    missing = [n for n in central if n not in out]
    if missing:
        raise ValueError(f"central character must cover {missing}")
    return out


class VacuumModule:
    """Induced module over the negative modes, with optional central character.

    With ``lam`` given, frozen central generators act as the scalars
    lam[name]; without it they remain degree-zero creation symbols.

    Inside, every monomial is an int id.  The module interns each monomial
    once: ``_monos[i]`` is the tuple of id i, ``_heads[i]``, ``_tails[i]``
    and ``_degs[i]`` its first symbol, the id of the rest and its degree
    (graded modules only), and ``_ids`` maps a tuple back to its id; the
    vacuum is id 0.  Prepending a symbol to an id is a lookup in
    ``_cons``, keyed by the symbol, then by the tail's id.  Public methods
    take and return states keyed by monomial tuples and convert once per
    call.  A tuple that is not yet interned is checked on that miss: its
    symbols must be sorted, every complement symbol a creator (n <= -1) of
    a complement generator, and a central symbol sits at n = -1 in a
    module without ``lam``; anything else raises ``ValueError``.  Normal
    ordering makes only canonical monomials, so nothing else is checked.

    The only other mutable state is two get-or-compute memos over ids,
    nested so that no lookup builds a tuple key: the action memo
    ``{mode symbol: {monomial: u(n) monomial}}``, and the vertex-operator
    mode memo ``{monomial of a: {n: {monomial of b: a_n b}}}``, shared by
    every state that contains those monomials.  A single creator u(-1)1
    has the modes of u itself, so its entries are the action memo's own
    and the mode memo holds only longer or deeper heads.  Memo values are
    shared, never copied: they are read-only, and every public method
    returns a fresh dict.  ``memo_sizes`` counts the inner entries of each
    memo and the interned monomials.  The structure's own mode cache
    serves ``act``.  The column tables of ``borcherds_check`` live for one
    call only and hold memo values or new sums, so the two memos have the
    same keys and values whether or not a check ran through them.
    """

    def __init__(self, structure: VLStructure, lam: Mapping[str, object] | None = None):
        if not structure.certified:
            raise ValueError("vacuum modules require a certified structure")
        self.structure = structure
        self.lam: dict[str, int | Fraction] | None
        if lam is None:
            self.lam = None
        else:
            self.lam = central_character(structure, lam)
        self._graded = (
            structure.degrees is not None
            and all(structure.degree_of(i) == 0 for v in structure.u0_prime_vectors for i in v)
            and all(structure.degree_of(n) >= 1 for n in structure.u_prime_names)
        )
        # the interning table; id 0 is the vacuum
        self._monos: list[Monomial] = [VACUUM]
        self._heads: list[Symbol | None] = [None]
        self._tails: list[int] = [0]
        self._degs: list[int | None] = [0]
        self._ids: dict[Monomial, int] = {VACUUM: 0}
        self._cons: dict[Symbol, dict[int, int]] = {}
        self._act_memo: dict[Symbol, dict[int, IdState]] = {}
        self._mode_memo: dict[int, dict[int, dict[int, IdState]]] = {}

    def memo_sizes(self) -> dict[str, int]:
        """Entries in the action memo, the mode memo and the interning table."""
        return {"act": sum(map(len, self._act_memo.values())),
                "mode": sum(len(t) for by_n in self._mode_memo.values() for t in by_n.values()),
                "monomials": len(self._monos)}

    # -- degrees -------------------------------------------------------------

    def require_graded(self, what: str):
        if not self._graded:
            raise UngradedError(f"{what} {UngradedError.reason}")

    def symbol_degree(self, sym: Symbol) -> int:
        # on a graded module every central generator, such as (a - b), has degree 0
        n, cls, idx = sym
        return (self.structure.degree_of(self.structure.u_prime_names[idx]) if cls else 0) - n - 1

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(self.symbol_degree(s) for s in mono)

    def state_degree(self, state: State) -> int:
        """Max degree over monomials; -1 for the zero state."""
        state = self._state_of(self._ids_of(clean(state)))
        if not state:
            return -1
        return max(self.monomial_degree(m) for m in state)

    # -- interned monomials ----------------------------------------------------

    def _prepend(self, sym: Symbol, tail: int) -> int:
        """The id of (sym,) + monomial tail, for sym <= the head of tail."""
        cons = self._cons.setdefault(sym, {})
        i = cons.get(tail)
        if i is None:
            i = cons[tail] = len(self._monos)
            mono = (sym,) + self._monos[tail]
            self._monos.append(mono)
            self._heads.append(sym)
            self._tails.append(tail)
            self._degs.append(self._degs[tail] + self.symbol_degree(sym) if self._graded else None)
            self._ids[mono] = i
        return i

    def _id(self, mono: Monomial) -> int:
        """The id of a monomial, interned on first sight; a tuple that is not
        a canonical monomial of this module raises ``ValueError``."""
        i = self._ids.get(mono)
        if i is None:
            self._require_canonical(mono)
            i = 0
            for sym in reversed(mono):
                i = self._prepend(sym, i)
        return i

    def _require_canonical(self, mono: Monomial):
        st = self.structure
        for sym in mono:
            n, cls, idx = sym
            if cls == 1:
                ok = n <= -1 and 0 <= idx < len(st.u_prime_names)
            elif cls == 0:
                ok = n == -1 and self.lam is None and 0 <= idx < len(st.u0_prime_names)
            else:
                ok = False
            if not ok:
                raise ValueError(f"{sym} is not a creation symbol of this module")
        if any(mono[k] > mono[k + 1] for k in range(len(mono) - 1)):
            raise ValueError(f"the symbols of {mono} are not sorted")

    def _ids_of(self, state: State) -> IdState:
        return {self._id(mono): c for mono, c in state.items()}

    def _state_of(self, state: IdState) -> State:
        monos = self._monos
        return {monos[i]: c for i, c in state.items()}

    # -- state constructors ----------------------------------------------------

    def vacuum(self) -> State:
        return {VACUUM: 1}

    def creator(self, name: str, n: int) -> Symbol:
        st = self.structure
        if name in st.u_prime_names:
            if n > -1:
                raise ValueError("creation modes have n <= -1")
            return (n, 1, st.u_prime_names.index(name))
        if name in st.u0_prime_names:
            if n != -1:
                raise ValueError("central creators only exist at mode -1")
            return (-1, 0, st.u0_prime_names.index(name))
        raise KeyError(f"unknown creator name {name!r}")

    def monomial(self, symbols: Iterable[tuple[str, int]]) -> Monomial:
        syms = sorted(self.creator(n, m) for n, m in symbols)
        if self.lam is not None and any(cls == 0 for _, cls, _ in syms):
            raise ValueError("central creators are scalars in a quotient module")
        return tuple(syms)

    def state(self, items: Iterable[tuple[Iterable[tuple[str, int]], object]]) -> State:
        out: State = {}
        for symbols, coeff in items:
            add_into(out, {self.monomial(symbols): rat(coeff)})
        return out

    def generator_state(self, name: str) -> State:
        return {self.monomial([(name, -1)]): 1}

    def format_state(self, state: State) -> str:
        state = self._state_of(self._ids_of(clean(state)))
        name = self.structure.symbol_name
        return format_terms(
            ("".join(f"{name(s)}({s[0]})" for s in mono) + "1", state[mono])
            for mono in sorted(state)
        )

    # -- the action ---------------------------------------------------------------

    def act(self, name_or_vector, n: int, state: State) -> State:
        """Apply the mode u(n), normal ordering the result."""
        element = self.structure.mode(name_or_vector, n)
        return self.act_element(element, state)

    def act_element(self, element: Modes, state: State) -> State:
        state = self._ids_of(state)
        out: IdState = {}
        for sym, c in element.items():
            for t, tc in state.items():
                add_into(out, self._act_key(sym, t), c * tc)
        return self._state_of(out)

    def _act_key(self, sym: Symbol, mono: int) -> IdState:
        """Single canonical mode applied to a canonical monomial."""
        table = self._act_memo.get(sym)
        if table is None:
            table = self._act_memo[sym] = {}
        cached = table.get(mono)
        if cached is not None:
            return cached
        n, cls, idx = sym
        if cls == 0:
            # frozen central generator
            if self.lam is not None:
                result = {mono: self.lam[self.structure.u0_prime_names[idx]]}
            else:
                result = {self._id(tuple(sorted(self._monos[mono] + (sym,)))): 1}
            table[mono] = result
            return result

        heads = self._heads
        if not mono:
            result = {self._prepend(sym, 0): 1} if n <= -1 else {}
        elif n <= -1 and sym <= heads[mono]:
            result = {self._prepend(sym, mono): 1}
        else:
            head, tail = heads[mono], self._tails[mono]
            # u(n) s1 rest = s1 u(n) rest + [u(n), s1] rest, both sums
            # accumulated inline and narrowed once at the end
            acc: dict = {}
            get = acc.get
            act = self._act_key
            for new, c in act(sym, tail).items():
                if not new or head <= heads[new]:
                    t = self._prepend(head, new)
                    acc[t] = get(t, 0) + c
                else:
                    for t, v in act(head, new).items():
                        acc[t] = get(t, 0) + c * v
            # a frozen central head commutes with everything
            bracket = {} if head[1] == 0 else self.structure.symbol_bracket(sym, head)
            for s, c in bracket.items():
                for t, v in act(s, tail).items():
                    acc[t] = get(t, 0) + c * v
            result = {t: narrow(v) for t, v in acc.items() if v}
        table[mono] = result
        return result

    # -- graded dimensions ----------------------------------------------------------

    def graded_dim(self, degree: int) -> int:
        """Number of canonical creation monomials of the given total degree."""
        self.require_graded("graded_dim")
        if self.lam is None:
            raise ValueError(
                "graded dimensions need a central character; without one the "
                "degree-0 piece is infinite-dimensional"
            )
        if degree < 0:
            return 0
        dp = [0] * (degree + 1)
        dp[0] = 1
        for w, _ in self._creators(degree):
            for d in range(w, degree + 1):
                dp[d] += dp[d - w]
        return dp[degree]

    def _creators(self, cap: int) -> list[tuple[int, Symbol]]:
        """(degree, symbol) of each creator u(-n), n >= 1, of degree at most
        cap, sorted by symbol; u(-n) has degree deg u + n - 1."""
        st = self.structure
        return sorted(((st.degree_of(name) + n - 1, (-n, 1, idx))
                       for idx, name in enumerate(st.u_prime_names)
                       for n in range(1, cap - st.degree_of(name) + 2)), key=lambda t: t[1])

    def character(self, depth: int) -> list[int]:
        return [self.graded_dim(d) for d in range(depth + 1)]

    def basis_monomials(self, degree: int) -> list[Monomial]:
        """All canonical monomials of exactly the given degree (enumeration)."""
        self.require_graded("basis enumeration")
        creators = self._creators(degree)
        out: list[Monomial] = []

        def rec(i: int, left: int, acc: list[Symbol]):
            if left == 0:
                out.append(tuple(sorted(acc)))
                return
            if i >= len(creators):
                return
            w, sym = creators[i]
            rec(i + 1, left, acc)
            if w <= left:
                acc.append(sym)
                rec(i, left - w, acc)
                acc.pop()

        rec(0, degree, [])
        return sorted(set(out))

    def basis_states_upto(self, degree: int) -> list[State]:
        out = []
        for d in range(degree + 1):
            for mono in self.basis_monomials(d):
                out.append({mono: 1})
        return out

    # -- vertex operator modes ---------------------------------------------------------

    def mode_of_state(self, a: State, n: int, b: State) -> State:
        """a_n b where Y(a, x) = sum a_n x^{-n-1}.

        Base cases: vacuum modes are delta_{n,-1} id, and a single creator
        state u(-k-1)1 has the derivative modes binom(k-n-1, k) u(n-k), from
        Y(u(-k-1)1, x) = d^k/dx^k Y(u, x) / k!.  A longer monomial headed by
        u(-k-1) goes through the iterate expansion, with both sums truncated
        by degree bounds, so a graded module is required.
        """
        self.require_graded("mode_of_state")
        a, b = self._ids_of(clean(a)), self._ids_of(clean(b))
        return self._state_of(self._mode_of_states(a, n, b, {}))

    def _mode_of_states(self, a: IdState, n: int, b: IdState, out: IdState, scale=1) -> IdState:
        """out += scale * a_n b, the bilinear sum over the monomials of a and
        of b, in place; returns out."""
        for mono, ca in a.items():
            cs = scale * ca
            for b_mono, cb in b.items():
                add_into(out, self._mode_of_monomial(mono, n, b_mono), cs * cb)
        return out

    def _mode_of_monomial(self, mono: int, n: int, b_mono: int) -> IdState:
        """(mono 1)_n b_mono as a memo value, shared and read-only."""
        if not mono:
            return {b_mono: 1} if n == -1 else {}
        hn, cls, idx = self._heads[mono]
        if cls == 0:
            raise ValueError("central creators are scalars here; use a quotient module")
        tail = self._tails[mono]
        if hn == -1 and not tail:
            # (u(-1)1)_n = u(n): the action memo entry itself
            return self._act_key((n, 1, idx), b_mono)
        table = self._mode_memo.setdefault(mono, {}).setdefault(n, {})
        cached = table.get(b_mono)
        if cached is not None:
            return cached

        k = -hn - 1  # head is u(-k-1), k >= 0
        if not tail:
            # Y(u(-k-1)1, x) = d^k/dx^k Y(u, x) / k!, so
            # (u(-k-1)1)_n = binom(k-n-1, k) u(n-k); u is a unit vector of
            # the complement, so its mode is the one symbol (n-k, 1, idx)
            result = add_into(
                {}, self._act_key((n - k, 1, idx), b_mono), gen_binomial(k - n - 1, k)
            )
            table[b_mono] = result
            return result
        # b_mono is homogeneous, so its degree gives the exact cutoffs
        deg_b = self._degs[b_mono]
        deg_u = self.structure.degree_of(self.structure.u_prime_names[idx])
        bound_first = self._degs[tail] + deg_b - n - 1
        bound_second = deg_u + deg_b - 1
        result: IdState = {}
        sign = -1 if k % 2 else 1
        for i in range(max(bound_first, bound_second) + 1):
            # binom(-k-1, i) (-1)^i = binom(k + i, i), never 0
            c = math.comb(k + i, i)
            if i <= bound_first:
                # + binom(-k-1, i) (-1)^i u(-k-1-i) (tail_{n+i} b)
                sym = (-k - 1 - i, 1, idx)
                for mono2, c2 in self._mode_of_monomial(tail, n + i, b_mono).items():
                    add_into(result, self._act_key(sym, mono2), c * c2)
            if i <= bound_second:
                # - binom(-k-1, i) (-1)^(k+1+i) tail_{n-k-1-i} (u(i) b),
                # whose coefficient is (-1)^k binom(k + i, i)
                for mono2, c2 in self._act_key((i, 1, idx), b_mono).items():
                    add_into(result, self._mode_of_monomial(tail, n - k - 1 - i, mono2),
                             sign * c * c2)
        table[b_mono] = result
        return result

    # -- derived operations -----------------------------------------------------------

    def modes_of_pair(self, a: State, b: State) -> dict[int, State]:
        """All nonzero a_i b for i >= 0 (finitely many by degree bounds)."""
        self.require_graded("modes_of_pair")
        products = self._modes_of_pair(self._ids_of(clean(a)), self._ids_of(clean(b)))
        return {i: self._state_of(v) for i, v in products.items()}

    def _modes_of_pair(self, a: IdState, b: IdState) -> dict[int, IdState]:
        degs = self._degs
        top = max((degs[t] for t in a), default=-1) + max((degs[t] for t in b), default=-1) - 1
        out = {}
        for i in range(0, max(top, -1) + 1):
            v = self._mode_of_states(a, i, b, {})
            if v:
                out[i] = v
        return out

    def borcherds_check(self, a: State, b: State, window: int, degree: int) -> list[str]:
        """Verify [a_m, b_n] = sum_i binom(m,i) (a_i b)_{m+n-i} on all basis
        states of degree <= ``degree``, for |m|, |n| <= ``window``; the
        first five mismatching cells, in (m, n, state) order, as text.

        A negative window or degree, or a zero ``a`` or ``b``, would check
        nothing and raises ``ValueError``; so does a monomial of ``a`` or
        ``b`` that is not canonical (see the class docstring).

        ``a``, ``b`` and the basis states are converted to monomial ids
        once; everything after that, down to the accumulator, runs on ids,
        and only a failing cell's text converts back.  The cells read
        call-local columns: for each m a table t -> a_m t over monomials t,
        filled on first use, and the same for b and each n.  For a
        one-monomial state with coefficient 1 a column entry is the memo
        value itself (the action memo entry for a lone u(-1)), never a
        copy; any other state takes its bilinear sum.  a_m s and b_n s of
        the basis states are columns too.  The right side depends on (m, n)
        only through t = m+n-i, so each list t, i -> [(a_i b)_t s for all
        s], read the same way, is computed once, on first use, and shared
        by every (m, n) with that t.  Each cell sums a_m(b_n s) - b_n(a_m s)
        - sum_i binom(m,i) (a_i b)_{m+n-i} s into one exact accumulator and
        passes exactly when every value in it is zero; only a failing cell
        rebuilds its two sides to print them.
        """
        self.require_graded("borcherds_check")
        if window < 0 or degree < 0:
            raise ValueError(f"window and degree must be nonnegative, not {window} and {degree}")
        a, b = clean(a), clean(b)
        if not a or not b:
            raise ValueError("a zero state satisfies the identity trivially; a and b must be nonzero")
        a, b = self._ids_of(a), self._ids_of(b)
        products = self._modes_of_pair(a, b)
        # each basis state is one monomial with coefficient 1
        monos = [self._id(mono) for d in range(degree + 1) for mono in self.basis_monomials(d)]
        fill_a, fill_b = self._column_fill(a), self._column_fill(b)
        fill_products = {i: self._column_fill(aib) for i, aib in products.items()}
        cols_b: dict[int, dict[int, IdState]] = {}
        right: dict[tuple[int, int], list[IdState]] = {}
        mode = self._mode_of_states
        problems = []
        for m in range(-window, window + 1):
            a_m: dict[int, IdState] = {}
            terms = [(i, c) for i in products if (c := gen_binomial(m, i))]
            for n in range(-window, window + 1):
                b_n = cols_b.setdefault(n, {})
                rhs_lists = []
                for i, c in terms:
                    key = (m + n - i, i)
                    lists = right.get(key)
                    if lists is None:
                        lists = right[key] = [fill_products[i](m + n - i, t0) for t0 in monos]
                    rhs_lists.append((c, lists))
                for k, t0 in enumerate(monos):
                    acc: dict = {}
                    get = acc.get
                    bs = b_n.get(t0)
                    if bs is None:
                        bs = b_n[t0] = fill_b(n, t0)
                    for t, c in bs.items():
                        col = a_m.get(t)
                        if col is None:
                            col = a_m[t] = fill_a(m, t)
                        for key, v in col.items():
                            acc[key] = get(key, 0) + c * v
                    as_ = a_m.get(t0)
                    if as_ is None:
                        as_ = a_m[t0] = fill_a(m, t0)
                    for t, c in as_.items():
                        col = b_n.get(t)
                        if col is None:
                            col = b_n[t] = fill_b(n, t)
                        for key, v in col.items():
                            acc[key] = get(key, 0) - c * v
                    for c, lists in rhs_lists:
                        for key, v in lists[k].items():
                            acc[key] = get(key, 0) - c * v
                    if any(acc.values()):
                        s = {t0: 1}
                        lhs = mode(b, n, as_, mode(a, m, bs, {}), -1)
                        rhs: IdState = {}
                        for i, c in terms:
                            mode(products[i], m + n - i, s, rhs, c)
                        s, lhs, rhs = (self.format_state(self._state_of(x)) for x in (s, lhs, rhs))
                        problems.append(
                            f"commutator mismatch at m={m}, n={n} on state {s}: {lhs} vs {rhs}"
                        )
                        if len(problems) >= 5:
                            return problems
        return problems

    def _column_fill(self, x: IdState):
        """(m, t) -> x_m t for a monomial t: the memo value itself when x is
        one monomial with coefficient 1, else a new bilinear sum."""
        if len(x) == 1:
            ((mono, c),) = x.items()
            if c == 1:
                return partial(self._mode_of_monomial, mono)
        mode = self._mode_of_states
        return lambda m, t: mode(x, m, {t: 1}, {})

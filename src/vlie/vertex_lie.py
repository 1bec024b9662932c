"""Vertex Lie algebra structures: graded base space, partial operator d,
delta-expansion bracket tables, component brackets and axiom verification.

A structure packages an ordered base-space basis u_1..u_r, optional integer
degrees, a partially defined linear map d given on a designated subspace,
and for each ordered basis pair a finite list of bracket terms (f, k, l)
encoding

    [u_a(x), u_b(y)] = sum_i  f_i^{(k_i)}(y) Delta^(l_i)(x, y).

The constructor stores each table entry as the lambda-bracket
[u_a lambda u_b] = {power of lambda: linear DPoly}, the form that
``lie_core.lambda_bracket`` reads: the term (f, k, l) is (-lambda)^l D^k f.

Modes u(n) are reduced modulo (du)(m) = -m u(m-1), so canonical mode
coordinates live on a complement basis: ker-d vectors frozen at mode -1
(central) plus a complement of ker d + im d at every integer mode.  Each
basis vector is reduced once, to a normal form in the C[D]-module
M = C[D] (x) U' (+) U0', which the modes and the certificate both read.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import comb, lcm

from .formal_calc import DPoly, falling, format_terms
from .lie_core import (BilinearForm, FiniteLieAlgebra, _collect, _normalize_table, _shift,
                       _wrap, check_invariance, lambda_bracket, lambda_skew)
from .linalg import Echelon, add_into, bilinear, clean, compose, inverse_rows, narrow, nullspace

Vector = dict[int, int | Fraction]  # sparse coordinates over the base-space basis
# A canonical mode symbol (n, cls, idx): cls 0 is the idx-th frozen central
# generator (always at mode n = -1), cls 1 the idx-th complement generator at
# mode n.  A combination of modes is a {Symbol: int | Fraction} dict that
# never stores a zero; the vacuum module's creation monomials are built from
# the same symbols.
Symbol = tuple[int, int, int]
Modes = dict[Symbol, int | Fraction]


def _unit_index(vec: Vector) -> int | None:
    """i when vec is the basis vector {i: 1}, else None."""
    (i, c), *rest = vec.items()
    return i if not rest and c == 1 else None


def symbol_order(sym: Symbol) -> tuple:
    """Print order: complement modes by (index, mode), then central ones by index."""
    n, cls, idx = sym
    return (-cls, idx, n)


class VLStructure:
    """A vertex Lie algebra presented by basis, degrees, d, and a bracket table.

    Structures are immutable after construction, apart from three
    get-or-compute maps, whose dicts are shared and must not be mutated:
    canonical modes of basis vectors keyed by (basis index, n); component
    brackets keyed by (basis index, m, basis index, n), which
    ``symbol_bracket`` also returns for two symbols on basis vectors; and a
    small memo of ``symbol_bracket`` for pairs involving a kernel vector
    that is not a basis vector, such as (a - b).  The common denominator
    that ``verify_jacobi`` scales by is computed once, on first use.

    The complements are always the lowest-index pivots: U0' completes im d
    to ker d + im d, and U' takes the basis vectors that complete that.  The
    constructor reduces each basis vector once, to its normal form in
    M = C[D] (x) U' (+) U0', which the modes and the certificate read.  A
    basis vector whose im-d preimages reach a cycle of d has none: its
    modes raise "mode reduction does not terminate" at every mode, and so
    does ``certify``.  ``certify()`` proves skew symmetry and the Jacobi
    identity exactly; builders return certified structures, while the
    constructor itself and ``novikov_candidate`` /
    ``quadratic_central_candidate`` return uncertified ones, which admit
    invalid data for exercising the failure paths.
    """

    def __init__(
        self,
        basis: Sequence[str],
        degrees: Sequence[int] | None,
        d_domain: Sequence[str],
        d_matrix: Mapping[str, Mapping[str, object]] | None,
        table: Mapping[tuple[str, str], Iterable[tuple]],
        name: str = "custom",
        meta: dict | None = None,
    ):
        self.name = name
        self.basis = tuple(basis)
        if len(set(self.basis)) != len(self.basis):
            raise ValueError("duplicate basis names")
        self.index = {n: i for i, n in enumerate(self.basis)}
        self.degrees = tuple(int(d) for d in degrees) if degrees is not None else None
        self.meta = dict(meta or {})

        self.d_domain = tuple(d_domain)
        d_matrix = d_matrix or {}
        for n in self.d_domain:
            if n not in self.index:
                raise ValueError(f"d-domain name {n!r} not in basis")
        for n, img in d_matrix.items():
            if n not in self.d_domain:
                raise ValueError(f"d-matrix name {n!r} not in the d-domain")
            for m in img:
                if m not in self.index:
                    raise ValueError(f"d-image name {m!r} not in basis")
        self.d_map: dict[int, Vector] = {
            self.index[n]: clean({self.index[m]: c for m, c in d_matrix.get(n, {}).items()})
            for n in self.d_domain}

        # [u_a lambda u_b] by ascending powers of lambda, no zero stored
        self._table: dict[tuple[int, int], dict[int, DPoly]] = {}
        for (a, b), terms in table.items():
            entry: dict[int, dict] = {}
            for f, k, l in terms:
                k, l = int(k), int(l)
                if k < 0 or l < 0:
                    raise ValueError("derivative and delta orders are nonnegative")
                add_into(entry.setdefault(l, {}), clean(
                    {((self.index[m], k),): c for m, c in dict(f).items()}), -1 if l % 2 else 1)
            self._table[(self.index[a], self.index[b])] = {
                l: _wrap(entry[l]) for l in sorted(entry) if entry[l]}

        self._setup_complements()
        self._normal = self._normal_forms()
        self._graded_check()
        # the basis index behind each canonical symbol (cls, idx), or None
        # for a kernel vector that is not a basis vector
        self._symbol_units = tuple(
            tuple(_unit_index(v) for v in vectors)
            for vectors in (self.u0_prime_vectors, self.u_prime_vectors)
        )
        self._mode_cache: dict[tuple[int, int], Modes] = {}
        self._bracket_cache: dict[tuple, Modes] = {}
        self._symbol_memo: dict[tuple[Symbol, Symbol], Modes] = {}
        self.certified = False

    # -- linear algebra over the base space ---------------------------------

    def _setup_complements(self):
        r = len(self.basis)
        domain = sorted(self.d_map)
        # ker d is the nullspace of d on its domain, built from the nonzeros
        # of d; im d keeps the image of one domain basis vector per echelon
        # pivot, as (preimage, image)
        d_rows: list[dict] = [{} for _ in range(r)]
        for p, i in enumerate(domain):
            for j, c in self.d_map[i].items():
                d_rows[j][p] = c
        kernel = nullspace(d_rows, len(domain))
        k_vectors = [{domain[p]: c for p, c in v.items()} for v in kernel]
        self.u0_names = tuple(self._vector_name(v) for v in k_vectors)
        image = Echelon()
        self._im_preimages = [(i, self.d_map[i]) for i in domain if image.insert(self.d_map[i])]
        im_basis = [v for _, v in self._im_preimages]

        def greedy_extend(span_vectors, candidates):
            """Candidates, in order, that extend the span of those before."""
            echelon = Echelon()
            for v in span_vectors:
                echelon.insert(v)
            return [v for v in candidates if echelon.insert(v)]

        # the lowest-index pivots: U0' completes im d to ker d + im d, and
        # U' takes the basis vectors that complete ker d + im d
        self.u0_prime_vectors = greedy_extend(im_basis, k_vectors)
        self.u_prime_vectors = greedy_extend(k_vectors + im_basis, [{i: 1} for i in range(r)])
        self.u0_prime_names = tuple(map(self._vector_name, self.u0_prime_vectors))
        self.u_prime_names = tuple(map(self._vector_name, self.u_prime_vectors))
        # the u0' vectors, im-d generators (with their preimages), then u'
        # vectors are a basis by construction; row i of the inverse of the
        # matrix with these rows holds the coordinates of basis vector i,
        # sparse and in ascending order
        self._decomp_inv = inverse_rows(self.u0_prime_vectors + im_basis + self.u_prime_vectors)

    def _vector_name(self, vec: Vector) -> str:
        """The basis name of a unit vector, else the combination in parentheses."""
        i = _unit_index(vec)
        if i is not None:
            return self.basis[i]
        return "(" + format_terms((self.basis[i], c) for i, c in sorted(vec.items())) + ")"

    def decompose_vector(self, vec: Vector):
        """Split u = (ker-d complement part) + d(preimage) + (U' part), as
        dense coordinate lists; the sum touches only nonzeros."""
        coords: Vector = {}
        for i, c in vec.items():
            add_into(coords, self._decomp_inv[i], c)
        dense = [coords.get(j, 0) for j in range(len(self.basis))]
        n0 = len(self.u0_prime_vectors)
        n1 = n0 + len(self._im_preimages)
        return dense[:n0], dense[n0:n1], dense[n1:]

    def _normal_forms(self) -> list[dict | None]:
        """Each basis vector u_i in M = C[D] (x) U' (+) U0', as {(cls, idx, t): c}
        for D^t of the canonical generator (cls, idx), or None where the walk
        over the im-d preimages of its decomposition reaches a cycle.

        u_i = z + sum_w c_w d(w) + u' reads D^0 z + sum_w c_w D(w) + D^0 u',
        with D u = d(u) and D z = 0 on U0'.  The walk keeps an explicit
        stack, so a long chain of preimages needs no recursion.
        """
        preimages = [w for w, _ in self._im_preimages]
        n0 = len(self.u0_prime_vectors)
        n1 = n0 + len(preimages)
        forms: dict[int, dict | None] = {}

        def enter(i):
            forms[i] = None  # on the walk: reaching i again closes a cycle
            # the nonzero coordinates of u_i, in ascending order
            coords = self._decomp_inv[i]
            im = [(preimages[j - n0], c) for j, c in coords.items() if n0 <= j < n1]
            return i, coords, im, iter([w for w, _ in im])

        for root in range(len(self.basis)):
            if root in forms:
                continue
            stack = [enter(root)]
            while stack:
                i, coords, im, children = stack[-1]
                w = next((w for w in children if w not in forms), None)
                if w is not None:
                    stack.append(enter(w))
                    continue
                stack.pop()
                # every preimage is done, or on the walk (None: a cycle)
                out = {(0, j, 0): c for j, c in coords.items() if j < n0}
                for w, c in im:
                    if forms[w] is None:
                        break
                    # D of a normal form: D kills U0'
                    add_into(out, {(1, idx, t + 1): v for (cls, idx, t), v in forms[w].items()
                                   if cls}, c)
                else:
                    forms[i] = add_into(out, {(1, j - n1, 0): c for j, c in coords.items()
                                              if j >= n1})
        return [forms[i] for i in range(len(self.basis))]

    def _graded_check(self):
        if self.degrees is None:
            return
        for (ia, ib), entry in self._table.items():
            want = self.degrees[ia] + self.degrees[ib]
            for l, h in entry.items():
                for ((i, k),) in h.coeffs:
                    if self.degrees[i] != want - k - l - 1:
                        raise ValueError(
                            f"graded table term violates degree bookkeeping: "
                            f"[{self.basis[ia]},{self.basis[ib]}] term "
                            f"({self.basis[i]}, k={k}, l={l})"
                        )

    # -- modes ----------------------------------------------------------------

    def mode(self, vec_or_name, n: int) -> Modes:
        """Canonical form of u(n) for a base-space vector u.

        The mode of a basis vector (a name, or a vector ``{i: 1}``) is the
        dict held in the mode cache, so callers must not mutate it; any
        other vector gets a new dict, the combination of its basis modes.
        """
        if isinstance(vec_or_name, str):
            return self._basis_mode(self.index[vec_or_name], n)
        vec = clean(vec_or_name)
        if len(vec) == 1:
            (i, c), = vec.items()
            if c == 1:
                return self._basis_mode(i, n)
        out: Modes = {}
        for i, c in vec.items():
            add_into(out, self._basis_mode(i, n), c)
        return out

    def _basis_mode(self, i: int, n: int) -> Modes:
        """u_i(n) for the i-th basis vector, read off its normal form once
        per (i, n): (D^t g)(n) = (-1)^t n(n-1)..(n-t+1) g(n-t), from
        (Du)(m) = -m u(m-1), and a U0' generator lives at mode -1 only."""
        key = (i, n)
        cached = self._mode_cache.get(key)
        if cached is not None:
            return cached
        form = self._normal[i]
        if form is None:
            raise ValueError("mode reduction does not terminate; pathological d")
        out: Modes = {}
        for (cls, idx, t), c in form.items():
            if cls:
                w = falling(n, t)
                if w:
                    out[(n - t, 1, idx)] = narrow(c * (-w if t % 2 else w))
            elif n == -1:
                out[(-1, 0, idx)] = c
        self._mode_cache[key] = out
        return out

    def canonical_vector(self, sym: Symbol) -> Vector:
        """Base-space vector behind a canonical mode symbol."""
        _, cls, idx = sym
        return self.u0_prime_vectors[idx] if cls == 0 else self.u_prime_vectors[idx]

    def symbol_name(self, sym: Symbol) -> str:
        _, cls, idx = sym
        return self.u0_prime_names[idx] if cls == 0 else self.u_prime_names[idx]

    def format_modes(self, element: Modes) -> str:
        """A combination of modes as text, e.g. "2*omega(1) - 1/2*c(-1)"."""
        return format_terms(
            (f"{self.symbol_name(sym)}({sym[0]})", element[sym])
            for sym in sorted(element, key=symbol_order)
        )

    # -- brackets ---------------------------------------------------------------

    def component_bracket(self, a, m: int, b, n: int) -> Modes:
        """[u_a(m), u_b(n)] reduced to canonical modes.

        Per table term (f, k, l) the component is
        binom(m,l) binom(m+n-l,k) (-1)^{l+k} l! k! f(m+n-l-k), each
        binom(x,j) j! being the falling factorial x(x-1)..(x-j+1); the
        coefficient of lambda^l already holds the (-1)^l.
        The returned dict is the one held in the bracket cache, so callers
        must not mutate it.
        """
        ia = self.index[a] if isinstance(a, str) else int(a)
        ib = self.index[b] if isinstance(b, str) else int(b)
        if not (0 <= ia < len(self.basis) and 0 <= ib < len(self.basis)):
            raise KeyError("unknown basis index")
        key = (ia, m, ib, n)
        cached = self._bracket_cache.get(key)
        if cached is not None:
            return cached
        out: Modes = {}
        for l, h in self._table.get((ia, ib), {}).items():
            cl = falling(m, l)
            if not cl:
                continue
            for ((i, k),), c in h.coeffs.items():
                ck = falling(m + n - l, k)
                if ck:
                    # the integer weight first: one product with c, which
                    # may be a Fraction
                    add_into(out, self._basis_mode(i, m + n - l - k),
                             c * (-cl * ck if k % 2 else cl * ck))
        self._bracket_cache[key] = out
        return out

    def bracket_vectors(self, va: Vector, m: int, vb: Vector, n: int) -> Modes:
        out: Modes = {}
        for ia, ca in va.items():
            for ib, cb in vb.items():
                add_into(out, self.component_bracket(ia, m, ib, n), ca * cb)
        return out

    def symbol_bracket(self, sx: Symbol, sy: Symbol) -> Modes:
        """[sx, sy] for two canonical mode symbols; callers must not mutate it.

        When both symbols stand on basis vectors, as every complement symbol
        does, this is the bracket cache entry of ``component_bracket``
        itself.  A pair involving a kernel vector such as (a - b) goes
        through ``bracket_vectors`` once and is kept in a small memo.
        """
        ia = self._symbol_units[sx[1]][sx[2]]
        ib = self._symbol_units[sy[1]][sy[2]]
        if ia is not None and ib is not None:
            cached = self._bracket_cache.get((ia, sx[0], ib, sy[0]))
            if cached is None:
                cached = self.component_bracket(ia, sx[0], ib, sy[0])
            return cached
        key = (sx, sy)
        cached = self._symbol_memo.get(key)
        if cached is None:
            cached = self._symbol_memo[key] = self.bracket_vectors(
                self.canonical_vector(sx), sx[0], self.canonical_vector(sy), sy[0])
        return cached

    def bracket_elements(self, x: Modes, y: Modes) -> Modes:
        """[x, y] for two combinations of modes, as a new dict."""
        out: Modes = {}
        for sx, cx in x.items():
            for sy, cy in y.items():
                add_into(out, self.symbol_bracket(sx, sy), cx * cy)
        return out

    # -- verification -------------------------------------------------------------

    def verify_skew_symmetry(self, window: int = 4) -> list[str]:
        """Window check of [x, y] + [y, x] = 0 on the basis pairs i <= j:
        the first 20 cells of ``_skew_failures``, so a pass is an empty
        list and no cell is read twice."""
        r = len(self.basis)
        failures = self._skew_failures(window, [(ia, ib) for ia in range(r) for ib in range(ia, r)])
        return [f"skew fails at [{self.basis[ia]}({m}),{self.basis[ib]}({n})]: "
                f"{self.format_modes(lhs)} vs -({self.format_modes(rhs)})"
                for ia, m, ib, n, lhs, rhs in itertools.islice(failures, 20)]

    def _skew_failures(self, window: int, pairs: Iterable[tuple[int, int]]):
        """The failing skew cells (i, m, j, n, [x, y], [y, x]) of the basis
        pairs i <= j given, at every (m, n) of the window, in scan order.
        Neither bracket stores a zero, so a cell holds exactly when both
        have the same symbols with opposite coefficients; no sum is built.
        On a diagonal pair (i, i) the cells (m, n) and (n, m) are one
        identity: only n >= m is computed, and a failing (m, n) comes again,
        mirrored as (n, m), when row n does."""
        cache = self._bracket_cache
        modes = range(-window, window + 1)
        for ia, ib in pairs:
            mirrored = [[] for _ in modes]
            for a, m in enumerate(modes):
                yield from mirrored[a]
                for b in range(a if ia == ib else 0, len(modes)):
                    n = modes[b]
                    lhs = cache.get((ia, m, ib, n))
                    if lhs is None:
                        lhs = self.component_bracket(ia, m, ib, n)
                    rhs = cache.get((ib, n, ia, m))
                    if rhs is None:
                        rhs = self.component_bracket(ib, n, ia, m)
                    if not _opposite(lhs, rhs):
                        yield ia, m, ib, n, lhs, rhs
                        if ia == ib and b > a:
                            mirrored[b].append((ia, n, ib, m, rhs, lhs))

    @functools.cached_property
    def _denominator(self) -> int:
        """D, the lcm of the denominators of the table coefficients, the
        normal-form coefficients and the U0'/U' vectors; computed on first
        use."""
        values = [c for entry in self._table.values() for h in entry.values()
                  for c in h.coeffs.values()]
        values += [c for form in self._normal if form for c in form.values()]
        values += [c for v in self.u0_prime_vectors + self.u_prime_vectors for c in v.values()]
        return lcm(*(c.denominator for c in values))

    def verify_jacobi(self, window: int = 4, ordered: bool = False) -> list[str]:
        """Window check of [[x,y],z] + [[y,z],x] + [[z,x],y] = 0: the first
        20 failing cells of the sorted basis triples, which together with
        skew symmetry cover all triples, or with ``ordered`` of all ordered
        ones, for candidate tables that may not even be skew.

        Each triple is skipped when its sorted triple's orbit holds, which
        is decided once, on fewer cells.  Where skew holds on the pairs of
        a triple, the Jacobiator J(x, y, z) of its window modes is
        alternating.  Swapping x and y turns [[y,x],z] + [[x,z],y] +
        [[z,y],x] term by term into minus [[x,y],z], [[z,x],y] and
        [[y,z],x]: skew is used only on the inner brackets, whose operands
        are window modes of the triple, and the outer bracket (``add_term``
        in ``_jacobi_scan``) is bilinear, so J changes sign exactly;
        likewise for y and z.  With x = y, [x,x] = 0 and [[x,z],x] =
        -[[z,x],x] make J exactly zero.  So every cell of every ordering of
        a sorted triple i <= j <= k is, up to sign, one of its reduced
        cells, those with m < n where i = j and n < p where j = k, or zero.
        An orbit holds when skew holds on its three pairs (each pair decided
        once, by ``_skew_failures``) and no reduced cell fails.  Every other
        triple yields its full cells, so a valid structure never reads one,
        and the list is exactly that of the full scan.
        """
        cells = self._jacobi_scan(window)
        r = range(len(self.basis))

        @functools.cache
        def skew(i, j):
            return next(self._skew_failures(window, [(i, j)]), None) is None

        @functools.cache
        def orbit_holds(i, j, k):
            return (skew(i, j) and skew(j, k) and skew(i, k)
                    and next(cells(i, j, k, True), None) is None)

        triples = (itertools.product(r, repeat=3) if ordered
                   else itertools.combinations_with_replacement(r, 3))
        failures = ((i, j, k, cell) for i, j, k in triples if not orbit_holds(*sorted((i, j, k)))
                    for cell in cells(i, j, k, False))
        return [f"Jacobi fails on ({self.basis[i]}({m}),{self.basis[j]}({n}),"
                f"{self.basis[k]}({p})): " + self.format_modes(value)
                for i, j, k, (m, n, p, value) in itertools.islice(failures, 20)]

    def _jacobi_scan(self, window: int):
        """cells(i, j, k, reduced): the failing window cells (m, n, p,
        Jacobiator) of the basis triple (i, j, k), in scan order; with
        ``reduced`` only the rows m < n where i = j and the cells n < p
        where j = k.  Every triple of one scan shares its scaled copies.

        Every cell is decided exactly, in integers.  With D the lcm of the
        denominators of the table, the normal forms and the U0'/U' vectors
        (``_denominator``), a basis mode times D is integral, a component
        bracket times D^2 (a table coefficient times a basis mode), and a
        symbol bracket times D^4: a kernel vector such as (a - b) brackets
        through its canonical vector, which adds a factor D for each slot.
        So each of the three terms [[x,y],z], read as D^2 [x,y] and D z
        through the D^4 symbol brackets, is D^7 times the true one, and a
        cell is zero exactly when its true Jacobiator is.  A scaled value
        that is not integral raises; nothing is rounded.  The exact
        ``Fraction``s are rebuilt only for a failing cell.

        The rows (x_m, y_n) are scanned in order, and in each row only the
        cells p where a term has two nonempty operands: [xy, z_p] where
        z_p is nonempty (and xy is), [y_n z_p, x_m] where y_n z_p is (and
        x_m is), [z_p x_m, y_n] where z_p x_m is (and y_n is).  Every other
        cell is zero.  The cells of a row come by ascending p.
        """
        modes = range(-window, window + 1)
        D = self._denominator
        D2, D4, D7 = D ** 2, D ** 4, D ** 7
        # call-local scaled copies, as tuples of (symbol, int) items: basis
        # modes times D, component brackets times D^2, and one flat table of
        # symbol brackets (sx, sy) times D^4
        mode = functools.cache(lambda i, n: _scaled(self._basis_mode(i, n), D))
        cache = self._bracket_cache

        @functools.cache
        def bracket(ia, m, ib, n):
            vec = cache.get((ia, m, ib, n))
            if vec is None:
                vec = self.component_bracket(ia, m, ib, n)
            return _scaled(vec, D2) if vec else ()

        pairs: dict[tuple[Symbol, Symbol], tuple] = {}

        def add_term(acc, x, y):
            """acc += [x, y] for two scaled combinations of modes."""
            get = acc.get
            for sx, cx in x:
                for sy, cy in y:
                    key = (sx, sy)
                    items = pairs.get(key)
                    if items is None:
                        items = pairs[key] = _scaled(self.symbol_bracket(sx, sy), D4)
                    w = cx * cy
                    for s, v in items:
                        acc[s] = get(s, 0) + w * v

        def cells(i, j, k, reduced):
            # the basis modes and the [y_n, z_p] and [z_p, x_m] brackets of
            # this triple, each read once over the window, and for each the
            # cells p where they are nonempty, as bit masks
            xs = [mode(i, m) for m in modes]
            ys = [mode(j, n) for n in modes]
            zs = [mode(k, p) for p in modes]
            yz = [[bracket(j, n, k, p) for p in modes] for n in modes]
            zx = [[bracket(k, p, i, m) for p in modes] for m in modes]
            z_mask = _mask(zs)
            yz_masks = [_mask(row) for row in yz]
            zx_masks = [_mask(row) for row in zx]
            for a, m in enumerate(modes):
                x, zx_a = xs[a], zx[a]
                for b in range(a + 1 if reduced and i == j else 0, len(modes)):
                    n = modes[b]
                    xy = bracket(i, m, j, n)
                    y, yz_b = ys[b], yz[b]
                    live = ((z_mask if xy else 0) | (yz_masks[b] if x else 0)
                            | (zx_masks[a] if y else 0))
                    if reduced and j == k:
                        live &= -2 << b  # the cells c > b
                    while live:
                        c = (live & -live).bit_length() - 1
                        live &= live - 1
                        acc: dict[Symbol, int] = {}
                        z, yz_c, zx_c = zs[c], yz_b[c], zx_a[c]
                        if xy and z:
                            add_term(acc, xy, z)
                        if x and yz_c:
                            add_term(acc, yz_c, x)
                        if y and zx_c:
                            add_term(acc, zx_c, y)
                        if any(acc.values()):
                            yield m, n, modes[c], {s: narrow(Fraction(v, D7))
                                                   for s, v in acc.items() if v}

        return cells

    def certify(self) -> "VLStructure":
        """Prove what the window checks test, at every mode, or raise: the
        finite lambda-bracket identities of ``_Certificate``."""
        if None in self._normal:
            raise ValueError("mode reduction does not terminate; pathological d")
        problems = _Certificate(self).problems()
        if problems:
            raise ValueError("structure fails Lie axioms: " + "; ".join(problems[:3]))
        self.certified = True
        return self

    # -- reporting ------------------------------------------------------------------

    def degree_of(self, name_or_index) -> int:
        if self.degrees is None:
            raise ValueError("structure is not graded")
        i = self.index[name_or_index] if isinstance(name_or_index, str) else name_or_index
        return self.degrees[i]


def _opposite(x: Mapping, y: Mapping) -> bool:
    """Whether y = -x, for two dicts that store no zero."""
    return len(x) == len(y) and all(y.get(s) == -c for s, c in x.items())


def _mask(items: Sequence) -> int:
    """The bit mask of the positions of the nonempty items."""
    return sum(1 << c for c, v in enumerate(items) if v)


def _scaled(vec: Mapping, scale: int) -> tuple:
    """The items (key, scale * c) of vec as ints; raises where one is not
    integral, never rounds."""
    out = []
    for key, c in vec.items():
        c *= scale
        if c.__class__ is not int:
            if c.denominator != 1:
                raise ArithmeticError(f"scaled coefficient {c} is not integral")
            c = c.numerator
        out.append((key, c))
    return tuple(out)


class _Certificate:
    """``certify``'s window checks at every mode, decided exactly.

    An element of M = C[D] (x) U' (+) U0', where D u = d(u) and D z = 0 on
    U0', is a linear ``DPoly`` whose variable (v, t) is D^t of the v-th
    canonical generator, U0' first; a lambda-bracket is {power of lambda:
    DPoly}, as in the structure's table.  By Kac, "Vertex Algebras for
    Beginners" (1998), the window checks pass at every mode exactly when
    [a_lambda b] = -[b_{-lambda-D} a] (``lie_core.lambda_skew``) on the basis
    pairs and [a_lambda [b_mu c]] - [b_mu [a_lambda c]] = [[a_lambda b]_{lambda+mu} c]
    on the sorted basis triples, provided the U0' vectors are central: D z = 0
    forces lambda [z_lambda b] = 0, and a kernel vector lives at mode -1 only.
    Inner brackets read the raw table on basis pairs, as the window checks
    do; outer ones are ``lie_core.lambda_bracket`` over the generator table,
    after which D z = 0 drops the derivatives of U0' variables.  The raw
    table must respect D u = d(u), which the window checks do not see.
    """

    def __init__(self, structure: VLStructure):
        s, n0 = self.s, self.n0 = structure, len(structure.u0_prime_vectors)
        self.normal = [_wrap({((idx + n0 if cls else idx, t),): c
                              for (cls, idx, t), c in form.items()}) for form in s._normal]
        # [u_i lambda u_j] read off the table, {} for a missing pair
        self.raw = defaultdict(dict, {pair: self.reduce(_collect(
            (l, _wrap({((v, t + k),): x for ((v, t),), x in self.normal[i].coeffs.items()}), c)
            for l, h in entry.items() for ((i, k),), c in h.coeffs.items()))
            for pair, entry in s._table.items()})
        # [g_v lambda g_w] for the canonical generators: the raw entry on two basis vectors
        units, vectors = sum(s._symbol_units, ()), s.u0_prime_vectors + s.u_prime_vectors
        self.generators = generators = {
            (v, w): self.raw[iv, iw] if None not in (iv, iw) else _collect(
                (p, h, ci * cj) for i, ci in vectors[v].items() for j, cj in vectors[w].items()
                for p, h in self.raw[i, j].items())
            for v, iv in enumerate(units) for w, iw in enumerate(units)}
        # the items (power of lambda, monomial, c) of [x_lambda y] in M, memoized
        self.bracket = functools.cache(lambda x, y: [
            (p, m, c) for p, h in lambda_bracket(generators, x, y).items()
            for m, c in h.coeffs.items() if not (n0 and any(t and v < n0 for v, t in m))])

    def reduce(self, bracket: dict[int, DPoly]) -> dict[int, DPoly]:
        """A lambda-bracket read in M, where D z = 0 drops derivatives of U0' variables."""
        n0 = self.n0
        if not n0:
            return bracket
        kept = {p: {m: c for m, c in h.coeffs.items() if not any(t and v < n0 for v, t in m)}
                for p, h in bracket.items()}
        return {p: _wrap(h) for p, h in kept.items() if h}

    def jacobi(self, a: int, b: int, c: int) -> dict:
        """[a_lambda [b_mu c]] - [b_mu [a_lambda c]] - [[a_lambda b]_{lambda+mu} c],
        {(power of lambda, power of mu, monomial): c}."""
        raw, bracket, (na, nb, nc) = self.raw, self.bracket, (self.normal[i] for i in (a, b, c))
        return clean([((p, q, m), v) for q, y in raw[b, c].items() for p, m, v in bracket(na, y)]
                     + [((q, p, m), -v) for q, y in raw[a, c].items() for p, m, v in bracket(nb, y)]
                     + [((q + e, p - e, m), -comb(p, e) * v) for q, x in raw[a, b].items()
                        for p, m, v in bracket(x, nc) for e in range(p + 1)])

    def d_failures(self, u: int) -> list[tuple[int, int]]:
        """The basis pairs (u, b) and (b, u) where the raw table brackets d(u) - D u to nonzero."""
        image, raw = self.s.d_map[u], self.raw
        return [pair for b in range(len(self.s.basis)) for pair, terms in (
            ((u, b), [(p, h, c) for j, c in image.items() for p, h in raw[j, b].items()]
             + [(l + 1, h, 1) for l, h in raw[u, b].items()]),
            ((b, u), [(p, h, c) for j, c in image.items() for p, h in raw[b, j].items()]
             + [(l + q, x, -c) for l, h in raw[b, u].items() for q, x, c in _shift(h, 1)]))
            if self.reduce(_collect(terms))]

    def problems(self) -> list[str]:
        s, r, gen = self.s, range(len(self.s.basis)), self.generators
        names = s.u0_prime_names + s.u_prime_names
        problems = [f"skew fails for ({s.basis[i]},{s.basis[j]})" for i in r for j in r[i:]
                    if self.raw[i, j] != self.reduce(lambda_skew(self.raw[j, i]))]
        problems += [f"kernel vector {names[z]} is not central" for z in range(self.n0)
                     if any(gen[z, g] or gen[g, z] for g in range(len(names)))]
        for u, image in s.d_map.items():
            name = s.basis[u]
            for x, y in self.d_failures(u):
                problem = (f"bracket does not respect D {name} = d({name}) "
                           f"on ({s.basis[x]},{s.basis[y]})" if image
                           else f"kernel vector {name} is not central")
                if problem not in problems:
                    problems.append(problem)
        for a, b, c in itertools.combinations_with_replacement(r, 3):
            rest = self.jacobi(a, b, c) if len(problems) < 20 else None
            if rest:
                p, q = min(rest)[:2]
                problems.append(
                    f"Jacobi fails on ({s.basis[a]},{s.basis[b]},{s.basis[c]}) "
                    f"at lambda^{p} mu^{q}: " + format_terms(
                        (("D " if t == 1 else f"D^{t} " if t else "") + names[v], x)
                        for (pp, qq, ((v, t),)), x in sorted(rest.items()) if (pp, qq) == (p, q)))
        return problems


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

_WITT_TERMS = (({"omega": 1}, 1, 0), ({"omega": -2}, 0, 1))


def _central(names, degree: int | None, table, name: str, meta: dict | None = None) -> VLStructure:
    """The uncertified structure on names, each of the given degree, plus a
    central c of degree 0, with d c = 0; ungraded when degree is None."""
    return VLStructure(
        basis=tuple(names) + ("c",),
        degrees=None if degree is None else (degree,) * len(names) + (0,),
        d_domain=("c",),
        d_matrix={"c": {}},
        table=table,
        name=name,
        meta=meta,
    )


def _lie_table(g: FiniteLieAlgebra, form: BilinearForm | None = None) -> dict:
    """[a(x), b(y)] = [a,b](y) Delta, plus  -(a|b) c(y) Delta^(1)  when a form is given."""
    names = g.names
    return {
        (a, b): [({names[k]: c for k, c in g.bracket_basis(i, j).items()}, 0, 0)]
        + ([] if form is None else [({"c": -form.value(i, j)}, 0, 1)])
        for i, a in enumerate(names) for j, b in enumerate(names)
    }


def witt() -> VLStructure:
    """One generator of degree 2; bracket  w'(y)Delta - 2 w(y)Delta^(1)."""
    return VLStructure(
        basis=("omega",),
        degrees=(2,),
        d_domain=(),
        d_matrix=None,
        table={("omega", "omega"): _WITT_TERMS},
        name="witt",
    ).certify()


def virasoro() -> VLStructure:
    """Witt plus the central line  -(1/12) c(y) Delta^(3)."""
    return _central(("omega",), 2, {
        ("omega", "omega"): (*_WITT_TERMS, ({"c": Fraction(-1, 12)}, 0, 3)),
    }, "virasoro").certify()


def loop(g: FiniteLieAlgebra) -> VLStructure:
    """Loop structure over a Lie algebra: [a(x), b(y)] = [a,b](y) Delta."""
    return VLStructure(
        basis=g.names,
        degrees=(1,) * g.dim,
        d_domain=(),
        d_matrix=None,
        table=_lie_table(g),
        name="loop",
    ).certify()


def affine(g: FiniteLieAlgebra, form: BilinearForm,
           highest_root: str | None = None) -> VLStructure:
    """Affinization: loop bracket plus  -(a|b) c(y) Delta^(1)  central term."""
    problems = check_invariance(g, form)
    if problems:
        raise ValueError("form is not invariant: " + "; ".join(problems[:3]))
    return _central(g.names, 1, _lie_table(g, form), "affine",
                    None if highest_root is None else {"highest_root": highest_root}).certify()


def heisenberg(d_matrix) -> VLStructure:
    """Rank-r oscillator structure: [u_i(m), u_j(n)] = d_ij m delta_{m+n,0} c,
    the affinization of the abelian Lie algebra on u1..ur by the form d."""
    form = BilinearForm(d_matrix)
    names = tuple(f"u{i}" for i in range(1, len(form.matrix) + 1))
    return _central(names, 1, _lie_table(FiniteLieAlgebra(names, {}), form), "heisenberg").certify()


class CommAlgebra:
    """Commutative associative algebra by a structure-constant table."""

    __slots__ = ("names", "table")

    def __init__(self, names, table, check: bool = True):
        self.names = tuple(names)
        self.table = {pair: entry for pair, entry in _normalize_table(self.names, table).items()
                      if entry}
        if check:
            problems = self.check_axioms()
            if problems:
                raise ValueError("not commutative associative: " + "; ".join(problems[:3]))

    def product_basis(self, i: int, j: int) -> dict[int, int | Fraction]:
        return self.table.get((i, j), {})

    def check_axioms(self) -> list[str]:
        problems = []
        r = len(self.names)
        for i in range(r):
            for j in range(r):
                if self.product_basis(i, j) != self.product_basis(j, i):
                    problems.append(f"commutativity fails on ({self.names[i]},{self.names[j]})")
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    lhs = bilinear(self.table, self.product_basis(i, j), {k: 1})
                    rhs = bilinear(self.table, {i: 1}, self.product_basis(j, k))
                    if lhs != rhs:
                        problems.append(
                            f"associativity fails on ({self.names[i]},{self.names[j]},{self.names[k]})"
                        )
        return problems

    def cube_is_zero(self) -> bool:
        """Whether every triple product vanishes; ``compose`` yields the nonzero ones."""
        return not compose(self.table, self.table)


def novikov(algebra: CommAlgebra, form: BilinearForm | None = None) -> VLStructure:
    """Degree-2 structure over a commutative associative algebra.

    Table: (1/2)(ab)'(y)Delta - (ab)(y)Delta^(1) - (1/6)(a|b) c(y)Delta^(3),
    whose shifted components reproduce
    (1/2)(m-n)(ab)(m+n-1) + (1/6)(a|b)(m^3-m) delta_{m,-n} c
    in Virasoro-style mode indexing.
    """
    problems = [] if form is None else check_invariance(algebra, form)
    if problems:
        raise ValueError("form is not associative: " + "; ".join(problems[:3]))
    return _central(algebra.names, 2, _product_table(algebra, form, _novikov_terms),
                    "novikov").certify()


def _product_table(algebra: CommAlgebra, form: BilinearForm | None, terms) -> dict:
    """Table entries terms(ab, (a|b)) over the basis pairs, with the product
    ab as a name map and (a|b) = 0 without a form; zero terms are dropped by
    the structure."""
    names = algebra.names
    if form is not None and len(form.matrix) != len(names):
        raise ValueError("form dimension does not match the algebra")
    return {
        (a, b): terms({names[k]: c for k, c in algebra.product_basis(i, j).items()},
                      0 if form is None else form.value(i, j))
        for i, a in enumerate(names) for j, b in enumerate(names)
    }


def _novikov_terms(ab: dict, v) -> list:
    return [({n: Fraction(c) / 2 for n, c in ab.items()}, 1, 0),
            ({n: -c for n, c in ab.items()}, 0, 1),
            ({"c": Fraction(-1, 6) * v}, 0, 3)]


def novikov_candidate(algebra: CommAlgebra, form: BilinearForm | None = None) -> VLStructure:
    """Uncertified Novikov-shaped table for testing invalid input algebras."""
    return _central(algebra.names, None, _product_table(algebra, form, _novikov_terms),
                    "novikov-candidate")


def quadratic_central_candidate(algebra: CommAlgebra, form: BilinearForm | None = None) -> VLStructure:
    """Table  -(ab)'(y)Delta^(1) + ((ab)(y) + (a|b)) Delta^(2), ungraded.

    Components: [a(m), b(n)] = -mn (ab)(m+n-2) + m(m-1) delta_{m+n,1} (a|b) c.
    """
    return _central(algebra.names, None, _product_table(
        algebra, form,
        lambda ab, v: [({n: -c for n, c in ab.items()}, 1, 1), (ab, 0, 2), ({"c": v}, 0, 2)]),
        "b3-candidate")


def b3_criterion(algebra: CommAlgebra, form: BilinearForm | None = None,
                 window: int = 3) -> dict:
    """Jacobi-window verdict for the quadratic central bracket vs B^3 = 0.

    Builds the candidate structure, runs the Jacobi check over all ordered
    basis triples (the candidate need not be skew), independently decides
    whether all triple products vanish, and reports both verdicts plus
    agreement.
    """
    s = quadratic_central_candidate(algebra, form)
    problems = s.verify_jacobi(window, ordered=True)
    cube_zero = algebra.cube_is_zero()
    return {
        "jacobi_pass": not problems,
        "cube_zero": cube_zero,
        "agree": (not problems) == cube_zero,
        "witnesses": problems[:5],
    }


# ---------------------------------------------------------------------------
# Quadratic vertex Poisson coefficient relations
# ---------------------------------------------------------------------------

def verify_po_relations(g_matrix: Sequence[Sequence[DPoly]],
                        b_tensor: Mapping[tuple[int, int, int], DPoly]) -> list[str]:
    """Check the coefficient relations of order-2 quadratic bracket tables.

    Inputs: g[i][j] polynomials in the base symbols u_k, the variables
    (k, 0) of a derivative-free ``DPoly``, and b[i,j,k] polynomials.
    Checks, for all indices:
      1. g^{ij} = -g^{ji}
      2. d g^{ij} / d u_k = b^{ij}_k
      3. sum_l b^{ij}_l g^{lk} = sum_l b^{jk}_l g^{li}
      4. sum_l d(b^{ij}_l g^{lk})/d u_m
           = sum_l (b^{ij}_l b^{lk}_m + b^{jk}_l b^{li}_m + b^{ki}_l b^{lj}_m)

    The right side of 4 is the cyclic sum over (i, j, k).  Given 1 and 2,
    and g affine in the u_k, relations 3 and 4 are the Jacobi identity of
    the order-2 table [u_i(x), u_j(y)] = g^{ij}(y) Delta^(2) - (g^{ij})'(y) Delta^(1):
    the triple (u_i, u_j, u_k) satisfies it exactly when relation 3 holds
    at (i,j,k) and (k,i,j) and relation 4 at every (i,j,k,m).  The tests
    check this against the window Jacobi check.
    """
    n = len(g_matrix)
    zero = DPoly()

    def b(i, j, k):
        return b_tensor.get((i, j, k), zero)

    def partial(p, k):
        return p.partials().get((k, 0), zero)

    problems = []
    for i in range(n):
        for j in range(n):
            if not (g_matrix[i][j] + g_matrix[j][i]).is_zero():
                problems.append(f"relation 1 fails at ({i},{j})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if partial(g_matrix[i][j], k) != b(i, j, k):
                    problems.append(f"relation 2 fails at ({i},{j},{k})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = zero
                rhs = zero
                for l in range(n):
                    lhs = lhs + b(i, j, l) * g_matrix[l][k]
                    rhs = rhs + b(j, k, l) * g_matrix[l][i]
                if lhs != rhs:
                    problems.append(f"relation 3 fails at ({i},{j},{k})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for m in range(n):
                    lhs = zero
                    rhs = zero
                    for l in range(n):
                        lhs = lhs + partial(b(i, j, l) * g_matrix[l][k], m)
                        rhs = (rhs + b(i, j, l) * b(l, k, m)
                               + b(j, k, l) * b(l, i, m)
                               + b(k, i, l) * b(l, j, m))
                    if lhs != rhs:
                        problems.append(f"relation 4 fails at ({i},{j},{k},{m})")
    return problems

"""Exact linear algebra over Q on sparse coordinate dicts.

A sparse vector is a dict from sortable keys (basis indices, exponent
tuples, mode symbols) to nonzero exact numbers: an ``int`` when the value is
integral, a ``Fraction`` otherwise, and never a float.  ``add_into``
combines them in place, in one loop, and ``clean`` builds one from raw input
through the same loop; both store integral values as ``int`` (``narrow``),
so integer work never enters ``fractions``.
A finite algebra is a structure-constant table {(i, j): sparse vector over
basis indices}, and ``bilinear`` multiplies two vectors through it.
``compose`` multiplies a whole table through another at once, with work
that grows with the nonzero products rather than with the size of the
tables.  ``Echelon`` is the package's only elimination routine, and
``inverse_rows``, ``det`` and ``nullspace`` are thin uses of it;
``inverse_rows`` and ``nullspace`` also take sparse rows, so their work
grows with the nonzero entries.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction


def narrow(q):
    """An integral Fraction as its int; anything else unchanged.

    ``int`` and ``Fraction`` compare and hash equal, so narrowing never
    changes a key or an ``==``; it only keeps integer arithmetic off the
    slow ``fractions`` path.
    """
    if q.__class__ is Fraction and q.denominator == 1:
        return q.numerator
    return q


def rat(value) -> int | Fraction:
    """Coerce ints, strings like '-1/12', or Fractions to an exact number:
    an int when it is integral, else a Fraction."""
    if isinstance(value, Fraction):
        return narrow(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        return narrow(Fraction(value))
    raise TypeError(f"not an exact rational: {value!r}")


def clean(items: Mapping | Iterable[tuple]) -> dict:
    """Sparse vector from a mapping or (key, value) pairs: values are coerced
    by ``rat``, repeated keys summed and zeros dropped."""
    if items.__class__ is dict or isinstance(items, Mapping):
        items = items.items()
    return add_into({}, [(k, c if c.__class__ is int else rat(c)) for k, c in items])


def add_into(acc: dict, vec: Mapping | list[tuple], scale=1) -> dict:
    """acc += scale * vec in place, never storing a zero and storing every
    integral value as an int; returns acc.  ``vec`` is a mapping or a list
    of (key, value) pairs, whose repeated keys are summed."""
    if not scale:
        return acc
    one = scale == 1
    get = acc.get
    for key, c in (vec if vec.__class__ is list else vec.items()):
        if not one:
            c = scale * c
        v = get(key)
        if v is not None:
            c = v + c
        if not c:
            if v is not None:
                del acc[key]
        elif c.__class__ is Fraction and c.denominator == 1:
            acc[key] = c.numerator
        else:
            acc[key] = c
    return acc


def bilinear(table: Mapping, u: Mapping, v: Mapping) -> dict:
    """The bilinear extension of a structure-constant table
    {(i, j): sparse vector} to sparse vectors u and v; missing pairs are 0."""
    out: dict = {}
    get = table.get
    for i, a in u.items():
        for j, b in v.items():
            entry = get((i, j))
            if entry:
                add_into(out, entry, a * b)
    return out


def compose(inner: Mapping, outer: Mapping, slot: int = 0) -> dict:
    """Each vector of ``inner`` multiplied by every basis index c through the
    table ``outer``: {(key, c): bilinear(outer, inner[key], {c: 1})} when
    slot is 0, or bilinear(outer, {c: 1}, inner[key]) when slot is 1.

    This is Gustavson's row-wise sparse product: the nonzero entries of
    ``outer`` are grouped once by the index in ``slot``, so the work grows
    with the products of nonzero terms, not with the size of the tables.
    Zero results are left out.
    """
    rows: dict = {}
    for pair, vec in outer.items():
        if vec:
            rows.setdefault(pair[slot], []).append((pair[1 - slot], vec))
    out: dict = {}
    for key, u in inner.items():
        for m, a in u.items():
            for c, vec in rows.get(m, ()):
                add_into(out.setdefault((key, c), {}), vec, a)
    return {key: vec for key, vec in out.items() if vec}


class Echelon:
    """Incremental echelon basis of a span of sparse vectors.

    Each row is keyed by its pivot, the largest key of the reduced vector,
    and stores the rest of that vector divided by the pivot coefficient.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict = {}

    def reduce(self, vec: Mapping) -> dict:
        """Normal form of vec: no key is a pivot, and it is zero exactly
        when vec lies in the span."""
        vec = clean(vec)
        rows = self.rows
        out = {}
        while vec:
            lead = max(vec)
            c = vec.pop(lead)
            row = rows.get(lead)
            if row is None:
                out[lead] = c
            else:
                add_into(vec, row, -c)
        return out

    def insert(self, vec: Mapping) -> dict:
        """Add vec to the span; returns its reduced form, empty when vec
        already lay in the span."""
        red = self.reduce(vec)
        if red:
            pivot = max(red)
            lead = red[pivot]
            self.rows[pivot] = {k: narrow(Fraction(c, lead))
                                for k, c in red.items() if k != pivot}
        return red


def _sparse_rows(rows: Sequence) -> list[dict]:
    """Each row as a sparse vector over its column indices: a mapping row
    is read as it is, a sequence row by position."""
    return [clean(row if isinstance(row, Mapping) else enumerate(row)) for row in rows]


def det(rows: Sequence[Sequence]) -> int | Fraction:
    """Determinant of a square matrix given by its rows."""
    echelon = Echelon()
    pivots = []
    out = 1
    for row in _sparse_rows(rows):
        red = echelon.insert(row)
        if not red:
            return 0
        pivots.append(max(red))
        out *= red[pivots[-1]]
    # each reduced row is the original minus earlier rows; the product of
    # pivots needs the sign of the permutation row -> pivot column
    swaps = sum(1 for i, p in enumerate(pivots) for q in pivots[i + 1:] if q < p)
    out = narrow(out)
    return -out if swaps % 2 else out


def _back_substitute(echelon: Echelon) -> dict:
    """Fully reduced rows: each pivot row without any other pivot key."""
    full: dict = {}
    for pivot in sorted(echelon.rows):
        row: dict = {}
        for k, c in echelon.rows[pivot].items():
            if k in full:
                add_into(row, full[k], -c)
            else:
                add_into(row, {k: c})
        full[pivot] = row
    return full


def inverse_rows(rows: Sequence) -> list[dict]:
    """Inverse of a square matrix as sparse rows, each in ascending column
    order; raises ValueError when it is singular.  The rows of the matrix
    may be sequences or mappings from column index to value.

    Row i is inserted as (M_i | e_i) with the matrix columns as the larger
    keys, so once every matrix column is a pivot the fully reduced row of
    column j reads (e_j | row j of the inverse).
    """
    n = len(rows)
    echelon = Echelon()
    for i, row in enumerate(_sparse_rows(rows)):
        aug = {(1, j): c for j, c in row.items()}
        aug[(0, i)] = 1
        echelon.insert(aug)
    if any((1, j) not in echelon.rows for j in range(n)):
        raise ValueError("matrix is singular")
    full = _back_substitute(echelon)
    return [{i: c for (_, i), c in sorted(full[(1, j)].items())} for j in range(n)]


def nullspace(rows: Sequence, width: int | None = None) -> list[dict[int, int | Fraction]]:
    """Basis of {v : M v = 0} as sparse vectors, one per non-pivot column
    in increasing order, each with entry 1 there.  The rows may be
    sequences or mappings from column index to value; ``width``, the number
    of columns, defaults to the length of the first row."""
    if width is None:
        width = len(rows[0]) if rows else 0
    echelon = Echelon()
    for row in _sparse_rows(rows):
        echelon.insert(row)
    full = _back_substitute(echelon)
    # a fully reduced row holds only non-pivot columns
    basis = {free: {free: 1} for free in range(width) if free not in full}
    for pivot, row in full.items():
        for free, c in row.items():
            basis[free][pivot] = -c
    return [dict(sorted(vec.items())) for vec in basis.values()]

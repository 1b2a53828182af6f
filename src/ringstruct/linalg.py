"""Exact rational linear algebra: matrices, row reduction, and canonical subspaces.

Everything here is pure and exact.  Scalars are ``fractions.Fraction``;
there is no floating point anywhere.  Subspaces are kept in reduced
row-echelon form with strictly increasing pivots, so two equal subspaces
have byte-identical basis matrices and subspace equality is matrix
equality.

Row reduction runs on integers.  ``_rref_rows`` scales each input row by
the lcm of its denominators, eliminates fraction-free (``r <- a*r - b*p``,
then ``r`` divided by the gcd of its entries; after Bareiss's
integer-preserving elimination, with the row's content in place of the
previous pivot), and builds one ``Fraction`` per entry at the end.  A row
space has exactly one reduced row-echelon basis, so the result is the one
that Gauss-Jordan over ``Fraction`` gives, entry for entry; the integer loop
pays one gcd per row operation where ``Fraction`` pays one per entry.  A
``Subspace`` keeps the basis rows and pivot columns that ``_rref_rows``
returns, so membership, coordinates and reduction never rescan for pivots.

Rows may hold ``int`` entries next to ``Fraction`` ones: ``_rref_rows``
reads both, ``Subspace(...)`` and ``contains`` take them as they are (any
other type still goes through :func:`vec`; ``reduce`` and ``coords_of``
return ``Fraction`` tuples, so they coerce), and a matrix for
``solve`` or ``kernel_basis`` may be built from integer rows with
``RatMatrix._of_rows``.  This is how the regular representation's integer
operators reach the kernel without a round trip through ``Fraction``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, DocumentError

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce ints, strings like ``p/q``, or Fractions into a Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def format_rat(q: Fraction) -> str:
    """Render a rational as ``p`` or ``p/q`` (q > 1)."""
    q = rat(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# Digits allowed in one integer, numerator or denominator of a document; far
# above anything the generators emit, and it bounds the size of a parsed table.
MAX_DIGITS = 1000
INT_PATTERN = rf"-?[0-9]{{1,{MAX_DIGITS}}}"
_RAT = re.compile(rf"({INT_PATTERN})(?:/([0-9]{{1,{MAX_DIGITS}}}))?")


def parse_rat(text: str) -> Fraction:
    """Parse exactly ``p`` or ``p/q`` with q nonzero; raise ``DocumentError``."""
    match = _RAT.fullmatch(text)
    if match is None:
        raise DocumentError(
            f"expected a rational p or p/q of at most {MAX_DIGITS} digits each, got {text[:40]!r}"
        )
    num, den = match.groups()
    den = int(den or 1)
    if den == 0:
        raise DocumentError(f"zero denominator in {text[:40]!r}")
    return Fraction(int(num), den)


def vec(values: Iterable) -> tuple:
    return tuple(rat(v) for v in values)


_EXACT_TYPES = frozenset((int, Fraction))


def _exact(values: Iterable) -> tuple:
    """``values`` as a tuple, coerced by :func:`vec` unless every entry is an int or Fraction."""
    v = tuple(values)
    return v if _EXACT_TYPES.issuperset(map(type, v)) else vec(v)


def combine(coeffs: Sequence, rows: Sequence[Sequence], n: int) -> tuple:
    """``sum_k coeffs[k] * rows[k]`` in Q^n, skipping zero coefficients and entries."""
    acc = [ZERO] * n
    for c, row in zip(coeffs, rows):
        if c:
            acc = [a + c * b if b else a for a, b in zip(acc, row)]
    return tuple(acc)


def apply_rows(rows: Sequence[Sequence], v: Sequence) -> tuple:
    """The matrix with these rows applied to the column ``v``."""
    return tuple(sum(a * b for a, b in zip(row, v) if b) for row in rows)


def zero_vec(n: int) -> tuple:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> tuple:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(u: Sequence, v: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u: Sequence) -> tuple:
    c = rat(c)
    return tuple(c * a for a in u)


def is_zero_vec(u: Sequence) -> bool:
    return not any(u)


class RatMatrix:
    """Immutable dense rational matrix, entries stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        self.rows = rows
        self.cols = cols
        self.entries = tuple(rat(e) for e in entries)
        if len(self.entries) != rows * cols:
            raise DimensionMismatch(
                f"need {rows * cols} entries for a {rows}x{cols} matrix, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, row_list: Sequence[Sequence]) -> "RatMatrix":
        row_list = [vec(r) for r in row_list]
        cols = len(row_list[0]) if row_list else 0
        for r in row_list:
            if len(r) != cols:
                raise DimensionMismatch("ragged rows")
        return cls._of_rows(row_list, cols)

    @classmethod
    def _of_rows(cls, row_list: Sequence[tuple], cols: int) -> "RatMatrix":
        """Matrix of rows of length ``cols`` whose entries are already Fractions or ints."""
        m = object.__new__(cls)
        m.rows = len(row_list)
        m.cols = cols
        m.entries = tuple(x for r in row_list for x in r)
        return m

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def mat_vec(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise DimensionMismatch("matrix/vector size mismatch")
        return tuple(
            sum((self.entry(i, j) * v[j] for j in range(self.cols)), ZERO)
            for i in range(self.rows)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(format_rat(x) for x in self.row(i)) for i in range(self.rows))
        return f"RatMatrix({self.rows}x{self.cols}: {body})"


def _rref_rows(rows: Iterable[Sequence]) -> Tuple[List[tuple], List[int]]:
    """Reduced row-echelon basis of the span of ``rows``, and its pivot columns.

    Entries are Fractions or ints.  The basis comes back as Fraction tuples
    whose leading entries are 1, one per pivot column in increasing order.
    """
    work = []
    for r in rows:
        d = lcm(*[x.denominator for x in r])
        if d == 1:
            ints = [x.numerator for x in r]
        else:
            ints = [x.numerator * (d // x.denominator) for x in r]
        g = gcd(*ints)
        if g:
            work.append([x // g for x in ints] if g != 1 else ints)
    pivots = []
    top = 0
    for col in range(len(work[0]) if work else 0):
        for i in range(top, len(work)):
            if work[i][col]:
                break
        else:
            continue
        p = work[i]
        work[i] = work[top]
        work[top] = p
        a = p[col]
        # r <- a*r - b*p clears col in every other row, and dividing by the
        # row's gcd keeps the integers small; rows above top keep their
        # nonzero pivot entries, so only rows below it can vanish.
        kept = []
        for i, r in enumerate(work):
            b = r[col]
            if b and i != top:
                r = [a * x - b * y for x, y in zip(r, p)]
                g = gcd(*r)
                if not g:
                    continue  # the row was dependent on the pivot rows
                if g != 1:
                    r = [x // g for x in r]
            kept.append(r)
        work = kept
        pivots.append(col)
        top += 1
        if top == len(work):
            break
    # each row is 0 at the other pivots: its rref row is it over its pivot entry
    basis = []
    for r, col in zip(work, pivots):
        a = r[col]
        basis.append(tuple(Fraction(x, a) if x else ZERO for x in r))
    return basis, pivots


def rref(m: RatMatrix) -> RatMatrix:
    """Reduced row-echelon form; preserves the row space, keeps zero rows."""
    reduced, _ = _rref_rows(m.row(i) for i in range(m.rows))
    reduced += [(ZERO,) * m.cols] * (m.rows - len(reduced))
    return RatMatrix._of_rows(reduced, m.cols)


def solve(a: RatMatrix, b: Sequence) -> Optional[tuple]:
    """One exact solution of ``a @ x = b``, or None when the system is inconsistent."""
    b = vec(b)
    if a.rows != len(b):
        raise DimensionMismatch(f"matrix has {a.rows} rows but rhs has {len(b)} entries")
    n = a.cols
    reduced, pivots = _rref_rows(a.row(i) + (b[i],) for i in range(a.rows))
    if pivots and pivots[-1] == n:
        return None  # 0 = 1 row
    # free variables stay 0, so each pivot equation reads x[piv] = rhs
    x = [ZERO] * n
    for r, piv in zip(reduced, pivots):
        x[piv] = r[n]
    return tuple(x)


def kernel_basis(a: RatMatrix) -> list:
    """Canonical basis (as rows) of the null space of ``a``."""
    reduced, pivots = _rref_rows(a.row(i) for i in range(a.rows))
    n = a.cols
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * n
        v[f] = ONE
        for r, piv in zip(reduced, pivots):
            v[piv] = -r[f]
        basis.append(v)
    return basis


class Subspace:
    """A linear subspace in canonical (reduced row-echelon) form.

    The basis matrix is the unique rref basis, so ``==`` on subspaces is
    structural equality of the representation.
    """

    __slots__ = ("ambient_dim", "basis", "_rows", "_pivots")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence] = ()):
        self.ambient_dim = ambient_dim
        rows = []
        for v in vectors:
            v = _exact(v)
            if len(v) != ambient_dim:
                raise DimensionMismatch("vector length does not match ambient dimension")
            rows.append(v)
        self._rows, self._pivots = _rref_rows(rows)
        self.basis = RatMatrix._of_rows(self._rows, ambient_dim)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [])

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [unit_vec(ambient_dim, i) for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self._rows)

    def is_zero(self) -> bool:
        return not self._rows

    def basis_rows(self) -> list:
        return list(self._rows)

    def pivots(self) -> list:
        return list(self._pivots)

    def _remainder(self, v: tuple) -> tuple:
        for row, piv in zip(self._rows, self._pivots):
            c = v[piv]
            if c:
                v = tuple(a - c * b if b else a for a, b in zip(v, row))
        return v

    def reduce(self, v: Sequence) -> tuple:
        """Eliminate this subspace from ``v``; remainder is 0 iff v is a member."""
        return self._remainder(vec(v))

    def contains(self, v: Sequence) -> bool:
        return not any(self._remainder(_exact(v)))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other._rows)

    def coords_of(self, v: Sequence) -> Optional[tuple]:
        """Coefficients of ``v`` over the canonical basis, or None if outside.

        Each basis row is 0 at every other pivot, so the coefficient of a
        row is the entry of ``v`` at its pivot.
        """
        v = vec(v)
        if any(self._remainder(v)):
            return None
        return tuple(v[piv] for piv in self._pivots)

    def add(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient_dim, self._rows + other._rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the double-kernel construction.

        A vector lies in both spaces iff it is ``a . U`` for some ``(a, b)``
        in the kernel of the stacked coefficient matrix ``[U^T | -V^T]``.
        """
        self._check_ambient(other)
        r, s = self.dim, other.dim
        if r == 0 or s == 0:
            return Subspace.zero(self.ambient_dim)
        u_rows, v_rows = self._rows, other._rows
        coeff = RatMatrix._of_rows(
            [
                tuple(u[c] for u in u_rows) + tuple(-v[c] for v in v_rows)
                for c in range(self.ambient_dim)
            ],
            r + s,
        )
        vectors = [combine(k, u_rows, self.ambient_dim) for k in kernel_basis(coeff)]
        return Subspace(self.ambient_dim, vectors)

    def complement_in(self, other: "Subspace") -> "Subspace":
        """Deterministic complement ``w`` with ``self (+) w = other``.

        Requires ``self`` to be contained in ``other``.  The choice is
        canonical: express ``self`` in the echelon coordinates of ``other``
        and take the basis rows of ``other`` sitting at the non-pivot
        coordinates.  For ``other`` the full space this picks standard
        coordinates away from the pivots of ``self``.
        """
        self._check_ambient(other)
        inner = [other.coords_of(row) for row in self._rows]
        if None in inner:
            raise DimensionMismatch("complement_in requires containment")
        pivot_set = set(_rref_rows(inner)[1])
        picked = [row for j, row in enumerate(other._rows) if j not in pivot_set]
        return Subspace(self.ambient_dim, picked)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        rows = [" ".join(format_rat(x) for x in r) for r in self._rows]
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim}: [{'; '.join(rows)}])"


def kernel(a: RatMatrix) -> Subspace:
    """Canonical null-space subspace of ``a``."""
    return Subspace(a.cols, kernel_basis(a))

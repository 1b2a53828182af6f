"""Exact rational linear algebra: matrices, row reduction, and canonical subspaces.

Everything here is pure and exact.  Scalars are ``fractions.Fraction``;
there is no floating point anywhere.  Subspaces are kept in reduced
row-echelon form with strictly increasing pivots, so two equal subspaces
have byte-identical basis matrices and subspace equality is matrix
equality.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Optional, Sequence

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
    return all(a == 0 for a in u)


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
        row_list = [tuple(rat(x) for x in r) for r in row_list]
        cols = len(row_list[0]) if row_list else 0
        for r in row_list:
            if len(r) != cols:
                raise DimensionMismatch("ragged rows")
        flat = [x for r in row_list for x in r]
        return cls(len(row_list), cols, flat)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def transpose(self) -> "RatMatrix":
        return RatMatrix.from_rows(
            [[self.entry(i, j) for i in range(self.rows)] for j in range(self.cols)]
        )

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


def _rref_rows(rows: list) -> list:
    """In-place Gauss-Jordan to reduced row-echelon form; returns nonzero rows."""
    rows = [list(r) for r in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        pivot = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        pv = rows[pivot_row][col]
        if pv != 1:
            rows[pivot_row] = [x / pv for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return [r for r in rows if any(x != 0 for x in r)]


def rref(m: RatMatrix) -> RatMatrix:
    """Reduced row-echelon form; preserves the row space, keeps zero rows."""
    reduced = _rref_rows(m.row_list())
    while len(reduced) < m.rows:
        reduced.append([ZERO] * m.cols)
    return RatMatrix.from_rows(reduced) if m.cols or m.rows else m


def _pivots(rows: Sequence[Sequence]) -> list:
    cols = []
    for r in rows:
        for j, x in enumerate(r):
            if x != 0:
                cols.append(j)
                break
    return cols


def solve(a: RatMatrix, b: Sequence) -> Optional[tuple]:
    """One exact solution of ``a @ x = b``, or None when the system is inconsistent."""
    b = vec(b)
    if a.rows != len(b):
        raise DimensionMismatch(f"matrix has {a.rows} rows but rhs has {len(b)} entries")
    aug = [list(a.row(i)) + [b[i]] for i in range(a.rows)]
    reduced = _rref_rows(aug)
    n = a.cols
    x = [ZERO] * n
    for r in reduced:
        piv = next(j for j, v in enumerate(r) if v != 0)
        if piv == n:
            return None  # 0 = 1 row
        x[piv] = r[n]  # free variables stay 0
    # pivot value already 1 and row reduced, but free columns may contribute:
    # with free vars set to 0 the pivot equations read x[piv] = rhs directly.
    return tuple(x)


def kernel_basis(a: RatMatrix) -> list:
    """Canonical basis (as rows) of the null space of ``a``."""
    reduced = _rref_rows(a.row_list())
    n = a.cols
    pivots = _pivots(reduced)
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

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence] = ()):
        self.ambient_dim = ambient_dim
        rows = []
        for v in vectors:
            v = vec(v)
            if len(v) != ambient_dim:
                raise DimensionMismatch("vector length does not match ambient dimension")
            rows.append(v)
        self.basis = RatMatrix.from_rows(_rref_rows(rows)) if rows else RatMatrix(0, ambient_dim, [])

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [])

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [unit_vec(ambient_dim, i) for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def basis_rows(self) -> list:
        return [self.basis.row(i) for i in range(self.basis.rows)]

    def pivots(self) -> list:
        return _pivots(self.basis_rows())

    def reduce(self, v: Sequence) -> tuple:
        """Eliminate this subspace from ``v``; remainder is 0 iff v is a member."""
        v = list(vec(v))
        for row, piv in zip(self.basis_rows(), self.pivots()):
            if v[piv] != 0:
                c = v[piv]
                v = [a - c * b for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, v: Sequence) -> bool:
        return is_zero_vec(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.basis_rows())

    def coords_of(self, v: Sequence) -> Optional[tuple]:
        """Coefficients of ``v`` over the canonical basis, or None if outside."""
        v = vec(v)
        coeffs = []
        work = list(v)
        for row, piv in zip(self.basis_rows(), self.pivots()):
            c = work[piv]
            coeffs.append(c)
            if c != 0:
                work = [a - c * b for a, b in zip(work, row)]
        if not is_zero_vec(work):
            return None
        return tuple(coeffs)

    def add(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient_dim, self.basis_rows() + other.basis_rows())

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the double-kernel construction.

        A vector lies in both spaces iff it is ``a . U`` for some ``(a, b)``
        in the kernel of the stacked coefficient matrix ``[U^T | -V^T]``.
        """
        self._check_ambient(other)
        r, s = self.dim, other.dim
        if r == 0 or s == 0:
            return Subspace.zero(self.ambient_dim)
        u_rows = self.basis_rows()
        v_rows = other.basis_rows()
        coeff = RatMatrix.from_rows(
            [
                [u_rows[i][c] for i in range(r)] + [-v_rows[j][c] for j in range(s)]
                for c in range(self.ambient_dim)
            ]
        )
        vectors = []
        for k in kernel_basis(coeff):
            w = [ZERO] * self.ambient_dim
            for i in range(r):
                if k[i] != 0:
                    w = [a + k[i] * b for a, b in zip(w, u_rows[i])]
            vectors.append(w)
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
        if not other.contains_subspace(self):
            raise DimensionMismatch("complement_in requires containment")
        inner = []
        for row in self.basis_rows():
            c = other.coords_of(row)
            inner.append(c)
        inner_rows = _rref_rows(inner)
        pivot_set = set(_pivots(inner_rows))
        picked = [other.basis.row(j) for j in range(other.dim) if j not in pivot_set]
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
        rows = [" ".join(format_rat(x) for x in r) for r in self.basis_rows()]
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim}: [{'; '.join(rows)}])"


def kernel(a: RatMatrix) -> Subspace:
    """Canonical null-space subspace of ``a``."""
    return Subspace(a.cols, kernel_basis(a))


def span(ambient_dim: int, vectors: Iterable[Sequence]) -> Subspace:
    return Subspace(ambient_dim, vectors)

"""Finite-dimensional associative algebras given by structure constants.

An :class:`AlgebraPresentation` carries a basis ``e_0 .. e_{n-1}``, a field
label per basis coordinate, and a sparse table of structure constants
``e_i * e_j = sum_k c_{ijk} e_k``.  Coordinates sharing a label form a
contiguous block; products across distinct labels vanish (components over
non-isomorphic base fields annihilate each other), which makes a multi-label
presentation a direct sum of one block per label.

Associativity and the cross-label rule are validated at construction time;
invalid tables are rejected with the offending triple.

Alongside the ``Fraction`` table the constructor keeps one integer table
with the same sparse layout, ``constants = integer_table / D``, where ``D``
is the lcm of all constant denominators.  The associativity check and
:meth:`AlgebraPresentation.multiply_coords` run on it: integer sums need no
gcd per operation, and both sides of ``(e_i e_j) e_k = e_i (e_j e_k)``
carry the same factor ``D^2``, so comparing the integer sums is exact.
Products build each output ``Fraction`` once, over the common denominator.

The check tests the law modulo primes p with ``n p^2 < 2^62`` (``n`` the
dimension), so that a sum of ``n`` products of residues fits in int64.
With ``M`` the largest absolute integer constant, every associator entry is
an integer of absolute value at most ``2 n M^2``; primes are added until
their product exceeds that bound, and an entry that every one of them
divides is then 0 (the Chinese remainder theorem; von zur Gathen and
Gerhard, *Modern Computer Algebra*, ch. 5).  Per prime, both sides are two
numpy int64 matrix products over the pairs with a product, in slices of
the first index, and they are compared wherever either side has an entry.
When a prime sees a nonzero associator, the triple loop runs from (0, 0, 0)
and names the first failing triple.

The regular representation is read from the same table.
:meth:`AlgebraPresentation.operator` gives the integer rows of ``L_x``
(``v -> x v``) or ``R_x`` (``v -> v x``) over one scale ``dx * D``, walking
only the table entries of the basis elements that occur in ``x``; a basis
element is passed as its index, so no unit vector is built or scanned.  Its
columns are the products ``x e_j`` (or ``e_j x``), so the same call serves
the span of ``x A`` or ``A x`` and every basis-times-vector product.
Annihilators, the center, centralizers and the unity are kernels (or one
solve per label block) of stacked operators, and they are fed the integer
rows unscaled: a kernel does not change when a row is multiplied by a
nonzero constant, and reduced row-echelon bases are unique, so the results
equal those of the ``Fraction`` matrices entry for entry.  A solve scales
its right-hand side with its rows.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import isqrt, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    AssociativityError,
    DimensionMismatch,
    InternalInvariantError,
    MismatchedAlgebras,
    ValidationError,
)
from .linalg import (
    ZERO,
    RatMatrix,
    Subspace,
    combine,
    is_zero_vec,
    kernel,
    rat,
    solve,
    unit_vec,
    vec,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vec,
)

SparseVec = Tuple[Tuple[int, Fraction], ...]
IntSparseVec = Tuple[Tuple[int, int], ...]


def _to_sparse(dense: Sequence) -> SparseVec:
    return tuple((k, x) for k, x in enumerate(dense) if x != 0)


def _sparse_to_dense(sparse: SparseVec, n: int) -> tuple:
    out = [ZERO] * n
    for k, x in sparse:
        out[k] = x
    return tuple(out)


SLICE_ENTRIES = 1 << 13  # product entries per slice of the associativity check
_WORD_PRIMES: Dict[int, List[int]] = {}  # dim -> the primes of word_primes found so far


def _is_prime(p: int) -> bool:
    """Miller-Rabin to the bases 2, 7, 61, exact for p < 4,759,123,141."""
    if p < 2 or any(p % q == 0 for q in (2, 7, 61)):
        return p in (2, 7, 61)
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s with d odd
    for a in (2, 7, 61):
        x = pow(a, (p - 1) >> s, p)
        if x != 1 and all(pow(x, 1 << r, p) != p - 1 for r in range(s)):
            return False
    return True


def word_primes(n: int, bound: int) -> List[int]:
    """The largest primes p with n * p**2 < 2**62, descending, until their
    product exceeds ``bound``: a sum of n products of residues mod p then fits
    in int64, and an integer below the product in absolute value that every
    prime divides is 0."""
    known = _WORD_PRIMES.setdefault(n, [])
    primes, product = [], 1
    while product <= bound:
        if len(primes) == len(known):
            p = known[-1] if known else isqrt(((1 << 62) - 1) // n) + 1
            p -= 1
            while not _is_prime(p):
                p -= 1
            known.append(p)
        primes.append(known[len(primes)])
        product *= primes[-1]
    return primes


class AlgebraPresentation:
    """An associative algebra over labeled exact base fields."""

    def __init__(
        self,
        name: str,
        dim: int,
        constants: Dict[Tuple[int, int], Sequence],
        field_labels: Optional[Sequence[str]] = None,
        basis_names: Optional[Sequence[str]] = None,
        _validate: bool = True,
    ):
        self.name = name
        self.dim = dim
        if field_labels is None:
            field_labels = ["K1"] * dim
        self.field_labels = tuple(field_labels)
        if len(self.field_labels) != dim:
            raise ValidationError("one field label per basis coordinate required")
        self.basis_names = tuple(basis_names) if basis_names else tuple(f"e{i}" for i in range(dim))
        if len(self.basis_names) != dim:
            raise ValidationError("one basis name per coordinate required")
        table: Dict[Tuple[int, int], SparseVec] = {}
        for (i, j), value in constants.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValidationError(f"constant index ({i},{j}) out of range")
            dense = vec(value)
            if len(dense) != dim:
                raise ValidationError(f"constant vector for ({i},{j}) has wrong length")
            sparse = _to_sparse(dense)
            if sparse:
                table[(i, j)] = sparse
        self._table = table
        self._denominator = lcm(*(c.denominator for sparse in table.values() for _, c in sparse))
        self._int_table: Dict[Tuple[int, int], IntSparseVec] = {
            pair: tuple((k, c.numerator * (self._denominator // c.denominator)) for k, c in sparse)
            for pair, sparse in table.items()
        }
        self._by_side = None
        if _validate:
            self._validate()

    # -- validation -----------------------------------------------------

    def _validate(self):
        self._check_label_blocks()
        self._check_cross_label()
        self._check_associativity()

    def _check_label_blocks(self):
        seen = []
        for lab in self.field_labels:
            if seen and seen[-1] == lab:
                continue
            if lab in seen:
                raise ValidationError(f"label {lab!r} is not contiguous")
            seen.append(lab)

    def _check_cross_label(self):
        for (i, j), sparse in self._table.items():
            if self.field_labels[i] != self.field_labels[j] and sparse:
                raise ValidationError(
                    f"cross-label product e{i}*e{j} must vanish "
                    f"({self.field_labels[i]!r} vs {self.field_labels[j]!r})"
                )
            for k, _ in sparse:
                if self.field_labels[k] != self.field_labels[i]:
                    raise ValidationError(
                        f"product e{i}*e{j} leaves its label block at coordinate {k}"
                    )

    def _check_associativity(self):
        """(e_i e_j) e_k == e_i (e_j e_k) for every triple, decided modulo
        primes; a failure runs ``_first_violation``, which names the triple."""
        if not self._associates_mod_primes():
            self._first_violation()
            raise InternalInvariantError("an associator is nonzero modulo a prime but zero")

    def _associates_mod_primes(self) -> bool:
        """Both sides of the law as two integer products per prime, compared on
        the union of their supports.

        With C[i, j, t] the integer table and P the pairs (i, j) with a product,
        lhs[(i, j), (k, t)] = sum_m C[i, j, m] C[m, k, t] over rows (i, j) in P,
        and rhs[(j, k), (i, t)] = sum_m C[j, k, m] C[i, m, t] over rows (j, k)
        in P; the columns are those where some constant is nonzero.  Every
        associator entry is lhs - rhs at matching positions, where a position
        outside both products is 0 on both sides.
        """
        # imported on first use: numpy imported before the rest of the package
        # is compiled from source leaves the process about 1.5 MB larger
        import numpy as np

        n = self.dim
        entries = [(i * n + j, k, c) for (i, j), sparse in self._int_table.items() for k, c in sparse]
        if not entries:
            return True
        ij, t, values = zip(*entries)
        ij, t = np.array(ij, dtype=np.int64), np.array(t, dtype=np.int64)
        i, j = np.divmod(ij, n)

        def index(keys):
            """The distinct keys in order, and the position of every key in
            range(n * n) among them (their number where absent)."""
            present = np.zeros(n * n, dtype=bool)
            present[keys] = True
            found = np.flatnonzero(present)
            position = np.full(n * n, len(found))
            position[found] = np.arange(len(found))
            return found, position

        # P, the columns (k, t) of lhs and the columns (i, t) of rhs
        pairs, row_of = index(ij)
        lcols, lcol_of = index(j * n + t)
        rcols, rcol_of = index(i * n + t)
        row, lcol, rcol = row_of[ij], lcol_of[j * n + t], rcol_of[i * n + t]
        pi, pj = np.divmod(pairs, n)
        lk, lt = np.divmod(lcols, n)
        ri, rt = np.divmod(rcols, n)
        # slices of i, each with at most about SLICE_ENTRIES entries in its
        # lhs rows (i, j) and rhs columns (i, t)
        pair_keys, rcol_keys = pairs.tolist(), rcols.tolist()
        cost = [0] * n
        for key in pair_keys:
            cost[key // n] += len(lcols) + 1
        for key in rcol_keys:
            cost[key // n] += len(pairs) + 1
        bounds, size = [0], 0
        for x in range(n):
            if size and size + cost[x] > SLICE_ENTRIES:
                bounds.append(x)
                size = 0
            size += cost[x]
        bounds.append(n)
        big = max(abs(c) for c in values)
        for p in word_primes(n, 2 * n * big * big):
            c = np.array([v % p for v in values], dtype=np.int64)
            # the last row of cp and the last columns of b and d are zero:
            # a position that holds no entry reads them
            cp = np.zeros((len(pairs) + 1, n), dtype=np.int64)
            b = np.zeros((n, len(lcols) + 1), dtype=np.int64)
            d = np.zeros((n, len(rcols) + 1), dtype=np.int64)
            cp[row, t], b[i, lcol], d[j, rcol] = c, c, c
            for start, stop in zip(bounds, bounds[1:]):
                lo, hi = (bisect_left(pair_keys, at * n) for at in (start, stop))
                clo, chi = (bisect_left(rcol_keys, at * n) for at in (start, stop))
                lhs = cp[np.append(np.arange(lo, hi), len(pairs))] @ b
                rhs = cp @ d[:, np.append(np.arange(clo, chi), len(rcols))]
                # the flat position of each lhs entry in rhs (row (j, k), column
                # (i, t)), and of each rhs entry in lhs (row (i, j), column (k, t))
                to_rhs = row_of[pj[lo:hi, None] * n + lk] * (chi - clo + 1) + (
                    np.minimum(rcol_of[pi[lo:hi, None] * n + lt], chi) - clo)
                to_lhs = (np.minimum(row_of[ri[clo:chi] * n + pi[:, None]], hi) - lo) * (
                    len(lcols) + 1) + lcol_of[pj[:, None] * n + rt[clo:chi]]
                if ((lhs[:-1, :-1] - rhs.take(to_rhs)) % p).any() or (
                        (rhs[:-1, :-1] - lhs.take(to_lhs)) % p).any():
                    return False
        return True

    def _first_violation(self):
        """Raises ``AssociativityError`` for the first failing (i, j, k)."""
        n, table = self.dim, self._int_table
        # both sides vanish for every k when e_i e_m = 0 for all m, or when
        # e_i e_j = 0 and e_j e_m = 0 for all m: such an i or (i, j) is skipped
        acting = {i for i, _ in table}
        for i in range(n):
            if i not in acting:
                continue
            for j in range(n):
                left = table.get((i, j), ())
                if not left and j not in acting:
                    continue
                for k in range(n):
                    lhs: Dict[int, int] = {}
                    for m, c in left:
                        for t, d in table.get((m, k), ()):
                            lhs[t] = lhs.get(t, 0) + c * d
                    rhs: Dict[int, int] = {}
                    for m, c in table.get((j, k), ()):
                        for t, d in table.get((i, m), ()):
                            rhs[t] = rhs.get(t, 0) + c * d
                    # a sum that cancels to 0 may be stored on one side only
                    if lhs != rhs and any(
                        lhs.get(t, 0) != rhs.get(t, 0) for t in set(lhs) | set(rhs)
                    ):
                        raise AssociativityError((i, j, k))

    # -- basic structure ------------------------------------------------

    def basis_product(self, i: int, j: int) -> tuple:
        return _sparse_to_dense(self._table.get((i, j), ()), self.dim)

    def sparse_table(self) -> Dict[Tuple[int, int], SparseVec]:
        return dict(self._table)

    def multiply_coords(self, x: Sequence, y: Sequence) -> tuple:
        # ``if c``, not ``c != 0``: Fraction.__eq__ costs twice Fraction.__bool__
        xs = [(i, c) for i, c in enumerate(x) if c]
        ys = [(j, c) for j, c in enumerate(y) if c]
        table = self._int_table
        hits = [(a, b, sparse) for i, a in xs for j, b in ys if (sparse := table.get((i, j)))]
        if not hits:
            return (ZERO,) * self.dim
        # x = xi / dx and y = yi / dy with integer xi, yi, so that
        # x*y = (sum xi_i yi_j C_ij) / (dx dy D): one Fraction per output.
        dx = lcm(*[a.denominator for _, a in xs])
        dy = lcm(*[b.denominator for _, b in ys])
        out = [0] * self.dim
        for a, b, sparse in hits:
            ab = a.numerator * (dx // a.denominator) * b.numerator * (dy // b.denominator)
            for k, c in sparse:
                out[k] += ab * c
        den = dx * dy * self._denominator
        return tuple(Fraction(v, den) if v else ZERO for v in out)

    def element(self, coords: Sequence) -> "Element":
        coords = vec(coords)
        if len(coords) != self.dim:
            raise DimensionMismatch("coordinate length does not match algebra dimension")
        return Element(self, coords)

    def basis_element(self, i: int) -> "Element":
        return Element(self, unit_vec(self.dim, i))

    def zero_element(self) -> "Element":
        return Element(self, zero_vec(self.dim))

    def basis_elements(self) -> List["Element"]:
        return [self.basis_element(i) for i in range(self.dim)]

    def operator(self, x, side: str) -> Tuple[List[List[int]], int]:
        """Integer rows of L_x (side ``"left"``, v -> x v) or R_x (v -> v x), and their scale.

        ``x`` is a basis index or a coordinate vector.  Row k, column j over
        the scale is coordinate k of ``x e_j`` (or ``e_j x``), so the columns
        are the products of x with the basis.
        """
        n = self.dim
        if isinstance(x, int):
            terms, scale = [(x, 1)], self._denominator
        else:
            xs = [(i, c) for i, c in enumerate(x) if c]
            dx = lcm(*[c.denominator for _, c in xs])
            terms = [(i, c.numerator * (dx // c.denominator)) for i, c in xs]
            scale = dx * self._denominator
        if self._by_side is None:
            # the integer table grouped by the operator's basis index, on first
            # use: left[i] lists (j, e_i e_j) and right[i] lists (j, e_j e_i)
            left, right = [[] for _ in range(n)], [[] for _ in range(n)]
            for (i, j), sparse in self._int_table.items():
                left[i].append((j, sparse))
                right[j].append((i, sparse))
            self._by_side = {"left": left, "right": right}
        by_index = self._by_side[side]
        rows = [[0] * n for _ in range(n)]
        for i, a in terms:
            for j, sparse in by_index[i]:
                for k, c in sparse:
                    rows[k][j] += a * c
        return rows, scale

    def _fraction_operator(self, x: Sequence, side: str) -> RatMatrix:
        rows, scale = self.operator(x, side)
        return RatMatrix._of_rows(
            [tuple(Fraction(v, scale) if v else ZERO for v in row) for row in rows], self.dim
        )

    def left_mult_matrix(self, x: Sequence) -> RatMatrix:
        """Matrix of v -> x*v over the basis (columns are images of e_j)."""
        return self._fraction_operator(x, "left")

    def right_mult_matrix(self, x: Sequence) -> RatMatrix:
        return self._fraction_operator(x, "right")

    def label_blocks(self) -> List[Tuple[str, range]]:
        """Contiguous coordinate ranges per field label, in coordinate order."""
        blocks: List[Tuple[str, range]] = []
        start = 0
        for i in range(1, self.dim + 1):
            if i == self.dim or self.field_labels[i] != self.field_labels[start]:
                blocks.append((self.field_labels[start], range(start, i)))
                start = i
        return blocks

    def label_components(self, coords: Sequence) -> List[tuple]:
        """Split an ambient vector into its per-label component vectors."""
        out = []
        for _, block in self.label_blocks():
            comp = [ZERO] * self.dim
            nonzero = False
            for i in block:
                comp[i] = coords[i]
                nonzero = nonzero or coords[i] != 0
            if nonzero:
                out.append(tuple(comp))
        return out

    def block_subspace(self, block: range) -> Subspace:
        return Subspace(self.dim, [unit_vec(self.dim, i) for i in block])

    # -- derived presentations -------------------------------------------

    def subalgebra(self, space: Subspace, name: Optional[str] = None):
        """Presentation induced on a multiplication-closed subspace.

        Returns ``(algebra, embed, restrict)`` where ``embed`` maps
        sub-coordinates to ambient coordinates and ``restrict`` maps an
        ambient member vector back to sub-coordinates.  The whole space has
        the standard basis as its canonical basis, so it gives this algebra
        itself, with identity maps.
        """
        if space.dim == self.dim:
            return self, tuple, tuple
        rows = space.basis_rows()
        d = space.dim
        labels = []
        for r in rows:
            lab = None
            for i, x in enumerate(r):
                if x != 0:
                    if lab is None:
                        lab = self.field_labels[i]
                    elif self.field_labels[i] != lab:
                        raise InternalInvariantError(
                            "subalgebra basis vector crosses label blocks"
                        )
            labels.append(lab if lab is not None else "K1")
        constants = {}
        for i in range(d):
            for j in range(d):
                prod = self.multiply_coords(rows[i], rows[j])
                coords = space.coords_of(prod)
                if coords is None:
                    raise ValidationError("subspace is not closed under multiplication")
                if not is_zero_vec(coords):
                    constants[(i, j)] = coords
        sub = AlgebraPresentation(
            name or f"{self.name}|sub{d}", d, constants, field_labels=labels
        )

        def embed(coords):
            return combine(coords, rows, self.dim)

        def restrict(ambient):
            coords = space.coords_of(ambient)
            if coords is None:
                raise DimensionMismatch("vector is outside the subalgebra")
            return coords

        return sub, embed, restrict

    def __repr__(self):
        return f"AlgebraPresentation({self.name!r}, dim={self.dim})"


class Element:
    """An algebra element: a coordinate vector tied to its presentation."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: AlgebraPresentation, coords: Sequence):
        self.algebra = algebra
        self.coords = vec(coords)

    def _check(self, other: "Element"):
        if self.algebra is not other.algebra:
            raise MismatchedAlgebras("elements belong to different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, vec_add(self.coords, other.coords))

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, vec_sub(self.coords, other.coords))

    def __neg__(self) -> "Element":
        return Element(self.algebra, vec_scale(-1, self.coords))

    def __mul__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, self.algebra.multiply_coords(self.coords, other.coords))

    def scale(self, c) -> "Element":
        return Element(self.algebra, vec_scale(rat(c), self.coords))

    def is_zero(self) -> bool:
        return is_zero_vec(self.coords)

    def power(self, k: int) -> "Element":
        if k < 1:
            raise ValueError("power requires k >= 1")
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.algebra is other.algebra
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((id(self.algebra), self.coords))

    def __repr__(self):
        terms = [
            f"{x}*{self.algebra.basis_names[i]}" for i, x in enumerate(self.coords) if x != 0
        ]
        return "Element(0)" if not terms else f"Element({' + '.join(terms)})"


def multiply(x: Element, y: Element) -> Element:
    """Bilinear extension of the structure constants."""
    return x * y


class IdealSpace:
    """A subspace flagged with how it sits inside its algebra.

    Sidedness is verified on construction: ``left`` means ``A*I <= I``,
    ``right`` means ``I*A <= I``, ``two-sided`` both, and ``subring-only``
    just multiplicative closure ``I*I <= I``.
    """

    SIDEDNESS = ("left", "right", "two-sided", "subring-only")

    __slots__ = ("algebra", "subspace", "sidedness")

    def __init__(self, algebra: AlgebraPresentation, subspace: Subspace, sidedness: str):
        if sidedness not in self.SIDEDNESS:
            raise ValidationError(f"unknown sidedness {sidedness!r}")
        if subspace.ambient_dim != algebra.dim:
            raise DimensionMismatch("subspace ambient dimension does not match algebra")
        self.algebra = algebra
        self.subspace = subspace
        self.sidedness = sidedness
        self._verify()

    def _verify(self):
        alg, rows = self.algebra, self.subspace.basis_rows()
        # A r is spanned by the columns of R_r, and r A by those of L_r
        for what, op_side in (("left", "right"), ("right", "left")):
            if self.sidedness in (what, "two-sided"):
                for r in rows:
                    if not all(map(self.subspace.contains, zip(*alg.operator(r, op_side)[0]))):
                        raise ValidationError(f"subspace is not a {what} ideal")
        if self.sidedness == "subring-only":
            for r in rows:
                for s in rows:
                    if not self.subspace.contains(alg.multiply_coords(r, s)):
                        raise ValidationError("subspace is not multiplication-closed")

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def __eq__(self, other):
        return (
            isinstance(other, IdealSpace)
            and self.algebra is other.algebra
            and self.subspace == other.subspace
            and self.sidedness == other.sidedness
        )

    def __repr__(self):
        return f"IdealSpace({self.sidedness}, dim {self.dim})"


# -- section 2 toolkit ----------------------------------------------------


def annihilators(elements: Sequence[Element]):
    """Left/right/two-sided annihilators of a nonempty element set.

    ``Ann_1(X) = {a : a x = 0 for all x in X}`` is the kernel of the stacked
    right-multiplication matrices and is a left ideal; ``Ann_2`` is the
    symmetric right ideal; their intersection is a subring, and a two-sided
    ideal when ``X`` spans the whole algebra.
    """
    if not elements:
        raise ValidationError("annihilators requires a nonempty set")
    alg = elements[0].algebra
    for e in elements:
        if e.algebra is not alg:
            raise MismatchedAlgebras("annihilators of elements from different algebras")
    n = alg.dim
    left_rows, right_rows = [], []
    for x in elements:
        left_rows.extend(alg.operator(x.coords, "right")[0])  # a -> a*x
        right_rows.extend(alg.operator(x.coords, "left")[0])  # a -> x*a
    ann1 = kernel(RatMatrix._of_rows(left_rows, n)) if left_rows else Subspace.full(n)
    ann2 = kernel(RatMatrix._of_rows(right_rows, n)) if right_rows else Subspace.full(n)
    both = ann1.intersect(ann2)
    spans_all = Subspace(n, [e.coords for e in elements]).dim == n
    return (
        IdealSpace(alg, ann1, "left"),
        IdealSpace(alg, ann2, "right"),
        IdealSpace(alg, both, "two-sided" if spans_all else "subring-only"),
    )


def algebra_annihilator(alg: AlgebraPresentation) -> IdealSpace:
    """Ann(A) for the whole algebra, as a two-sided ideal."""
    if alg.dim == 0:
        return IdealSpace(alg, Subspace.zero(0), "two-sided")
    return annihilators(alg.basis_elements())[2]


def center(alg: AlgebraPresentation) -> IdealSpace:
    """Kernel of the stacked commutator maps x -> x e_i - e_i x."""
    n = alg.dim
    rows = [row for i in range(n) for row in _commutator_rows(alg, i)]
    space = kernel(RatMatrix._of_rows(rows, n)) if rows else Subspace.zero(0)
    return IdealSpace(alg, space, "subring-only")


def _commutator_rows(alg: AlgebraPresentation, x) -> List[List[int]]:
    """Integer rows of x -> x a - a x (R_a - L_a) for a basis index or coordinates a."""
    right, left = alg.operator(x, "right")[0], alg.operator(x, "left")[0]
    return [[p - q for p, q in zip(r, l)] for r, l in zip(right, left)]


def centralizer(a: Element) -> IdealSpace:
    """Elements commuting with ``a``; always a subring containing ``a``."""
    alg = a.algebra
    rows = _commutator_rows(alg, a.coords)
    return IdealSpace(alg, kernel(RatMatrix._of_rows(rows, alg.dim)), "subring-only")


def generated_subring(elements: Sequence[Element]) -> IdealSpace:
    """Smallest label-respecting subring containing the given elements.

    Subrings here split along label blocks (each block is scalared by its
    own base field), so the generated subring is the multiplicative closure
    of the per-label components of the generators.
    """
    if not elements:
        raise ValidationError("generated_subring requires a nonempty set")
    alg = elements[0].algebra
    vectors = []
    for x in elements:
        if x.algebra is not alg:
            raise MismatchedAlgebras("generators from different algebras")
        vectors.extend(alg.label_components(x.coords))
    return IdealSpace(alg, multiplicative_closure(alg, vectors), "subring-only")


def multiplicative_closure(alg: AlgebraPresentation, vectors: Sequence) -> Subspace:
    """The span of the vectors closed under multiplication, by iterating
    span-and-multiply to a fixed point (at most ``dim`` rounds)."""
    current = Subspace(alg.dim, vectors)
    while True:
        rows = current.basis_rows()
        products = [alg.multiply_coords(u, v) for u in rows for v in rows]
        bigger = current.add(Subspace(alg.dim, products))
        if bigger == current:
            return current
        current = bigger


def power_span(alg: AlgebraPresentation, k: int) -> Subspace:
    """Linear span ``P_k`` of all k-fold products of basis elements.

    ``P_1`` is the whole algebra and ``P_{k+1} = A P_k``, which is also
    ``P_k A`` (see :func:`_power_chain`).  The chain is monotone decreasing,
    so it stabilizes after at most ``dim`` strict drops.
    """
    if k < 1:
        raise ValidationError("power_span requires k >= 1")
    return _power_chain(alg, Subspace.full(alg.dim), k)[-1]


def _power_chain(alg: AlgebraPresentation, space: Subspace, k: int) -> List[Subspace]:
    """``[S, S^2, ..., S^k]`` for S = ``space``, with ``S^(j+1) = S S^j``.

    For a multiplication-closed S the chain decreases, so once it repeats or
    reaches 0 it stays there, and the remaining terms are padded with it.
    """
    current = space
    chain = [current]
    while len(chain) < k:
        nxt = product_span(alg, space, current)
        chain.append(nxt)
        if nxt == current or nxt.is_zero():
            chain.extend([nxt] * (k - len(chain)))
            break
        current = nxt
    return chain


def product_span(alg: AlgebraPresentation, u: Subspace, v: Subspace) -> Subspace:
    """Span of all products x*y with x in u, y in v."""
    if u.dim == alg.dim:
        # A*v is spanned by the columns of R_b, one operator per basis row b of v
        return Subspace(
            alg.dim, [col for b in v.basis_rows() for col in zip(*alg.operator(b, "right")[0])]
        )
    products = [
        alg.multiply_coords(a, b) for a in u.basis_rows() for b in v.basis_rows()
    ]
    return Subspace(alg.dim, products)


def find_unity(alg: AlgebraPresentation) -> Optional[Element]:
    """The solution u of ``u e_i = e_i = e_i u`` for all ``i``, or None: the
    unities of the label blocks (see :func:`block_unities`) put together."""
    parts = block_unities(alg)
    if not parts or None in parts:
        return None
    return alg.element([c for part in parts for c in part])


def block_unities(alg: AlgebraPresentation) -> List[Optional[tuple]]:
    """For each label block, in order, the unity of the subalgebra on its
    basis elements in the block's own coordinates, or None when it has none.

    Products never leave a label block, so for ``i`` in a block the equations
    ``u e_i = e_i = e_i u`` involve only that block's coordinates of ``u``:
    the stacked system splits into one solve per block.  A two-sided unity
    is unique, so each solve has at most one solution.
    """
    out = []
    for _, block in alg.label_blocks():
        lo, hi = block.start, block.stop
        rows, rhs = [], []
        for i in block:
            for side in ("right", "left"):  # u -> u*e_i, then u -> e_i*u
                op, scale = alg.operator(i, side)
                rows.extend(row[lo:hi] for row in op[lo:hi])
                rhs.extend(scale if k == i else 0 for k in block)
        out.append(solve(RatMatrix._of_rows(rows, hi - lo), rhs))
    return out


class ElementClassification:
    """Outcome of the unit/zero-divisor trichotomy for one element."""

    ZERO = "Zero"
    UNIT = "Unit"
    ZERO_DIVISOR = "ZeroDivisor"

    __slots__ = ("kind", "inverse", "witness")

    def __init__(self, kind: str, inverse: Optional[Element] = None, witness: Optional[Element] = None):
        self.kind = kind
        self.inverse = inverse
        self.witness = witness

    def __repr__(self):
        return f"ElementClassification({self.kind})"


def classify_element(a: Element) -> ElementClassification:
    """Every nonzero element is a unit or a zero-divisor, never neither.

    Unit means both multiplication operators are invertible; the two-sided
    inverse is returned.  Otherwise a witness from a nontrivial kernel of a
    multiplication operator is produced.
    """
    alg = a.algebra
    if a.is_zero():
        return ElementClassification(ElementClassification.ZERO)
    left, scale = alg.operator(a.coords, "left")
    left = RatMatrix._of_rows(left, alg.dim)
    ker_left = kernel(left)
    if not ker_left.is_zero():
        return ElementClassification(
            ElementClassification.ZERO_DIVISOR,
            witness=alg.element(ker_left.basis.row(0)),
        )
    right = RatMatrix._of_rows(alg.operator(a.coords, "right")[0], alg.dim)
    ker_right = kernel(right)
    if not ker_right.is_zero():
        return ElementClassification(
            ElementClassification.ZERO_DIVISOR,
            witness=alg.element(ker_right.basis.row(0)),
        )
    unity = find_unity(alg)
    if unity is None:
        raise InternalInvariantError(
            "both multiplication operators invertible but no unity exists"
        )
    inv = solve(left, vec_scale(scale, unity.coords))
    if inv is None:
        raise InternalInvariantError("invertible left multiplication failed to solve")
    candidate = alg.element(inv)
    if (candidate * a) != unity or (a * candidate) != unity:
        raise InternalInvariantError("computed inverse fails verification")
    return ElementClassification(ElementClassification.UNIT, inverse=candidate)

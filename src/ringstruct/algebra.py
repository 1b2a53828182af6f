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
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    AssociativityError,
    DimensionMismatch,
    InternalInvariantError,
    MismatchedAlgebras,
    ValidationError,
)
from .linalg import (
    ONE,
    ZERO,
    RatMatrix,
    Subspace,
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
        n, table = self.dim, self._int_table
        for i in range(n):
            for j in range(n):
                left = table.get((i, j), ())
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

    def left_mult_matrix(self, x: Sequence) -> RatMatrix:
        """Matrix of v -> x*v over the basis (columns are images of e_j)."""
        cols = [self.multiply_coords(x, unit_vec(self.dim, j)) for j in range(self.dim)]
        return RatMatrix.from_rows([[cols[j][k] for j in range(self.dim)] for k in range(self.dim)])

    def right_mult_matrix(self, x: Sequence) -> RatMatrix:
        cols = [self.multiply_coords(unit_vec(self.dim, j), x) for j in range(self.dim)]
        return RatMatrix.from_rows([[cols[j][k] for j in range(self.dim)] for k in range(self.dim)])

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

    def full_subspace(self) -> Subspace:
        return Subspace.full(self.dim)

    # -- derived presentations -------------------------------------------

    def subalgebra(self, space: Subspace, name: Optional[str] = None):
        """Presentation induced on a multiplication-closed subspace.

        Returns ``(algebra, embed, restrict)`` where ``embed`` maps
        sub-coordinates to ambient coordinates and ``restrict`` maps an
        ambient member vector back to sub-coordinates.
        """
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
            out = [ZERO] * self.dim
            for c, row in zip(coords, rows):
                if c != 0:
                    out = [a + c * b for a, b in zip(out, row)]
            return tuple(out)

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
        if self.sidedness in ("left", "two-sided"):
            for i in range(alg.dim):
                e = unit_vec(alg.dim, i)
                for r in rows:
                    if not self.subspace.contains(alg.multiply_coords(e, r)):
                        raise ValidationError("subspace is not a left ideal")
        if self.sidedness in ("right", "two-sided"):
            for i in range(alg.dim):
                e = unit_vec(alg.dim, i)
                for r in rows:
                    if not self.subspace.contains(alg.multiply_coords(r, e)):
                        raise ValidationError("subspace is not a right ideal")
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
        rx = alg.right_mult_matrix(x.coords)  # a -> a*x
        lx = alg.left_mult_matrix(x.coords)  # a -> x*a
        left_rows.extend(rx.row_list())
        right_rows.extend(lx.row_list())
    ann1 = kernel(RatMatrix.from_rows(left_rows)) if left_rows else Subspace.full(n)
    ann2 = kernel(RatMatrix.from_rows(right_rows)) if right_rows else Subspace.full(n)
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
    rows = []
    n = alg.dim
    for i in range(n):
        e = unit_vec(n, i)
        diff_cols = [
            vec_sub(
                alg.multiply_coords(unit_vec(n, j), e),
                alg.multiply_coords(e, unit_vec(n, j)),
            )
            for j in range(n)
        ]
        rows.extend([[diff_cols[j][k] for j in range(n)] for k in range(n)])
    space = kernel(RatMatrix.from_rows(rows)) if rows else Subspace.zero(0)
    return IdealSpace(alg, space, "subring-only")


def centralizer(a: Element) -> IdealSpace:
    """Elements commuting with ``a``; always a subring containing ``a``."""
    alg = a.algebra
    n = alg.dim
    diff_cols = [
        vec_sub(
            alg.multiply_coords(unit_vec(n, j), a.coords),
            alg.multiply_coords(a.coords, unit_vec(n, j)),
        )
        for j in range(n)
    ]
    rows = [[diff_cols[j][k] for j in range(n)] for k in range(n)]
    return IdealSpace(alg, kernel(RatMatrix.from_rows(rows)), "subring-only")


def generated_subring(elements: Sequence[Element]) -> IdealSpace:
    """Smallest label-respecting subring containing the given elements.

    Subrings here split along label blocks (each block is scalared by its
    own base field), so the generated subring is the per-label span of the
    generators' components, closed under multiplication by iterating
    span-and-multiply to a fixed point (at most ``dim`` rounds).
    """
    if not elements:
        raise ValidationError("generated_subring requires a nonempty set")
    alg = elements[0].algebra
    vectors = []
    for x in elements:
        if x.algebra is not alg:
            raise MismatchedAlgebras("generators from different algebras")
        vectors.extend(alg.label_components(x.coords))
    current = Subspace(alg.dim, vectors)
    while True:
        rows = current.basis_rows()
        products = [alg.multiply_coords(u, v) for u in rows for v in rows]
        bigger = current.add(Subspace(alg.dim, products))
        if bigger == current:
            return IdealSpace(alg, current, "subring-only")
        current = bigger


def power_span(alg: AlgebraPresentation, k: int) -> Subspace:
    """Linear span of all k-fold products of basis elements.

    ``P_1`` is the whole algebra and ``P_{k+1}`` is spanned by products of a
    basis element with a basis vector of ``P_k``, on either side.  The chain
    is monotone decreasing, so it stabilizes after at most ``dim`` strict
    drops.
    """
    if k < 1:
        raise ValidationError("power_span requires k >= 1")
    return _power_chain(alg, k)[-1]


def _power_chain(alg: AlgebraPresentation, k: int) -> List[Subspace]:
    current = Subspace.full(alg.dim)
    chain = [current]
    n = alg.dim
    for _ in range(k - 1):
        rows = current.basis_rows()
        products = []
        for i in range(n):
            e = unit_vec(n, i)
            for v in rows:
                products.append(alg.multiply_coords(e, v))
                products.append(alg.multiply_coords(v, e))
        nxt = Subspace(alg.dim, products)
        chain.append(nxt)
        if nxt == current or nxt.is_zero():
            # stabilized: remaining terms repeat
            while len(chain) < k:
                chain.append(nxt)
            break
        current = nxt
    return chain


def product_span(alg: AlgebraPresentation, u: Subspace, v: Subspace) -> Subspace:
    """Span of all products x*y with x in u, y in v."""
    products = [
        alg.multiply_coords(a, b) for a in u.basis_rows() for b in v.basis_rows()
    ]
    return Subspace(alg.dim, products)


def find_unity(alg: AlgebraPresentation) -> Optional[Element]:
    """Solve the linear system ``u e_i = e_i = e_i u`` for all ``i``."""
    n = alg.dim
    if n == 0:
        return None
    rows, rhs = [], []
    for i in range(n):
        e = unit_vec(n, i)
        right = alg.right_mult_matrix(e)  # u -> u*e_i
        left = alg.left_mult_matrix(e)  # u -> e_i*u
        rows.extend(right.row_list())
        rhs.extend(e)
        rows.extend(left.row_list())
        rhs.extend(e)
    sol = solve(RatMatrix.from_rows(rows), rhs)
    return alg.element(sol) if sol is not None else None


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
    left = alg.left_mult_matrix(a.coords)
    ker_left = kernel(left)
    if not ker_left.is_zero():
        return ElementClassification(
            ElementClassification.ZERO_DIVISOR,
            witness=alg.element(ker_left.basis.row(0)),
        )
    right = alg.right_mult_matrix(a.coords)
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
    inv = solve(left, unity.coords)
    if inv is None:
        raise InternalInvariantError("invertible left multiplication failed to solve")
    candidate = alg.element(inv)
    if (candidate * a) != unity or (a * candidate) != unity:
        raise InternalInvariantError("computed inverse fails verification")
    return ElementClassification(ElementClassification.UNIT, inverse=candidate)

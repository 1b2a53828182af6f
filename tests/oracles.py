"""Independent oracles for expected values: explicit matrix models.

Nothing here touches the structure-constant engine's derived machinery:
products are computed by literal matrix multiplication over Fractions, and
presentations are rebuilt by solving coordinates against the matrix basis.
"""

import random
from fractions import Fraction
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

import numpy as np
from hypothesis import strategies as st

from ringstruct.algebra import AlgebraPresentation, product_span
from ringstruct.documents import AlgebraDocument, algebra_document, to_object
from ringstruct.errors import InvalidParams
from ringstruct.finite import IDEAL_ENUM_CAP, FiniteRing
from ringstruct.generators import (
    annihilator_gap,
    base_field,
    direct_sum,
    matrix_algebra,
    null_ring,
    quaternion,
    relabel,
    square_cocycle,
    strictly_upper,
    upper_triangular,
)
from ringstruct.linalg import RatMatrix, Subspace, kernel, solve, unit_vec, vec_sub

F = Fraction


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    assert len(a[0]) == m
    return [
        [sum((a[i][k] * b[k][j] for k in range(m)), F(0)) for j in range(p)]
        for i in range(n)
    ]


def mat_zero(n, m=None):
    m = m or n
    return [[F(0)] * m for _ in range(n)]


def mat_unit(n, i, j):
    out = mat_zero(n)
    out[i][j] = F(1)
    return out


def flatten(mat):
    return tuple(x for row in mat for x in row)


def algebra_from_matrices(name: str, mats: Sequence, labels=None, basis_names=None):
    """Presentation induced by explicit matrices: the independent construction."""
    dim = len(mats)
    size = len(mats[0])
    cols = [flatten(m) for m in mats]
    coord_matrix = RatMatrix.from_rows(
        [[cols[j][c] for j in range(dim)] for c in range(size * size)]
    )
    constants: Dict[Tuple[int, int], tuple] = {}
    for i in range(dim):
        for j in range(dim):
            prod = flatten(mat_mul(mats[i], mats[j]))
            coords = solve(coord_matrix, prod)
            assert coords is not None, "matrix product left the span of the basis"
            constants[(i, j)] = coords
    return AlgebraPresentation(name, dim, constants, field_labels=labels, basis_names=basis_names)


def strictly_upper_matrices(n):
    return [mat_unit(n, i, j) for i in range(n) for j in range(n) if i < j]


def full_matrices(n):
    return [mat_unit(n, i, j) for i in range(n) for j in range(n)]


def upper_triangular_matrices(n):
    return [mat_unit(n, i, j) for i in range(n) for j in range(n) if i <= j]


def shared_socle_matrices(n):
    """Block diagonal 3x3 blocks [[0,0,0],[x,0,0],[a_i,b_i,0]] with shared x."""
    size = 3 * n
    x = mat_zero(size)
    for blk in range(n):
        x[3 * blk + 1][3 * blk] = F(1)
    mats = [x]
    for i in range(n):
        a = mat_zero(size)
        a[3 * i + 2][3 * i] = F(1)
        mats.append(a)
    for i in range(n):
        b = mat_zero(size)
        b[3 * i + 2][3 * i + 1] = F(1)
        mats.append(b)
    return mats


# Classical faithful 4x4 representation of the (-1, -1) quaternions:
# a + bi + cj + dk -> [[a,-b,-c,-d],[b,a,-d,c],[c,d,a,-b],[d,-c,b,a]]
def quaternion_matrices():
    def rep(a, b, c, d):
        return [
            [F(a), F(-b), F(-c), F(-d)],
            [F(b), F(a), F(-d), F(c)],
            [F(c), F(d), F(a), F(-b)],
            [F(d), F(-c), F(b), F(a)],
        ]

    return [rep(1, 0, 0, 0), rep(0, 1, 0, 0), rep(0, 0, 1, 0), rep(0, 0, 0, 1)]


# Reference loops over the Fraction table ``AlgebraPresentation.sparse_table()``:
# the engine's integer kernel must agree with these exactly.


def reference_associativity_violation(table, n):
    """First ``(i, j, k)`` in loop order with ``(e_i e_j) e_k != e_i (e_j e_k)``."""
    for i in range(n):
        for j in range(n):
            left = table.get((i, j), ())
            for k in range(n):
                lhs: Dict[int, Fraction] = {}
                for m, c in left:
                    for t, d in table.get((m, k), ()):
                        lhs[t] = lhs.get(t, F(0)) + c * d
                rhs: Dict[int, Fraction] = {}
                for m, c in table.get((j, k), ()):
                    for t, d in table.get((i, m), ()):
                        rhs[t] = rhs.get(t, F(0)) + c * d
                for t in set(lhs) | set(rhs):
                    if lhs.get(t, F(0)) != rhs.get(t, F(0)):
                        return (i, j, k)
    return None


def reference_multiply(table, n, x, y):
    """Bilinear product of coordinate vectors, accumulated in Fractions."""
    out = [F(0)] * n
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if a == 0 or b == 0:
                continue
            for k, c in table.get((i, j), ()):
                out[k] += F(a) * F(b) * c
    return tuple(out)


# Reference row reduction: Gauss-Jordan over Fractions, and the subspace
# operations built on it.  The engine reduces integer rows instead
# (``linalg._rref_rows``); RREF is unique, so every result must agree with
# these entry for entry.


def reference_rref_rows(rows):
    """Nonzero rows of the reduced row-echelon form of ``rows``."""
    rows = [[F(x) for x in r] for r in rows]
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


def reference_pivots(rows):
    return [next(j for j, x in enumerate(r) if x != 0) for r in rows]


def reference_rref(rows, ncols):
    """RREF keeping the row count: the nonzero rows, then zero rows."""
    reduced = reference_rref_rows(rows)
    return reduced + [[F(0)] * ncols for _ in range(len(rows) - len(reduced))]


def reference_solve(rows, ncols, b):
    reduced = reference_rref_rows([list(r) + [y] for r, y in zip(rows, b)])
    x = [F(0)] * ncols
    for r, piv in zip(reduced, reference_pivots(reduced)):
        if piv == ncols:
            return None
        x[piv] = r[ncols]
    return tuple(x)


def reference_kernel_basis(rows, ncols):
    reduced = reference_rref_rows(rows)
    pivots = reference_pivots(reduced)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [F(0)] * ncols
        v[f] = F(1)
        for r, piv in zip(reduced, pivots):
            v[piv] = -r[f]
        basis.append(v)
    return basis


def reference_reduce(basis, v):
    """Eliminate the rref ``basis`` from ``v``; zero iff ``v`` is in its span."""
    v = [F(x) for x in v]
    for row, piv in zip(basis, reference_pivots(basis)):
        c = v[piv]
        if c != 0:
            v = [a - c * b for a, b in zip(v, row)]
    return tuple(v)


def reference_coords_of(basis, v):
    work = [F(x) for x in v]
    coeffs = []
    for row, piv in zip(basis, reference_pivots(basis)):
        c = work[piv]
        coeffs.append(c)
        if c != 0:
            work = [a - c * b for a, b in zip(work, row)]
    if any(x != 0 for x in work):
        return None
    return tuple(coeffs)


def reference_intersect(u_basis, v_basis, n):
    """RREF basis of the intersection, from the kernel of ``[U^T | -V^T]``."""
    r = len(u_basis)
    if r == 0 or not v_basis:
        return []
    coeff = [[u[c] for u in u_basis] + [-v[c] for v in v_basis] for c in range(n)]
    vectors = []
    for k in reference_kernel_basis(coeff, r + len(v_basis)):
        w = [F(0)] * n
        for i in range(r):
            w = [a + k[i] * b for a, b in zip(w, u_basis[i])]
        vectors.append(w)
    return reference_rref_rows(vectors)


def reference_complement(inner_basis, outer_basis):
    """Rows of ``outer_basis`` left at the non-pivot coordinates of ``inner_basis``."""
    coords = [reference_coords_of(outer_basis, row) for row in inner_basis]
    assert None not in coords, "the inner space must lie in the outer one"
    pivots = set(reference_pivots(reference_rref_rows(coords)))
    return reference_rref_rows(
        [row for j, row in enumerate(outer_basis) if j not in pivots]
    )


# Reference finite-ring checks: the full order^3 index arrays and Python loops
# that ``finite.py`` and ``mixed.py`` slice and vectorize.  Small orders only.


def reference_table_violation(add, mul, zero):
    """Message of the first table law that fails, in the engine's order, or None."""
    add = np.asarray(add, dtype=np.int64)
    mul = np.asarray(mul, dtype=np.int64)
    idx = np.arange(len(add))
    if not np.array_equal(add[zero], idx) or not np.array_equal(add[:, zero], idx):
        return "zero is not an additive identity"
    if not np.array_equal(add, add.T):
        return "addition is not commutative"
    if not np.all((add == zero).any(axis=1)):
        return "some element has no additive inverse"
    if not np.array_equal(add[add, :], add[:, add]):
        return "addition is not associative"
    if not np.array_equal(mul[mul, :], mul[:, mul]):
        return "multiplication is not associative"
    left = mul[:, add]
    right = add[mul[:, :, None], mul[:, None, :]]
    if not np.array_equal(left, right):
        return "left distributivity fails"
    left2 = mul[add, :]
    right2 = add[mul[:, None, :], mul[None, :, :]]
    if not np.array_equal(left2, right2):
        return "right distributivity fails"
    return None


def reference_cross_violation(ring, cross, rank):
    """Message of the first cross-table law that fails over a valid finite
    ring, with (i, j, k) in loop order and the laws in the engine's order."""
    table = {key: tuple(F(x) % 1 for x in row) for key, row in cross.items()}
    zero_row = (F(0),) * rank

    def c(i, j):
        return table.get((i, j), zero_row)

    def plus(u, v):
        return tuple((a + b) % 1 for a, b in zip(u, v))

    n, add, mul = ring.order, ring.add, ring.mul
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if c(int(add[i, j]), k) != plus(c(i, k), c(j, k)):
                    return "cross table is not additive on the left"
                if c(i, int(add[j, k])) != plus(c(i, j), c(i, k)):
                    return "cross table is not additive on the right"
                if c(int(mul[i, j]), k) != c(i, int(mul[j, k])):
                    return "cross table breaks associativity"
    return None


def reference_nilpotency_index(ring):
    """Least k with all k-fold products zero, by sets of products, or None."""
    current = set(ring.elements())
    for k in range(1, ring.order + 2):
        if current == {ring.zero}:
            return k
        current = {int(ring.mul[x, y]) for x in ring.elements() for y in current}
        current.add(ring.zero)
    return None


def reference_structure(ring):
    """The fields of ``finite_structure`` apart from the radical, by loops."""
    n, mul, zero = ring.order, ring.mul, ring.zero
    unity = next(
        (u for u in range(n)
         if all(int(mul[u, x]) == x and int(mul[x, u]) == x for x in range(n))),
        None,
    )

    def nilpotent(x):
        power, seen = x, set()
        while power not in seen:
            if power == zero:
                return True
            seen.add(power)
            power = int(mul[power, x])
        return power == zero

    index = reference_nilpotency_index(ring)
    return {
        "unity": unity,
        "idempotents": [x for x in range(n) if int(mul[x, x]) == x],
        "units": [] if unity is None else [
            x for x in range(n)
            if any(int(mul[x, y]) == unity and int(mul[y, x]) == unity for y in range(n))
        ],
        "zero_divisors": [
            x for x in range(n) if x != zero and any(
                int(mul[x, y]) == zero or int(mul[y, x]) == zero
                for y in range(n) if y != zero
            )
        ],
        "nil": all(nilpotent(x) for x in range(n)),
        "nilpotency_index": index,
        "nilpotent": index is not None,
        "is_reduced": all(int(mul[x, x]) != zero for x in range(n) if x != zero),
    }


def reference_jacobson_definitional(ring):
    """J = { a : for every r there is b with b r a - r a - b = 0 }, over
    every (a, r, b) triple."""
    n = ring.order
    mul, add, neg = ring.mul, ring.add, ring._neg
    members = []
    b_idx = np.arange(n)
    for a in range(n):
        ra = mul[:, a]  # r -> r*a
        # bra[b, r] = b * (r*a)
        bra = mul[:, ra]
        expr = add[add[bra, neg[ra][None, :]], neg[b_idx][:, None]]
        if np.all((expr == ring.zero).any(axis=0)):
            members.append(a)
    return frozenset(members)


def reference_is_ideal(ring, subset):
    """Contains zero, closed under + and under products on both sides, by loops."""
    if ring.zero not in subset:
        return False
    if any(int(ring.add[x, y]) not in subset for x in subset for y in subset):
        return False
    return all(
        int(ring.mul[x, r]) in subset and int(ring.mul[r, x]) in subset
        for x in subset for r in range(ring.order)
    )


# The ideal lattice of a finite ring by Python sets: the closure and join
# loops that the mask closure and ideal sums replaced.


def reference_subset_closure(ring: FiniteRing, seed: Set[int]) -> FrozenSet[int]:
    """Smallest ideal containing the seed, element by element, then a second
    pass over all sums."""
    current = set(seed) | {ring.zero}
    frontier = list(current)
    while frontier:
        x = frontier.pop()
        new = set()
        for y in current:
            new.add(int(ring.add[x, y]))
        new.add(ring.neg(x))
        for r in ring.elements():
            new.add(int(ring.mul[x, r]))
            new.add(int(ring.mul[r, x]))
        for z in new:
            if z not in current:
                current.add(z)
                frontier.append(z)
    # another pass to close sums of everything (cheap at these orders)
    changed = True
    while changed:
        changed = False
        for x in list(current):
            for y in list(current):
                s = int(ring.add[x, y])
                if s not in current:
                    current.add(s)
                    changed = True
    return frozenset(current)


def reference_all_ideals(ring: FiniteRing) -> List[FrozenSet[int]]:
    """Every ideal, as the join-closure of the principal ideals, each join
    closed again."""
    if ring.order > IDEAL_ENUM_CAP:
        raise InvalidParams(f"ideal enumeration capped at order {IDEAL_ENUM_CAP}")
    principals = {reference_subset_closure(ring, {x}) for x in ring.elements()}
    ideals = set(principals)
    ideals.add(frozenset({ring.zero}))
    changed = True
    while changed:
        changed = False
        current = list(ideals)
        for a in current:
            for b in principals:
                joined = reference_subset_closure(ring, set(a) | set(b))
                if joined not in ideals:
                    ideals.add(joined)
                    changed = True
    return sorted(ideals, key=lambda s: (len(s), sorted(s)))


def reference_subset_is_nilpotent(ring: FiniteRing, subset: FrozenSet[int]) -> bool:
    """Whether the products of k elements of ``subset`` vanish for some k, by
    sets of products."""
    current = set(subset)
    for _ in range(ring.order + 1):
        if current == {ring.zero}:
            return True
        nxt = {int(ring.mul[x, y]) for x in subset for y in current}
        nxt.add(ring.zero)
        if nxt == current:
            return False
        current = nxt
    return current == {ring.zero}


def relabel_tables(add, mul, zero, perm):
    """The same finite ring with each element x renamed ``perm[x]``."""
    perm = np.asarray(perm, dtype=np.int64)
    add, mul = np.asarray(add), np.asarray(mul)
    new_add, new_mul = np.empty_like(add), np.empty_like(mul)
    new_add[perm[:, None], perm[None, :]] = perm[add]
    new_mul[perm[:, None], perm[None, :]] = perm[mul]
    return new_add, new_mul, int(perm[zero])


# A change of basis for algebra documents, built on the Fraction references.


def random_unimodular(size: int, rng: random.Random) -> List[List[int]]:
    """``L U`` with unit triangular factors whose off-diagonal entries lie in
    {-1, 0, 1}: invertible over the integers."""
    lower = [[1 if i == j else (rng.randint(-1, 1) if j < i else 0) for j in range(size)]
             for i in range(size)]
    upper = [[1 if i == j else (rng.randint(-1, 1) if j > i else 0) for j in range(size)]
             for i in range(size)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)]


def rebase_document(doc: AlgebraDocument, rng: random.Random) -> AlgebraDocument:
    """The same algebra in the basis ``f_i = sum_a P[i][a] e_a``, with ``P``
    block-diagonal over the runs of equal field labels and each block drawn
    by :func:`random_unimodular`, so the labels stay valid."""
    payload = doc.payload
    dim, labels = payload["dim"], payload["labels"]
    p = [[0] * dim for _ in range(dim)]
    start = 0
    for end in range(1, dim + 1):
        if end == dim or labels[end] != labels[start]:
            block = random_unimodular(end - start, rng)
            for a in range(end - start):
                p[start + a][start:end] = block[a]
            start = end
    table: Dict[Tuple[int, int], list] = {}
    for a, b, c, coeff in payload["constants"]:
        table.setdefault((a, b), []).append((c, F(coeff)))
    transpose = [[p[d][c] for d in range(dim)] for c in range(dim)]
    constants = {}
    for i in range(dim):
        for j in range(dim):
            in_e = reference_multiply(table, dim, p[i], p[j])
            if any(in_e):
                constants[(i, j)] = reference_solve(transpose, dim, in_e)
    return algebra_document(f"{doc.name}~rebased", dim, constants, labels=labels)


# The regular representation built from unit vectors, one ``multiply_coords``
# call per column: the reference for the integer operator core.


def reference_left_mult_matrix(alg, x):
    """Matrix of v -> x*v over the basis (columns are images of e_j)."""
    cols = [alg.multiply_coords(x, unit_vec(alg.dim, j)) for j in range(alg.dim)]
    return RatMatrix.from_rows([[cols[j][k] for j in range(alg.dim)] for k in range(alg.dim)])


def reference_right_mult_matrix(alg, x):
    cols = [alg.multiply_coords(unit_vec(alg.dim, j), x) for j in range(alg.dim)]
    return RatMatrix.from_rows([[cols[j][k] for j in range(alg.dim)] for k in range(alg.dim)])


def reference_annihilators(alg, elements):
    """(Ann_1, Ann_2, their intersection) of coordinate vectors, as subspaces."""
    n = alg.dim
    left_rows, right_rows = [], []
    for x in elements:
        left_rows.extend(reference_right_mult_matrix(alg, x).row_list())
        right_rows.extend(reference_left_mult_matrix(alg, x).row_list())
    ann1 = kernel(RatMatrix.from_rows(left_rows)) if left_rows else Subspace.full(n)
    ann2 = kernel(RatMatrix.from_rows(right_rows)) if right_rows else Subspace.full(n)
    return ann1, ann2, ann1.intersect(ann2)


def _reference_commutator_rows(alg, a):
    """Rows of x -> x a - a x, built from the products with unit vectors."""
    n = alg.dim
    diff_cols = [
        vec_sub(
            alg.multiply_coords(unit_vec(n, j), a),
            alg.multiply_coords(a, unit_vec(n, j)),
        )
        for j in range(n)
    ]
    return [[diff_cols[j][k] for j in range(n)] for k in range(n)]


def reference_centralizer(alg, a):
    return kernel(RatMatrix.from_rows(_reference_commutator_rows(alg, a)))


def reference_center(alg):
    n = alg.dim
    rows = [r for i in range(n) for r in _reference_commutator_rows(alg, unit_vec(n, i))]
    return kernel(RatMatrix.from_rows(rows)) if rows else Subspace.zero(0)


def reference_find_unity(alg):
    n = alg.dim
    if n == 0:
        return None
    rows, rhs = [], []
    for i in range(n):
        e = unit_vec(n, i)
        rows.extend(reference_right_mult_matrix(alg, e).row_list())
        rhs.extend(e)
        rows.extend(reference_left_mult_matrix(alg, e).row_list())
        rhs.extend(e)
    return solve(RatMatrix.from_rows(rows), rhs)


def reference_principal_ideal(alg, a, side):
    """Span of a*A (side 'right') or A*a (side 'left')."""
    n = alg.dim
    if side == "right":
        vectors = [alg.multiply_coords(a, unit_vec(n, i)) for i in range(n)]
    else:
        vectors = [alg.multiply_coords(unit_vec(n, i), a) for i in range(n)]
    return Subspace(n, vectors)


def reference_pierce(alg, e):
    """Images of x -> exe, ex - exe, xe - exe and x - ex - xe + exe."""
    n = alg.dim
    c11, c10, c01, c00 = [], [], [], []
    for i in range(n):
        x = unit_vec(n, i)
        ex = alg.multiply_coords(e, x)
        xe = alg.multiply_coords(x, e)
        exe = alg.multiply_coords(ex, e)
        c11.append(exe)
        c10.append(tuple(a - b for a, b in zip(ex, exe)))
        c01.append(tuple(a - b for a, b in zip(xe, exe)))
        c00.append(tuple(p - q - r + t for p, q, r, t in zip(x, ex, xe, exe)))
    return tuple(Subspace(n, c) for c in (c11, c10, c01, c00))


def reference_jacobson_space(alg):
    """Kernel of the A block of the trace form's Gram matrix on the unitization."""
    n = alg.dim
    if n == 0:
        return Subspace.zero(0)
    taus = [sum((alg.basis_product(i, j)[j] for j in range(n)), F(0)) for i in range(n)]

    def trace_of(coords):
        return sum((coords[i] * taus[i] for i in range(n)), F(0))

    gram = [taus] + [
        [trace_of(alg.basis_product(a, j)) for j in range(n)] for a in range(n)
    ]
    return kernel(RatMatrix.from_rows(gram))


# The Wedderburn round before it became one reduction and one solve: one exact
# solve per product for its coordinates over [sigma; N], and the correction
# system written in every ambient coordinate, reduced modulo N^2 column by
# column.


def reference_wedderburn_complement(alg, V, N):
    """The complement of ``N`` in ``V`` that ``radical.complement_of`` builds."""
    n = alg.dim
    while not N.is_zero():
        if N.dim == V.dim:
            return Subspace.zero(n)
        N2 = product_span(alg, N, N)
        sigma = N.complement_in(V).basis_rows()
        nbasis = N.basis_rows()
        d_b = len(sigma)
        joint = Subspace(n, sigma + nbasis)
        columns = RatMatrix.from_rows([[row[c] for row in sigma + nbasis] for c in range(n)])
        struct, defect = {}, {}
        for i in range(d_b):
            for j in range(d_b):
                prod = alg.multiply_coords(sigma[i], sigma[j])
                assert joint.contains(prod), "subalgebra not closed in complement step"
                coeffs = solve(columns, prod)
                struct[(i, j)], defect[(i, j)] = coeffs[:d_b], coeffs[d_b:]
        if not any(any(g) for g in defect.values()):
            return Subspace(n, sigma)
        tau_rows = _reference_correction(alg, sigma, nbasis, struct, defect, N2)
        corrected = [tuple(s[c] + t[c] for c in range(n)) for s, t in zip(sigma, tau_rows)]
        V = Subspace(n, corrected + N2.basis_rows())
        N = N2
    return V


def _reference_correction(alg, sigma, nbasis, struct, defect, N2):
    """tau(b_i b_j) - sigma_i tau(b_j) - tau(b_i) sigma_j = g_ij (mod N2), one
    equation per ambient coordinate."""
    n = alg.dim
    d_b, d_n = len(sigma), len(nbasis)
    left = [[alg.multiply_coords(sigma[i], nbasis[m]) for m in range(d_n)] for i in range(d_b)]
    right = [[alg.multiply_coords(nbasis[m], sigma[j]) for m in range(d_n)] for j in range(d_b)]
    rows, rhs = [], []
    for i in range(d_b):
        for j in range(d_b):
            coeff_rows = [[F(0)] * (d_b * d_n) for _ in range(n)]
            for k in range(d_b):
                for m in range(d_n):
                    for t in range(n):
                        coeff_rows[t][k * d_n + m] += struct[(i, j)][k] * nbasis[m][t]
            for m in range(d_n):
                for t in range(n):
                    coeff_rows[t][j * d_n + m] -= left[i][m][t]
                    coeff_rows[t][i * d_n + m] -= right[j][m][t]
            target = [sum((g * v[t] for g, v in zip(defect[(i, j)], nbasis)), F(0)) for t in range(n)]
            reduced_cols = [N2.reduce([r[u] for r in coeff_rows]) for u in range(d_b * d_n)]
            for t, t_val in enumerate(N2.reduce(target)):
                t_row = [col[t] for col in reduced_cols]
                if any(t_row) or t_val:
                    rows.append(t_row)
                    rhs.append(t_val)
    if not rows:
        return [(F(0),) * n] * d_b
    sol = solve(RatMatrix.from_rows(rows), rhs)
    assert sol is not None, "complement correction system is inconsistent"
    taus = [sol[k * d_n : (k + 1) * d_n] for k in range(d_b)]
    return [tuple(sum((x * v[t] for x, v in zip(tau, nbasis)), F(0)) for t in range(n)) for tau in taus]


def reference_ideal_violation(alg, space, sidedness):
    """The message ``IdealSpace`` raises for this subspace, or None."""
    rows, n = space.basis_rows(), alg.dim
    if sidedness in ("left", "two-sided"):
        for i in range(n):
            for r in rows:
                if not space.contains(alg.multiply_coords(unit_vec(n, i), r)):
                    return "subspace is not a left ideal"
    if sidedness in ("right", "two-sided"):
        for i in range(n):
            for r in rows:
                if not space.contains(alg.multiply_coords(r, unit_vec(n, i))):
                    return "subspace is not a right ideal"
    if sidedness == "subring-only":
        for r in rows:
            for s in rows:
                if not space.contains(alg.multiply_coords(r, s)):
                    return "subspace is not multiplication-closed"
    return None


# Inputs for the operator-core properties: algebras in a random rational basis.

OPERATOR_DOCUMENTS = [
    matrix_algebra(2),
    quaternion(-2, -3),
    strictly_upper(3),
    upper_triangular(3),
    annihilator_gap(1),
    square_cocycle(),
    null_ring(2),
    direct_sum([matrix_algebra(2), strictly_upper(2)]),
    direct_sum([upper_triangular(2), relabel(quaternion(), "K2")]),
    direct_sum([base_field(), relabel(null_ring(1), "K2")]),
]

exact_entries = st.one_of(
    st.just(0),
    st.integers(min_value=-3, max_value=3),
    st.builds(F, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=9)),
)


def exact_vectors(n: int):
    """Vectors of plain ints mixed with Fractions."""
    return st.lists(exact_entries, min_size=n, max_size=n)


def rescale(alg: AlgebraPresentation, d: Sequence) -> AlgebraPresentation:
    """The same algebra in the basis ``f_i = d_i e_i``: ``c'_{ijk} = d_i d_j c_{ijk} / d_k``."""
    n = alg.dim
    constants = {}
    for (i, j), sparse in alg.sparse_table().items():
        dense = [F(0)] * n
        for k, c in sparse:
            dense[k] = d[i] * d[j] * c / d[k]
        constants[(i, j)] = dense
    return AlgebraPresentation(f"{alg.name}~scaled", n, constants, field_labels=alg.field_labels)


@st.composite
def operator_algebras(draw):
    """A document of :data:`OPERATOR_DOCUMENTS`, in its standard basis or
    rebased by :func:`rebase_document`, then possibly rescaled by nonzero
    rationals so that the constants get denominators."""
    doc = draw(st.sampled_from(OPERATOR_DOCUMENTS))
    if draw(st.booleans()):
        doc = rebase_document(doc, random.Random(draw(st.integers(0, 2**32))))
    alg = to_object(doc)
    if draw(st.booleans()):
        scale = st.builds(
            lambda p, q, sign: F(sign * p, q),
            st.integers(1, 6), st.integers(1, 6), st.sampled_from((1, -1)),
        )
        alg = rescale(alg, draw(st.lists(scale, min_size=alg.dim, max_size=alg.dim)))
    return alg


# Classification references: the annihilator-factor construction that the
# block scan replaced, and central idempotents by the Chinese remainder
# theorem in Q[t] with sympy's polynomial division and extended Euclid.


def reference_r0_space(alg):
    """(R_0 basis rows, factor labels): the label blocks meeting the span P of
    all basis products are the factors, and R_0 is the canonical complement
    inside Ann(A) of Ann(A) intersected with the factor blocks."""
    n = alg.dim
    units = [unit_vec(n, i) for i in range(n)]
    products = reference_rref_rows(
        [alg.basis_product(i, j) for i in range(n) for j in range(n)]
    )
    ann = reference_annihilators(alg, units)[2].basis_rows()
    factors = [
        (label, block)
        for label, block in alg.label_blocks()
        if reference_intersect(products, [units[i] for i in block], n)
    ]
    reach = [units[i] for _, block in factors for i in block]
    r0 = reference_complement(reference_intersect(ann, reach, n), ann)
    return [tuple(row) for row in r0], [label for label, _ in factors]


def reference_central_idempotents(alg):
    """The central primitive idempotents of a semisimple algebra, as a set of
    coordinate tuples.

    z = sum_k lam^k b_k over a center basis, for the first lam whose minimal
    polynomial mu has the center's degree; for each irreducible factor f of
    mu, c_f = (s g)(z) with g = mu / f and s g = 1 mod f.
    """
    import sympy

    t = sympy.Symbol("t")
    unity = reference_find_unity(alg)
    zbasis = reference_center(alg).basis_rows()
    for lam in range(1, 50):
        z = [sum((F(lam) ** k * b[c] for k, b in enumerate(zbasis)), F(0)) for c in range(alg.dim)]
        powers = [unity]
        while True:
            nxt = alg.multiply_coords(z, powers[-1])
            low = reference_solve([list(col) for col in zip(*powers)], len(powers), nxt)
            if low is not None:
                break
            powers.append(nxt)
        if len(powers) == len(zbasis):
            break
    else:
        raise AssertionError("no primitive central element among the tried combinations")
    mu = t ** len(powers) - sum(sympy.Rational(c.numerator, c.denominator) * t**i for i, c in enumerate(low))
    out = set()
    for f, mult in sympy.factor_list(mu, t, domain="QQ")[1]:
        assert mult == 1
        g, rem = sympy.div(mu, f, t)
        assert rem == 0
        s, _, h = sympy.gcdex(g, f, t)
        assert h == 1
        coeffs = sympy.Poly(sympy.rem(sympy.expand(s * g), mu, t), t).all_coeffs()[::-1]
        c = [F(0)] * alg.dim
        for a, p in zip(coeffs, powers):
            c = [x + F(int(a.p), int(a.q)) * y for x, y in zip(c, p)]
        out.add(tuple(c))
    return out


# Hilbert symbols: whether the quaternion algebra (a, b) over Q splits, by
# the classical local formulas (Serre, *A Course in Arithmetic*, ch. III).


def _split_prime(x: int, p: int) -> Tuple[int, int]:
    """(k, u) with x = p^k u and p not dividing u."""
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k, x


def hilbert_symbol(a: int, b: int, p: int) -> int:
    """(a, b)_p for nonzero integers a, b: p a prime, or p = 0 for the real place."""
    if p == 0:
        return -1 if a < 0 and b < 0 else 1
    alpha, u = _split_prime(a, p)
    beta, v = _split_prime(b, p)
    if p == 2:
        def eps(x):
            return (x - 1) // 2 % 2

        def omega(x):
            return (x * x - 1) // 8 % 2

        return (-1) ** (eps(u) * eps(v) + alpha * omega(v) + beta * omega(u))

    def legendre(x):  # Euler's criterion
        return 1 if pow(x % p, (p - 1) // 2, p) == 1 else -1

    return (-1) ** (alpha * beta * ((p - 1) // 2)) * legendre(u) ** beta * legendre(v) ** alpha


def quaternion_splits(a: int, b: int) -> bool:
    """(a, b) is M_2(Q) exactly when every Hilbert symbol (a, b)_p is 1; only
    the real place and the primes dividing 2ab can give -1."""
    places = {0, 2} | {p for p in range(3, abs(a * b) + 1) if a * b % p == 0 and all(p % q for q in range(2, p))}
    return all(hilbert_symbol(a, b, p) == 1 for p in places)

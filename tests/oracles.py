"""Independent oracles for expected values: explicit matrix models.

Nothing here touches the structure-constant engine's derived machinery:
products are computed by literal matrix multiplication over Fractions, and
presentations are rebuilt by solving coordinates against the matrix basis.
"""

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from ringstruct.algebra import AlgebraPresentation
from ringstruct.linalg import RatMatrix, Subspace, solve

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

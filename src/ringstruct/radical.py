"""Nilpotency, the nilpotent ideal flag, the Jacobson radical, and radical complements.

The radical of a finite-dimensional algebra over a characteristic-zero field
is computed through the trace form of the left regular representation on the
unitization: ``t(x, y) = trace(L_{x y})``.  The radical is the intersection
of the algebra with the kernel of that form.  The complement (a subalgebra
isomorphic to the semisimple quotient, splitting the algebra as J (+) S) is
built by halving the nilpotency index of the radical and correcting a linear
section with an exact cocycle solve at each stage.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from .algebra import (
    AlgebraPresentation,
    Element,
    IdealSpace,
    algebra_annihilator,
    product_span,
    _power_chain,
)
from .errors import (
    InternalInvariantError,
    NotNilpotent,
    NotTwoSidedIdeal,
)
from .linalg import (
    ZERO,
    RatMatrix,
    Subspace,
    is_zero_vec,
    kernel,
    solve,
    unit_vec,
    zero_vec,
)


class NilpotencyCertificate:
    """Outcome of the nilpotency test with a checkable witness.

    ``index`` is the least k with P_k = 0 when nilpotent; otherwise
    ``witness`` is a nonzero member of P_{n+1}.
    """

    __slots__ = ("is_nilpotent", "index", "witness")

    def __init__(self, is_nilpotent: bool, index: Optional[int], witness: Optional[Element]):
        self.is_nilpotent = is_nilpotent
        self.index = index
        self.witness = witness

    def __bool__(self):
        return self.is_nilpotent

    def __repr__(self):
        if self.is_nilpotent:
            return f"NilpotencyCertificate(nilpotent, index={self.index})"
        return "NilpotencyCertificate(not nilpotent)"


def is_nilpotent(alg: AlgebraPresentation) -> NilpotencyCertificate:
    """True iff the span of (n+1)-fold products vanishes, n = dim."""
    n = alg.dim
    if n == 0:
        return NilpotencyCertificate(True, 1, None)
    chain = _power_chain(alg, n + 1)
    for k, space in enumerate(chain, start=1):
        if space.is_zero():
            return NilpotencyCertificate(True, k, None)
    witness = alg.element(chain[-1].basis.row(0))
    return NilpotencyCertificate(False, None, witness)


def element_nilpotency(a: Element) -> Optional[int]:
    """Least k with a^k = 0 within n+1 steps, or None (then a is not nilpotent)."""
    n = a.algebra.dim
    power = a
    for k in range(1, n + 2):
        if power.is_zero():
            return k
        if k <= n:
            power = power * a
    return None


class NilpotentFlag:
    """Full flag of two-sided ideals of a nilpotent algebra.

    ``ideals[k]`` has dimension k+1 (``ideals[-1]`` is the whole algebra) and
    each quotient step lands in the annihilator of the previous quotient:
    A*I_{k+1} + I_{k+1}*A <= I_k.  ``ann_index`` is the k with
    I_k = Ann(A).
    """

    __slots__ = ("ideals", "ann_index")

    def __init__(self, ideals: List[IdealSpace], ann_index: int):
        self.ideals = ideals
        self.ann_index = ann_index


def nilpotent_flag(alg: AlgebraPresentation) -> NilpotentFlag:
    """Build the flag bottom-up, preferring annihilator coordinates first.

    At each step the next vector is the first canonical basis vector of
    Ann(A/I_k) not already in I_k, taken inside Ann(A) until Ann(A) is
    exhausted so the flag passes through Ann(A) exactly.
    """
    cert = is_nilpotent(alg)
    if not cert:
        raise NotNilpotent(f"{alg.name} is not nilpotent")
    n = alg.dim
    ann = algebra_annihilator(alg).subspace
    current = Subspace.zero(n)
    ideals: List[IdealSpace] = []
    for _ in range(n):
        if ann.dim > current.dim:
            pool = ann
        else:
            pool = _quotient_annihilator(alg, current)
        picked = None
        for row in pool.basis_rows():
            if not current.contains(row):
                picked = row
                break
        if picked is None:
            raise InternalInvariantError("flag construction stalled")
        current = current.add(Subspace(n, [picked]))
        ideals.append(IdealSpace(alg, current, "two-sided"))
    ann_index = ann.dim
    if ideals and not (ideals[ann_index - 1].subspace == ann if ann_index > 0 else ann.is_zero()):
        raise InternalInvariantError("flag does not pass through the annihilator")
    return NilpotentFlag(ideals, ann_index)


def _quotient_annihilator(alg: AlgebraPresentation, ideal: Subspace) -> Subspace:
    """{x : x*A and A*x both land in the ideal}, pulled back to the algebra."""
    n = alg.dim
    rows = []
    for i in range(n):
        e = unit_vec(n, i)
        for producer in (
            lambda x: alg.multiply_coords(x, e),
            lambda x: alg.multiply_coords(e, x),
        ):
            cols = [ideal.reduce(producer(unit_vec(n, j))) for j in range(n)]
            rows.extend([[cols[j][k] for j in range(n)] for k in range(n)])
    return kernel(RatMatrix.from_rows(rows)) if rows else Subspace.full(n)


# -- Jacobson radical ------------------------------------------------------


def _left_mult_traces(alg: AlgebraPresentation) -> List[Fraction]:
    """tau_i = trace of left multiplication by e_i."""
    taus = []
    for i in range(alg.dim):
        tau = ZERO
        for j in range(alg.dim):
            tau += alg.basis_product(i, j)[j]
        taus.append(tau)
    return taus


def jacobson_radical(alg: AlgebraPresentation, _verify: bool = True) -> IdealSpace:
    """Radical via the trace-form criterion on the unitization.

    On the unitization A+ = Q.u (+) A with Dorroh product, the bilinear form
    t(x, y) = trace(L_{x y}) has radical exactly J(A+), and J(A+) = J(A)
    because A+/A is a field.  Writing the Gram matrix G of t over the basis
    {u, e_1, ..., e_n}, J(A) is the kernel of the column block of G
    belonging to A.

    The result is verified to be a two-sided ideal that is nilpotent as an
    algebra and whose quotient has zero radical.
    """
    n = alg.dim
    if n == 0:
        return IdealSpace(alg, Subspace.zero(0), "two-sided")
    taus = _left_mult_traces(alg)

    def trace_of(coords) -> Fraction:
        return sum((coords[i] * taus[i] for i in range(n)), ZERO)

    # Gram rows: index 0 is the adjoined unity u, indices 1..n are e_i.
    # t(u, u) = n + 1, t(u, e_j) = tau_j, t(e_i, e_j) = trace(L_{e_i e_j}).
    gram_cols = []  # columns restricted to the A block (unknowns x in A)
    for alpha in range(n + 1):
        row = []
        for j in range(n):
            if alpha == 0:
                row.append(taus[j])
            else:
                row.append(trace_of(alg.basis_product(alpha - 1, j)))
        gram_cols.append(row)
    space = kernel(RatMatrix.from_rows(gram_cols))
    radical = IdealSpace(alg, space, "two-sided")
    if _verify:
        _verify_radical(alg, radical)
    return radical


def _verify_radical(alg: AlgebraPresentation, radical: IdealSpace):
    if not _subspace_nilpotent(alg, radical.subspace):
        raise InternalInvariantError("computed radical is not nilpotent")
    if radical.dim < alg.dim:
        quotient, _ = quotient_algebra(alg, radical)
        again = jacobson_radical(quotient, _verify=False)
        if again.dim != 0:
            raise InternalInvariantError("quotient by the radical is not semiprime")


def _subspace_nilpotent(alg: AlgebraPresentation, space: Subspace) -> bool:
    """Does the multiplication-closed subspace power down to zero?"""
    current = space
    for _ in range(space.dim + 1):
        if current.is_zero():
            return True
        current = product_span(alg, space, current)
    return current.is_zero()


# -- quotients -------------------------------------------------------------


class QuotientMap:
    """Projection onto a quotient presentation with its canonical section."""

    __slots__ = ("source", "target", "ideal", "_complement_coords")

    def __init__(self, source, target, ideal, complement_coords):
        self.source = source
        self.target = target
        self.ideal = ideal
        self._complement_coords = complement_coords

    def project(self, coords) -> tuple:
        reduced = self.ideal.reduce(coords)
        return tuple(reduced[c] for c in self._complement_coords)

    def lift(self, qcoords) -> tuple:
        out = [ZERO] * self.source.dim
        for value, c in zip(qcoords, self._complement_coords):
            out[c] = value
        return tuple(out)


def quotient_algebra(
    alg: AlgebraPresentation, ideal: IdealSpace, name: Optional[str] = None
) -> Tuple[AlgebraPresentation, QuotientMap]:
    """Structure constants induced on the deterministic complement basis.

    The complement is the set of standard coordinates away from the ideal's
    echelon pivots, so quotient coordinates inherit their field labels
    directly.
    """
    if isinstance(ideal, IdealSpace):
        if ideal.sidedness != "two-sided":
            raise NotTwoSidedIdeal("quotient requires a two-sided ideal")
        space = ideal.subspace
    else:
        raise NotTwoSidedIdeal("quotient requires an IdealSpace flagged two-sided")
    n = alg.dim
    pivots = set(space.pivots())
    complement_coords = [c for c in range(n) if c not in pivots]
    d = len(complement_coords)
    labels = [alg.field_labels[c] for c in complement_coords]
    names = [alg.basis_names[c] for c in complement_coords]
    constants = {}
    for a in range(d):
        for b in range(d):
            prod = alg.multiply_coords(
                unit_vec(n, complement_coords[a]), unit_vec(n, complement_coords[b])
            )
            reduced = space.reduce(prod)
            coords = tuple(reduced[c] for c in complement_coords)
            if not is_zero_vec(coords):
                constants[(a, b)] = coords
    target = AlgebraPresentation(
        name or f"{alg.name}/I{space.dim}", d, constants, field_labels=labels, basis_names=names
    )
    return target, QuotientMap(alg, target, space, complement_coords)


# -- radical complement (Wedderburn-Malcev) ---------------------------------


def radical_complement(alg: AlgebraPresentation, _verify: bool = True) -> IdealSpace:
    """A subalgebra S with S (+) J = A, isomorphic to A/J under the projection.

    Construction: while the radical N of the current subalgebra V is
    nonzero, pick the canonical complement basis sigma of N in V, measure
    how far sigma is from being multiplicative (the defect lands in N), and
    solve exactly for a correction tau: A/J -> N that repairs sigma modulo
    N^2.  Replacing V by span(sigma + tau) + N^2 squares the remaining
    defect, so the loop finishes after ~log2 of the nilpotency index.  The
    correction always exists for semisimple quotients in characteristic
    zero.
    """
    space = _wedderburn_complement(alg, Subspace.full(alg.dim), jacobson_radical(alg).subspace)
    result = IdealSpace(alg, space, "subring-only")
    if _verify and space.dim + jacobson_radical(alg, _verify=False).dim != alg.dim:
        raise InternalInvariantError("radical complement has wrong dimension")
    return result


def _wedderburn_complement(alg: AlgebraPresentation, V: Subspace, N: Subspace) -> Subspace:
    n = alg.dim
    while not N.is_zero():
        if N.dim == V.dim:
            return Subspace.zero(n)
        N2 = product_span(alg, N, N)
        sigma = N.complement_in(V).basis_rows()
        nbasis = N.basis_rows()
        d_b, d_n = len(sigma), len(nbasis)
        joint = Subspace(n, sigma + nbasis)
        # decompose sigma products: sigma_i sigma_j = sum_k c[k] sigma_k + g_ij
        struct = {}
        defect = {}
        any_defect = False
        for i in range(d_b):
            for j in range(d_b):
                prod = alg.multiply_coords(sigma[i], sigma[j])
                if not joint.contains(prod):
                    raise InternalInvariantError("subalgebra not closed in complement step")
                coeffs = _coords_over(sigma + nbasis, prod, n)
                struct[(i, j)] = coeffs[:d_b]
                g = coeffs[d_b:]
                defect[(i, j)] = g
                if any(x != 0 for x in g):
                    any_defect = True
        if not any_defect:
            return Subspace(n, sigma)  # sigma already multiplicative; N was its own defect space
        tau_rows = _solve_correction(alg, sigma, nbasis, struct, defect, N2)
        corrected = [tuple(s[c] + t[c] for c in range(n)) for s, t in zip(sigma, tau_rows)]
        V = Subspace(n, corrected + N2.basis_rows())
        N = N2
    return V


def _coords_over(rows: List[tuple], target, n: int) -> tuple:
    """Coordinates of target over the (independent) row list, exact solve."""
    mat = RatMatrix.from_rows([[rows[i][c] for i in range(len(rows))] for c in range(n)])
    sol = solve(mat, target)
    if sol is None:
        raise InternalInvariantError("vector not in span during complement construction")
    return sol


def _solve_correction(alg, sigma, nbasis, struct, defect, N2: Subspace):
    """Solve tau(b_i b_j) - sigma_i tau(b_j) - tau(b_i) sigma_j = -g_ij  (mod N2)."""
    n = alg.dim
    d_b, d_n = len(sigma), len(nbasis)
    # precompute sigma_i * n_m and n_m * sigma_j
    left = [[alg.multiply_coords(sigma[i], nbasis[m]) for m in range(d_n)] for i in range(d_b)]
    right = [[alg.multiply_coords(nbasis[m], sigma[j]) for m in range(d_n)] for j in range(d_b)]
    rows, rhs = [], []
    unknowns = d_b * d_n  # tau[k][m]

    def unk(k, m):
        return k * d_n + m

    for i in range(d_b):
        for j in range(d_b):
            # ambient-coordinate equations, reduced modulo N2
            coeff_rows = [[ZERO] * unknowns for _ in range(n)]
            for k in range(d_b):
                c = struct[(i, j)][k]
                if c == 0:
                    continue
                for m in range(d_n):
                    for t in range(n):
                        if nbasis[m][t] != 0:
                            coeff_rows[t][unk(k, m)] += c * nbasis[m][t]
            for m in range(d_n):
                lv = left[i][m]
                for t in range(n):
                    if lv[t] != 0:
                        coeff_rows[t][unk(j, m)] -= lv[t]
                rv = right[j][m]
                for t in range(n):
                    if rv[t] != 0:
                        coeff_rows[t][unk(i, m)] -= rv[t]
            target = [-x for x in _dense_defect(defect[(i, j)], nbasis, n)]
            # reduce both sides modulo N2 coordinates
            for t_row, t_val in zip(_reduce_rows_mod(coeff_rows, N2), N2.reduce(target)):
                if any(x != 0 for x in t_row) or t_val != 0:
                    rows.append(t_row)
                    rhs.append(t_val)
    if not rows:
        tau = [zero_vec(n)] * d_b
        return tau
    sol = solve(RatMatrix.from_rows(rows), rhs)
    if sol is None:
        raise InternalInvariantError("complement correction system is inconsistent")
    tau_rows = []
    for k in range(d_b):
        acc = [ZERO] * n
        for m in range(d_n):
            c = sol[unk(k, m)]
            if c != 0:
                acc = [a + c * b for a, b in zip(acc, nbasis[m])]
        tau_rows.append(tuple(acc))
    return tau_rows


def _dense_defect(g_coeffs, nbasis, n):
    acc = [ZERO] * n
    for m, c in enumerate(g_coeffs):
        if c != 0:
            acc = [a + c * b for a, b in zip(acc, nbasis[m])]
    return tuple(acc)


def _reduce_rows_mod(coeff_rows, space: Subspace):
    """Reduce each ambient coordinate row of a linear system modulo a subspace.

    coeff_rows has one row per ambient coordinate; reducing the *column
    space* modulo the subspace means applying the subspace reduction to each
    unknown's coefficient column.  Equivalent: reduce the stacked columns.
    """
    n = len(coeff_rows)
    unknowns = len(coeff_rows[0]) if coeff_rows else 0
    reduced_cols = []
    for u in range(unknowns):
        col = tuple(coeff_rows[t][u] for t in range(n))
        reduced_cols.append(space.reduce(col))
    return [[reduced_cols[u][t] for u in range(unknowns)] for t in range(n)]

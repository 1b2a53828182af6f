"""Nilpotency, the nilpotent ideal flag, the Jacobson radical, and radical complements.

The radical of a finite-dimensional algebra over a characteristic-zero field
is computed through the trace form of the left regular representation on the
unitization: ``t(x, y) = trace(L_{x y})``.  The radical is the intersection
of the algebra with the kernel of that form.  The complement (a subalgebra
isomorphic to the semisimple quotient, splitting the algebra as J (+) S) is
built by halving the nilpotency index of the radical and correcting a linear
section with an exact cocycle solve at each stage (Ivanyos and Ronyai,
*Computations in associative and Lie algebras*, 1999).

Each stage is one reduction and one solve.  The coordinates of all products
sigma_i sigma_j over [sigma; N] come from one rref of the columns
[sigma, N | products].  The correction system keeps, of its n ambient
coordinate rows, only those at the pivots of P = R(N), with R the reduction
modulo N^2: every column and the right-hand side lie in P, so each other row
is a combination of the kept ones.  The augmented row space, its unique rref
and hence the solution are the same as with all n rows.
"""

from __future__ import annotations

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
    RatMatrix,
    Subspace,
    combine,
    is_zero_vec,
    kernel,
    solve,
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
    chain = _power_chain(alg, Subspace.full(n), n + 1)
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
        for side in ("right", "left"):  # x -> x e_i, then x -> e_i x
            cols = [ideal.reduce(col) for col in zip(*alg.operator(i, side)[0])]
            rows.extend(zip(*cols))
    return kernel(RatMatrix._of_rows(rows, n)) if rows else Subspace.full(n)


# -- Jacobson radical ------------------------------------------------------


def _left_mult_traces(alg: AlgebraPresentation) -> List[int]:
    """D tau_i, with tau_i = sum_j c_{ijj} the trace of left multiplication by
    e_i and D the denominator of the presentation's integer table."""
    taus = [0] * alg.dim
    for (i, j), sparse in alg._int_table.items():
        for k, c in sparse:
            if k == j:
                taus[i] += c
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
    # Gram rows, restricted to the A block (unknowns x in A): row 0 is the
    # adjoined unity u, with t(u, e_j) = tau_j; row 1 + a is e_a, with
    # t(e_a, e_j) = trace(L_{e_a e_j}) = sum_k c_{ajk} tau_k over the nonzeros
    # of (a, j).  Rows carry the scales D and D^2, which the kernel ignores.
    gram = [taus] + [[0] * n for _ in range(n)]
    for (a, j), sparse in alg._int_table.items():
        gram[a + 1][j] = sum(c * taus[k] for k, c in sparse)
    space = kernel(RatMatrix._of_rows(gram, n))
    radical = IdealSpace(alg, space, "two-sided")
    if _verify:
        _verify_radical(alg, radical)
    return radical


def _verify_radical(alg: AlgebraPresentation, radical: IdealSpace):
    if not _power_chain(alg, radical.subspace, radical.dim + 1)[-1].is_zero():
        raise InternalInvariantError("computed radical is not nilpotent")
    if 0 < radical.dim < alg.dim:  # A/0 is A, whose radical was just computed
        quotient, _ = quotient_algebra(alg, radical)
        again = jacobson_radical(quotient, _verify=False)
        if again.dim != 0:
            raise InternalInvariantError("quotient by the radical is not semiprime")


# -- quotients -------------------------------------------------------------


class QuotientMap:
    """Projection onto a quotient presentation."""

    __slots__ = ("source", "target", "ideal", "_complement_coords")

    def __init__(self, source, target, ideal, complement_coords):
        self.source = source
        self.target = target
        self.ideal = ideal
        self._complement_coords = complement_coords

    def project(self, coords) -> tuple:
        reduced = self.ideal.reduce(coords)
        return tuple(reduced[c] for c in self._complement_coords)


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
            prod = alg.basis_product(complement_coords[a], complement_coords[b])
            reduced = space.reduce(prod)
            coords = tuple(reduced[c] for c in complement_coords)
            if not is_zero_vec(coords):
                constants[(a, b)] = coords
    target = AlgebraPresentation(
        name or f"{alg.name}/I{space.dim}", d, constants, field_labels=labels, basis_names=names
    )
    return target, QuotientMap(alg, target, space, complement_coords)


# -- radical complement (Wedderburn-Malcev) ---------------------------------


def radical_complement(alg: AlgebraPresentation) -> IdealSpace:
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
    return complement_of(alg, jacobson_radical(alg).subspace)


def complement_of(alg: AlgebraPresentation, radical: Subspace) -> IdealSpace:
    """The Wedderburn complement of the given radical of ``alg``, as a subring."""
    space = _wedderburn_complement(alg, Subspace.full(alg.dim), radical)
    if space.dim + radical.dim != alg.dim:
        raise InternalInvariantError("radical complement has wrong dimension")
    return IdealSpace(alg, space, "subring-only")


def complement_algebra(alg: AlgebraPresentation, radical: Subspace):
    """A Wedderburn complement S of the given radical as an algebra, with its
    embedding into ``alg``.  A zero radical has the whole space as its
    complement, so S is then ``alg`` itself (see ``subalgebra``)."""
    space = _wedderburn_complement(alg, Subspace.full(alg.dim), radical)
    sub, embed, _ = alg.subalgebra(space, name=f"{alg.name}|S")
    return sub, embed


def _wedderburn_complement(alg: AlgebraPresentation, V: Subspace, N: Subspace) -> Subspace:
    n = alg.dim
    while not N.is_zero():
        if N.dim == V.dim:
            return Subspace.zero(n)
        N2 = product_span(alg, N, N)
        sigma = N.complement_in(V).basis_rows()
        nbasis = N.basis_rows()
        d_b, d = len(sigma), len(sigma) + len(nbasis)
        products = [alg.multiply_coords(s, t) for s in sigma for t in sigma]
        # one reduction of the columns [sigma, nbasis | sigma_i sigma_j]: when
        # every product lies in their span, the rref is [I | X] with X the
        # coordinates, sigma_i sigma_j = sum_k c[k] sigma_k + sum_m g[m] n_m
        stack = Subspace(d + len(products), zip(*sigma, *nbasis, *products))
        if stack.pivots() != list(range(d)):
            raise InternalInvariantError("subalgebra not closed in complement step")
        coords = list(zip(*(row[d:] for row in stack.basis_rows())))
        if not any(x for c in coords for x in c[d_b:]):
            return Subspace(n, sigma)  # sigma already multiplicative; N was its own defect space
        tau_rows = _solve_correction(alg, sigma, nbasis, coords, N2)
        corrected = [tuple(s[c] + t[c] for c in range(n)) for s, t in zip(sigma, tau_rows)]
        V = Subspace(n, corrected + N2.basis_rows())
        N = N2
    return V


def _solve_correction(alg, sigma, nbasis, coords, N2: Subspace):
    """Solve tau(b_i b_j) - sigma_i tau(b_j) - tau(b_i) sigma_j = g_ij  (mod N2).

    With sigma_i sigma_j = sum_k c_k sigma_k + g_ij (``coords[i d_b + j]`` is
    (c, g)), this is the condition (sigma_i + tau_i)(sigma_j + tau_j) =
    sum_k c_k (sigma_k + tau_k) mod N2, since tau_i tau_j lies in N2.  The
    unknowns are tau_k = sum_m x[k d_n + m] n_m.

    Reduction R modulo N2 is linear, so the column of x[k d_n + m] in
    equation (i, j) is c_k R(n_m) - [k = j] R(sigma_i n_m) - [k = i] R(n_m sigma_j),
    and the right-hand side is sum_m g_m R(n_m).  All of these lie in
    P = R(N), because N is an ideal of the current subalgebra.  A vector of P
    is the combination of P's canonical basis given by its entries at P's
    pivots, so every other coordinate row of an equation is that same
    combination of the rows at the pivots.  Keeping only those rows leaves
    the augmented row space, hence its unique rref and the solution
    ``solve`` returns, as they were with all n coordinate rows.
    """
    n = alg.dim
    d_b, d_n = len(sigma), len(nbasis)
    reduced_n = [N2.reduce(v) for v in nbasis]
    kept = Subspace(n, reduced_n).pivots()

    def at_kept(v):
        return [v[t] for t in kept]

    rn = [at_kept(v) for v in reduced_n]
    left = [[at_kept(N2.reduce(alg.multiply_coords(s, v))) for v in nbasis] for s in sigma]
    right = [[at_kept(N2.reduce(alg.multiply_coords(v, s))) for v in nbasis] for s in sigma]
    rows, rhs = [], []
    for i in range(d_b):
        for j in range(d_b):
            c, g = coords[i * d_b + j][:d_b], coords[i * d_b + j][d_b:]
            for q in range(len(kept)):
                row = [c[k] * rn[m][q] for k in range(d_b) for m in range(d_n)]
                for m in range(d_n):
                    row[j * d_n + m] -= left[i][m][q]
                    row[i * d_n + m] -= right[j][m][q]
                rows.append(row)
                rhs.append(sum(gm * r[q] for gm, r in zip(g, rn) if gm))
    sol = solve(RatMatrix._of_rows(rows, d_b * d_n), rhs)
    if sol is None:
        raise InternalInvariantError("complement correction system is inconsistent")
    return [combine(sol[k * d_n : (k + 1) * d_n], nbasis, n) for k in range(d_b)]

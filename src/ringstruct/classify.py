"""Semisimple structure, division-corner recognition, classification, unitization.

A semiprime algebra splits into simple two-sided ideals cut out by the
primitive idempotents of its center; inside each simple factor, peeling
minimal left ideals with Brauer's lemma produces the primitive orthogonal
idempotents, the matrix degree, and the division corner.  The classifier
assembles the whole verdict: annihilator factor, per-label algebra factors,
radical, semisimple data, and unitality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import sympy

from .algebra import (
    AlgebraPresentation,
    Element,
    IdealSpace,
    algebra_annihilator,
    center,
    find_unity,
    classify_element,
    generated_subring,
    product_span,
    ElementClassification,
)
from .errors import (
    InternalInvariantError,
    NotSemiprime,
    NotUnital,
    ValidationError,
    ZeroAlgebra,
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
    vec_add,
    vec_scale,
    zero_vec,
)
from .idempotents import (
    brauer_idempotent,
    minimal_one_sided_ideal,
    pierce_decomposition,
    principal_ideal,
    NullSquare,
    _certify_minimal,
    _probe_vectors,
)
from .radical import element_nilpotency, is_nilpotent, jacobson_radical, radical_complement

REAL = "REAL"
COMPLEX = "COMPLEX"
QUATERNION = "QUATERNION"
UNRECOGNIZED = "UNRECOGNIZED"

DIVISION = "DIVISION"
NULL = "NULL"
OTHER = "OTHER"


class IdempotentSet:
    """Orthogonal idempotents with primitivity and centrality flags."""

    __slots__ = ("members", "flags")

    def __init__(self, members: List[Element], flags: List[dict]):
        self.members = members
        self.flags = flags
        for i, e in enumerate(members):
            if (e * e) != e:
                raise InternalInvariantError("idempotent set member fails e^2 = e")
            for j in range(i):
                f = members[j]
                if not (e * f).is_zero() or not (f * e).is_zero():
                    raise InternalInvariantError("idempotent set members not orthogonal")

    def __len__(self):
        return len(self.members)


class SimpleFactorReport:
    """One simple two-sided ideal: a matrix ring over a division corner."""

    __slots__ = (
        "ideal",
        "matrix_degree",
        "division_dim",
        "division_type",
        "field_label",
        "central_idempotent",
        "primitive_idempotents",
    )

    def __init__(
        self,
        ideal: IdealSpace,
        matrix_degree: int,
        division_dim: int,
        division_type: str,
        field_label: str,
        central_idempotent: Element,
        primitive_idempotents: List[Element],
    ):
        if ideal.dim != matrix_degree * matrix_degree * division_dim:
            raise InternalInvariantError(
                "simple factor dimension must equal degree^2 * division dimension"
            )
        self.ideal = ideal
        self.matrix_degree = matrix_degree
        self.division_dim = division_dim
        self.division_type = division_type
        self.field_label = field_label
        self.central_idempotent = central_idempotent
        self.primitive_idempotents = primitive_idempotents

    def __repr__(self):
        return (
            f"SimpleFactorReport(M_{self.matrix_degree}, division_dim={self.division_dim}, "
            f"{self.division_type}, label={self.field_label})"
        )


# -- polynomial helpers over Q ----------------------------------------------


def _poly_trim(p: List[Fraction]) -> List[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [ZERO] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(a, b):
    a = list(a)
    b = _poly_trim(list(b))
    q = [ZERO] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and _poly_trim(list(a)):
        a = _poly_trim(a)
        if len(a) < len(b):
            break
        c = a[-1] / b[-1]
        d = len(a) - len(b)
        q[d] = c
        for i in range(len(b)):
            a[d + i] -= c * b[i]
        a = _poly_trim(a)
    return _poly_trim(q), _poly_trim(a)


def _poly_xgcd(a, b):
    """Extended Euclid in Q[t]; returns (g, u, v) with u a + v b = g, g monic."""
    r0, r1 = _poly_trim(list(a)), _poly_trim(list(b))
    s0, s1 = [ONE], []
    t0, t1 = [], [ONE]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_trim([x - y for x, y in _pad(s0, _poly_mul(q, s1))])
        t0, t1 = t1, _poly_trim([x - y for x, y in _pad(t0, _poly_mul(q, t1))])
    if r0:
        lead = r0[-1]
        r0 = [x / lead for x in r0]
        s0 = [x / lead for x in s0]
        t0 = [x / lead for x in t0]
    return r0, s0, t0


def _pad(a, b):
    m = max(len(a), len(b))
    return zip(list(a) + [ZERO] * (m - len(a)), list(b) + [ZERO] * (m - len(b)))


def minimal_polynomial(alg: AlgebraPresentation, x: Element, unity: Element) -> List[Fraction]:
    """Monic minimal polynomial of x, coefficients low-to-high."""
    n = alg.dim
    powers = [unity.coords]
    current = unity
    for _ in range(n):
        current = current * x
        powers.append(current.coords)
        space = Subspace(n, powers[:-1])
        if space.contains(powers[-1]):
            mat = RatMatrix.from_rows(
                [[powers[i][c] for i in range(len(powers) - 1)] for c in range(n)]
            )
            sol = solve(mat, powers[-1])
            if sol is None:
                raise InternalInvariantError("minimal polynomial solve failed")
            poly = [-s for s in sol] + [ONE]
            return _poly_trim(list(poly))
    raise InternalInvariantError("no minimal polynomial within dimension bound")


def _factor_rational_poly(poly: List[Fraction]) -> List[List[Fraction]]:
    """Irreducible monic factors over Q, canonically ordered."""
    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t**i for i, c in enumerate(poly))
    _, factors = sympy.factor_list(sympy.Poly(expr, t, domain="QQ"))
    out = []
    for fac, mult in factors:
        if mult != 1:
            raise InternalInvariantError("minimal polynomial of a semisimple element not squarefree")
        coeffs = [rat(sympy.Rational(c)) for c in reversed(sympy.Poly(fac, t).all_coeffs())]
        lead = coeffs[-1]
        coeffs = [c / lead for c in coeffs]
        out.append(coeffs)
    out.sort(key=lambda f: (len(f), [str(c) for c in f]))
    return out


def _eval_poly(alg: AlgebraPresentation, poly: Sequence[Fraction], x: Element, unity: Element) -> Element:
    result = alg.zero_element()
    power = unity
    for i, c in enumerate(poly):
        if c != 0:
            result = result + power.scale(c)
        if i + 1 < len(poly):
            power = power * x
    return result


# -- semiprime / prime -------------------------------------------------------


def semiprime_check(alg: AlgebraPresentation) -> bool:
    """Semiprime iff the Jacobson radical vanishes."""
    return jacobson_radical(alg, _verify=False).dim == 0


def prime_check(alg: AlgebraPresentation) -> bool:
    """Prime iff semiprime with exactly one simple factor."""
    if alg.dim == 0 or not semiprime_check(alg):
        return False
    factors, _ = semisimple_decompose(alg)
    return len(factors) == 1


# -- center splitting --------------------------------------------------------


def _polynomial_closure(zalg: AlgebraPresentation, elements, unity: Element) -> int:
    """Dimension of the ordinary unital subalgebra generated by the elements.

    Plain span-and-multiply closure of {unity} + elements, without the
    label-componentwise splitting used by generated_subring: this is the
    space a single polynomial generator can reach.
    """
    current = Subspace(zalg.dim, [unity.coords] + [e.coords for e in elements])
    while True:
        rows = current.basis_rows()
        grown = current.add(
            Subspace(zalg.dim, [zalg.multiply_coords(u, v) for u in rows for v in rows])
        )
        if grown == current:
            return current.dim
        current = grown


def _primitive_element(zalg: AlgebraPresentation, unity: Element) -> Tuple[Element, List[Fraction]]:
    """An element of a commutative semisimple algebra with full-degree minimal polynomial.

    An etale algebra over a characteristic-zero field is generated by one
    element; the generator is built by absorbing basis elements one at a
    time, scanning small multipliers until the combined element generates
    the ordinary polynomial closure of the pair (all but finitely many
    multipliers do).
    """
    best = None
    best_poly = None
    for i in range(zalg.dim):
        cand = zalg.basis_element(i)
        poly = minimal_polynomial(zalg, cand, unity)
        if best is None or len(poly) > len(best_poly):
            best, best_poly = cand, poly
        if len(best_poly) - 1 == zalg.dim:
            return best, best_poly
    for i in range(zalg.dim):
        b = zalg.basis_element(i)
        target = _polynomial_closure(zalg, [best, b], unity)
        if target <= len(best_poly) - 1:
            continue
        lam = 1
        while lam < 1000:
            cand = best + b.scale(lam)
            poly = minimal_polynomial(zalg, cand, unity)
            if len(poly) - 1 >= target:
                best, best_poly = cand, poly
                break
            lam += 1
        else:
            raise InternalInvariantError("primitive element search exhausted")
        if len(best_poly) - 1 == zalg.dim:
            return best, best_poly
    if len(best_poly) - 1 != zalg.dim:
        raise InternalInvariantError("center has no primitive element of full degree")
    return best, best_poly


def central_primitive_idempotents(alg: AlgebraPresentation) -> List[Element]:
    """Identity decomposition of the center of a semiprime unital algebra.

    Splits the (commutative, semisimple) center by factoring the minimal
    polynomial of a primitive element and applying the CRT idempotent
    formula c_i = (mu/f_i) * ((mu/f_i)^{-1} mod f_i) evaluated at the
    primitive element.
    """
    unity = find_unity(alg)
    if unity is None:
        raise NotSemiprime("semiprime algebras are unital; no unity found")
    zspace = center(alg).subspace
    zalg, embed, restrict = alg.subalgebra(zspace, name=f"{alg.name}|Z")
    zunity = zalg.element(restrict(unity.coords))
    if zalg.dim == 1:
        return [unity]
    z, mu = _primitive_element(zalg, zunity)
    factors = _factor_rational_poly(mu)
    if len(factors) == 1:
        return [unity]
    idems = []
    for f in factors:
        g, rem = _poly_divmod(mu, f)
        if rem:
            raise InternalInvariantError("factor does not divide the minimal polynomial")
        gcd, u, v = _poly_xgcd(g, f)
        if len(gcd) != 1:
            raise InternalInvariantError("cofactor not invertible modulo its factor")
        # c = g(z) * u(z) scaled so that g*u = 1 mod f (gcd already monic == [1])
        scale = gcd[0]  # == 1
        gu = _poly_mul(g, u)
        c = _eval_poly(zalg, gu, z, zunity)
        idems.append(alg.element(embed(c.coords)))
    total = alg.zero_element()
    for c in idems:
        if (c * c) != c:
            raise InternalInvariantError("CRT idempotent failed e^2 = e")
        total = total + c
    if total != unity:
        raise InternalInvariantError("central idempotents do not sum to the unity")
    return idems


# -- semisimple decomposition -------------------------------------------------


def _peel_primitive_idempotents(factor: AlgebraPresentation, unity: Element) -> List[Element]:
    """Primitive orthogonal idempotents of a unital simple algebra, summing to 1.

    Peels minimal left ideals: Brauer gives an idempotent generator, the
    left Pierce complement J = {x - x e} carries the remainder, and the next
    generator is orthogonalized by f -> f - (sum e) f.
    """
    prims: List[Element] = []
    esum = factor.zero_element()
    n = factor.dim
    while esum != unity:
        if not prims:
            ideal = minimal_one_sided_ideal(factor, "left")
        else:
            remainder_rows = []
            for i in range(n):
                x = factor.basis_element(i)
                remainder_rows.append((x - x * esum).coords)
            remainder = Subspace(n, remainder_rows)
            if remainder.is_zero():
                raise InternalInvariantError("primitive peel exhausted before reaching unity")
            space = None
            for v in _probe_vectors(remainder.basis_rows()):
                if is_zero_vec(v):
                    continue
                cand = principal_ideal(factor, factor.element(v), "left")
                if cand.dim == 0:
                    continue
                if space is None or cand.dim < space.dim:
                    space = cand
            changed = True
            while changed:
                changed = False
                for v in _probe_vectors(space.basis_rows()):
                    if is_zero_vec(v):
                        continue
                    sub = principal_ideal(factor, factor.element(v), "left")
                    if 0 < sub.dim < space.dim:
                        space = sub
                        changed = True
                        break
            _certify_minimal(factor, space, "left")
            ideal = IdealSpace(factor, space, "left")
        raw = brauer_idempotent(factor, ideal)
        if isinstance(raw, NullSquare):
            raise InternalInvariantError("minimal left ideal of a semiprime factor squared to zero")
        e_next = raw - esum * raw
        if e_next.is_zero() or (e_next * e_next) != e_next:
            raise InternalInvariantError("orthogonalized idempotent invalid")
        prims.append(e_next)
        esum = esum + e_next
        if len(prims) > n:
            raise InternalInvariantError("primitive peel did not terminate")
    return prims


def semisimple_decompose(
    alg: AlgebraPresentation,
) -> Tuple[List[SimpleFactorReport], IdempotentSet]:
    """Simple two-sided ideals and the full primitive orthogonal idempotent family.

    Requires a nonzero semiprime algebra.  Central orthogonal idempotents
    c_1..c_k summing to 1 cut the algebra into simple ideals A c_i; within
    each, the primitive orthogonal idempotents determine the matrix degree
    and the division corner e_1 (A c_i) e_1.
    """
    if alg.dim == 0:
        raise ZeroAlgebra("cannot decompose the zero algebra")
    if not semiprime_check(alg):
        raise NotSemiprime("semisimple_decompose requires a zero radical")
    unity = find_unity(alg)
    if unity is None:
        raise InternalInvariantError("semiprime algebra without unity")
    centrals = central_primitive_idempotents(alg)
    n = alg.dim
    factors: List[SimpleFactorReport] = []
    members: List[Element] = []
    flags: List[dict] = []
    total_dim = 0
    for c in centrals:
        ideal_space = Subspace(
            n, [alg.multiply_coords(unit_vec(n, i), c.coords) for i in range(n)]
        )
        ideal = IdealSpace(alg, ideal_space, "two-sided")
        sub, embed, restrict = alg.subalgebra(ideal_space, name=f"{alg.name}|c")
        sub_unity = sub.element(restrict(c.coords))
        prims_sub = _peel_primitive_idempotents(sub, sub_unity)
        prims = [alg.element(embed(p.coords)) for p in prims_sub]
        corner11 = pierce_decomposition(sub, prims_sub[0])[0]
        division_dim = corner11.dim
        degree = len(prims_sub)
        if degree * degree * division_dim != sub.dim:
            raise InternalInvariantError("factor dimensions fail degree^2 * division_dim")
        corner_alg, _, corner_restrict = sub.subalgebra(corner11, name=f"{alg.name}|D")
        division_type = frobenius_type(corner_alg)
        label = _space_label(alg, ideal_space)
        factors.append(
            SimpleFactorReport(ideal, degree, division_dim, division_type, label, c, prims)
        )
        total_dim += sub.dim
        for p in prims:
            members.append(p)
            flags.append({"primitive": True, "central": _is_central(alg, p)})
    if total_dim != alg.dim:
        raise InternalInvariantError("simple factors do not fill the algebra")
    return factors, IdempotentSet(members, flags)


def _space_label(alg: AlgebraPresentation, space: Subspace) -> str:
    labels = {
        alg.field_labels[i]
        for row in space.basis_rows()
        for i, x in enumerate(row)
        if x != 0
    }
    if len(labels) != 1:
        raise InternalInvariantError("factor crosses label blocks")
    return labels.pop()


def _is_central(alg: AlgebraPresentation, e: Element) -> bool:
    for i in range(alg.dim):
        b = alg.basis_element(i)
        if (e * b) != (b * e):
            return False
    return True


# -- corners and division recognition ----------------------------------------


def corner_division_check(alg: AlgebraPresentation, e_i: Element, e_j: Element) -> str:
    """DIVISION / NULL / OTHER verdict for the corner e_i A e_j.

    DIVISION requires e_i = e_j and every nonzero probe of the corner to be
    a unit of the corner algebra; NULL means all pairwise products of a
    corner basis vanish.
    """
    n = alg.dim
    corner_rows = []
    for k in range(n):
        x = unit_vec(n, k)
        v = alg.multiply_coords(alg.multiply_coords(e_i.coords, x), e_j.coords)
        corner_rows.append(v)
    corner = Subspace(n, corner_rows)
    if corner.is_zero():
        return NULL
    products_vanish = all(
        is_zero_vec(alg.multiply_coords(u, v))
        for u in corner.basis_rows()
        for v in corner.basis_rows()
    )
    if products_vanish:
        return NULL
    if e_i != e_j:
        return OTHER
    sub, _, _ = alg.subalgebra(corner, name=f"{alg.name}|corner")
    for probe in _probe_vectors([tuple(r) for r in _sub_rows(sub)]):
        if is_zero_vec(probe):
            continue
        cls = classify_element(sub.element(probe))
        if cls.kind != ElementClassification.UNIT:
            return OTHER
    return DIVISION


def _sub_rows(sub: AlgebraPresentation):
    return [unit_vec(sub.dim, i) for i in range(sub.dim)]


def frobenius_type(division: AlgebraPresentation) -> str:
    """REAL / COMPLEX / QUATERNION recognition for a division corner.

    dim 1 is the base field.  dim 2 is an imaginary quadratic line when the
    non-identity generator t with t^2 = alpha + beta t has negative
    discriminant beta^2 + 4 alpha.  dim 4 is quaternion when the trace-zero
    subspace carries an anticommuting pair with negative squares.  Anything
    else (or a corner that only splits over the real closure) is
    UNRECOGNIZED.
    """
    unity = find_unity(division)
    if unity is None:
        raise NotUnital("frobenius_type requires a unital corner")
    d = division.dim
    if d == 1:
        return REAL
    if d == 2:
        uspan = Subspace(2, [unity.coords])
        t_rows = uspan.complement_in(Subspace.full(2)).basis_rows()
        t = division.element(t_rows[0])
        sq = t * t
        mat = RatMatrix.from_rows([[unity.coords[c], t.coords[c]] for c in range(2)])
        sol = solve(mat, sq.coords)
        if sol is None:
            raise InternalInvariantError("2-dim corner power not in its own span")
        alpha, beta = sol
        return COMPLEX if beta * beta + 4 * alpha < 0 else UNRECOGNIZED
    if d == 4:
        taus = [
            sum(division.basis_product(i, j)[j] for j in range(4)) for i in range(4)
        ]
        trace_zero = kernel(RatMatrix.from_rows([taus]))
        if trace_zero.dim != 3:
            return UNRECOGNIZED
        v = trace_zero.basis_rows()
        gram = [[None] * 3 for _ in range(3)]
        for a in range(3):
            for b in range(3):
                anti = vec_add(
                    division.multiply_coords(v[a], v[b]),
                    division.multiply_coords(v[b], v[a]),
                )
                coeff = _scalar_multiple_of(anti, unity.coords)
                if coeff is None:
                    return UNRECOGNIZED
                gram[a][b] = coeff / 2
        basis, diag = _diagonalize_symmetric(gram)
        negatives = [idx for idx, q in enumerate(diag) if q < 0]
        if len(negatives) < 2:
            return UNRECOGNIZED
        i_vec = _combine(v, basis[negatives[0]])
        j_vec = _combine(v, basis[negatives[1]])
        i_el, j_el = division.element(i_vec), division.element(j_vec)
        if (i_el * j_el + j_el * i_el).is_zero() and not i_el.is_zero() and not j_el.is_zero():
            return QUATERNION
        return UNRECOGNIZED
    return UNRECOGNIZED


def _scalar_multiple_of(v, u) -> Optional[Fraction]:
    """c with v = c*u, or None."""
    c = None
    for a, b in zip(v, u):
        if b == 0:
            if a != 0:
                return None
        else:
            ratio = a / b
            if c is None:
                c = ratio
            elif c != ratio:
                return None
    if c is None:
        c = ZERO
    for a, b in zip(v, u):
        if a != c * b:
            return None
    return c


def _diagonalize_symmetric(gram):
    """Congruence diagonalization of a small symmetric rational matrix.

    Returns (rows, diag): rows[i] are coefficients over the original basis
    with rows[i] G rows[j]^T diagonal.
    """
    m = len(gram)
    g = [[rat(x) for x in row] for row in gram]
    basis = [[ONE if i == j else ZERO for j in range(m)] for i in range(m)]

    def form(u, w):
        return sum(u[a] * g[a][b] * w[b] for a in range(m) for b in range(m))

    rows = []
    pool = list(basis)
    while pool:
        # pick a vector with nonzero square, building one from a pair if needed
        pick = None
        for u in pool:
            if form(u, u) != 0:
                pick = u
                break
        if pick is None:
            found = False
            for a in range(len(pool)):
                for b in range(a + 1, len(pool)):
                    u = [x + y for x, y in zip(pool[a], pool[b])]
                    if form(u, u) != 0:
                        pool[a] = u
                        pick = u
                        found = True
                        break
                if found:
                    break
            if pick is None:
                rows.extend(pool)
                break
        pool.remove(pick)
        rows.append(pick)
        q = form(pick, pick)
        pool = [
            [x - (form(pick, u) / q) * y for x, y in zip(u, pick)]
            for u in pool
        ]
    diag = [form(u, u) for u in rows]
    return rows, diag


def _combine(base_rows, coeffs):
    n = len(base_rows[0])
    acc = [ZERO] * n
    for c, row in zip(coeffs, base_rows):
        if c != 0:
            acc = [a + c * b for a, b in zip(acc, row)]
    return tuple(acc)


# -- reduced decomposition -----------------------------------------------------


class ReducedDecomposition:
    """Either per-label division counts or a square-zero witness."""

    __slots__ = ("counts", "witness")

    def __init__(self, counts: Optional[Dict[str, Dict[str, int]]], witness: Optional[Element]):
        self.counts = counts
        self.witness = witness

    @property
    def is_reduced(self) -> bool:
        return self.counts is not None


def reduced_decompose(alg: AlgebraPresentation) -> ReducedDecomposition:
    """Counts (r, p, q) of base-field / quadratic / quaternion factors per label.

    Reduced iff the radical vanishes and every simple factor has matrix
    degree 1 (a matrix block of degree >= 2 contains an off-diagonal unit
    squaring to zero).  When not reduced, a nonzero witness with square zero
    is produced from a radical element or an off-diagonal corner.
    """
    radical = jacobson_radical(alg, _verify=False)
    if radical.dim > 0:
        j = alg.element(radical.subspace.basis.row(0))
        k = element_nilpotency(j)
        if k is None or k < 2:
            raise InternalInvariantError("radical element is not nilpotent")
        witness = j.power(k - 1)
        return ReducedDecomposition(None, witness)
    if alg.dim == 0:
        return ReducedDecomposition({}, None)
    factors, _ = semisimple_decompose(alg)
    for f in factors:
        if f.matrix_degree >= 2:
            e1, e2 = f.primitive_idempotents[0], f.primitive_idempotents[1]
            n = alg.dim
            for k in range(n):
                x = unit_vec(n, k)
                w = alg.multiply_coords(alg.multiply_coords(e1.coords, x), e2.coords)
                if not is_zero_vec(w):
                    return ReducedDecomposition(None, alg.element(w))
            raise InternalInvariantError("degree >= 2 factor with empty off-diagonal corner")
    counts: Dict[str, Dict[str, int]] = {}
    for f in factors:
        slot = counts.setdefault(
            f.field_label, {"r": 0, "p": 0, "q": 0, "unrecognized": 0}
        )
        if f.division_type == REAL:
            slot["r"] += 1
        elif f.division_type == COMPLEX:
            slot["p"] += 1
        elif f.division_type == QUATERNION:
            slot["q"] += 1
        else:
            slot["unrecognized"] += 1
    return ReducedDecomposition(counts, None)


# -- the classifier -------------------------------------------------------------


class FactorReport:
    """One non-null per-label factor of the classification."""

    __slots__ = ("field_label", "ideal", "is_nilpotent", "simple_factors", "radical_dim")

    def __init__(self, field_label, ideal, is_nil, simple_factors, radical_dim):
        self.field_label = field_label
        self.ideal = ideal
        self.is_nilpotent = is_nil
        self.simple_factors = simple_factors
        self.radical_dim = radical_dim


class ClassificationReport:
    """Full structural verdict: R_0 x R_1 x ... x R_s with certificates."""

    __slots__ = (
        "algebra_name",
        "dim",
        "s",
        "r0_dim",
        "r0_space",
        "factors",
        "unital",
        "unity",
        "unity_subring_dim",
        "field_witnesses",
    )

    def __init__(
        self,
        algebra_name,
        dim,
        s,
        r0_dim,
        r0_space,
        factors,
        unital,
        unity,
        unity_subring_dim,
        field_witnesses,
    ):
        self.algebra_name = algebra_name
        self.dim = dim
        self.s = s
        self.r0_dim = r0_dim
        self.r0_space = r0_space
        self.factors = factors
        self.unital = unital
        self.unity = unity
        self.unity_subring_dim = unity_subring_dim
        self.field_witnesses = field_witnesses
        if unital and (unity_subring_dim != s or r0_dim != 0):
            raise InternalInvariantError(
                "unital classification must satisfy dim R(1) = s and R_0 = 0"
            )


def classify(alg: AlgebraPresentation) -> ClassificationReport:
    """Split into an annihilator factor and one non-null factor per field label.

    The span P of all pairwise basis products decomposes along label blocks;
    blocks meeting P are the non-null factors, the remaining blocks are null
    and form the annihilator factor R_0 (the deterministic complement inside
    Ann(A) of Ann(A) intersected with the reachable blocks).  Each non-null
    factor carries its radical, its complement's simple decomposition, and
    the label as field witness.
    """
    n = alg.dim
    products = product_span(alg, Subspace.full(n), Subspace.full(n))
    ann = algebra_annihilator(alg).subspace
    reachable: List[Tuple[str, range]] = []
    unreachable: List[Tuple[str, range]] = []
    for label, block in alg.label_blocks():
        block_space = alg.block_subspace(block)
        if not products.intersect(block_space).is_zero():
            reachable.append((label, block))
        else:
            unreachable.append((label, block))
    reach_space = Subspace(
        n, [unit_vec(n, i) for _, block in reachable for i in block]
    )
    r0_space = ann.intersect(reach_space).complement_in(ann)
    factors = []
    for label, block in reachable:
        block_space = alg.block_subspace(block)
        sub, embed, _ = alg.subalgebra(block_space, name=f"{alg.name}|{label}")
        cert = is_nilpotent(sub)
        radical = jacobson_radical(sub, _verify=False)
        simple_factors: List[SimpleFactorReport] = []
        if radical.dim < sub.dim:
            complement = radical_complement(sub, _verify=False)
            calg, cembed, _ = sub.subalgebra(complement.subspace, name=f"{sub.name}|S")
            sfactors, _ = semisimple_decompose(calg)
            for sf in sfactors:
                rows = [
                    embed(cembed(r)) for r in sf.ideal.subspace.basis_rows()
                ]
                ambient_ideal = IdealSpace(alg, Subspace(n, rows), "subring-only")
                simple_factors.append(
                    SimpleFactorReport(
                        ambient_ideal,
                        sf.matrix_degree,
                        sf.division_dim,
                        sf.division_type,
                        label,
                        alg.element(embed(cembed(sf.central_idempotent.coords))),
                        [alg.element(embed(cembed(p.coords))) for p in sf.primitive_idempotents],
                    )
                )
        factors.append(
            FactorReport(
                label,
                IdealSpace(alg, block_space, "two-sided"),
                bool(cert),
                simple_factors,
                radical.dim,
            )
        )
    unity = find_unity(alg)
    unital = unity is not None
    unity_subring_dim = generated_subring([unity]).dim if unital else 0
    return ClassificationReport(
        alg.name,
        n,
        len(reachable),
        r0_space.dim,
        r0_space,
        factors,
        unital,
        unity,
        unity_subring_dim,
        [label for label, _ in reachable],
    )


# -- unitizations ----------------------------------------------------------------


def dorroh_unitization(
    alg: AlgebraPresentation, label: Optional[str] = None
) -> Tuple[AlgebraPresentation, List[int]]:
    """Adjoin a scalar line u with (a, x)(b, y) = (ab, ay + bx + xy).

    The original algebra embeds as a two-sided ideal at the returned
    coordinate positions, and (1, 0) is the unity.  Only single-label
    algebras can absorb one global scalar line without breaking the
    cross-label product rule.
    """
    labels = set(alg.field_labels)
    if label is None:
        label = next(iter(labels)) if labels else "K1"
    if labels and labels != {label}:
        raise ValidationError(
            "dorroh_unitization needs a single-label algebra matching the new line's label"
        )
    n = alg.dim
    constants = {(0, 0): unit_vec(n + 1, 0)}
    for i in range(n):
        constants[(0, i + 1)] = unit_vec(n + 1, i + 1)
        constants[(i + 1, 0)] = unit_vec(n + 1, i + 1)
    for (i, j), sparse in alg.sparse_table().items():
        dense = [ZERO] * (n + 1)
        for k, c in sparse:
            dense[k + 1] = c
        constants[(i + 1, j + 1)] = tuple(dense)
    out = AlgebraPresentation(
        f"{alg.name}^",
        n + 1,
        constants,
        field_labels=[label] * (n + 1),
        basis_names=["u"] + list(alg.basis_names),
    )
    return out, list(range(1, n + 1))


def minimal_unitization(alg: AlgebraPresentation) -> Tuple[AlgebraPresentation, List[int]]:
    """Smallest unital algebra containing the input as a two-sided ideal.

    Unital inputs come back unchanged.  Otherwise every non-unital label
    block receives its own scalar line acting as that block's unity (a
    Dorroh line per factor; annihilator blocks get an acting line the same
    way).  The dimension increase is at most dim R_0 + s and the result is
    unital.
    """
    if alg.dim == 0 or find_unity(alg) is not None:
        return alg, list(range(alg.dim))
    n = alg.dim
    blocks = alg.label_blocks()
    new_labels: List[str] = []
    new_names: List[str] = []
    position: Dict[int, int] = {}
    line_for_block: Dict[int, int] = {}
    cursor = 0
    for b_idx, (label, block) in enumerate(blocks):
        sub, _, _ = alg.subalgebra(alg.block_subspace(block), name=f"{alg.name}|{label}")
        block_unital = find_unity(sub) is not None and sub.dim > 0
        if not block_unital:
            line_for_block[b_idx] = cursor
            new_labels.append(label)
            new_names.append(f"u_{label}")
            cursor += 1
        for i in block:
            position[i] = cursor
            new_labels.append(alg.field_labels[i])
            new_names.append(alg.basis_names[i])
            cursor += 1
    total = cursor
    constants: Dict[Tuple[int, int], tuple] = {}
    for (i, j), sparse in alg.sparse_table().items():
        dense = [ZERO] * total
        for k, c in sparse:
            dense[position[k]] = c
        constants[(position[i], position[j])] = tuple(dense)
    for b_idx, (label, block) in enumerate(blocks):
        if b_idx not in line_for_block:
            continue
        u = line_for_block[b_idx]
        constants[(u, u)] = unit_vec(total, u)
        for i in block:
            constants[(u, position[i])] = unit_vec(total, position[i])
            constants[(position[i], u)] = unit_vec(total, position[i])
    out = AlgebraPresentation(
        f"{alg.name}^",
        total,
        constants,
        field_labels=new_labels,
        basis_names=new_names,
    )
    if find_unity(out) is None:
        raise InternalInvariantError("minimal unitization failed to produce a unity")
    embedding = [position[i] for i in range(n)]
    return out, embedding

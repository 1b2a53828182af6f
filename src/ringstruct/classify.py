"""Semisimple structure, certified division corners, classification, unitization.

A semiprime algebra splits into simple two-sided ideals cut out by the
primitive idempotents of its center.  Inside each simple factor the unity is
split corner by corner: a zero divisor y of the corner eAe (found through
minimal polynomials, or as an isotropic vector of the quaternion norm form)
gives the idempotent f = yz with yzy = y, and e splits into f and e - f; the
same solve splits the center at the zero divisors that the factors of a
minimal polynomial give.  A corner that cannot split carries a certificate
that it is a division algebra: dimension 1, an irreducible minimal
polynomial of full degree, or an anisotropic norm form.  The number of
primitive idempotents is the matrix degree and their corner is the division
algebra.  One scan of the label blocks splits off the null blocks, which
span the annihilator factor R_0; the classifier adds each other block's
radical and semisimple data, and unitality, and the minimal unitization
adjoins one Dorroh line per block without a unity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .algebra import (
    AlgebraPresentation,
    Element,
    IdealSpace,
    block_unities,
    center,
    find_unity,
    generated_subring,
    multiplicative_closure,
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
    apply_rows,
    combine,
    is_zero_vec,
    kernel,
    rat,
    solve,
    unit_vec,
    vec_add,
)
from .idempotents import principal_ideal
from .radical import (
    _left_mult_traces,
    complement_algebra,
    element_nilpotency,
    jacobson_radical,
)

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
        "division_certificate",
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
        division_certificate: "DivisionCertificate",
    ):
        if ideal.dim != matrix_degree * matrix_degree * division_dim:
            raise InternalInvariantError(
                "simple factor dimension must equal degree^2 * division dimension"
            )
        if division_certificate.dim != division_dim:
            raise InternalInvariantError("division certificate is for a corner of another dimension")
        self.ideal = ideal
        self.matrix_degree = matrix_degree
        self.division_dim = division_dim
        self.division_type = division_type
        self.field_label = field_label
        self.central_idempotent = central_idempotent
        self.primitive_idempotents = primitive_idempotents
        self.division_certificate = division_certificate

    def mapped(self, alg: AlgebraPresentation, embed) -> "SimpleFactorReport":
        """The same factor inside ``alg``, which ``embed`` carries coordinates into;
        the factor itself when it already lies in ``alg``."""
        if self.ideal.algebra is alg:
            return self
        rows = [embed(r) for r in self.ideal.subspace.basis_rows()]
        return SimpleFactorReport(
            IdealSpace(alg, Subspace(alg.dim, rows), "subring-only"),
            self.matrix_degree, self.division_dim, self.division_type, self.field_label,
            alg.element(embed(self.central_idempotent.coords)),
            [alg.element(embed(p.coords)) for p in self.primitive_idempotents],
            self.division_certificate.mapped(embed),
        )

    def __repr__(self):
        return (
            f"SimpleFactorReport(M_{self.matrix_degree}, division_dim={self.division_dim}, "
            f"{self.division_type}, label={self.field_label})"
        )


class DivisionCertificate:
    """Why the corner pAp of a primitive idempotent p is a division algebra.

    ``kind`` is LINE (the corner is the line through p), FIELD (the corner
    element ``elements[0]`` has the irreducible minimal polynomial
    ``coefficients``, low to high, of degree ``dim``, so the corner is the
    field it generates) or NORM_FORM (the three ``elements`` span the trace-zero
    part, anticommute and square to ``coefficients[a] * p``, and the ternary
    form sum coefficients[a] x_a^2 has no rational zero).  Elements are
    coordinate vectors of the algebra the certificate was made in; ``mapped``
    carries them into a larger one.
    """

    __slots__ = ("kind", "dim", "elements", "coefficients")

    def __init__(self, kind: str, dim: int, elements: List[tuple], coefficients: List[Fraction]):
        self.kind = kind
        self.dim = dim
        self.elements = elements
        self.coefficients = coefficients

    def mapped(self, embed) -> "DivisionCertificate":
        return DivisionCertificate(
            self.kind, self.dim, [embed(v) for v in self.elements], self.coefficients
        )


# -- polynomial helpers over Q ----------------------------------------------


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
            return [-s for s in sol] + [ONE]
    raise InternalInvariantError("no minimal polynomial within dimension bound")


def _factor_rational_poly(poly: List[Fraction]) -> List[Tuple[List[Fraction], int]]:
    """Irreducible monic factors over Q with their multiplicities, canonically ordered."""
    import sympy  # imported here: loading it costs every run that never factors

    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t**i for i, c in enumerate(poly))
    _, factors = sympy.factor_list(sympy.Poly(expr, t, domain="QQ"))
    out = []
    for fac, mult in factors:
        coeffs = [rat(sympy.Rational(c)) for c in reversed(sympy.Poly(fac, t).all_coeffs())]
        lead = coeffs[-1]
        out.append(([c / lead for c in coeffs], mult))
    out.sort(key=lambda f: (len(f[0]), [str(c) for c in f[0]], f[1]))
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
        target = multiplicative_closure(zalg, [unity.coords, best.coords, b.coords]).dim
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

    The center Z is commutative and semisimple, a product K_1 x ... x K_k of
    fields, and the minimal polynomial of a primitive element z factors as
    mu = f_1 ... f_k with f_i the minimal polynomial of z's component in K_i.
    So g_i = prod_{j != i} f_j(z) vanishes in every field but K_i, where it
    is nonzero: the corner splitter's solve of g_i w g_i = g_i gives
    c_i = g_i w, the unity of K_i, whatever solution w it picks.  The c_i
    come in the canonical order of the factors f_i.
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
    if any(mult != 1 for _, mult in factors):
        raise InternalInvariantError("minimal polynomial of a semisimple element not squarefree")
    if len(factors) == 1:
        return [unity]
    values = [_eval_poly(zalg, f, z, zunity) for f, _ in factors]
    idems = []
    for i in range(len(values)):
        g = reduce(mul, values[:i] + values[i + 1:])
        idems.append(alg.element(embed(_idempotent_through(zalg, g, zunity).coords)))
    for i, c in enumerate(idems):  # central, so c d = d c
        if (c * c) != c or any(not (c * d).is_zero() for d in idems[:i]):
            raise InternalInvariantError("central idempotents are not orthogonal idempotents")
    if sum(idems, alg.zero_element()) != unity:
        raise InternalInvariantError("central idempotents do not sum to the unity")
    return idems


# -- certified corner splitting -----------------------------------------------


LINE = "line"
FIELD = "field"
NORM_FORM = "norm_form"


def _primitive_idempotent(alg: AlgebraPresentation, e: Element) -> Tuple[Element, DivisionCertificate]:
    """A primitive idempotent under the idempotent e of a semisimple algebra, with
    the certificate that its corner is a division algebra.

    The corner C = eAe is split while it has a zero divisor y: C is
    semisimple, hence von Neumann regular, so yzy = y has a solution z in C
    and f = yz is an idempotent with 0 != f != e.  The search goes on inside
    the smaller of the corners of f and e - f.
    """
    space = Subspace(alg.dim, _corner_products(alg, e, e)[0])
    if space.dim == 1:
        return e, DivisionCertificate(LINE, 1, [], [])
    corner, embed, restrict = alg.subalgebra(space, name=f"{alg.name}|e")
    unity = corner.element(restrict(e.coords))
    found = _certify_or_split(corner, unity)
    if isinstance(found, DivisionCertificate):
        return e, found.mapped(embed)
    f = _idempotent_through(corner, found, unity)
    part = min(
        (f, unity - f),
        key=lambda g: Subspace(corner.dim, _corner_products(corner, g, g)[0]).dim,
    )
    p, certificate = _primitive_idempotent(corner, part)
    return alg.element(embed(p.coords)), certificate.mapped(embed)


def _diagonal_idempotents(alg: AlgebraPresentation, p: Element, unity: Element) -> List[Element]:
    """Primitive orthogonal idempotents of a simple algebra summing to the unity,
    starting with its primitive idempotent p.

    The minimal left ideal L = Ap is a right vector space over D = pAp, and A
    acts on it as all of End_D(L).  Take l_1 = p and l_2, ..., l_m from the
    canonical basis of (1 - p)Ap until the l_k D span L; then e_i is the one
    element with e_i l_k = l_k for k = i and 0 otherwise.  e_1 = p, since
    p(1 - p) = 0.
    """
    n = alg.dim
    division = Subspace(n, _corner_products(alg, p, p)[0]).basis_rows()
    chosen = [p.coords]
    span = Subspace(n, division)  # l_1 D = pAp
    for v in Subspace(n, _corner_products(alg, unity - p, p)[0]).basis_rows():
        if not span.contains(v):
            chosen.append(v)
            span = span.add(Subspace(n, [alg.multiply_coords(v, d) for d in division]))
    # a -> (a l_1, ..., a l_m), stacked
    operators = [alg.operator(l, "right") for l in chosen]
    system = RatMatrix._of_rows([row for rows, _ in operators for row in rows], n)
    members = []
    for i in range(len(chosen)):
        rhs = [
            s * c if k == i else 0
            for k, (l, (_, s)) in enumerate(zip(chosen, operators))
            for c in l
        ]
        e = solve(system, rhs)
        if e is None:
            raise InternalInvariantError("no element acts as a diagonal idempotent on a minimal left ideal")
        members.append(alg.element(e))
    if members[0] != p or sum(members[1:], p) != unity:
        raise InternalInvariantError("diagonal idempotents of a minimal left ideal do not sum to the unity")
    return members


def _idempotent_through(corner: AlgebraPresentation, y: Element, unity: Element) -> Element:
    """f = yz for a solution z of yzy = y: an idempotent with 0 != f != unity."""
    columns, scale = _corner_products(corner, y, y)  # y e_k y, times scale
    z = solve(RatMatrix._of_rows(list(zip(*columns)), corner.dim), [scale * c for c in y.coords])
    if z is None:
        raise InternalInvariantError("yzy = y has no solution in a corner of a semisimple algebra")
    f = y * corner.element(z)
    if f.is_zero() or f == unity or (f * f) != f:
        raise InternalInvariantError("zero divisor gave no proper idempotent")
    return f


def _certify_or_split(corner: AlgebraPresentation, unity: Element) -> Union[DivisionCertificate, Element]:
    """A certificate that the unital corner is a division algebra, or a zero divisor of it.

    In order: a basis element x with mu_x(0) = 0 is a zero divisor, and so is
    g(x) for an irreducible factor g of a reducible mu_x; an irreducible mu_x
    of full degree makes the corner a field; a commutative corner is a field
    or splits by the minimal polynomial of a primitive element; a quaternion
    corner is a division algebra exactly when its norm form has no rational
    zero.  Past these, quotients u^-1 v of basis elements are scanned like
    the basis: s u + t v is a zero divisor where -s/t is a rational
    eigenvalue of u^-1 v.  Anything else raises, naming the missing
    certificate (over Q, finding zero divisors is as hard as factoring in
    general).
    """
    d = corner.dim
    basis = [corner.basis_element(i) for i in range(d)]
    for x in basis:
        found = _by_minimal_polynomial(corner, x, unity)
        if found is not None:
            return found
    if _is_commutative(corner):
        x, _ = _primitive_element(corner, unity)
        found = _by_minimal_polynomial(corner, x, unity)
        if found is not None:
            return found
        raise InternalInvariantError("primitive element of a commutative corner has a short minimal polynomial")
    if d == 4:
        return _by_norm_form(corner, unity)
    for u in basis:
        mu = minimal_polynomial(corner, u, unity)  # mu(0) != 0: u is a unit
        inverse = _eval_poly(corner, [-c / mu[0] for c in mu[1:]], u, unity)
        for v in basis:
            found = None if v is u else _by_minimal_polynomial(corner, inverse * v, unity)
            if found is not None:
                return found
    raise InternalInvariantError(
        f"no division certificate for a corner of dim {d}: no basis element or quotient of "
        "two has a reducible or full-degree minimal polynomial, and it is not a quaternion algebra"
    )


def _by_norm_form(corner: AlgebraPresentation, unity: Element) -> Union[DivisionCertificate, Element]:
    """The NORM_FORM certificate of a 4-dim noncommutative corner, or an isotropic vector."""
    form = _norm_form(corner, unity)
    if form is None:
        raise InternalInvariantError(
            "no division certificate for a noncommutative corner of dim 4 without a norm form"
        )
    vectors, squares = form
    zero = [ONE if q == 0 else ZERO for q in squares]
    if not any(zero):
        found = _conic_zero(squares)
        if found is None:
            return DivisionCertificate(NORM_FORM, 4, vectors, squares)
        zero = found
    v = corner.element(combine(zero, vectors, 4))
    if v.is_zero() or not (v * v).is_zero():
        raise InternalInvariantError("a zero of the norm form is not an isotropic vector")
    return v


def _by_minimal_polynomial(corner: AlgebraPresentation, x: Element, unity: Element):
    """A zero divisor read off mu_x, the FIELD certificate when mu_x is irreducible
    of full degree, or None."""
    mu = minimal_polynomial(corner, x, unity)
    if mu[0] == 0:
        return x  # mu = t h(t) with h(x) != 0 and h(x) x = 0
    if len(mu) == 2:
        return None
    factors = _factor_rational_poly(mu)
    if len(factors) > 1 or factors[0][1] > 1:
        return _eval_poly(corner, factors[0][0], x, unity)
    if len(mu) - 1 == corner.dim:
        return DivisionCertificate(FIELD, corner.dim, [x.coords], mu)
    return None


def _is_commutative(alg: AlgebraPresentation) -> bool:
    return all(
        alg.basis_product(i, j) == alg.basis_product(j, i)
        for i in range(alg.dim)
        for j in range(i + 1, alg.dim)
    )


def legendre_normal_form(coefficients: Sequence) -> Tuple[Tuple[int, ...], Tuple[Fraction, ...]]:
    """Legendre normal form of the ternary form sum q_a x_a^2, all q_a nonzero rationals.

    Returns ``(normal, scales)``: squarefree, pairwise coprime integers with
    the property that X is a zero of sum normal_a X_a^2 exactly when
    x_a = scales_a X_a is a zero of the given form.
    """
    from sympy import factorint  # imported here, like every use of sympy

    q = [rat(c) for c in coefficients]
    den = lcm(*(c.denominator for c in q))
    a = [int(c * den) for c in q]
    common = gcd(*a)
    a = [x // common for x in a]
    scales = [ONE] * 3

    def drop_square(i):  # a_i x^2 = (a_i / s^2) (s x)^2
        s = 1
        for p, k in factorint(abs(a[i])).items():
            s *= p ** (k // 2)
        a[i] //= s * s
        scales[i] /= s

    for i in range(3):
        drop_square(i)
    changed = True
    while changed:
        changed = False
        for i, j in ((0, 1), (1, 2), (0, 2)):
            g = gcd(a[i], a[j])
            if g > 1:  # times g: (a_i/g)(g x_i)^2 + (a_j/g)(g x_j)^2 + g a_k x_k^2
                k = 3 - i - j
                a[i], a[j], a[k] = a[i] // g, a[j] // g, a[k] * g
                scales[i] /= g
                scales[j] /= g
                drop_square(k)
                changed = True
    return tuple(a), tuple(scales)


def _conic_zero(coefficients: Sequence[Fraction]) -> Optional[Tuple[Fraction, ...]]:
    """A nonzero rational zero of sum q_a x_a^2 (all q_a nonzero), or None when none exists.

    Definite forms have none.  Otherwise the form is brought to Legendre
    normal form before it reaches sympy's solver, which can answer wrongly
    on other inputs; the zero it returns is checked.
    """
    if all(q > 0 for q in coefficients) or all(q < 0 for q in coefficients):
        return None
    from sympy import symbols
    from sympy.solvers.diophantine.diophantine import diop_ternary_quadratic_normal

    (a, b, c), scales = legendre_normal_form(coefficients)
    x, y, z = symbols("x y z", integer=True)
    solution = diop_ternary_quadratic_normal(a * x**2 + b * y**2 + c * z**2)
    if solution[0] is None:
        return None
    zero = tuple(s * int(v) for s, v in zip(scales, solution))
    if not any(zero) or sum(q * v * v for q, v in zip(coefficients, zero)) != 0:
        raise InternalInvariantError("ternary form solver returned a non-solution")
    return zero


# -- semisimple decomposition -------------------------------------------------


def semisimple_decompose(
    alg: AlgebraPresentation,
) -> Tuple[List[SimpleFactorReport], IdempotentSet]:
    """Simple two-sided ideals and the full primitive orthogonal idempotent family.

    Requires a nonzero semiprime algebra.  Central orthogonal idempotents
    c_1..c_k summing to 1 cut the algebra into simple ideals A c_i; within
    each, splitting corners of c_i gives one primitive idempotent e_1 with a
    certificate for its division corner e_1 (A c_i) e_1, and the minimal left
    ideal (A c_i) e_1 gives the rest of the primitive orthogonal family, whose
    size is the matrix degree.
    """
    if alg.dim == 0:
        raise ZeroAlgebra("cannot decompose the zero algebra")
    if not semiprime_check(alg):
        raise NotSemiprime("semisimple_decompose requires a zero radical")
    centrals = central_primitive_idempotents(alg)
    n = alg.dim
    factors: List[SimpleFactorReport] = []
    members: List[Element] = []
    flags: List[dict] = []
    total_dim = 0
    for c in centrals:
        ideal_space = principal_ideal(alg, c, "left")  # A c
        ideal = IdealSpace(alg, ideal_space, "two-sided")
        sub, embed, restrict = alg.subalgebra(ideal_space, name=f"{alg.name}|c")
        sub_unity = sub.element(restrict(c.coords))
        p, certificate = _primitive_idempotent(sub, sub_unity)
        prims_sub = _diagonal_idempotents(sub, p, sub_unity)
        division_dim = certificate.dim
        degree = len(prims_sub)
        if degree * degree * division_dim != sub.dim:
            raise InternalInvariantError("factor dimensions fail degree^2 * division_dim")
        division_type = _division_type(certificate)
        label = _space_label(alg, ideal_space)
        prims = [alg.element(embed(p.coords)) for p in prims_sub]
        factors.append(
            SimpleFactorReport(
                ideal, degree, division_dim, division_type, label, c, prims,
                certificate.mapped(embed),
            )
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
    return alg.operator(e.coords, "left") == alg.operator(e.coords, "right")


# -- corners and division recognition ----------------------------------------


def corner_division_check(alg: AlgebraPresentation, e_i: Element, e_j: Element) -> str:
    """DIVISION / NULL / OTHER verdict for the corner e_i A e_j.

    DIVISION requires e_i = e_j and a division certificate for the unital
    corner algebra; a corner with a zero divisor (or without a unity) is
    OTHER; NULL means all pairwise products of a corner basis vanish.
    """
    corner = Subspace(alg.dim, _corner_products(alg, e_i, e_j)[0])
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
    unity = find_unity(sub)
    if unity is None:
        return OTHER
    if sub.dim == 1 or isinstance(_certify_or_split(sub, unity), DivisionCertificate):
        return DIVISION
    return OTHER


def _corner_products(alg: AlgebraPresentation, e: Element, f: Element) -> Tuple[List[tuple], int]:
    """The products e e_k f for every basis index k, as integer vectors, and their scale."""
    left, s = alg.operator(e.coords, "left")
    right, t = alg.operator(f.coords, "right")
    return [apply_rows(right, col) for col in zip(*left)], s * t


def frobenius_type(division: AlgebraPresentation) -> str:
    """REAL / COMPLEX / QUATERNION recognition for a division corner: REAL in
    dim 1, in dims 2 and 4 the type of the corner splitter's certificate,
    and UNRECOGNIZED in other dims or when the corner splits."""
    unity = find_unity(division)
    if unity is None:
        raise NotUnital("frobenius_type requires a unital corner")
    if division.dim == 1:
        return REAL
    if division.dim not in (2, 4):
        return UNRECOGNIZED
    found = _certify_or_split(division, unity)
    return _division_type(found) if isinstance(found, DivisionCertificate) else UNRECOGNIZED


def _division_type(certificate: DivisionCertificate) -> str:
    """D (x) R for the division algebra D that ``certificate`` certifies: R for
    a line; C for a quadratic field Q[x] whose mu_x = t^2 + c_1 t + c_0 has
    discriminant c_1^2 - 4 c_0 < 0; Hamilton's H for a quaternion algebra
    whose trace-zero norm form is negative definite (all three squares
    negative).  Anything else is UNRECOGNIZED."""
    if certificate.kind == LINE:
        return REAL
    if certificate.kind == FIELD and certificate.dim == 2:
        c0, c1, _ = certificate.coefficients
        return COMPLEX if c1 * c1 - 4 * c0 < 0 else UNRECOGNIZED
    if certificate.kind == NORM_FORM and all(q < 0 for q in certificate.coefficients):
        return QUATERNION
    return UNRECOGNIZED


def _norm_form(division: AlgebraPresentation, unity: Element):
    """The norm form of a 4-dim algebra on its trace-zero part, diagonalized.

    Returns ``(vectors, squares)``: trace-zero vectors that pairwise
    anticommute with v_a^2 = squares[a] * unity, or None when the trace-zero
    part is not 3-dim or some anticommutator is not a multiple of the unity
    (the algebra is then no quaternion algebra).
    """
    trace_zero = kernel(RatMatrix._of_rows([_left_mult_traces(division)], 4))
    if trace_zero.dim != 3:
        return None
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
                return None
            gram[a][b] = coeff / 2
    basis, diag = _diagonalize_symmetric(gram)
    return [combine(b, v, 4) for b in basis], diag


def _scalar_multiple_of(v, u) -> Optional[Fraction]:
    """c with v = c*u, or None."""
    k = next((k for k, b in enumerate(u) if b != 0), None)
    c = ZERO if k is None else v[k] / u[k]
    return c if all(a == c * b for a, b in zip(v, u)) else None


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
            products, scale = _corner_products(alg, e1, e2)
            for w in products:
                if not is_zero_vec(w):
                    return ReducedDecomposition(None, alg.element([Fraction(x, scale) for x in w]))
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


def complement_factors(alg: AlgebraPresentation, radical: Subspace) -> List[SimpleFactorReport]:
    """The simple factors of a Wedderburn complement of ``radical``, in the
    coordinates of ``alg``."""
    if radical.dim == alg.dim:
        return []
    calg, embed = complement_algebra(alg, radical)
    return [sf.mapped(alg, embed) for sf in semisimple_decompose(calg)[0]]


def label_split(alg: AlgebraPresentation) -> Tuple[List[Tuple[str, range]], List[Tuple[str, range]]]:
    """The label blocks that are factors, and the null blocks, in coordinate order.

    A block is a factor exactly when the table has a nonzero product e_i e_j
    with i in the block.  Products never leave a block, so every other
    block B satisfies B A = A B = 0 and lies in Ann(A).
    """
    acting = {i for i, _ in alg._int_table}
    factors, null = [], []
    for label, block in alg.label_blocks():
        (null if acting.isdisjoint(block) else factors).append((label, block))
    return factors, null


def classify(alg: AlgebraPresentation) -> ClassificationReport:
    """Split into an annihilator factor and one non-null factor per field label.

    The label blocks with a nonzero product are the non-null factors (see
    :func:`label_split`); the null blocks span the annihilator factor R_0.
    Blocks use disjoint coordinates, so R_0 is the canonical complement,
    inside Ann(A), of the part of Ann(A) in the factors.  Each non-null factor
    carries its radical, its complement's simple decomposition, and the
    label as field witness.
    """
    n = alg.dim
    blocks, null = label_split(alg)
    r0_space = Subspace(n, [unit_vec(n, i) for _, block in null for i in block])
    factors = []
    for label, block in blocks:
        block_space = alg.block_subspace(block)
        sub, embed, _ = alg.subalgebra(block_space, name=f"{alg.name}|{label}")
        radical = jacobson_radical(sub, _verify=False).subspace
        simple_factors = [sf.mapped(alg, embed) for sf in complement_factors(sub, radical)]
        ideal = IdealSpace(alg, block_space, "two-sided")
        # over Q an algebra is nilpotent exactly when it is its own radical
        factors.append(FactorReport(label, ideal, radical.dim == sub.dim, simple_factors, radical.dim))
    unity = find_unity(alg)
    unital = unity is not None
    unity_subring_dim = generated_subring([unity]).dim if unital else 0
    return ClassificationReport(
        alg.name,
        n,
        len(blocks),
        r0_space.dim,
        r0_space,
        factors,
        unital,
        unity,
        unity_subring_dim,
        [label for label, _ in blocks],
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
    return _adjoin_lines(alg, [(range(alg.dim), label, "u")])


def minimal_unitization(alg: AlgebraPresentation) -> Tuple[AlgebraPresentation, List[int], Optional[Element]]:
    """Smallest unital algebra containing the input as a two-sided ideal,
    the positions of the input's basis elements in it, and its unity.

    Unital inputs come back unchanged (the zero algebra, too, with unity
    None).  Otherwise every label block without a unity of its own (each
    null block of R_0, and each factor whose subalgebra has none) receives a
    Dorroh line placed before it, acting as that block's unity.  The
    dimension increase is at most dim R_0 + s.  Products never leave a
    block, so the new lines and the unities of the other blocks sum to the
    unity of the result, which is checked.
    """
    blocks = alg.label_blocks()
    unities = block_unities(alg)
    if None not in unities:
        unity = alg.element([c for part in unities for c in part]) if unities else None
        return alg, list(range(alg.dim)), unity
    out, embedding = _adjoin_lines(
        alg, [(block, label, f"u_{label}") for (label, block), u in zip(blocks, unities) if u is None]
    )
    coords = [ONE] * out.dim  # 1 on each new line
    for (_, block), part in zip(blocks, unities):
        for k, i in enumerate(block):
            coords[embedding[i]] = part[k] if part else ZERO
    left, scale = out.operator(coords, "left")
    identity = [[scale if j == k else 0 for j in range(out.dim)] for k in range(out.dim)]
    if left != identity or out.operator(coords, "right")[0] != identity:
        raise InternalInvariantError("minimal unitization failed to produce a unity")
    return out, embedding, out.element(coords)


def _adjoin_lines(
    alg: AlgebraPresentation, lines: Sequence[Tuple[range, str, str]]
) -> Tuple[AlgebraPresentation, List[int]]:
    """``alg`` with one scalar line per ``(block, label, name)``, placed before
    the block, squaring to itself and acting as the identity on the block;
    and the positions of the old basis elements."""
    n = alg.dim
    before = {line[0].start: line for line in lines}
    position, placed, basis = [], [], []  # basis holds (label, name) pairs
    for i in range(n + 1):
        if i in before:
            block, label, name = before[i]
            placed.append((len(basis), block))
            basis.append((label, name))
        if i < n:
            position.append(len(basis))
            basis.append((alg.field_labels[i], alg.basis_names[i]))
    total = len(basis)
    labels, names = zip(*basis)
    constants: Dict[Tuple[int, int], tuple] = {}
    for (i, j), sparse in alg.sparse_table().items():
        dense = [ZERO] * total
        for k, c in sparse:
            dense[position[k]] = c
        constants[(position[i], position[j])] = tuple(dense)
    for u, block in placed:
        constants[(u, u)] = unit_vec(total, u)
        for i in block:
            constants[(u, position[i])] = constants[(position[i], u)] = unit_vec(total, position[i])
    out = AlgebraPresentation(f"{alg.name}^", total, constants, field_labels=labels, basis_names=names)
    return out, position

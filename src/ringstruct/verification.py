"""Independent re-verification of report certificates.

These checks deliberately avoid the decomposition engine: they use only
element multiplication, subspace membership, and set arithmetic on the
certificates quoted in a report, plus two number-theoretic tests for
division corners (irreducibility of a polynomial over Q, and Legendre's
conditions for a ternary form), so a report that passes was right for
checkable reasons.  A report with a missing or misshapen entry fails
verification as a false one does.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import List

from .algebra import AlgebraPresentation
from .errors import DimensionMismatch, DocumentError, InternalInvariantError
from .finite import FiniteRing, is_ideal, ring_nilpotency_index
from .linalg import Subspace, is_zero_vec, parse_rat, unit_vec


def _vec(coords: List[str]):
    return tuple(parse_rat(c) for c in coords)


def _space(alg: AlgebraPresentation, basis: List[List[str]]) -> Subspace:
    return Subspace(alg.dim, [_vec(row) for row in basis])


def _fail(message: str):
    raise InternalInvariantError(f"certificate verification failed: {message}")


# what reading a report with a missing, mistyped or misshapen entry raises
_MALFORMED = (KeyError, IndexError, TypeError, ValueError, DocumentError, DimensionMismatch)


def _reads_report(verify):
    """``verify``, failing verification on a report with a missing or
    misshapen entry instead of raising the lookup's own error."""

    @functools.wraps(verify)
    def checked(subject, report: dict):
        try:
            verify(subject, report)
        except _MALFORMED as exc:
            _fail(f"malformed report ({type(exc).__name__}: {exc})")

    return checked


@_reads_report
def verify_classify_report(alg: AlgebraPresentation, report: dict):
    """Re-check a classification report from its certificates alone."""
    certs = report["certificates"]
    verdict = report["verdict"]
    r0 = _space(alg, certs["r0_basis"])
    if r0.dim != verdict["r0_dim"]:
        _fail("r0 dimension mismatch")
    # R_0 annihilates everything
    for row in r0.basis_rows():
        for e in (unit_vec(alg.dim, i) for i in range(alg.dim)):
            if not is_zero_vec(alg.multiply_coords(row, e) + alg.multiply_coords(e, row)):
                _fail("r0 vector fails to annihilate")
    # every pairwise product avoids the R_0 coordinates
    pivots = set(r0.pivots())
    products = (alg.basis_product(i, j) for i in range(alg.dim) for j in range(alg.dim))
    if any(prod[c] != 0 for prod in products for c in pivots):
        _fail("a product meets the annihilator factor coordinates")
    acc = certs["dimension_accounting"]
    if acc["r0"] + sum(acc["factor_dims"]) != acc["total"] or acc["total"] != alg.dim:
        _fail("dimension accounting does not add up")
    if verdict["s"] != len(certs["factors"]):
        _fail("factor count disagrees with s")
    # products of distinct blocks vanish, so the blocks' semisimple parts commute
    blocks = [(label, block) for label, block in alg.label_blocks() if _is_factor(alg, block)]
    if [(f["label"], f["dim"]) for f in certs["factors"]] != [(l, len(b)) for l, b in blocks]:
        _fail("factors are not the label blocks with a nonzero product")
    for factor, (_, block) in zip(certs["factors"], blocks):
        if factor["radical_dim"] != _radical_dim(alg, block):
            _fail("factor radical dimension is wrong")
        if factor["nilpotent"] != (factor["radical_dim"] == factor["dim"]):
            _fail("factor nilpotency disagrees with its radical")
        _check_split(alg, factor["simple_factors"], alg.block_subspace(block), factor["radical_dim"])
    if verdict["unital"]:
        unity = alg.element(_vec(certs["unity"]))
        for i in range(alg.dim):
            b = alg.basis_element(i)
            if (unity * b) != b or (b * unity) != b:
                _fail("claimed unity is not a unity")
        if verdict["unity_subring_dim"] != verdict["s"]:
            _fail("unital report must have unity subring dimension s")
        if verdict["r0_dim"] != 0:
            _fail("unital report must have trivial annihilator factor")


def _is_factor(alg: AlgebraPresentation, block: range) -> bool:
    """The factors of A are the label blocks with a nonzero product; the
    others are null and make up R_0."""
    return any(not is_zero_vec(alg.basis_product(i, j)) for i in block for j in block)


def _radical_dim(alg: AlgebraPresentation, block: range) -> int:
    """dim J(B) for the subalgebra B on the basis elements in ``block``: in
    characteristic zero J(B) is the radical of t(x, y) = tr(L_{xy}) on B,
    which holds J(B) and is an ideal on which tr(L_x^k) = 0 for k >= 2, so
    a nil ideal."""
    taus = {k: sum(alg.basis_product(k, m)[m] for m in block) for k in block}
    gram = [[sum(alg.basis_product(a, j)[k] * taus[k] for k in block) for j in block] for a in block]
    return len(block) - Subspace(len(block), gram).dim


def _check_split(alg: AlgebraPresentation, factors: List[dict], space: Subspace, radical_dim: int):
    """The simple factors and a radical of dimension ``radical_dim`` fill ``space``.

    The factors are matrix rings M_n(D) inside ``space`` with orthogonal
    central idempotents, so their sum S is a semisimple subalgebra.  S meets
    the radical J in a nilpotent ideal of S, which is zero, so dim S is at
    most dim space - dim J; when dim J = ``radical_dim``, equality makes S a
    complement of J, and then p I p = p A p modulo p J p.  Last, each
    ``division_type`` must be the one its division corner certifies.
    """
    types = [_check_simple_factor(alg, sf, space) for sf in factors]
    _check_orthogonal_idempotents([alg.element(_vec(sf["central_idempotent"])) for sf in factors])
    if sum(sf["matrix_degree"] ** 2 * sf["division_dim"] for sf in factors) + radical_dim != space.dim:
        _fail("simple factors and radical do not fill the factor")
    for sf, certified in zip(factors, types):
        if sf["division_type"] != certified:
            _fail(f"division type {sf['division_type']} is not {certified}, the type its corner certifies")


def _check_simple_factor(alg: AlgebraPresentation, sf: dict, space: Subspace) -> str:
    """The reported ideal I, inside ``space``, is M_n(D) with the reported primitive
    family; returns the type of D (x) R that the division certificate shows.

    I is closed under multiplication with the central idempotent as its
    unity; the n primitive idempotents lie in I, are orthogonal and sum to
    it; every corner p_k I p_k has dimension d; p_1 I p_j . p_j I p_1 != 0 for
    every j; and p_1 I p_1 is a division algebra by its certificate.  Then
    p_1 = ab and p_j = ba for some a in p_1 I p_j and b in p_j I p_1, so the
    p_k are equivalent primitive idempotents and I is the n x n matrix ring
    over p_1 I p_1.  The corners are taken inside I: p A p also holds p J p.
    """
    ideal = _space(alg, sf["ideal_basis"])
    n, d = sf["matrix_degree"], sf["division_dim"]
    if ideal.dim != n * n * d:
        _fail("simple factor dimension accounting fails")
    if not all(space.contains(row) for row in ideal.basis_rows()):
        _fail("a simple factor lies outside its factor")
    members = [alg.element(row) for row in ideal.basis_rows()]
    if not all(ideal.contains((u * v).coords) for u in members for v in members):
        _fail("simple factor ideal is not closed under multiplication")
    central = alg.element(_vec(sf["central_idempotent"]))
    if not ideal.contains(central.coords) or any(central * u != u or u * central != u for u in members):
        _fail("central idempotent is not the unity of its simple factor")
    prims = [alg.element(_vec(c)) for c in sf["primitive_idempotents"]]
    _check_orthogonal_idempotents(prims)
    if not prims or n != len(prims):
        _fail("matrix degree disagrees with the primitive family size")
    if sum(prims, alg.zero_element()) != central:
        _fail("primitive family does not sum to the factor's central idempotent")
    if not all(ideal.contains(p.coords) for p in prims):
        _fail("a primitive idempotent lies outside its simple factor")

    def corner(e, f):
        return Subspace(alg.dim, [(e * u * f).coords for u in members])

    first = prims[0]
    for p in prims:
        if corner(p, p).dim != d:
            _fail("a primitive corner does not have the division dimension")
        there, back = corner(first, p).basis_rows(), corner(p, first).basis_rows()
        if all(is_zero_vec(alg.multiply_coords(a, b)) for a in there for b in back):
            _fail("primitive idempotents of one simple factor are not equivalent")
    return _check_division_corner(alg, first, corner(first, first), sf)


def _check_division_corner(alg: AlgebraPresentation, p, corner: Subspace, sf: dict) -> str:
    """The corner p I p is a division algebra D for the reported reason;
    returns the type of D (x) R, UNRECOGNIZED unless named below.

    Dimension 1 needs nothing more (REAL).  A FIELD certificate is a corner
    element x with mu(x) = 0 for an irreducible monic mu of degree dim, so
    Q[x] is a field filling the corner (COMPLEX in dim 2 when mu has no real
    root).  A NORM_FORM certificate is three anticommuting corner elements
    that span the corner with p and square to q_a p, with the form
    sum q_a x_a^2 anisotropic: definite (QUATERNION when negative), or
    failing Legendre's conditions.
    """
    d = sf["division_dim"]
    if d == 1:
        return "REAL"
    cert = sf.get("division_certificate")
    if cert is None:
        _fail(f"division corner of dimension {d} carries no certificate")
    elements = [alg.element(_vec(v)) for v in cert["elements"]]
    coefficients = [parse_rat(c) for c in cert["coefficients"]]
    if not all(corner.contains(x.coords) for x in elements):
        _fail("certificate element outside the primitive corner")
    if cert["kind"] == "field":
        if len(elements) != 1 or len(coefficients) != d + 1 or coefficients[-1] != 1:
            _fail("field certificate needs one element and a monic polynomial of degree dim")
        x = elements[0]
        value, power = alg.zero_element(), p
        for c in coefficients:
            value = value + power.scale(c)
            power = power * x
        if not value.is_zero():
            _fail("certificate polynomial does not vanish at its element")
        if not _irreducible(coefficients):
            _fail("certificate polynomial is reducible")
        return "COMPLEX" if d == 2 and coefficients[1] ** 2 < 4 * coefficients[0] else "UNRECOGNIZED"
    if cert["kind"] == "norm_form":
        if d != 4 or len(elements) != 3 or len(coefficients) != 3 or 0 in coefficients:
            _fail("norm-form certificate needs three elements with nonzero squares in dimension 4")
        if Subspace(alg.dim, [p.coords] + [v.coords for v in elements]) != corner:
            _fail("norm-form elements do not span the corner with p")
        for a, (v, q) in enumerate(zip(elements, coefficients)):
            if (v * v) != p.scale(q):
                _fail("norm-form element does not square to its coefficient")
            for w in elements[a + 1:]:
                if not (v * w + w * v).is_zero():
                    _fail("norm-form elements do not anticommute")
        if _isotropic(coefficients):
            _fail("norm form has a rational zero, so the corner splits")
        return "QUATERNION" if max(coefficients) < 0 else "UNRECOGNIZED"
    _fail(f"unknown division certificate {cert['kind']!r}")


def _irreducible(coefficients) -> bool:
    import sympy

    t = sympy.Symbol("t")
    poly = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coefficients)], t, domain="QQ"
    )
    return poly.is_irreducible


def _isotropic(coefficients) -> bool:
    """Legendre: a x^2 + b y^2 + c z^2 with a, b, c squarefree, pairwise coprime
    and of mixed signs has a nonzero zero iff -bc, -ca, -ab are squares modulo
    |a|, |b|, |c|."""
    if all(q > 0 for q in coefficients) or all(q < 0 for q in coefficients):
        return False
    from sympy.ntheory.residue_ntheory import is_quad_residue

    from .classify import legendre_normal_form

    (a, b, c), _ = legendre_normal_form(coefficients)
    return all(
        is_quad_residue(-u * v % abs(w), abs(w)) for u, v, w in ((b, c, a), (c, a, b), (a, b, c))
    )


def _check_orthogonal_idempotents(elements):
    for i, e in enumerate(elements):
        if e.is_zero() or (e * e) != e:
            _fail("family member is not a nonzero idempotent")
        for j in range(i):
            f = elements[j]
            if not (e * f).is_zero() or not (f * e).is_zero():
                _fail("family members are not orthogonal")


@_reads_report
def verify_radical_report(alg: AlgebraPresentation, report: dict):
    """Radical basis must be a two-sided, nilpotent ideal; complement must split."""
    certs = report["certificates"]
    radical = _space(alg, certs["radical_basis"])
    if radical.dim != report["verdict"]["radical_dim"]:
        _fail("radical dimension mismatch")
    for row in radical.basis_rows():
        for i in range(alg.dim):
            e = unit_vec(alg.dim, i)
            if not radical.contains(alg.multiply_coords(row, e)):
                _fail("radical is not a right ideal")
            if not radical.contains(alg.multiply_coords(e, row)):
                _fail("radical is not a left ideal")
    # nilpotency by direct powering of the span
    current = radical
    for _ in range(radical.dim + 1):
        if current.is_zero():
            break
        current = Subspace(
            alg.dim,
            [
                alg.multiply_coords(u, v)
                for u in radical.basis_rows()
                for v in current.basis_rows()
            ],
        )
    if not current.is_zero():
        _fail("radical basis does not power down to zero")
    complement = _space(alg, certs["complement_basis"])
    if complement.dim + radical.dim != alg.dim:
        _fail("complement dimension mismatch")
    if not complement.intersect(radical).is_zero():
        _fail("complement meets the radical")
    for u in complement.basis_rows():
        for v in complement.basis_rows():
            if not complement.contains(alg.multiply_coords(u, v)):
                _fail("complement is not multiplication-closed")


@_reads_report
def verify_idempotents_report(alg: AlgebraPresentation, report: dict):
    certs = report["certificates"]
    if report["verdict"]["found"]:
        e = alg.element(_vec(certs["idempotent"]))
        if e.is_zero() or (e * e) != e:
            _fail("reported idempotent is invalid")
    if "primitive_family" in certs:
        factors = certs.get("simple_factors")
        if factors is None:
            _fail("a primitive family without its simple factors")
        # filling A leaves no room for a radical, so A is semisimple
        _check_split(alg, factors, Subspace.full(alg.dim), 0)
        family = [alg.element(_vec(c)) for c in certs["primitive_family"]]
        prims = [alg.element(_vec(c)) for sf in factors for c in sf["primitive_idempotents"]]
        if family != prims:
            _fail("primitive family is not the simple factors' primitive idempotents")
        _check_orthogonal_idempotents(family)
        if sum(family, alg.zero_element()) != alg.element(_vec(certs["unity"])):
            _fail("primitive family does not sum to the unity")


@_reads_report
def verify_unitize_report(alg: AlgebraPresentation, report: dict):
    """The unitized document must be unital and contain the image as a two-sided ideal.

    The verdict's dimensions are those of ``alg`` and of the document, and
    the bound dim R_0 + s is recomputed from the label blocks of ``alg``.
    """
    from .documents import parse, to_object

    certs = report["certificates"]
    verdict = report["verdict"]
    out = to_object(parse(certs["document"]))
    bound = sum(1 if _is_factor(alg, block) else len(block) for _, block in alg.label_blocks())
    expected = {
        "dim_before": alg.dim,
        "dim_after": out.dim,
        "increment": out.dim - alg.dim,
        "already_unital": out.dim == alg.dim,
        "bound": bound,
    }
    for key, value in expected.items():
        if verdict[key] != value:
            _fail(f"unitization verdict {key} is not {value}")
    if out.dim - alg.dim > bound:
        _fail("unitization increment exceeds its bound")
    embedding = certs["embedding"]
    if len(embedding) != alg.dim:
        _fail("embedding length mismatch")
    unity = out.element(_vec(certs["unity"]))
    for i in range(out.dim):
        b = out.basis_element(i)
        if (unity * b) != b or (b * unity) != b:
            _fail("unitization unity fails")
    image = Subspace(out.dim, [unit_vec(out.dim, p) for p in embedding])

    def embed_vec(coords):
        dense = [Fraction(0)] * out.dim
        for c, p in zip(coords, embedding):
            dense[p] = c
        return tuple(dense)

    # embedded copy multiplies as the original and is a two-sided ideal
    for i in range(alg.dim):
        for j in range(alg.dim):
            expect = embed_vec(alg.basis_product(i, j))
            got = out.multiply_coords(
                embed_vec(unit_vec(alg.dim, i)), embed_vec(unit_vec(alg.dim, j))
            )
            if expect != got:
                _fail("embedding does not respect products")
    for row in image.basis_rows():
        for i in range(out.dim):
            e = unit_vec(out.dim, i)
            if not image.contains(out.multiply_coords(row, e)) or not image.contains(
                out.multiply_coords(e, row)
            ):
                _fail("embedded image is not a two-sided ideal")


@_reads_report
def verify_oracle_report(ring: FiniteRing, report: dict):
    """Every verdict and list of an oracle report, recomputed from the tables
    with arrays of at most order x order entries.

    The radical is a nilpotent ideal and equals {x : r x is nilpotent for
    every r}: such r x are quasi-regular, which puts x in J, and J is
    nilpotent.  Against enumeration it is also the largest nilpotent ideal.
    The ring is nilpotent exactly when it is its own radical, and its index
    is the least k that kills every k-fold product.
    """
    import numpy as np  # loaded with the tables already

    verdict, certs = report["verdict"], report["certificates"]
    n, mul, zero = ring.order, ring.mul, ring.zero
    idx = np.arange(n)
    j = frozenset(verdict["jacobson"])
    if not is_ideal(ring, j) or ring_nilpotency_index(ring, j) is None:
        _fail("reported radical is not a nilpotent ideal")
    power = idx  # x^(n+1) = 0 for a nilpotent x: its nonzero powers are distinct
    for _ in range(n):
        power = mul[power, idx]
    nilpotent = power == zero
    radical = np.flatnonzero(nilpotent[mul].all(axis=0)).tolist()  # column x holds the r x
    unities = [int(u) for u in np.flatnonzero((mul == idx).all(axis=1)) if (mul[:, u] == idx).all()]
    # in a finite ring x y = 1 gives y x = 1; a zero divisor kills some y != 0 on a side
    kills = (np.count_nonzero(mul == zero, axis=1) > 1) | (np.count_nonzero(mul == zero, axis=0) > 1)
    kills[zero] = False
    expected = {
        "jacobson": radical,
        "idempotents": np.flatnonzero(mul[idx, idx] == idx).tolist(),
        "unity": unities[0] if unities else None,
        "unital": bool(unities),
        "units": np.flatnonzero((mul == unities[0]).any(axis=1)).tolist() if unities else [],
        "zero_divisors": np.flatnonzero(kills).tolist(),
        "nil": bool(nilpotent.all()),
        "reduced": np.count_nonzero(nilpotent) == 1,
        "nilpotent": len(radical) == n,
    }
    for key, value in expected.items():
        if {**certs, **verdict}[key] != value:
            _fail(f"oracle {key} disagrees with the tables")
    if verdict["nilpotent"] != ("nilpotency_index" in verdict):
        _fail("a nilpotency index belongs to exactly the nilpotent rings")
    products = idx  # the k-fold products, as the (k-1)-fold ones times r
    for _ in range(verdict.get("nilpotency_index", 1) - 1):
        if np.array_equal(products, [zero]):
            _fail("nilpotency index is not the least k with zero k-fold products")
        products = np.unique(mul[products])
    if verdict["nilpotent"] and not np.array_equal(products, [zero]):
        _fail("k-fold products do not vanish at the nilpotency index")
    if "largest_nilpotent_ideal" in certs:
        if sorted(j) != certs["largest_nilpotent_ideal"]:
            _fail("definitional radical disagrees with the enumerated nilpotent ideal")

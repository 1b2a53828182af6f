"""Idempotent search, minimal one-sided ideals, Brauer's lemma, Pierce corners.

All of it rests on the Wedderburn splitting A = S (+) J of the algebra into
its radical J and a semisimple complement S.  ``find_idempotent`` returns
the unity of S, which is nonzero exactly when the algebra is not nilpotent.
A minimal left ideal with A I != 0 is a simple S-module that J kills, so
``minimal_one_sided_ideal`` builds it as A x = S x for a nonzero x = p y with
p the certified first primitive idempotent of a simple factor M_n(D) of S
(from the classifier's corner splitting) and J y = 0; its dimension is
n dim D.  Right ideals mirror this.  ``brauer_idempotent`` checks minimality
the same way before it solves for the idempotent that generates the ideal.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .algebra import (
    AlgebraPresentation,
    Element,
    IdealSpace,
    annihilators,
    find_unity,
    product_span,
)
from .errors import (
    AnnihilatorNonzero,
    InternalInvariantError,
    NotIdempotent,
    NotMinimal,
)
from .linalg import RatMatrix, Subspace, apply_rows, combine, is_zero_vec, solve
from .radical import complement_algebra, jacobson_radical


class NullSquare:
    """Returned by Brauer's lemma when the minimal ideal squares to zero."""

    def __repr__(self):
        return "NullSquare()"

    def __eq__(self, other):
        return isinstance(other, NullSquare)


def lift_idempotent(x: Element, max_rounds: Optional[int] = None) -> Element:
    """Newton-style idempotent refinement ``e <- 3e^2 - 2e^3``.

    If ``x^2 - x`` lies in a nilpotent ideal the defect squares at each
    round, so the iteration count is bounded by log2 of the nilpotency
    index.
    """
    alg = x.algebra
    rounds = max_rounds if max_rounds is not None else alg.dim.bit_length() + 2
    e = x
    for _ in range(rounds):
        sq = e * e
        if sq == e:
            return e
        e = sq.scale(3) - (sq * e).scale(2)
    if (e * e) == e:
        return e
    raise InternalInvariantError("idempotent lifting failed to terminate")


def find_idempotent(alg: AlgebraPresentation) -> Optional[Element]:
    """A nonzero idempotent when the algebra is not nilpotent, else None.

    Over Q an algebra is nilpotent exactly when it is its own radical J.
    Otherwise the Wedderburn complement of J is a nonzero semisimple
    algebra, and its unity is the idempotent returned.
    """
    radical = jacobson_radical(alg, _verify=False).subspace
    if radical.dim == alg.dim:
        return None
    sub, embed = complement_algebra(alg, radical)
    unity = find_unity(sub)
    if unity is None:
        raise InternalInvariantError("Wedderburn complement of a non-nilpotent algebra has no unity")
    e = alg.element(embed(unity.coords))
    if e.is_zero() or (e * e) != e:
        raise InternalInvariantError("idempotent search returned an invalid element")
    return e


# -- minimal principal one-sided ideals -------------------------------------


def principal_ideal(alg: AlgebraPresentation, a, side: str) -> Subspace:
    """Span of a*A (side='right') or A*a (side='left')."""
    coords = a.coords if isinstance(a, Element) else a
    # a*A is spanned by the columns of L_a, A*a by those of R_a
    rows, _ = alg.operator(coords, "left" if side == "right" else "right")
    return Subspace(alg.dim, zip(*rows))


def _acting(alg: AlgebraPresentation, a, x, side: str) -> tuple:
    """a x on a left ideal, x a on a right one."""
    return alg.multiply_coords(a, x) if side == "left" else alg.multiply_coords(x, a)


def _simple_factors(alg: AlgebraPresentation):
    """The radical J, and the simple factors M_n(D) of a Wedderburn complement in
    the coordinates of the algebra, by increasing n dim D."""
    from .classify import complement_factors  # classify imports this module

    radical = jacobson_radical(alg, _verify=False).subspace
    factors = complement_factors(alg, radical)
    return radical, sorted(factors, key=lambda f: f.matrix_degree * f.division_dim)


def _check_minimal(alg: AlgebraPresentation, space: Subspace, side: str, radical: Subspace, factors):
    """Raise :class:`NotMinimal` unless the one-sided ideal I = ``space`` is minimal.

    When A I = 0 every subspace of I is an ideal, so I is minimal iff it is a
    line.  Otherwise J I is a smaller ideal (Nakayama), so it must vanish;
    then I = A I = S I is a unital S-module, and it is simple iff exactly one
    central idempotent c_i of S acts on it as the identity and dim I is
    n_i dim D_i.  The dimension alone does not do: in Q + Q + M_2 the ideal
    Q + Q has the dimension of the simple M_2-module.
    """
    rows = space.basis_rows()
    if all(principal_ideal(alg, r, side).is_zero() for r in rows):
        if space.dim != 1:
            raise NotMinimal("an ideal that the algebra kills is minimal only if it is a line")
        return

    def fixes(e: Element) -> bool:
        return all(_acting(alg, e.coords, r, side) == r for r in rows)

    if not all(is_zero_vec(_acting(alg, j, r, side)) for j in radical.basis_rows() for r in rows):
        raise NotMinimal("the radical does not annihilate the ideal")
    if not fixes(sum((f.central_idempotent for f in factors), alg.zero_element())):
        raise NotMinimal("the unity of the semisimple part does not act as the identity")
    acting = [f.matrix_degree * f.division_dim for f in factors if fixes(f.central_idempotent)]
    if acting != [space.dim]:
        raise NotMinimal("the ideal is not a simple module of one simple factor")


def minimal_one_sided_ideal(alg: AlgebraPresentation, side: str) -> IdealSpace:
    """A minimal one-sided ideal of least dimension.

    With soc = {x : J x = 0} (x J = 0 on the right) and the factors of the
    complement by increasing n dim D, the first factor whose primitive
    idempotent p has p soc != 0 gives x = p if p lies in soc, else the first
    basis vector of p soc; A x = S x is a copy of the minimal left ideal S p
    and passes the check of :func:`brauer_idempotent`.  Raises
    :class:`AnnihilatorNonzero` when the matching one-sided annihilator is
    nonzero, since some principal ideal is then zero.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    ann1, ann2, _ = annihilators(alg.basis_elements())
    blocking = ann1 if side == "right" else ann2
    if blocking.dim > 0:
        raise AnnihilatorNonzero(f"one-sided annihilator is nonzero (dim {blocking.dim})")
    radical, factors = _simple_factors(alg)
    socle = Subspace.full(alg.dim)
    if not radical.is_zero():
        kill_right, kill_left, _ = annihilators([alg.element(r) for r in radical.basis_rows()])
        socle = (kill_left if side == "left" else kill_right).subspace
    for f in factors:
        x = f.primitive_idempotents[0].coords
        if not socle.contains(x):
            moved = Subspace(alg.dim, [_acting(alg, x, s, side) for s in socle.basis_rows()])
            if moved.is_zero():
                continue
            x = moved.basis_rows()[0]
        space = principal_ideal(alg, x, side)
        _check_minimal(alg, space, side, radical, factors)
        return IdealSpace(alg, space, side)
    raise InternalInvariantError("no simple factor acts on the socle")


def brauer_idempotent(alg: AlgebraPresentation, ideal: IdealSpace):
    """Brauer's lemma: a minimal one-sided ideal squares to zero or is generated
    by an idempotent.

    Minimality is checked first, by the check :func:`minimal_one_sided_ideal`
    uses, and a failure raises :class:`NotMinimal`.  For a minimal left ideal
    I with I^2 != 0, pick a in I with I a != 0; minimality forces
    {x in I : x a = 0} = 0, so e in I with e a = a exists, is unique, and
    e^2 - e annihilates a, hence e is idempotent and I = A e.  Right ideals
    are symmetric.
    """
    if ideal.sidedness not in ("left", "right"):
        raise NotMinimal("brauer_idempotent expects a one-sided ideal")
    side = ideal.sidedness
    space = ideal.subspace
    _check_minimal(alg, space, side, *_simple_factors(alg))
    if product_span(alg, space, space).is_zero():
        return NullSquare()
    rows = space.basis_rows()
    # an anchor a in I with I a != 0 (a I != 0 on the right)
    anchor = next((a for a in rows if any(not is_zero_vec(_acting(alg, v, a, side)) for v in rows)), None)
    if anchor is None:
        raise InternalInvariantError("nonzero square but no anchor found in minimal ideal")
    # solve for e in I with e a = a (a e = a on the right)
    sol = solve(RatMatrix.from_rows(list(zip(*(_acting(alg, r, anchor, side) for r in rows)))), anchor)
    if sol is None:
        raise InternalInvariantError("Brauer solve failed on a certified minimal ideal")
    e = alg.element(combine(sol, rows, alg.dim))
    if e.is_zero() or (e * e) != e:
        raise InternalInvariantError("Brauer element failed idempotency")
    if principal_ideal(alg, e, side) != space:
        raise InternalInvariantError("Brauer idempotent does not regenerate the ideal")
    return e


# -- Pierce decomposition ----------------------------------------------------


def pierce_decomposition(
    alg: AlgebraPresentation, e: Element
) -> Tuple[Subspace, Subspace, Subspace, Subspace]:
    """The four Pierce corners of an idempotent, without assuming a unity.

    Returns images of x -> e x e, x -> e x - e x e, x -> x e - e x e and
    x -> x - e x - x e + e x e, in that order; they sum directly to the
    whole algebra.
    """
    if (e * e) != e:
        raise NotIdempotent("pierce_decomposition requires e^2 = e")
    n = alg.dim
    # integers over s^2, s the operators' scale: column i of L_e is s e e_i,
    # column i of R_e is s e_i e, and R_e applied to s e e_i gives s^2 e e_i e
    left, s = alg.operator(e.coords, "left")
    right, _ = alg.operator(e.coords, "right")
    c11, c10, c01, c00 = [], [], [], []
    for i, (ex, xe) in enumerate(zip(zip(*left), zip(*right))):
        exe = apply_rows(right, ex)
        c11.append(exe)
        c10.append(tuple(s * a - b for a, b in zip(ex, exe)))
        c01.append(tuple(s * a - b for a, b in zip(xe, exe)))
        c00.append(
            tuple(
                (s * s if k == i else 0) - s * (ex_k + xe_k) + exe_k
                for k, (ex_k, xe_k, exe_k) in enumerate(zip(ex, xe, exe))
            )
        )
    return tuple(Subspace(n, c) for c in (c11, c10, c01, c00))

"""Idempotent search, minimal one-sided ideals, Brauer's lemma, Pierce corners.

``find_idempotent`` follows the argument that a non-nilpotent algebra
contains a nonzero idempotent: strip a nonzero one-sided annihilator and
correct the lift of an idempotent of the quotient with ``e = x^2``; when
both annihilators vanish, the unity of a Wedderburn complement is one (the
complement of a non-nilpotent algebra is nonzero).  Minimal principal
one-sided ideals and Brauer's lemma stay available on their own; the
classifier finds primitive idempotents by splitting corners instead.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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
from .linalg import RatMatrix, Subspace, apply_rows, combine, is_zero_vec, solve, unit_vec
from .radical import is_nilpotent, quotient_algebra, radical_complement


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
    """A nonzero idempotent when the algebra is not nilpotent, else None."""
    if is_nilpotent(alg):
        return None
    e = _find_idempotent_nonnil(alg)
    if e is None or e.is_zero() or (e * e) != e:
        raise InternalInvariantError("idempotent search returned an invalid element")
    return e


def _find_idempotent_nonnil(alg: AlgebraPresentation) -> Element:
    n = alg.dim
    if n == 1:
        c = alg.basis_product(0, 0)[0]
        if c == 0:
            raise InternalInvariantError("1-dim non-nilpotent algebra with zero square")
        return alg.element([1 / c])
    ann1, ann2, _ = annihilators(alg.basis_elements())
    for one_sided in (ann1, ann2):
        if one_sided.dim > 0:
            two_sided = IdealSpace(alg, one_sided.subspace, "two-sided")
            quotient, qmap = quotient_algebra(alg, two_sided)
            xbar = _find_idempotent_nonnil(quotient)
            x = alg.element(qmap.lift(xbar.coords))
            return x * x
    # both annihilators vanish: the unity of a Wedderburn complement
    complement = radical_complement(alg)
    sub, embed, _ = alg.subalgebra(complement.subspace, name=f"{alg.name}|S")
    unity = find_unity(sub)
    if unity is None:
        raise InternalInvariantError("Wedderburn complement of a non-nilpotent algebra has no unity")
    return alg.element(embed(unity.coords))


# -- minimal principal one-sided ideals -------------------------------------


def principal_ideal(alg: AlgebraPresentation, a, side: str) -> Subspace:
    """Span of a*A (side='right') or A*a (side='left')."""
    coords = a.coords if isinstance(a, Element) else a
    # a*A is spanned by the columns of L_a, A*a by those of R_a
    rows, _ = alg.operator(coords, "left" if side == "right" else "right")
    return Subspace(alg.dim, zip(*rows))


def _probe_vectors(rows: List[tuple]) -> List[tuple]:
    probes = list(rows)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            probes.append(tuple(a + b for a, b in zip(rows[i], rows[j])))
            probes.append(tuple(a - b for a, b in zip(rows[i], rows[j])))
    return probes


def minimal_one_sided_ideal(alg: AlgebraPresentation, side: str) -> IdealSpace:
    """A principal one-sided ideal of minimal positive dimension.

    Candidates are drawn from basis elements, their pairwise sums and
    differences, and basis products; the dimension-descent loop then shrinks
    the best candidate through principal ideals of its members until the
    minimality certificate holds: every probe vector of the result
    regenerates the whole ideal.

    Requires the matching one-sided annihilator of the algebra to vanish
    (otherwise some principal ideal would be zero and minimality talk breaks
    down); raises :class:`AnnihilatorNonzero` when it does not.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    n = alg.dim
    ann1, ann2, _ = annihilators(alg.basis_elements())
    blocking = ann1 if side == "right" else ann2
    if blocking.dim > 0:
        raise AnnihilatorNonzero(f"one-sided annihilator is nonzero (dim {blocking.dim})")
    candidates = [unit_vec(n, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            candidates.append(tuple(a + b for a, b in zip(candidates[i], candidates[j])))
    for i in range(n):
        for j in range(n):
            p = alg.basis_product(i, j)
            if not is_zero_vec(p):
                candidates.append(p)
    best: Optional[Subspace] = None
    for cand in candidates:
        if is_zero_vec(cand):
            continue
        space = principal_ideal(alg, alg.element(cand), side)
        if space.dim == 0:
            raise AnnihilatorNonzero("a nonzero element generates a zero principal ideal")
        if best is None or space.dim < best.dim:
            best = space
    if best is None:
        raise AnnihilatorNonzero("no candidates in a zero-dimensional algebra")
    # descent: while some member generates a strictly smaller nonzero ideal
    changed = True
    while changed:
        changed = False
        for v in _probe_vectors(best.basis_rows()):
            if is_zero_vec(v):
                continue
            sub = principal_ideal(alg, alg.element(v), side)
            if 0 < sub.dim < best.dim:
                best = sub
                changed = True
                break
    _certify_minimal(alg, best, side)
    return IdealSpace(alg, best, side)


def _certify_minimal(alg: AlgebraPresentation, space: Subspace, side: str):
    """Every probe member must generate the whole ideal.

    The one-sided ideal generated by v is span{v} + A v (or v A); the
    principal ideal alone can be zero in the presence of annihilators, so
    the span of v itself is included.
    """
    for v in _probe_vectors(space.basis_rows()):
        if is_zero_vec(v):
            continue
        generated = principal_ideal(alg, alg.element(v), side).add(
            Subspace(alg.dim, [v])
        )
        if generated != space:
            raise NotMinimal("a member of the ideal fails to regenerate it")


def brauer_idempotent(alg: AlgebraPresentation, ideal: IdealSpace):
    """Brauer's lemma: a minimal one-sided ideal squares to zero or is generated
    by an idempotent.

    For a minimal left ideal I with I^2 != 0, pick a in I with I a != 0;
    minimality forces {x in I : x a = 0} = 0, so e in I with e a = a exists,
    is unique, and e^2 - e annihilates a, hence e is idempotent and
    I = A e.  Right ideals are symmetric.
    """
    if ideal.sidedness not in ("left", "right"):
        raise NotMinimal("brauer_idempotent expects a one-sided ideal")
    side = ideal.sidedness
    space = ideal.subspace
    _certify_minimal(alg, space, side)
    if product_span(alg, space, space).is_zero():
        return NullSquare()
    rows = space.basis_rows()
    n = alg.dim
    anchor = None
    for a in rows:
        if side == "left":
            image = Subspace(n, [alg.multiply_coords(v, a) for v in rows])  # I*a
        else:
            image = Subspace(n, [alg.multiply_coords(a, v) for v in rows])  # a*I
        if not image.is_zero():
            anchor = a
            break
    if anchor is None:
        raise InternalInvariantError("nonzero square but no anchor found in minimal ideal")
    # solve for e in I with e*a = a (left) or a*e = a (right)
    cols = []
    for r in rows:
        prod = (
            alg.multiply_coords(r, anchor) if side == "left" else alg.multiply_coords(anchor, r)
        )
        cols.append(prod)
    system = RatMatrix.from_rows([[cols[j][k] for j in range(len(rows))] for k in range(n)])
    sol = solve(system, anchor)
    if sol is None:
        raise InternalInvariantError("Brauer solve failed on a certified minimal ideal")
    e = alg.element(combine(sol, rows, n))
    if e.is_zero() or (e * e) != e:
        raise InternalInvariantError("Brauer element failed idempotency")
    regenerated = principal_ideal(alg, e, side)
    # e itself may sit outside span(e*A) only in non-unital corner cases;
    # the ideal it generates must still be the given one.
    if regenerated != space:
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
    return (
        Subspace(n, c11),
        Subspace(n, c10),
        Subspace(n, c01),
        Subspace(n, c00),
    )
